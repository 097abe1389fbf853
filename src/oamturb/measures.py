"""Quantumness measures for two-qubit X states, all in closed form from the
two 2x2 X blocks: Wootters concurrence (from the X entries, or directly from
the channel coefficients), relative entropy of coherence, and local quantum
uncertainty (LQU).
"""

import cmath
import math
from dataclasses import dataclass

from .qstate import WernerParams, XState, eigenvalues_x
from .turbulence import ChannelCoefficients

_TIE_BAND = 1e-12


@dataclass(frozen=True)
class MeasureTriple:
    """The three quantifiers of one state, plus the index of the maximal
    LQU eigenvalue branch (for sudden-change detection)."""

    concurrence: float
    coherence_rel_ent: float
    lqu: float
    lqu_branch: int


def concurrence_x(s: XState) -> float:
    """Wootters concurrence of an X state:
    2 max{0, |c14| - sqrt(d22 d33), |c23| - sqrt(d11 d44)}."""
    inner = abs(s.c14) - math.sqrt(max(s.d22 * s.d33, 0.0))
    outer = abs(s.c23) - math.sqrt(max(s.d11 * s.d44, 0.0))
    return 2.0 * max(0.0, inner, outer)


def concurrence_analytic(w: WernerParams, cc: ChannelCoefficients) -> float:
    """Closed-form concurrence of the Werner-like state through the channel:
    max{0, (a^2 gamma sin(theta) - 2 a b gamma)/(a+b)^2 - (1-gamma)/2}."""
    a, b = cc.a, cc.b
    val = (a * a * w.gamma * math.sin(w.theta) - 2.0 * a * b * w.gamma) / (a + b) ** 2
    return max(0.0, val - 0.5 * (1.0 - w.gamma))


def von_neumann_entropy(eigs) -> float:
    """Entropy -sum l log2 l in bits, with 0 log 0 = 0; negative eigenvalues
    count as zero."""
    total = entropy = 0.0
    for v in eigs:
        v = float(v)
        if v > 0.0:
            total += v
            entropy -= v * math.log2(v)
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"eigenvalues sum to {total}, not a density spectrum")
    return entropy


def rel_entropy_coherence(s: XState) -> float:
    """Relative entropy of coherence S(rho_diag) - S(rho), the entropy cost of
    deleting the off-diagonal elements."""
    s_diag = von_neumann_entropy((s.d11, s.d22, s.d33, s.d44))
    s_full = von_neumann_entropy(eigenvalues_x(s))
    return max(0.0, s_diag - s_full)


def block_sqrt(p: float, q: float, c: complex) -> tuple[float, float, complex]:
    """Square root (r_pp, r_qq, r_pq) of the PSD block [[p, c], [c*, q]]:
    (block + s I)/t with s = sqrt(det) and t = sqrt(trace + 2 s).  A zero
    block has a zero root."""
    s = math.sqrt(max(p * q - abs(c) ** 2, 0.0))
    t = math.sqrt(max(p + q + 2.0 * s, 0.0))
    if t == 0.0:
        return 0.0, 0.0, 0j
    return (p + s) / t, (q + s) / t, c / t


def lqu(s: XState) -> tuple[float, int]:
    """Local quantum uncertainty 1 - lambda_max(W), clamped to [0, 1], and the
    1-based Pauli axis (x, y, z) of the maximal eigenvalue of W.

    For an X state W is block diagonal: W_zz, and an xy block with
    eigenvalues D +/- 4 m14 m23 whose larger eigenvector lies at the angle
    (arg c14 + arg c23)/2 (Girolami, Tufarelli & Adesso, PRL 110, 240402).
    Eigenvalues within 1e-12 of the maximum tie and resolve to the lowest
    axis.
    """
    r11, r44, r14 = block_sqrt(s.d11, s.d44, s.c14)
    r22, r33, r23 = block_sqrt(s.d22, s.d33, s.c23)
    m14, m23 = abs(r14), abs(r23)
    w_zz = r11 * r11 + r22 * r22 + r33 * r33 + r44 * r44 - 2.0 * (m14 * m14 + m23 * m23)
    split = 4.0 * m14 * m23
    w_xy = 2.0 * (r11 * r33 + r22 * r44) + split
    if w_zz - w_xy > _TIE_BAND:
        branch = 3
    elif 2.0 * split <= _TIE_BAND:
        branch = 1
    else:
        psi = 0.5 * (cmath.phase(s.c14) + cmath.phase(s.c23))
        branch = 1 if abs(math.cos(psi)) >= abs(math.sin(psi)) else 2
    return min(1.0, max(0.0, 1.0 - max(w_zz, w_xy))), branch


def measure_triple(s: XState) -> MeasureTriple:
    """All three quantifiers of one X state."""
    value, branch = lqu(s)
    return MeasureTriple(
        concurrence=concurrence_x(s),
        coherence_rel_ent=rel_entropy_coherence(s),
        lqu=value,
        lqu_branch=branch,
    )
