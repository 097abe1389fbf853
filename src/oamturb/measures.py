"""Quantumness measures for two-qubit X states, all in closed form from the
two 2x2 X blocks: Wootters concurrence (from the X entries, or directly from
the channel coefficients), relative entropy of coherence, and local quantum
uncertainty (LQU).
"""

import cmath
import math
from typing import NamedTuple

from .qstate import _POS_TOL, ChannelCoefficients, WernerParams, XState

_TIE_BAND = 1e-12


class MeasureTriple(NamedTuple):
    """The three quantifiers of one state, plus the index of the maximal
    LQU eigenvalue branch (for sudden-change detection)."""

    concurrence: float
    coherence_rel_ent: float
    lqu: float
    lqu_branch: int


def concurrence_x(s: XState) -> float:
    """Wootters concurrence of an X state:
    2 max{0, |c14| - sqrt(d22 d33), |c23| - sqrt(d11 d44)}."""
    return measure_triple(s).concurrence


def concurrence_analytic(w: WernerParams, cc: ChannelCoefficients) -> float:
    """Closed-form concurrence of the Werner-like state through the channel,
    with t = b/a: max{0, gamma (sin(theta) - 2t)/(1+t)^2 - (1-gamma)/2}."""
    t = cc.b / cc.a
    val = (w.gamma * math.sin(w.theta) - 2.0 * t * w.gamma) / (1.0 + t) ** 2
    return max(0.0, val - 0.5 * (1.0 - w.gamma))


def von_neumann_entropy(eigs) -> float:
    """Entropy -sum l log2 l in bits, with 0 log 0 = 0.  An entry in
    [-1e-12, 0], the round-off floor that XState and eigenvalues_x allow,
    counts as zero; an entry below it, a NaN, or a sum away from 1 raises."""
    total = entropy = 0.0
    for v in eigs:
        v = float(v)
        if v > 0.0:
            total += v
            entropy -= v * math.log2(v)
        elif math.isnan(v):
            raise ValueError("NaN eigenvalue, not a density spectrum")
        elif v < -_POS_TOL:
            raise ValueError(f"eigenvalue {v} below -{_POS_TOL}, not a density spectrum")
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"eigenvalues sum to {total}, not a density spectrum")
    return entropy


def rel_entropy_coherence(s: XState) -> float:
    """Relative entropy of coherence S(rho_diag) - S(rho), the entropy cost of
    deleting the off-diagonal elements."""
    return measure_triple(s).coherence_rel_ent


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
    d11, d22, d33, d44, c14, c23 = s
    r11, r44, r14 = block_sqrt(d11, d44, c14)
    r22, r33, r23 = block_sqrt(d22, d33, c23)
    m14, m23 = abs(r14), abs(r23)
    w_zz = r11 * r11 + r22 * r22 + r33 * r33 + r44 * r44 - 2.0 * (m14 * m14 + m23 * m23)
    split = 4.0 * m14 * m23
    w_xy = 2.0 * (r11 * r33 + r22 * r44) + split
    if w_zz - w_xy > _TIE_BAND:
        branch = 3
    elif 2.0 * split <= _TIE_BAND:
        branch = 1
    else:
        psi = 0.5 * (cmath.phase(c14) + cmath.phase(c23))
        branch = 1 if abs(math.cos(psi)) >= abs(math.sin(psi)) else 2
    return min(1.0, max(0.0, 1.0 - max(w_zz, w_xy))), branch


def measure_triple(s: XState) -> MeasureTriple:
    """All three quantifiers of one X state, in one pass over its fields.

    The concurrence is concurrence_x's formula, and the entropy of coherence
    is von_neumann_entropy of the populations less that of eigenvalues_x(s),
    each written out here in the same operation order, with the same checks;
    the LQU comes from lqu.
    """
    d11, d22, d33, d44, c14, c23 = s
    m14, m23 = abs(c14), abs(c23)
    concurrence = 2.0 * max(0.0, m14 - math.sqrt(max(d22 * d33, 0.0)),
                            m23 - math.sqrt(max(d11 * d44, 0.0)))
    # the block eigenvalues m +/- h; below the floor raises, within it counts as zero
    h_outer = math.hypot(0.5 * (d11 - d44), m14)
    h_inner = math.hypot(0.5 * (d22 - d33), m23)
    m_outer = 0.5 * (d11 + d44)
    m_inner = 0.5 * (d22 + d33)
    eigs = (m_outer + h_outer, m_outer - h_outer, m_inner + h_inner, m_inner - h_inner)
    if min(eigs) < -_POS_TOL:
        raise ValueError(f"X state eigenvalue below -{_POS_TOL}: {min(eigs)}")
    # the populations' entropy, then the spectrum's: after both passes the
    # swap leaves them in s_diag and s_full
    s_diag = s_full = 0.0
    log2 = math.log2
    for spectrum in ((d11, d22, d33, d44), eigs):
        total = entropy = 0.0
        for v in spectrum:
            if v > 0.0:
                total += v
                entropy -= v * log2(v)
            elif math.isnan(v):
                raise ValueError("NaN eigenvalue, not a density spectrum")
            elif v < -_POS_TOL:
                raise ValueError(f"eigenvalue {v} below -{_POS_TOL}, not a density spectrum")
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"eigenvalues sum to {total}, not a density spectrum")
        s_diag, s_full = s_full, entropy
    value, branch = lqu(s)
    # float(), as von_neumann_entropy's, keeps numpy-scalar fields from leaking
    return MeasureTriple(concurrence, float(max(0.0, s_diag - s_full)), value, branch)
