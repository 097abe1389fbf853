"""Two-qubit X states in the OAM basis {|l0,l0>, |l0,-l0>, |-l0,l0>, |-l0,-l0>}
and the action of the turbulence channel on them.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .turbulence import ChannelCoefficients

_TRACE_TOL = 1e-12
_POS_TOL = 1e-12


class DegenerateChannel(ValueError):
    """Channel coefficients with a + b ~ 0 leave no state to normalize."""


@dataclass(frozen=True)
class WernerParams:
    """Extended Werner-like input state: white noise of weight 1-gamma mixed
    with the Bell-like state cos(theta/2)|l0,-l0> + e^{i phi} sin(theta/2)|-l0,l0>."""

    gamma: float
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"purity gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2pi), got {self.phi}")


@dataclass(frozen=True)
class XState:
    """Two-qubit density matrix in X form: diagonal (d11..d44) plus the two
    anti-diagonal coherences c14 and c23."""

    d11: float
    d22: float
    d33: float
    d44: float
    c14: complex = 0j
    c23: complex = 0j

    def __post_init__(self):
        d = (self.d11, self.d22, self.d33, self.d44)
        if min(d) < -_POS_TOL:
            raise ValueError(f"negative population in X state: {d}")
        if abs(sum(d) - 1.0) > _TRACE_TOL:
            raise ValueError(f"X state trace {sum(d)} != 1")
        if abs(self.c14) ** 2 > self.d11 * self.d44 + _POS_TOL:
            raise ValueError("outer block of X state not positive: |c14|^2 > d11*d44")
        if abs(self.c23) ** 2 > self.d22 * self.d33 + _POS_TOL:
            raise ValueError("inner block of X state not positive: |c23|^2 > d22*d33")

    @property
    def populations(self) -> np.ndarray:
        return np.array([self.d11, self.d22, self.d33, self.d44])


def werner_like(w: WernerParams) -> XState:
    """Input X state of purity gamma.

    The white-noise term contributes (1-gamma)/4 to the diagonal only; the
    coherence is c23 = (gamma/2) e^{-i phi} sin(theta).
    """
    e = (1.0 - w.gamma) / 4.0
    half = 0.5 * w.theta
    return XState(
        d11=e,
        d22=e + w.gamma * math.cos(half) ** 2,
        d33=e + w.gamma * math.sin(half) ** 2,
        d44=e,
        c14=0j,
        c23=0.5 * w.gamma * cmath.exp(-1j * w.phi) * math.sin(w.theta),
    )


def apply_channel(s: XState, cc: ChannelCoefficients) -> XState:
    """Push an X state through the two-photon turbulence channel.

    Populations mix with weights {a^2, ab, ab, b^2} rotated per row,
    coherences scale by a^2, everything divided by (a+b)^2; for unit-trace
    input the division renormalizes exactly (asserted).
    """
    a, b = cc.a, cc.b
    norm = (a + b) ** 2
    if norm <= 1e-14:
        raise DegenerateChannel(f"a + b = {a + b} too small to normalize the output")
    aa, ab, bb = a * a, a * b, b * b
    d1, d2, d3, d4 = s.d11, s.d22, s.d33, s.d44
    out = (
        (aa * d1 + ab * d2 + ab * d3 + bb * d4) / norm,
        (ab * d1 + aa * d2 + bb * d3 + ab * d4) / norm,
        (ab * d1 + bb * d2 + aa * d3 + ab * d4) / norm,
        (bb * d1 + ab * d2 + ab * d3 + aa * d4) / norm,
    )
    assert abs(sum(out) - 1.0) < 1e-12, "channel failed to preserve trace"
    scale = aa / norm
    return XState(*out, scale * s.c14, scale * s.c23)


def eigenvalues_x(s: XState) -> tuple[float, float, float, float]:
    """Eigenvalues of the X state from its two 2x2 blocks, clamped at zero.

    Order: outer block (d11/d44 with c14) +/-, then inner block (d22/d33
    with c23) +/-.
    """
    h_outer = math.hypot(0.5 * (s.d11 - s.d44), abs(s.c14))
    h_inner = math.hypot(0.5 * (s.d22 - s.d33), abs(s.c23))
    m_outer = 0.5 * (s.d11 + s.d44)
    m_inner = 0.5 * (s.d22 + s.d33)
    eigs = (m_outer + h_outer, m_outer - h_outer, m_inner + h_inner, m_inner - h_inner)
    if min(eigs) < -_POS_TOL:
        raise ValueError(f"X state eigenvalue below -{_POS_TOL}: {min(eigs)}")
    return max(eigs[0], 0.0), max(eigs[1], 0.0), max(eigs[2], 0.0), max(eigs[3], 0.0)
