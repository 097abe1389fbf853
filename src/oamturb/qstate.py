"""Two-qubit X states in the OAM basis {|l0,l0>, |l0,-l0>, |-l0,l0>, |-l0,-l0>}
and the action of the turbulence channel on them.
"""

import cmath
import collections
import math

_TRACE_TOL = 1e-12
_POS_TOL = 1e-12


def _checked_record(typename: str, field_names: str):
    """The namedtuple base of a record whose subclass checks its fields in
    __new__.  Its _make, and so _replace, builds through cls(*iterable), so
    that no construction path skips the check; pickle and copy call __new__."""
    base = collections.namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class WernerParams(_checked_record("WernerParams", "gamma theta phi")):
    """Extended Werner-like input state: white noise of weight 1-gamma mixed
    with the Bell-like state cos(theta/2)|l0,-l0> + e^{i phi} sin(theta/2)|-l0,l0>."""

    __slots__ = ()

    def __new__(cls, gamma: float, theta: float, phi: float = 0.0):
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"purity gamma must lie in [0, 1], got {gamma}")
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {theta}")
        if not 0.0 <= phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2pi), got {phi}")
        return tuple.__new__(cls, (gamma, theta, phi))


class XState(_checked_record("XState", "d11 d22 d33 d44 c14 c23")):
    """Two-qubit density matrix in X form: diagonal (d11..d44) plus the two
    anti-diagonal coherences c14 and c23."""

    __slots__ = ()

    def __new__(cls, d11: float, d22: float, d33: float, d44: float,
                c14: complex = 0j, c23: complex = 0j):
        d = (d11, d22, d33, d44)
        if min(d) < -_POS_TOL:
            raise ValueError(f"negative population in X state: {d}")
        # negated comparisons, so that a NaN entry fails them
        if not abs(sum(d) - 1.0) <= _TRACE_TOL:
            raise ValueError(f"X state trace {sum(d)} != 1")
        # a block [[p, c], [c*, q]] with p + q >= -2 eps has its smaller
        # eigenvalue >= -eps exactly when |c|^2 <= p q + eps (p + q + eps)
        eps = _POS_TOL
        if not abs(c14) ** 2 <= d11 * d44 + eps * (d11 + d44 + eps):
            raise ValueError("outer block of X state not positive: |c14|^2 > d11*d44")
        if not abs(c23) ** 2 <= d22 * d33 + eps * (d22 + d33 + eps):
            raise ValueError("inner block of X state not positive: |c23|^2 > d22*d33")
        return tuple.__new__(cls, (d11, d22, d33, d44, c14, c23))


class ChannelCoefficients(_checked_record("ChannelCoefficients", "a b err_a err_b")):
    """Survival amplitude a and crosstalk amplitude b with quadrature error bounds."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, err_a: float = 0.0, err_b: float = 0.0):
        if not 0.0 < a <= 1.0 + 1e-10:
            raise ValueError(f"survival coefficient out of range: a = {a}")
        if b < 0.0:
            raise ValueError(f"crosstalk coefficient negative: b = {b}")
        # relative to a, which |cos| <= 1 makes every quadrature b meet;
        # negated, so that a NaN b fails it
        if not b <= a * (1.0 + 1e-10):
            raise ValueError(f"crosstalk exceeds survival: a = {a}, b = {b}")
        if not (err_a >= 0.0 and err_b >= 0.0):
            raise ValueError(f"error bounds must be non-negative, got err_a = {err_a}, "
                             f"err_b = {err_b}")
        return tuple.__new__(cls, (a, b, err_a, err_b))


def werner_like(w: WernerParams) -> XState:
    """Input X state of purity gamma.

    The white-noise term contributes (1-gamma)/4 to the diagonal only; the
    coherence is c23 = (gamma/2) e^{-i phi} sin(theta).
    """
    gamma, theta, phi = w
    e = (1.0 - gamma) / 4.0
    half = 0.5 * theta
    return XState(e, e + gamma * math.cos(half) ** 2, e + gamma * math.sin(half) ** 2, e,
                  0j, 0.5 * gamma * cmath.exp(-1j * phi) * math.sin(theta))


def apply_channel(s: XState, cc: ChannelCoefficients) -> XState:
    """Push an X state through the two-photon turbulence channel.

    The map reads (a, b) only as the crosstalk ratio t = b/a, so any a > 0
    gives a state: populations mix with weights {1, t, t, t^2} rotated per
    row, coherences with weight 1, all divided by (1+t)^2.  XState checks
    the output (unit trace, positivity).
    """
    t = cc.b / cc.a
    tt = t * t
    norm = (1.0 + t) ** 2
    scale = 1.0 / norm
    d1, d2, d3, d4, c14, c23 = s
    return XState(
        (d1 + t * d2 + t * d3 + tt * d4) / norm,
        (t * d1 + d2 + tt * d3 + t * d4) / norm,
        (t * d1 + tt * d2 + d3 + t * d4) / norm,
        (tt * d1 + t * d2 + t * d3 + d4) / norm,
        scale * c14,
        scale * c23,
    )


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
