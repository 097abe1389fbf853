"""Kolmogorov turbulence channel: structure function, Fried parameter, and the
survival/crosstalk coefficients of the single-photon OAM map.

The map element between modes of the {+l0, -l0} subspace reduces, after the
angular selection rule, to

    (1/2pi) int_0^inf dr r R(r)^2 int_0^2pi dtheta e^{-i n theta}
            exp(-D_phi(2 r |sin(theta/2)|)/2)

with n = 0 for the survival amplitude a and n = 2 l0 for the crosstalk
amplitude b.  Substituting u = 2 r^2/w0^2 turns the radial measure into the
normalized weight u^|l0| L_{p0}^{|l0|}(u)^2 e^-u p0!/(p0+|l0|)!, so the result
depends on (w0/r0, l0, p0) only.  The kernel is symmetric under
theta -> 2pi - theta, so both are real cosine integrals over [0, pi].

Both integrals use one tensor-product Gauss-Legendre rule after the
substitutions u = u_max s^6 and theta = pi t^3, which turn the u^(5/6) and
sin(theta/2)^(5/3) endpoint singularities into smooth powers s^5 and t^5.
Each rule divides its sums by its own quadrature of the radial weight, whose
exact mass is 1.  The rule size grows by about sqrt(2) per step until two
successive sizes agree to the tolerance.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .lgmath import BeamParams, laguerre, phase_correlation_length
from .qstate import ChannelCoefficients

# Kolmogorov phase structure function constant: D = 6.88 (d/r0)^(5/3)
STRUCTURE_CONSTANT = 6.88

# Relative mass allowed beyond the radial truncation point.
_TAIL_MASS = 1e-16

# b values in (-NEGATIVE_B_TOL, 0) are quadrature noise and clamp to zero.
NEGATIVE_B_TOL = 1e-10

# (radial, angular) rule sizes, about sqrt(2) apart, tried in order until two
# successive sizes agree.  The small ratio stops the certifying pair just above
# the size the integrand needs.
_RULE_SIZES = ((32, 64), (45, 90), (64, 128), (90, 180), (128, 256), (181, 362), (256, 512))

# Angular nodes a rule must place inside the theta ~ 0 peak before its
# difference from the next size is trusted as an error estimate; below this,
# two under-resolved rules can agree on a wrong value.
_PEAK_NODES = 8

# Round-off floor of an error estimate, relative to the sum of |terms|
# (the QUADPACK 50 eps convention).
_ROUNDOFF = 50.0 * sys.float_info.epsilon

# Floor of the kernel exponent.  numpy's exp leaves its fast path below about
# -708 and is 20-200x slower there; a floored term is below e^-700 ~ 1e-304
# times its weights, and a rule has at most 256x512 terms, so the sums move
# by less than 1e-297, far below the round-off floor of the error estimate.
_EXP_FLOOR = -700.0

# Gauss-Legendre nodes and weights on [0, 1], per size, filled on first use.
# Kept apart from _RULES because the sizes 64, 90, 128 and 256 each serve two
# ladder steps, once as a radial and once as an angular size.
_GAUSS = {}

# The input-free tables of _rule, per _RULE_SIZES step, filled on first use.
_RULES = {}


class ConvergenceFailure(RuntimeError):
    """Quadrature could not reach the requested tolerance."""


@dataclass(frozen=True)
class TurbulenceParams:
    """Turbulence strength via the Fried parameter r0 (same length unit as the
    beam waist).  ``math.inf`` encodes the no-turbulence limit."""

    fried_r0: float

    def __post_init__(self):
        if not self.fried_r0 > 0:
            raise ValueError(f"Fried parameter must be positive, got {self.fried_r0}")

    @classmethod
    def from_physical(cls, Cn2: float, k: float, L: float) -> "TurbulenceParams":
        """Construct from structure constant Cn2 [m^-2/3], wavenumber k [1/m]
        and path length L [m]."""
        return cls(fried_parameter(Cn2, k, L))


def phase_structure(separation: float, turb: TurbulenceParams) -> float:
    """Kolmogorov phase structure function D_phi = 6.88 (separation/r0)^(5/3);
    inf where that exceeds the float range."""
    if not separation >= 0:
        raise ValueError(f"separation must be non-negative, got {separation}")
    if separation == 0.0:
        return 0.0
    try:
        return STRUCTURE_CONSTANT * (separation / turb.fried_r0) ** (5.0 / 3.0)
    except OverflowError:
        return math.inf


def fried_parameter(Cn2: float, k: float, L: float) -> float:
    """Fried parameter r0 = (0.423 Cn2 k^2 L)^(-3/5)."""
    if not (Cn2 > 0 and k > 0 and L > 0):
        raise ValueError(f"Cn2, k, L must all be positive, got ({Cn2}, {k}, {L})")
    return (0.423 * Cn2 * k * k * L) ** (-3.0 / 5.0)


def x_ratio(beam: BeamParams, turb: TurbulenceParams) -> float:
    """Dimensionless turbulence strength x = xi(l0)/r0."""
    if math.isinf(turb.fried_r0):
        return 0.0
    return phase_correlation_length(beam) / turb.fried_r0


def r0_from_x(beam: BeamParams, x: float) -> TurbulenceParams:
    """Fried parameter realizing strength x, the inverse of x_ratio.

    x = 0 is accepted as the symbolic no-turbulence limit (r0 = inf,
    handled by channel_ab without quadrature); x < 0, inf and nan are
    rejected.
    """
    if not x >= 0:
        raise ValueError(f"turbulence strength x must be non-negative, got {x}")
    if x == math.inf:
        raise ValueError("turbulence strength x must be finite")
    if x == 0.0:
        return TurbulenceParams(math.inf)
    return TurbulenceParams(phase_correlation_length(beam) / x)


def _c_scale(beam: BeamParams, turb: TurbulenceParams) -> float:
    # exponent of the angular kernel: c(u) = c_scale * u^(5/6), from
    # D_phi(2 r |sin(theta/2)|)/2 with r = w0 sqrt(u/2)
    return 0.5 * phase_structure(math.sqrt(2.0) * beam.waist, turb)


def _u_max(beam: BeamParams) -> float:
    # cut the radial tail where the remaining weight mass is below _TAIL_MASS.
    # Past the last Laguerre zero the weight is at most C = (|l|+2p)!/(p! (p+|l|)!)
    # times the Gamma(k) density, k = |l| + 2p + 1, whose tail beyond k t the
    # Chernoff bound caps at exp(-k (t - 1 - ln t)); t solves that = _TAIL_MASS/C.
    # Newton's method on this convex equation nears the root from above, so
    # every step is a valid cut.
    k = abs(beam.l0) + 2 * beam.p0 + 1
    r = (math.log(math.comb(k - 1, beam.p0)) - math.log(_TAIL_MASS)) / k
    t = 1.0 + r + math.sqrt(2.0 * r)
    for _ in range(4):
        t -= (t - 1.0 - math.log(t) - r) / (1.0 - 1.0 / t)
    return k * t


def _legendre(n: int, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def _gauss01(n: int):
    """n-point Gauss-Legendre nodes and weights on [0, 1]: Newton's method
    on P_n from Tricomi's approximate nodes, which are good to O(n^-4).

    scipy's roots_legendre weights are off by about 3e-14 from n = 128 on,
    more than the round-off floor of the error estimate.
    """
    rule = _GAUSS.get(n)
    if rule is None:
        k = np.arange(1, n + 1)
        nodes = (1.0 - (n - 1.0) / (8.0 * n ** 3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
        for _ in range(3):
            p, dp = _legendre(n, nodes)
            nodes = nodes - p / dp
        dp = _legendre(n, nodes)[1]
        rule = _GAUSS[n] = (0.5 * (nodes + 1.0), 1.0 / ((1.0 - nodes ** 2) * dp ** 2))
    return rule


def _rule(n_u: int, n_th: int):
    """The input-free tables of the (n_u, n_th) rule in s and t, u = u_max s^6
    and theta = pi t^3: the (n_u, 4) radial table (log(6 w_s s^5), log s^6,
    s^6, 1), whose product with (1, |l0|, -u_max, shift) is the log radial
    weight; the theta nodes and weights (over pi); and the kernel exponent
    over c(u_max), s^5 (-sin(theta/2)^(5/3)), since c(u) = c(u_max) s^5."""
    rule = _RULES.get((n_u, n_th))
    if rule is None:
        s, ws = _gauss01(n_u)
        t, wt = _gauss01(n_th)
        s6, theta = s ** 6, math.pi * t ** 3
        rule = _RULES[n_u, n_th] = (
            np.column_stack((np.log(ws * 6.0 * s ** 5), np.log(s6), s6, np.ones(n_u))),
            theta, wt * 3.0 * t ** 2,  # dtheta/dt = 3 pi t^2, over pi
            np.outer(s ** 5, -np.sin(0.5 * theta) ** (5.0 / 3.0)))
    return rule


def channel_ab(beam: BeamParams, turb: TurbulenceParams, tol: float = 1e-9) -> ChannelCoefficients:
    """Survival and crosstalk coefficients (a, b) of the turbulence map.

    err_a and err_b bound |a - a_true| and |b - b_true|, each at most tol.
    Raises ValueError if tol is not positive, and ConvergenceFailure if the
    theta ~ 0 peak is too narrow for the rules, if the radial weight
    overflows the float range, or if the largest rule still misses tol.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    c_scale = _c_scale(beam, turb)
    if c_scale == 0.0:
        # r0 = inf, or turbulence so weak that the kernel exponent underflows
        return ChannelCoefficients(1.0, 0.0, 0.0, 0.0)
    labs, p0 = abs(beam.l0), beam.p0
    umax = _u_max(beam)
    cu_max = c_scale * umax ** (5.0 / 6.0)
    # log of each node's weight w_s du/ds u^|l| e^-u p!/(p+|l|)!, du/ds = 6 umax s^5,
    # as the radial table of _rule times coef.  Any constant in the log weight
    # cancels against the rule's mass; this one makes it the unit-mass weight,
    # so it overflows only where that does
    coef = np.array((1.0, labs, -umax, (labs + 1) * math.log(umax)
                     + math.lgamma(p0 + 1.0) - math.lgamma(p0 + labs + 1.0)))
    # In t the kernel is about exp(-c (pi/2)^(5/3) t^5), narrowest at u_max,
    # and an n-point Gauss rule on [0, 1] has about 2 n sqrt(t)/pi nodes below t.
    peak = (cu_max * (0.5 * math.pi) ** (5.0 / 3.0)) ** -0.2
    sizes = [size for size in _RULE_SIZES
             if 2.0 * size[1] * math.sqrt(peak) / math.pi >= _PEAK_NODES]
    if len(sizes) < 2:
        raise ConvergenceFailure(
            "channel integral: turbulence too strong to resolve "
            f"(l0={beam.l0}, p0={p0}, x={x_ratio(beam, turb):.6g})")
    coarse = None
    # the Laguerre recurrence may overflow, which the mass check reports
    with np.errstate(over="ignore", invalid="ignore"):
        for n_u, n_th in sizes:
            table, theta, w_theta, exponent = _rule(n_u, n_th)
            log_w = table @ coef
            if p0:
                # times L_p^|l|(u)^2 at u = umax s^6, squared after the
                # product so that only a weight beyond the float range overflows
                radial = (np.exp(0.5 * log_w) * laguerre(p0, labs, umax * table[:, 2])) ** 2
            else:
                radial = np.exp(log_w)
            # radial >= 0, so a weight beyond the float range leaves the mass inf or nan
            mass = float(radial.sum())
            if not math.isfinite(mass):
                raise ConvergenceFailure(
                    "channel integral: the radial weight overflows the float range at "
                    f"p0={p0} (l0={beam.l0})")
            # the kernel, floored and exponentiated in place: ~1 MB at 256x512
            kernel = cu_max * exponent
            np.maximum(kernel, _EXP_FLOOR, out=kernel)
            np.exp(kernel, out=kernel)
            # one product against the columns w, cos(2 l0 theta) w and |cos(2 l0 theta) w|;
            # radial, kernel and w are positive, so a is also its own sum of |terms|
            cos_w = np.cos(2 * labs * theta) * w_theta
            sums = radial @ (kernel @ np.array((w_theta, cos_w, np.abs(cos_w))).T)
            del kernel  # so that no two rules' kernels are alive at once
            a, b, abs_b = [v / mass for v in sums.tolist()]
            # each error estimate is |fine - coarse|, floored by the round-off of the finer sum
            if coarse is not None:
                err_a = max(abs(a - coarse[0]), _ROUNDOFF * a + _TAIL_MASS)
                err_b = max(abs(b - coarse[1]), _ROUNDOFF * abs_b + _TAIL_MASS)
                if err_a <= tol and err_b <= tol:
                    break
            coarse = a, b
        else:
            raise ConvergenceFailure(
                f"channel integral did not reach tol={tol} with a {n_u}x{n_th} rule "
                f"(l0={beam.l0}, p0={p0}, x={x_ratio(beam, turb):.6g}); "
                f"last error estimate {max(err_a, err_b):.3g}")
    if b < 0.0:
        if b < -NEGATIVE_B_TOL:
            raise ConvergenceFailure(
                f"crosstalk coefficient b = {b} is negative beyond quadrature noise")
        b = 0.0
    a = min(a, 1.0)
    return ChannelCoefficients(a, b, err_a, err_b)
