"""Kolmogorov turbulence channel: structure function, Fried parameter, and the
survival/crosstalk coefficients of the single-photon OAM map.

The map element between modes of the {+l0, -l0} subspace reduces, after the
angular selection rule, to

    (1/2pi) int_0^inf dr r R(r)^2 int_0^2pi dtheta e^{-i n theta}
            exp(-D_phi(2 r |sin(theta/2)|)/2)

with n = 0 for the survival amplitude a and n = 2 l0 for the crosstalk
amplitude b.  Substituting u = 2 r^2/w0^2 turns the radial measure into the
normalized weight u^|l0| L_{p0}^{|l0|}(u)^2 e^-u p0!/(p0+|l0|)!, so the result
depends on (w0/r0, l0, p0) only.

Both integrals use one tensor-product Gauss-Legendre rule after the
substitutions u = u_max s^6 and theta = pi t^3, which turn the u^(5/6) and
sin(theta/2)^(5/3) endpoint singularities into smooth powers s^5 and t^5.
The rule size doubles until two successive sizes agree to the tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .lgmath import BeamParams, phase_correlation_length, radial_amplitude

# Kolmogorov phase structure function constant: D = 6.88 (d/r0)^(5/3)
STRUCTURE_CONSTANT = 6.88

# Relative mass allowed beyond the radial truncation point.
_TAIL_MASS = 1e-16

# b values in (-NEGATIVE_B_TOL, 0) are quadrature noise and clamp to zero.
NEGATIVE_B_TOL = 1e-10

# (radial, angular) rule sizes, tried in order until two successive sizes agree.
_RULE_SIZES = ((32, 64), (64, 128), (128, 256), (256, 512))

# Angular nodes a rule must place inside the theta ~ 0 peak before its
# difference from the next size is trusted as an error estimate; below this,
# two under-resolved rules can agree on a wrong value.
_PEAK_NODES = 8

# Round-off floor of an error estimate, relative to the sum of |terms|
# (the QUADPACK 50 eps convention).
_ROUNDOFF = 50.0 * np.finfo(float).eps

# Gauss-Legendre nodes and weights on [0, 1], per size, filled on first use.
_GAUSS = {}


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


@dataclass(frozen=True)
class ChannelCoefficients:
    """Survival amplitude a and crosstalk amplitude b with quadrature error bounds."""

    a: float
    b: float
    err_a: float = 0.0
    err_b: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.a <= 1.0 + 1e-10:
            raise ValueError(f"survival coefficient out of range: a = {self.a}")
        if self.b < 0.0:
            raise ValueError(f"crosstalk coefficient negative: b = {self.b}")
        if abs(self.b) > self.a + 1e-10:
            raise ValueError(f"crosstalk exceeds survival: a = {self.a}, b = {self.b}")


def phase_structure(separation: float, turb: TurbulenceParams) -> float:
    """Kolmogorov phase structure function D_phi = 6.88 (separation/r0)^(5/3);
    inf where that exceeds the float range."""
    if separation < 0:
        raise ValueError(f"separation must be non-negative, got {separation}")
    if separation == 0.0:
        return 0.0
    try:
        return STRUCTURE_CONSTANT * (separation / turb.fried_r0) ** (5.0 / 3.0)
    except OverflowError:
        return math.inf


def fried_parameter(Cn2: float, k: float, L: float) -> float:
    """Fried parameter r0 = (0.423 Cn2 k^2 L)^(-3/5)."""
    if Cn2 <= 0 or k <= 0 or L <= 0:
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
    handled by channel_ab without quadrature); x < 0 is rejected.
    """
    if x < 0:
        raise ValueError(f"turbulence strength x must be non-negative, got {x}")
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


def _rule_sum(beam: BeamParams, cscale: float, umax: float, n_u: int, n_th: int):
    """One tensor-product Gauss rule for (1/pi) int_0^umax du w(u) int_0^pi dtheta
    f(theta) exp(-c(u) sin(theta/2)^(5/3)) with f = 1 and f = cos(2 l0 theta).

    Returns (values, sums of |terms|), one entry per f.
    """
    s, ws = _gauss01(n_u)
    t, wt = _gauss01(n_th)
    u = umax * s ** 6
    with np.errstate(over="ignore", invalid="ignore"):
        amplitude = radial_amplitude(u, beam)
    if not np.isfinite(amplitude).all():
        raise ConvergenceFailure(
            "channel integral: the radial weight overflows the float range at "
            f"p0={beam.p0} (l0={beam.l0})")
    # radial weight u^|l| L_p^|l|(u)^2 e^-u p!/(p+|l|)! times du/ds = 6 umax s^5
    radial = ws * 6.0 * umax * s ** 5 * amplitude ** 2
    theta = math.pi * t ** 3
    w_theta = wt * 3.0 * t ** 2  # dtheta/dt = 3 pi t^2, over pi
    kernel = np.outer(cscale * u ** (5.0 / 6.0), -np.abs(np.sin(0.5 * theta)) ** (5.0 / 3.0))
    np.exp(kernel, out=kernel)  # in place: the largest array of the rule, ~1 MB
    weights = np.stack((w_theta, np.cos(2 * abs(beam.l0) * theta) * w_theta))
    inner = kernel @ np.concatenate([weights, np.abs(weights)]).T
    values, abs_sums = np.split(radial @ inner, 2)
    return values, abs_sums


def _channel_integrals(beam: BeamParams, turb: TurbulenceParams, tol: float):
    """Integrals of _rule_sum to absolute tol, with error estimates.

    Doubles the rule size until two successive sizes agree to tol and returns
    the finer values.  Each error estimate is |fine - coarse|, floored by the
    round-off of the finer sum.  The coarse rule of a pair must resolve the
    theta ~ 0 peak.  Raises ConvergenceFailure if the largest rule still
    misses tol, or if the peak is too narrow for the rules at all.
    """
    cscale = _c_scale(beam, turb)
    umax = _u_max(beam)
    # In t the kernel is about exp(-c (pi/2)^(5/3) t^5), narrowest at u_max,
    # and an n-point Gauss rule on [0, 1] has about 2 n sqrt(t)/pi nodes below t.
    peak = (cscale * umax ** (5.0 / 6.0) * (0.5 * math.pi) ** (5.0 / 3.0)) ** -0.2
    sizes = [size for size in _RULE_SIZES
             if 2.0 * size[1] * math.sqrt(peak) / math.pi >= _PEAK_NODES]
    if len(sizes) < 2:
        raise ConvergenceFailure(
            "channel integral: turbulence too strong to resolve "
            f"(l0={beam.l0}, p0={beam.p0}, x={x_ratio(beam, turb):.6g})")
    coarse = None
    for n_u, n_th in sizes:
        fine, abs_sums = _rule_sum(beam, cscale, umax, n_u, n_th)
        if coarse is not None:
            errs = np.maximum(np.abs(fine - coarse), _ROUNDOFF * abs_sums + _TAIL_MASS)
            if np.all(errs <= tol):
                return fine, errs
        coarse = fine
    raise ConvergenceFailure(
        f"channel integral did not reach tol={tol} with a {n_u}x{n_th} rule "
        f"(l0={beam.l0}, p0={beam.p0}, x={x_ratio(beam, turb):.6g}); "
        f"last error estimate {float(np.max(errs)):.3g}")


def channel_ab(beam: BeamParams, turb: TurbulenceParams, tol: float = 1e-9) -> ChannelCoefficients:
    """Survival and crosstalk coefficients (a, b) of the turbulence map.

    The angular integral is folded onto [0, pi] (the kernel is symmetric
    under theta -> 2pi - theta, so both coefficients are real cosine
    integrals).  err_a and err_b bound |a - a_true| and |b - b_true|, each
    at most tol; raises ConvergenceFailure when tol cannot be reached.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if math.isinf(turb.fried_r0):
        return ChannelCoefficients(1.0, 0.0, 0.0, 0.0)
    (a, b), (err_a, err_b) = _channel_integrals(beam, turb, tol)
    a, b, err_a, err_b = (float(v) for v in (a, b, err_a, err_b))
    if b < 0.0:
        if b < -NEGATIVE_B_TOL:
            raise ConvergenceFailure(
                f"crosstalk coefficient b = {b} is negative beyond quadrature noise")
        b = 0.0
    a = min(a, 1.0)
    return ChannelCoefficients(a, b, err_a, err_b)

