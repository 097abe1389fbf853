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
The radial nodes fill s in [s_lo, 1], u in [u_lo, u_max], where the weight
holds all but 1e-16 of its mass at each end, and the theta columns where
the kernel is below 1e-16 at every node are left out.  Each rule divides its
sums by its own quadrature of the radial weight, whose exact mass is 1.  The
rule size grows by about sqrt(2) per step until two successive sizes agree
to the tolerance, the coarser resolving the p0 zeros of the radial weight, the
theta ~ 0 peak and, where the kernel is wide, the cos(2 l0 theta) oscillation.
_nodes gives the input-free tables of one step.  From them _BeamRules builds
what a rule needs of the beam alone, |l0| and p0, filling each step alone on
first use.  A process keeps one per (|l0|, p0), the 128 last used, for every
call whatever the waist, x or tol; two threads that fill one step at once
write the same bits.  A p0 with more zeros than the rules resolve is refused
before any is built.  Each rule's kernel exponent is a rank-1 matrix product,
c(u) times -sin(theta/2)^(5/3), which BLAS forms faster than an elementwise
outer product.
"""

import functools
import math
import sys

import numpy as np

from .lgmath import BeamParams, _laguerre, phase_correlation_length
from .qstate import ChannelCoefficients, _checked_record

# Kolmogorov phase structure function constant: D = 6.88 (d/r0)^(5/3)
STRUCTURE_CONSTANT = 6.88

# Relative mass allowed beyond each radial cut, and kernel allowed in each
# left-out theta column.
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

# Radial nodes per zero of the Laguerre factor that the coarser rule of a
# certifying pair must have, for the same reason: rules that both under-resolve
# the p0 zeros of the radial weight can agree on a wrong value.  No rule with a
# step after it resolves p0 > 60.
_ZERO_NODES = 3

# Theta nodes per period of cos(2 l0 theta) that the coarser rule of a
# certifying pair must have where the kernel is 1, for the same reason: at large
# l0 in weak turbulence, rules that both under-resolve that oscillation can
# agree on a wrong value.  The need falls with the kernel, to none where the
# kernel is below _PERIOD_MASS tol (_period_need).
_PERIOD_NODES = 1.3
_PERIOD_MASS = 1e-5

# The t = 2^-11 ... 1 at which _period_need weighs the need, 2^(1/16) apart;
# 3 pi t^2.5 sqrt(1 - t), its largest value, and it times sin(theta/2)^(5/3),
# theta = pi t^3.  A kernel that falls to _PERIOD_MASS tol below t = 2^-11 has a
# theta ~ 0 peak narrower than any rule resolves, so the start test fails first.
_PERIOD_T = 2.0 ** np.linspace(-11.0, 0.0, 177)
_PERIOD_G = 3.0 * math.pi * _PERIOD_T ** 2.5 * np.sqrt(1.0 - _PERIOD_T)
_PERIOD_G_MAX = float(_PERIOD_G.max())
_PERIOD_G_SIN53 = _PERIOD_G * np.sin(0.5 * math.pi * _PERIOD_T ** 3) ** (5.0 / 3.0)

# Round-off floor of an error estimate, relative to the sum of |terms|
# (the QUADPACK 50 eps convention).
_ROUNDOFF = 50.0 * sys.float_info.epsilon

# Floor of the kernel exponent.  numpy's exp leaves its fast path below about
# -708 and is 20-200x slower there; a floored term is below e^-700 ~ 1e-304
# times its weights, and a rule has at most 256x512 terms, so the sums move
# by less than 1e-297, far below the round-off floor of the error estimate.
_EXP_FLOOR = -700.0


class ConvergenceFailure(RuntimeError):
    """Quadrature could not reach the requested tolerance."""


class TurbulenceParams(_checked_record("TurbulenceParams", "fried_r0")):
    """Turbulence strength via the Fried parameter r0 (same length unit as the
    beam waist).  ``math.inf`` encodes the no-turbulence limit."""

    __slots__ = ()

    def __new__(cls, fried_r0: float):
        if not fried_r0 > 0:
            raise ValueError(f"Fried parameter must be positive, got {fried_r0}")
        return tuple.__new__(cls, (fried_r0,))

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
    try:
        return STRUCTURE_CONSTANT * (separation / turb.fried_r0) ** (5.0 / 3.0)
    except OverflowError:
        return math.inf


def fried_parameter(Cn2: float, k: float, L: float) -> float:
    """Fried parameter r0 = (0.423 Cn2 k^2 L)^(-3/5); inf, the no-turbulence
    limit, where r0 exceeds the float range."""
    if not (Cn2 > 0 and k > 0 and L > 0):
        raise ValueError(f"Cn2, k, L must all be positive, got ({Cn2}, {k}, {L})")
    if math.inf in (Cn2, k, L):
        raise ValueError(f"Cn2, k, L must all be finite, got ({Cn2}, {k}, {L})")
    # 0.423 Cn2 k^2 L term by term, as long as no partial product leaves the
    # normal float range, where it would lose digits or its whole value
    base = 0.423
    for factor in (Cn2, k, k, L):
        base *= factor
        if not sys.float_info.min <= base < math.inf:
            break
    else:
        return base ** (-3.0 / 5.0)
    try:
        r0 = math.exp(-0.6 * (math.log(0.423) + math.log(Cn2) + 2.0 * math.log(k) + math.log(L)))
    except OverflowError:
        return math.inf
    if r0 == 0.0:
        raise ValueError(
            f"Cn2, k, L = ({Cn2}, {k}, {L}) give a Fried parameter below the float range")
    return r0


def x_ratio(beam: BeamParams, turb: TurbulenceParams) -> float:
    """Dimensionless turbulence strength x = xi(l0)/r0."""
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


def _where(beam: BeamParams, turb: TurbulenceParams) -> str:
    # the context that ends every channel_ab failure message
    return f"(l0={beam.l0}, p0={beam.p0}, x={x_ratio(beam, turb):.6g})"


def _c_scale(beam: BeamParams, turb: TurbulenceParams) -> float:
    # exponent of the angular kernel: c(u) = c_scale * u^(5/6), from
    # D_phi(2 r |sin(theta/2)|)/2 with r = w0 sqrt(u/2)
    return 0.5 * phase_structure(math.sqrt(2.0) * beam.waist, turb)


def _chernoff(t: float, r: float) -> float:
    # four Newton steps on the convex t - 1 - ln t = r from t, where the left side
    # is at least r: each step keeps to that side of the root, so each is a valid cut
    for _ in range(4):
        t -= (t - 1.0 - math.log(t) - r) / (1.0 - 1.0 / t)
    return t


def _u_max(labs: int, p0: int) -> float:
    # cut the radial tail where the remaining weight mass is below _TAIL_MASS.
    # Past the last Laguerre zero the weight is at most C = (|l|+2p)!/(p! (p+|l|)!)
    # times the Gamma(k) density, k = |l| + 2p + 1, whose tail beyond k t the
    # Chernoff bound caps at exp(-k (t - 1 - ln t)); t > 1 solves that = _TAIL_MASS/C
    k = labs + 2 * p0 + 1
    r = (math.log(math.comb(k - 1, p0)) - math.log(_TAIL_MASS)) / k
    return k * _chernoff(1.0 + r + math.sqrt(2.0 * r), r)


def _u_head(labs: int, p0: int, log_mass: float) -> float:
    # cut the radial head where the weight mass below the cut is at most
    # exp(log_mass), at the larger of two cuts.  Szego's bound |L_p^l(u)| <= C e^(u/2),
    # C = (p+|l|)!/(p! |l|!), caps the weight at C u^|l|/|l|!, whose mass below a is
    # C a^(|l|+1)/(|l|+1)!.  That drops the weight's e^-u, which a Chernoff cut keeps:
    # below the first zero z1 of L_p^l, 0 <= L_p^l <= C, so the weight is at most C
    # times the Gamma(k) density, k = |l| + 1, whose mass below k t, t < 1, is at most
    # exp(-k (t - 1 - ln t)).  Gershgorin's bound on the Jacobi matrix of L_p^l puts z1
    # above (sqrt(p + |l|) - sqrt(p))^2 - 1.  The Newton steps near the Chernoff root
    # from below, so where a/k is at or past that root, a is the larger cut whatever
    # they give, and they are skipped: at _TAIL_MASS for |l0| <= 24 (p0 = 0) to 55 (p0 = 60)
    k = labs + 1.0
    log_c = math.log(math.comb(labs + p0, p0))
    a = math.exp((log_mass + math.lgamma(labs + 2.0) - log_c) / k)
    r = (log_c - log_mass) / k
    t = a / k
    if t - 1.0 - math.log(t) <= r:
        return a
    cut = k * _chernoff(max(1.0 - math.sqrt(2.0 * r), math.exp(-1.0 - r)), r)
    return max(a, cut if p0 == 0 else min(cut, (math.sqrt(p0 + labs) - math.sqrt(p0)) ** 2 - 1.0))


def _period_need(beam: BeamParams, c_scale: float, tol: float) -> float:
    # The least angular size with _PERIOD_NODES theta nodes per period of
    # cos(2 l0 theta), weighed by the kernel.  An n-point rule in t has about
    # n / (3 pi l0 t^2.5 sqrt(1 - t)) nodes per period at t.  The need there is
    # scaled by log(K/m) / log(1/m), which falls from 1 where the kernel K is 1 to
    # 0 where it is m = _PERIOD_MASS tol, taking the widest kernel whose radial
    # nodes carry weight: c at _u_head(m), below which the weight has mass m.
    # A tol above 1 asks no more than tol = 1.
    labs = abs(beam.l0)
    if _PERIOD_NODES * labs * _PERIOD_G_MAX <= _RULE_SIZES[0][1]:
        return 0.0  # below the first rule whatever the kernel: |l0| <= 20
    log_m = math.log(_PERIOD_MASS) + math.log(min(tol, 1.0))
    c = c_scale * _u_head(labs, beam.p0, log_m) ** (5.0 / 6.0)
    return _PERIOD_NODES * labs * float((_PERIOD_G + c / log_m * _PERIOD_G_SIN53).max())


def _legendre(n: int, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1.0)


# cached apart from _nodes: the sizes 64, 90, 128 and 256 each serve two ladder steps
@functools.cache
def _gauss01(n: int):
    """n-point Gauss-Legendre nodes and weights on [0, 1]: Newton's method
    on P_n from Tricomi's approximate nodes, which are good to O(n^-4).

    scipy's roots_legendre weights are off by about 3e-14 from n = 128 on,
    more than the round-off floor of the error estimate.
    """
    k = np.arange(1, n + 1)
    nodes = (1.0 - (n - 1.0) / (8.0 * n ** 3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(3):
        p, dp = _legendre(n, nodes)
        nodes = nodes - p / dp
    dp = _legendre(n, nodes)[1]
    return 0.5 * (nodes + 1.0), 1.0 / ((1.0 - nodes ** 2) * dp ** 2)


@functools.cache
def _nodes(i: int):
    """The input-free tables of ladder step i: the radial Gauss nodes sigma on
    [0, 1] and the logs of their weights, the theta = pi t^3 nodes and their
    weights (over pi), and -sin(theta/2)^(5/3), the kernel exponent over c(u).
    The Gauss nodes descend, so theta does and that exponent ascends."""
    n_u, n_th = _RULE_SIZES[i]
    sigma, w_sigma = _gauss01(n_u)
    t, wt = _gauss01(n_th)
    theta = math.pi * t ** 3
    return (sigma, np.log(w_sigma), theta, wt * 3.0 * t ** 2,  # wt dtheta/dt / pi
            -np.sin(0.5 * theta) ** (5.0 / 3.0))


class _BeamRules:
    """The tables of each ladder step that depend on the beam only, filled on
    first use; built only by _beam_rules, one per (|l0|, p0)."""

    def __init__(self, labs: int, p0: int):
        self.labs, self.p0 = labs, p0
        self.umax = umax = _u_max(labs, p0)
        # the radial nodes fill s = s_lo + (1 - s_lo) sigma, u = umax s^6 from the head cut to umax
        self.s_lo = (_u_head(labs, p0, math.log(_TAIL_MASS)) / umax) ** (1.0 / 6.0)
        # log of w_sigma du/dsigma u^|l| e^-u p!/(p+|l|)! is log w_sigma + (6|l| + 5) log s
        # - u + this, du/dsigma = 6 umax s^5 (1 - s_lo).  Any constant in the log weight
        # cancels against the rule's mass; this one makes it the unit-mass weight, so
        # it overflows only where that does
        self.log_scale = (math.log(6.0 * (1.0 - self.s_lo)) + (labs + 1) * math.log(umax)
                          + math.lgamma(p0 + 1.0) - math.lgamma(p0 + labs + 1.0))
        self._steps = {}

    def step(self, i: int):
        """The tables of ladder step i, filled on first use: the radial weight and
        its mass (inf or nan if the weight leaves the float range, 0 if it
        underflows); s^5 = c(u)/c(u_max) at each radial node and
        -sin(theta/2)^(5/3) at each theta node, whose outer product times
        c(u_max) is the kernel exponent; and the angular rows w, cos(2 l0 theta) w
        and |cos(2 l0 theta) w|."""
        tables = self._steps.get(i)
        if tables is None:
            sigma, log_w_sigma, theta, w_theta, sin53 = _nodes(i)
            s = self.s_lo + (1.0 - self.s_lo) * sigma
            s5 = s ** 5.0
            u = self.umax * s5 * s
            log_w = log_w_sigma + (6.0 * self.labs + 5.0) * np.log(s) - u + self.log_scale
            if self.p0:
                # times L_p^|l|(u)^2, squared after the product so that only a weight
                # beyond the float range overflows, which the mass reports
                with np.errstate(over="ignore", invalid="ignore"):
                    radial = (np.exp(0.5 * log_w) * _laguerre(self.p0, self.labs, u)) ** 2
            else:
                radial = np.exp(log_w)
            cos_w = np.cos(2.0 * self.labs * theta) * w_theta
            # the sum of finite terms of a unit-mass weight cannot overflow
            tables = (radial, float(np.add.reduce(radial)), s5, sin53,
                      np.array((w_theta, cos_w, np.abs(cos_w))))
            self._steps[i] = tables
        return tables


# The one constructor of _BeamRules, _beam_rules(|l0|, p0), keeps the 128 last used:
# an owner holds at most about 55 KB (tracemalloc, all seven ladder steps at |l0| = 40,
# p0 = 2), so under 8 MB in all.
_beam_rules = functools.lru_cache(maxsize=128)(_BeamRules)


def channel_ab(beam: BeamParams, turb: TurbulenceParams, tol: float = 1e-9) -> ChannelCoefficients:
    """Survival and crosstalk coefficients (a, b) of the turbulence map.

    err_a and err_b bound |a - a_true| and |b - b_true|, each at most tol.
    Raises ValueError if tol is not positive, and ConvergenceFailure if p0
    has more zeros, the theta ~ 0 peak is narrower or cos(2 l0 theta)
    oscillates faster than the rules resolve,
    if the radial weight overflows the float range or underflows at every
    node, or if the largest rule still misses tol.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    c_scale = _c_scale(beam, turb)
    if c_scale == 0.0:
        # r0 = inf, or turbulence so weak that the kernel exponent underflows
        return ChannelCoefficients(1.0, 0.0, 0.0, 0.0)
    if _ZERO_NODES * beam.p0 > _RULE_SIZES[-2][0]:
        # no rule with a step after it has _ZERO_NODES radial nodes per zero, so no
        # owner is built: math.comb in its cuts takes minutes at a huge p0
        raise ConvergenceFailure(
            f"channel integral: radial index too large to resolve {_where(beam, turb)}")
    rules = _beam_rules(abs(beam.l0), beam.p0)
    # The start test: the first step, with a step after it, whose rule meets
    # _ZERO_NODES, _PEAK_NODES and _PERIOD_NODES in turn; each is a least size, so a
    # failure names the first the last step misses.  In t the kernel is about
    # exp(-c (pi/2)^(5/3) t^5), narrowest at u_max, and an n-point Gauss rule has
    # about 2 n sqrt(t)/pi nodes below t.
    cu_max = c_scale * rules.umax ** (5.0 / 6.0)
    nodes_per_size = 2.0 * math.sqrt((cu_max * (0.5 * math.pi) ** (5.0 / 3.0)) ** -0.2)
    n_period = _period_need(beam, c_scale, tol)
    for first, (n_u, n_th) in enumerate(_RULE_SIZES[:-1]):
        if n_u < _ZERO_NODES * rules.p0:
            continue
        if nodes_per_size * n_th / math.pi < _PEAK_NODES:
            unmet = "turbulence too strong"
        elif n_th < n_period:
            unmet = "angular oscillation too fast"
        else:
            break
    else:
        raise ConvergenceFailure(f"channel integral: {unmet} to resolve {_where(beam, turb)}")
    # the kernel falls in theta and in u: a column left out is below _TAIL_MASS
    # wherever it is at the widest node, so it moves each sum by less than that
    cut = math.log(_TAIL_MASS) / cu_max
    coarse = None
    for i in range(first, len(_RULE_SIZES)):
        radial, mass, s5, sin53, rows = rules.step(i)
        # radial >= 0, so a weight beyond the float range leaves the mass inf or
        # nan, and one that underflows at every node (huge |l0|) leaves it 0
        if not 0.0 < mass < math.inf:
            fault = "underflows at every node" if mass == 0.0 else "overflows the float range"
            raise ConvergenceFailure(
                f"channel integral: the radial weight {fault} {_where(beam, turb)}")
        # the widest node is the last, as the Gauss nodes descend
        col = sin53.searchsorted(cut / s5[-1])
        # the kernel exponent as a rank-1 matrix product, then floored and
        # exponentiated in place: ~1 MB at 256x512
        kernel = np.dot((cu_max * s5)[:, None], sin53[None, col:])
        # the least exponent is the first: the largest s^5 times the most
        # negative -sin(theta/2)^(5/3) kept
        if kernel[0, 0] < _EXP_FLOOR:
            np.maximum(kernel, _EXP_FLOOR, out=kernel)
        np.exp(kernel, out=kernel)
        # the radial sum first, then the rows w, cos(2 l0 theta) w and |cos(2 l0 theta) w|;
        # radial, kernel and w are positive, so a is also its own sum of |terms|
        sums = rows[:, col:] @ (radial @ kernel)
        del kernel  # so that no two rules' kernels are alive at once
        a, b, abs_b = [v / mass for v in sums.tolist()]
        # each error estimate is |fine - coarse|, floored by the round-off of the
        # finer sum and the three cut tails, two radial and one angular
        if coarse is not None:
            err_a = max(abs(a - coarse[0]), _ROUNDOFF * a + 3.0 * _TAIL_MASS)
            err_b = max(abs(b - coarse[1]), _ROUNDOFF * abs_b + 3.0 * _TAIL_MASS)
            if err_a <= tol and err_b <= tol:
                break
        coarse = a, b
    else:
        n_u, n_th = _RULE_SIZES[-1]
        raise ConvergenceFailure(
            f"channel integral did not reach tol={tol} with a {n_u}x{n_th} rule; "
            f"last error estimate {max(err_a, err_b):.3g} {_where(beam, turb)}")
    if b < 0.0:
        if b < -NEGATIVE_B_TOL:
            raise ConvergenceFailure(f"crosstalk coefficient b = {b} is negative beyond "
                                     f"quadrature noise {_where(beam, turb)}")
        b = 0.0
    a = min(a, 1.0)
    return ChannelCoefficients(a, b, err_a, err_b)
