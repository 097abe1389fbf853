"""Turbulence-strength sweeps, ESD / sudden-change detection, and nonlinear
least-squares fits of the two universal decay forms

    poly_form: f(x) = A / (x^p + B) + C        (coherence)
    exp_form:  g(x) = G [exp(-alpha x^beta) + c]   (LQU)
"""

import math
from typing import NamedTuple

import numpy as np

from .lgmath import BeamParams
from .measures import concurrence_analytic, lqu, measure_triple
from .qstate import ChannelCoefficients, WernerParams, apply_channel, werner_like
from .turbulence import ConvergenceFailure, channel_ab, r0_from_x

# Default initial guesses: the published fitted constants of each form.
POLY_FORM_INITIAL = (0.183, 3.78, 0.21, 0.131)
EXP_FORM_INITIAL = (0.92, 3.50, 1.90, 0.08)

MEASURE_FIELDS = ("concurrence", "coherence", "lqu")

# find_esd and find_sudden_change bisect to width 10^-ROOT_DIGITS.
ROOT_DIGITS = 9

# Widest grid step over which detect_sudden_change trusts a branch switch.
SUDDEN_CHANGE_SPACING = 0.05

# lm_least_squares converges once an accepted step or the gradient is below these.
_STEP_TOL = 1e-10
_GRAD_TOL = 1e-12

# lm_least_squares stops, not converged, after this many iterations.
_MAX_ITER = 500


class GridMismatch(ValueError):
    """Sweeps handed to collapse_check do not share the same x grid."""


class SweepRow(NamedTuple):
    """One sampled point of a sweep: strength, channel coefficients, measures."""

    x: float
    a: float
    b: float
    concurrence: float
    coherence: float
    lqu: float
    lqu_branch: int


class FitResult(NamedTuple):
    form: str                # "poly_form" or "exp_form"
    params: np.ndarray       # poly: (A, p, B, C); exp: (G, alpha, beta, c)
    rss: float
    converged: bool
    iterations: int


def _check_tol(tol):
    # finite too: an infinite tol widens _bisect's monotone guard until it never fires
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


def _channel_of_x(beam: BeamParams, tol: float):
    """The channel of beam at strength x."""
    return lambda x: channel_ab(beam, r0_from_x(beam, x), tol)


def sweep(beam: BeamParams, w: WernerParams, x_grid, tol: float = 1e-9) -> list[SweepRow]:
    """Evaluate channel and measures on each grid point, rows in grid order."""
    xs = [float(x) for x in x_grid]
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise ValueError("x grid must be sorted ascending")
    state, at = werner_like(w), _channel_of_x(beam, tol)
    rows = []
    for x in xs:
        cc = at(x)
        # a MeasureTriple's fields are the row's last four, in order
        rows.append(SweepRow(x, cc.a, cc.b, *measure_triple(apply_channel(state, cc))))
    return rows


class EsdResult(NamedTuple):
    """Entanglement-sudden-death threshold, or the reason there is none."""

    x_star: float | None
    reason: str | None = None


def _bisect(at, keeps, lo, hi, width, tol):
    """Midpoint of the bracket lo = (x, at(x)), hi = (x, at(x)) once halved below
    width or to adjacent floats; lo moves up where keeps(at(mid)).  at(x) is the
    channel at x, a and b to tol, and b/a rises strictly in x: a probe whose
    b/a leaves the ends' range by more than their error bounds 2 tol/a raises
    ConvergenceFailure."""
    (x_lo, v_lo), (x_hi, v_hi) = lo, hi
    while x_hi - x_lo > width and x_lo < (mid := 0.5 * (x_lo + x_hi)) < x_hi:
        v = at(mid)
        if not ((v_lo.b - 2 * tol) / v_lo.a <= (v.b + 2 * tol) / v.a
                and (v.b - 2 * tol) / v.a <= (v_hi.b + 2 * tol) / v_hi.a):
            raise ConvergenceFailure(f"b/a = {v.b / v.a:.6g} at x = {mid:.12g} leaves its range "
                                     f"on the bracket [{x_lo:.12g}, {x_hi:.12g}]: not monotone")
        if keeps(v):
            x_lo, v_lo = mid, v
        else:
            x_hi, v_hi = mid, v
    return 0.5 * (x_lo + x_hi)


def find_esd(beam: BeamParams, w: WernerParams, tol: float = 1e-9,
             x_max: float = 3.0, x_min: float = 0.0) -> EsdResult:
    """Smallest x in (x_min, x_max] past which the concurrence is identically zero.

    The concurrence falls strictly in b/a, which rises strictly in x, so it
    crosses zero once at most: one bisection of [x_min, x_max] to width
    10^-ROOT_DIGITS (ConvergenceFailure if b/a falls).  Returns reasons
    "zero at origin" (no entanglement to lose), "zero at x_min" or
    "no death in range".
    """
    _check_tol(tol)
    if not 0.0 <= x_min < x_max < math.inf:
        raise ValueError(f"invalid ESD range [{x_min}, {x_max}]")
    if concurrence_analytic(w, ChannelCoefficients(1.0, 0.0)) <= 0.0:
        return EsdResult(None, "zero at origin")
    at = _channel_of_x(beam, tol)
    alive = lambda cc: concurrence_analytic(w, cc) > 0.0
    lo, hi = (x_min, at(x_min)), (x_max, at(x_max))
    if not alive(lo[1]):
        return EsdResult(None, "zero at x_min")
    if alive(hi[1]):
        return EsdResult(None, "no death in range")
    return EsdResult(_bisect(at, alive, lo, hi, 10.0 ** -ROOT_DIGITS, tol))


def find_sudden_change(beam: BeamParams, w: WernerParams, tol: float = 1e-9,
                       x_max: float = 3.0, x_min: float = 0.0) -> float | None:
    """x in (x_min, x_max) where the LQU branch switches, or None if both ends
    share one.  The branch switches once at most in b/a, which rises strictly in
    x: one bisection, as in find_esd (ConvergenceFailure if b/a falls)."""
    _check_tol(tol)
    if not 0.0 <= x_min < x_max < math.inf:
        raise ValueError(f"invalid sudden-change range [{x_min}, {x_max}]")
    state, at = werner_like(w), _channel_of_x(beam, tol)
    lo, hi = (x_min, at(x_min)), (x_max, at(x_max))
    first = lqu(apply_channel(state, lo[1]))[1]
    before = lambda cc: lqu(apply_channel(state, cc))[1] == first
    return None if before(hi[1]) else _bisect(at, before, lo, hi, 10.0 ** -ROOT_DIGITS, tol)


def detect_sudden_change(rows: list[SweepRow], beam: BeamParams | None = None,
                         w: WernerParams | None = None, tol: float = 1e-9,
                         refine_to: float = 1e-4) -> float | None:
    """Location where the LQU's maximal-eigenvalue branch index switches.

    rows ascend in x.  Given beam and w, the grid midpoint is refined by
    bisection on the branch index to width refine_to; given neither, the
    midpoint itself is returned.  None when the branch is constant along the
    sweep.
    """
    if (beam is None) != (w is None):
        raise ValueError("refining a sudden change needs both beam and w")
    if not 0.0 < refine_to < math.inf:
        raise ValueError(f"refine_to must be positive and finite, got {refine_to}")
    _check_tol(tol)
    steps = [b.x - a.x for a, b in zip(rows, rows[1:])]
    # each step alone: min() and max() would skip a nan step by its position
    bad = [step for step in steps if not 0.0 <= step <= SUDDEN_CHANGE_SPACING + 1e-12]
    if bad:
        raise ValueError(f"rows need ascending x steps of at most {SUDDEN_CHANGE_SPACING} "
                         f"for sudden-change detection, got a step of {bad[0]}")
    change = next((i for i, (r0, r1) in enumerate(zip(rows, rows[1:]))
                   if r0.lqu_branch != r1.lqu_branch), None)
    if change is None:
        return None
    lo, hi = rows[change], rows[change + 1]
    if beam is None:
        return 0.5 * (lo.x + hi.x)
    state = werner_like(w)
    return _bisect(_channel_of_x(beam, tol),
                   lambda cc: lqu(apply_channel(state, cc))[1] == lo.lqu_branch,
                   (lo.x, lo), (hi.x, hi), refine_to, tol)


# --- model forms: values and a Jacobian from one masked power per trial ---

class _Abscissa:
    """The x-only factors of the masked power x^k, computed once per fit: the
    mask x > 0, the base it raises (x there, else 1, so that log(base) is
    finite) and log(base), which is 0 where the power is 0."""

    __slots__ = ("positive", "base", "log")

    def __init__(self, x):
        x = np.asarray(x, dtype=float)
        self.positive = x > 0.0
        self.base = np.where(self.positive, x, 1.0)
        self.log = np.log(self.base)

    def power(self, k):
        """x^k, 0 where x <= 0."""
        return np.where(self.positive, np.power(self.base, k), 0.0)


def _poly_eval(ax, params):
    """f at the abscissa ax, and a function building its Jacobian there from
    the same x^p and denominators."""
    A, p, B, C = params
    xp = ax.power(p)
    denom = xp + B

    def jac():
        denom2 = denom ** 2
        J = np.empty((xp.size, 4))
        J[:, 0] = 1.0 / denom
        J[:, 1] = -A * xp * ax.log / denom2
        J[:, 2] = -A / denom2
        J[:, 3] = 1.0
        return J
    return A / denom + C, jac


def _exp_eval(ax, params):
    """g at the abscissa ax, and a function building its Jacobian there from
    the same x^beta and exp(-alpha x^beta)."""
    G, alpha, beta, c = params
    xb = ax.power(beta)
    e = np.exp(-alpha * xb)
    d_G = e + c

    def jac():
        J = np.empty((xb.size, 4))
        J[:, 0] = d_G
        J[:, 1] = -G * xb * e
        J[:, 2] = -G * alpha * xb * ax.log * e
        J[:, 3] = G
        return J
    return G * d_G, jac


def _checked(form_name, x):
    """The abscissa of x >= 0 (+inf gives the x -> inf limit); a NaN or negative
    x, which the masked power would read as 0, raises ValueError."""
    x = np.asarray(x, dtype=float)
    bad = np.flatnonzero(~(x >= 0.0))
    if bad.size:
        n = bad[0]
        raise ValueError(f"{form_name} requires x >= 0, got x = {x.flat[n]:g} at index {n}")
    return _Abscissa(x)


def poly_form(x, params):
    """f(x) = A/(x^p + B) + C with f(0) = A/B + C, for x >= 0."""
    return _poly_eval(_checked("poly_form", x), params)[0]


def exp_form(x, params):
    """g(x) = G [exp(-alpha x^beta) + c] with g(0) = G (1 + c), for x >= 0."""
    return _exp_eval(_checked("exp_form", x), params)[0]


@np.errstate(all="ignore")  # a trial whose rss overflows is rejected, not warned about
def lm_least_squares(form, x, y, p0):
    """Damped Gauss-Newton (Levenberg-Marquardt) with analytic Jacobian.

    form(ax, params) is _poly_eval or _exp_eval: the model at the abscissa
    ax = _Abscissa(x), built once per fit, and a function building its
    Jacobian from the same powers.  The Jacobian, gradient, JtJ and damping
    floor are built once per point: at p0 and after each accepted step; a
    rejected step re-damps and re-solves the same system.

    Returns (params, rss, converged, iterations); a step that raises the rss
    is rejected and re-damped, so the rss never increases.
    Raises ValueError if an x is NaN or negative or the rss at p0 is not finite.
    """
    ax = _checked("lm_least_squares", x)
    p = np.asarray(p0, dtype=float).copy()
    f, jac = form(ax, p)
    resid = f - y
    rss = float(resid @ resid)
    if not math.isfinite(rss):
        raise ValueError(f"the initial fit parameters give a non-finite rss ({rss})")
    lam = 1e-3
    converged = False
    iterations = 0
    grad = None  # the system at p is built on the first iteration there
    while iterations < _MAX_ITER:
        iterations += 1
        if grad is None:
            J = jac()
            grad = J.T @ resid
            if abs(grad).max() < _GRAD_TOL:
                converged = True
                break
            JtJ = J.T @ J
            floor = np.maximum(JtJ.diagonal(), 1e-30)
        try:
            step = np.linalg.solve(JtJ + np.diag(lam * floor), -grad)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        trial = p + step
        f, trial_jac = form(ax, trial)
        trial_resid = f - y
        trial_rss = float(trial_resid @ trial_resid)
        if math.isfinite(trial_rss) and trial_rss <= rss:
            accepted_step = abs(step).max()
            p, resid, rss, jac, grad = trial, trial_resid, trial_rss, trial_jac, None
            lam = max(lam / 3.0, 1e-14)
            if accepted_step < _STEP_TOL:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e14:
                break
    return p, rss, converged, iterations


def _fit(form_name, form, rows, column, initial):
    xs = np.array([r.x for r in rows])
    ys = np.array([getattr(r, column) for r in rows])
    if len(rows) < 8:
        raise ValueError(f"need at least 8 rows to fit, got {len(rows)}")
    for name, v in (("x", xs), ("y", ys)):
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            n = bad[0]
            raise ValueError(f"fit requires finite {name}, got {name} = {v[n]:g} in row {n + 1}")
    negative = np.flatnonzero(xs < 0.0)
    if negative.size:
        # the forms are defined for x >= 0 only; the masked power would read x < 0 as 0
        n = negative[0]
        raise ValueError(f"fit requires x >= 0, got x = {xs[n]:g} in row {n + 1}")
    if xs.min() > 1e-12:
        raise ValueError("fit requires an x = 0 row (anchors the form at the origin)")
    p, rss, converged, iterations = lm_least_squares(form, xs, ys, initial)
    return FitResult(form=form_name, params=p, rss=rss,
                     converged=converged, iterations=iterations)


def fit_poly_form(rows: list[SweepRow], initial=POLY_FORM_INITIAL) -> FitResult:
    """Fit f(x) = A/(x^p + B) + C to the coherence column."""
    return _fit("poly_form", _poly_eval, rows, "coherence", initial)


def fit_exp_form(rows: list[SweepRow], initial=EXP_FORM_INITIAL) -> FitResult:
    """Fit g(x) = G [exp(-alpha x^beta) + c] to the lqu column."""
    return _fit("exp_form", _exp_eval, rows, "lqu", initial)


def collapse_check(curves: list[list[SweepRow]], measure: str = "coherence") -> float:
    """Maximum pointwise absolute deviation between any two sweeps sharing a grid."""
    if measure not in MEASURE_FIELDS:
        raise ValueError(f"measure must be one of {MEASURE_FIELDS}, got {measure!r}")
    if not all(curves):
        raise ValueError("collapse_check needs sweeps of at least one row each, got an empty sweep")
    if len(curves) < 2:
        return 0.0
    grids = [np.array([r.x for r in rows]) for rows in curves]
    for g in grids[1:]:
        if g.shape != grids[0].shape or not np.max(np.abs(g - grids[0])) <= 1e-12:
            raise GridMismatch("sweeps do not share the same x grid")
    cols = np.array([[getattr(r, measure) for r in rows] for rows in curves])
    return float(np.max(np.ptp(cols, axis=0)))
