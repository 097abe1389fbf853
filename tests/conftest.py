import math
import os
import subprocess
import sys
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad, simpson
from scipy.special import (eval_genlaguerre, gamma, gammainccinv, gammaincinv, gammaln,
                           roots_genlaguerre, roots_legendre)

from oamturb import XState, sweepfit
from oamturb.lgmath import BeamParams, laguerre, phase_correlation_length
from oamturb.turbulence import ChannelCoefficients, TurbulenceParams, x_ratio


def fresh_python(*args, check=True):
    """A new interpreter run with args, importing oamturb from src/."""
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=check, timeout=60)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240611)


@pytest.fixture()
def ratio_dip(monkeypatch):
    """The channel as sweepfit sees it, with b = a (b/a = 1, no concurrence left)
    for x in [0.5, 1] only, so that b/a falls back past x = 1: a bisection of
    [0, 3] probes x = 1.5 (dead, real b/a) and then x = 0.75 (b/a = 1)."""
    real = sweepfit.channel_ab

    def channel_ab(beam, turb, tol=1e-9, **kw):
        cc = real(beam, turb, tol, **kw)
        return ChannelCoefficients(cc.a, cc.a) if 0.5 <= x_ratio(beam, turb) <= 1.0 else cc

    monkeypatch.setattr(sweepfit, "channel_ab", channel_ab)


def channel_ab_bruteforce(l0: int, x: float, nr: int = 2000, nth: int = 2000,
                          rmax_factor: float = 6.0):
    """Fixed-order quadrature for (a, b) directly in (r, theta) coordinates.

    Independent of the package's u-substituted adaptive path: trapezoid over
    the periodic angle, Simpson over radius, p0 = 0 radial profile written
    out explicitly.
    """
    labs = abs(l0)
    w0 = 1.0
    r0 = phase_correlation_length(BeamParams(waist=w0, l0=l0)) / x
    r = np.linspace(0.0, w0 * rmax_factor, nr)
    th = np.linspace(0.0, 2.0 * math.pi, nth)
    with np.errstate(divide="ignore"):
        ln_r2 = (math.log(4.0) - 2.0 * math.log(w0) - math.lgamma(labs + 1.0)
                 + labs * np.log(2.0 * np.maximum(r, 1e-300) ** 2 / w0 ** 2)
                 - 2.0 * r ** 2 / w0 ** 2)
    radial2 = np.exp(ln_r2)
    radial2[0] = 0.0
    d_half = 3.44 * (2.0 * np.outer(r, np.abs(np.sin(th / 2.0))) / r0) ** (5.0 / 3.0)
    kernel = np.exp(-d_half)
    ang_a = np.trapezoid(kernel, th, axis=1)
    ang_b = np.trapezoid(kernel * np.cos(2.0 * labs * th)[None, :], th, axis=1)
    a = simpson(r * radial2 * ang_a, x=r) / (2.0 * math.pi)
    b = simpson(r * radial2 * ang_b, x=r) / (2.0 * math.pi)
    return a, b


# D_phi(d)/2 = 3.44 (d/r0)^(5/3)
HALF_STRUCTURE = 3.44


def _radial_density(l0: int, p0: int):
    """r R(r)^2 of the unit-waist LG mode, which integrates to one over r."""
    labs = abs(l0)
    log_norm = math.log(4.0) + gammaln(p0 + 1.0) - gammaln(p0 + labs + 1.0)

    def density(r):
        if r <= 0.0:
            return 0.0
        u = 2.0 * r * r
        return (r * math.exp(log_norm + labs * math.log(u) - u)
                * eval_genlaguerre(p0, labs, u) ** 2)

    return density


def _radial_range(l0: int, p0: int):
    """Cut-off radius and breakpoints at quantiles of the radial mass.

    Past the last Laguerre zero the weight is at most C = binom(k - 1, p0)
    times the Gamma(k) density, k = |l0| + 2 p0 + 1 (the factor _u_max caps),
    so the cut u = 2 r_max^2 is 1.2 times the Gamma(k) quantile of upper tail
    1e-18 / C.  Over l0 in {1, 10, 40, 97} and p0 in [0, 60] the mass beyond
    it is at most 1.4e-22 (at p0 = 0, where C = 1), by 40-digit quadrature.
    """
    shape = abs(l0) + 2 * p0 + 1
    r_max = math.sqrt(0.6 * gammainccinv(shape, 1e-18 / math.comb(shape - 1, p0)))
    breaks = [math.sqrt(0.5 * gammaincinv(shape, q)) for q in (1e-4, 0.5, 1.0 - 1e-4)]
    return r_max, breaks


@lru_cache(maxsize=None)
def channel_ab_quad(l0: int, p0: int, x: float, eps: float = 1e-13):
    """(a, b) by nested scipy.integrate.quad in the physical (r, theta) variables,
    independent of the package's substituted Gauss rule."""
    r0 = phase_correlation_length(BeamParams(waist=1.0, l0=l0, p0=p0)) / x
    n = 2 * abs(l0)
    return (_map_integral(l0, p0, r0, lambda th: 1.0, eps),
            _map_integral(l0, p0, r0, lambda th: math.cos(n * th), eps))


def _map_integral(l0: int, p0: int, r0: float, f, eps: float, full_circle: bool = False):
    """(1/pi) int_0^inf dr r R(r)^2 int dtheta f(theta) exp(-D_phi(2 r |sin(theta/2)|)/2)
    by nested quad for the unit-waist LG mode, the angle over [0, pi] or,
    with full_circle, over [0, 2pi] as [0, pi] plus [pi, 2pi] (then halved).

    The angular kernel exp(-C(r) sin(theta/2)^(5/3)) peaks at theta = 0 (and
    2pi) with width about 2 C(r)^(-3/5); breakpoints at multiples of that
    width keep quad from stepping over the peak in strong turbulence.
    """
    density = _radial_density(l0, p0)
    r_max, breaks = _radial_range(l0, p0)

    def angular(r):
        c = HALF_STRUCTURE * (2.0 * r / r0) ** (5.0 / 3.0)
        width = 2.0 * c ** -0.6
        points = [k * width for k in (1, 4, 16, 64) if k * width < math.pi]

        def kernel(th):
            return f(th) * math.exp(-c * abs(math.sin(0.5 * th)) ** (5.0 / 3.0))

        value = quad(kernel, 0.0, math.pi, points=points or None, epsabs=eps / 10,
                     epsrel=0.0, limit=400)[0]
        if full_circle:
            mirrored = [2.0 * math.pi - p for p in points]
            value += quad(kernel, math.pi, 2.0 * math.pi, points=mirrored or None,
                          epsabs=eps / 10, epsrel=0.0, limit=400)[0]
            value *= 0.5
        return value

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(lambda r: density(r) * angular(r), 0.0, r_max, points=breaks,
                    epsabs=eps, epsrel=0.0, limit=400)[0] / math.pi


def _gauss_panels(edges, n: int):
    """Nodes and weights of an n-point Gauss-Legendre rule on each panel."""
    nodes, weights = roots_legendre(n)
    lo, hi = np.asarray(edges[:-1])[:, None], np.asarray(edges[1:])[:, None]
    half = 0.5 * (hi - lo)
    return (lo + half * (nodes + 1.0)).ravel(), (half * weights).ravel()


@lru_cache(maxsize=None)
def channel_ab_panels(l0: int, p0: int, x: float):
    """(a, b) by Gauss-Legendre panels, for any l0 and for the radial indices
    where nested quad is slow: in u = 2 r^2, 64 nodes between each two zeros of
    L_{p0}^{|l0|}(u), or at p0 = 0 on each of 8 panels over the weight's peak,
    k +- 16 sqrt(k) with k = |l0| + 1, and on each of 8 tail panels up to twice
    the cut of _radial_range; in theta = pi t^3, 8 panels of 1024 nodes in t.

    The first panel takes u = z_1 s^2, z_1 the first zero or panel edge: in
    strong turbulence the angular integral falls as u^(-1/2), so at |l0| = 1 the
    integrand is about u^(1/2) there, and plain Gauss nodes miss a by up to 6e-9.
    The sums are divided by the rule's own radial mass, which cancels the
    rounding of the lgamma constant (about 1e-14 relative).
    """
    labs = abs(l0)
    r0 = phase_correlation_length(BeamParams(waist=1.0, l0=l0, p0=p0)) / x
    if p0:
        edges = roots_genlaguerre(p0, labs)[0]
    else:
        k = labs + 1.0
        edges = np.linspace(max(0.0, k - 16.0 * math.sqrt(k)), k + 16.0 * math.sqrt(k), 9)[1:]
    u_cut = 4.0 * _radial_range(l0, p0)[0] ** 2
    s, w_s = _gauss_panels([0.0, 1.0], 64)
    u, w_u = _gauss_panels(np.concatenate((edges, np.linspace(edges[-1], u_cut, 9)[1:])), 64)
    u = np.concatenate((edges[0] * s * s, u))
    w_u = np.concatenate((2.0 * edges[0] * s * w_s, w_u))
    weight = w_u * np.exp(gammaln(p0 + 1.0) - gammaln(p0 + labs + 1.0) + labs * np.log(u) - u) \
        * eval_genlaguerre(p0, labs, u) ** 2
    t, w_t = _gauss_panels(np.linspace(0.0, 1.0, 9), 1024)
    theta = math.pi * t ** 3
    w_theta = 3.0 * t ** 2 * w_t  # dtheta/dt over pi
    rows = np.array((w_theta, np.cos(2.0 * labs * theta) * w_theta))
    sin53 = np.sin(0.5 * theta) ** (5.0 / 3.0)
    c = HALF_STRUCTURE * (np.sqrt(2.0 * u) / r0) ** (5.0 / 3.0)
    sums = sum(rows @ (weight[k:k + 64] @ np.exp(-np.outer(c[k:k + 64], sin53)))
               for k in range(0, len(u), 64))  # one panel's kernel at a time, 4 MB
    return tuple((sums / weight.sum()).tolist())


def lambda_element(l_in: int, lp_in: int, l_out: int, lp_out: int,
                   beam: BeamParams, turb: TurbulenceParams, tol: float = 1e-9) -> complex:
    """General element of the single-photon map for indices in {+l0, -l0},
    by nested quad.

    Enforces the angular-momentum selection rule (exact zero when violated)
    and carries the phase factor exp(-i theta [l_out + lp_out - l_in - lp_in]/2).
    Unlike channel_ab, integrates the full [0, 2pi] circle so the analytic
    vanishing of the imaginary part is checked numerically, not imposed.
    """
    valid = {beam.l0, -beam.l0}
    for idx in (l_in, lp_in, l_out, lp_out):
        if idx not in valid:
            raise ValueError(f"index {idx} outside the qubit subspace {{+l0, -l0}}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if l_in - lp_in != l_out - lp_out:
        return 0.0 + 0.0j
    if math.isinf(turb.fried_r0):
        return (1.0 if l_in == l_out else 0.0) + 0.0j

    n = (l_out + lp_out - l_in - lp_in) // 2
    r0 = turb.fried_r0 / beam.waist  # the map depends on w0/r0 only
    # e^{-i n theta} = cos(n theta) - i sin(n theta)
    re = _map_integral(beam.l0, beam.p0, r0, lambda th: math.cos(n * th), tol, True)
    im = _map_integral(beam.l0, beam.p0, r0, lambda th: math.sin(n * th), tol, True)
    return complex(re, -im)


def large_x_limit(l0: int, p0: int = 0) -> float:
    """lim a x as x -> inf.

    For large C the angular integral tends to 2 Gamma(8/5) C(r)^(-3/5), and
    C(r)^(-3/5) = 3.44^(-3/5) r0 / (2 r) with r0 = xi/x.
    """
    xi = phase_correlation_length(BeamParams(waist=1.0, l0=l0, p0=p0))
    density = _radial_density(l0, p0)
    r_max, breaks = _radial_range(l0, p0)
    moment = quad(lambda r: density(r) / r, 0.0, r_max, points=breaks,
                  epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return gamma(1.6) * HALF_STRUCTURE ** -0.6 * xi / math.pi * moment


def radial_amplitude(u, beam: BeamParams):
    """Dimensionless LG amplitude at u = 2 r^2/w0^2, elementwise on arrays,

        sqrt(p0!/(p0+|l0|)!) u^(|l0|/2) L_{p0}^{|l0|}(u) e^(-u/2),

    whose square is the radial weight, of unit mass on u in [0, inf).
    """
    labs = abs(beam.l0)
    p0 = beam.p0
    # log-space prefactor: factorial ratio overflows well before |l0| ~ 150
    lg = 0.5 * (math.lgamma(p0 + 1.0) - math.lgamma(p0 + labs + 1.0))
    with np.errstate(divide="ignore"):  # log 0 = -inf: zero at u = 0 for |l0| >= 1
        return np.exp(lg + 0.5 * labs * np.log(u) - 0.5 * u) * laguerre(p0, labs, u)


def radial_profile(r, beam: BeamParams):
    """Radial amplitude R_{p0,l0}(r) of the LG mode, elementwise on arrays,
    normalized so that the intensity integral  int_0^inf R^2 r dr = 1.

        R(r) = (2/w0) sqrt(p0!/(p0+|l0|)!) (r sqrt2/w0)^|l0|
               L_{p0}^{|l0|}(2 r^2/w0^2) exp(-r^2/w0^2)

    It is ``radial_amplitude`` at u = 2 r^2/w0^2, scaled by 2/w0.
    """
    if np.any(r < 0):
        raise ValueError(f"radius must be non-negative, got {r}")
    w0 = beam.waist
    return (2.0 / w0) * radial_amplitude(2.0 * r * r / (w0 * w0), beam)


def populations(s: XState) -> np.ndarray:
    """The diagonal d11..d44 of an X state as an array."""
    return np.array([s.d11, s.d22, s.d33, s.d44])


def random_x_state(rng: np.random.Generator) -> XState:
    """Random valid X state: Dirichlet populations, coherences inside the
    positivity disks with random phases."""
    d = rng.dirichlet(np.ones(4))
    m14 = math.sqrt(d[0] * d[3]) * rng.uniform(0.0, 1.0)
    m23 = math.sqrt(d[1] * d[2]) * rng.uniform(0.0, 1.0)
    ph14, ph23 = rng.uniform(0.0, 2.0 * math.pi, 2)
    return XState(d[0], d[1], d[2], d[3],
                  m14 * complex(math.cos(ph14), math.sin(ph14)),
                  m23 * complex(math.cos(ph23), math.sin(ph23)))


# ---------- dense 4x4 oracles: the package works on the two X blocks only ----------

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS_A = [np.kron(s, np.eye(2, dtype=complex)) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
TIE_BAND = 1e-12


def to_dense(s: XState) -> np.ndarray:
    """4x4 Hermitian density matrix with the X entries in place."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = s.d11, s.d22, s.d33, s.d44
    m[0, 3] = s.c14
    m[3, 0] = s.c14.conjugate()
    m[1, 2] = s.c23
    m[2, 1] = s.c23.conjugate()
    return m


def coherence_dense(s: XState) -> float:
    """Relative entropy of coherence S(diag rho) - S(rho) from the dense matrix,
    the spectrum by eigvalsh."""
    def entropy(lam):
        lam = np.clip(lam, 0.0, None)
        nz = lam[lam > 0.0]
        return float(-np.sum(nz * np.log2(nz)))

    dense = to_dense(s)
    return entropy(np.diag(dense).real) - entropy(np.linalg.eigvalsh(dense))


def sqrt_psd(dense: np.ndarray) -> np.ndarray:
    """Hermitian square root by eigendecomposition, eigenvalues in
    [-1e-12, 0) clamped to zero."""
    eigs, vecs = np.linalg.eigh(np.asarray(dense, dtype=complex))
    assert eigs.min() >= -1e-12, f"eigenvalue {eigs.min()} below -1e-12"
    return (vecs * np.sqrt(np.clip(eigs, 0.0, None))) @ vecs.conj().T


def w_matrix(dense: np.ndarray) -> np.ndarray:
    """3x3 matrix W_ij = Tr[sqrt(rho) (sigma_i x I) sqrt(rho) (sigma_j x I)]
    whose maximal eigenvalue gives the LQU."""
    root = sqrt_psd(dense)
    rotated = [root @ p for p in PAULIS_A]
    w = np.array([[np.trace(ri @ rj) for rj in rotated] for ri in rotated])
    assert np.abs(w.imag).max() <= 1e-12, "W matrix acquired an imaginary part"
    wr = w.real
    assert np.abs(wr - wr.T).max() <= 1e-12, "W matrix not symmetric"
    return 0.5 * (wr + wr.T)


def lqu_dense(s: XState) -> tuple[float, int]:
    """LQU 1 - lambda_max(W), clamped to [0, 1], and the 1-based Pauli axis
    dominating the maximal eigenvector of W; eigenvalues within 1e-12 of the
    maximum tie and pick the lowest axis."""
    eigs, vecs = np.linalg.eigh(w_matrix(to_dense(s)))
    axes = [int(np.argmax(np.abs(vecs[:, i])))
            for i in range(3) if eigs[i] >= eigs[-1] - TIE_BAND]
    return min(1.0, max(0.0, 1.0 - float(eigs[-1]))), min(axes) + 1


def concurrence_wootters_oracle(dense: np.ndarray) -> float:
    """Spin-flip concurrence of a general two-qubit density matrix:
    C = max{0, l1 - l2 - l3 - l4} with l_i the decreasing square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy)."""
    rho = np.asarray(dense, dtype=complex)
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    prod = rho @ yy @ rho.conj() @ yy
    lam = np.sqrt(np.clip(np.linalg.eigvals(prod).real, 0.0, None))
    lam = np.sort(lam)[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
