"""Independent oracles for the benchmark's correctness checks.

Nothing here imports oamturb.  The channel coefficients come from nested
``scipy.integrate.quad`` in the physical (r, theta) variables; the measures
come from dense 4x4 matrices through ``scipy.linalg``; fits are judged by
their residual sum of squares.

Run as a script:

    python3 perfbench/oracle.py self-check      # validate the channel oracle
    python3 perfbench/oracle.py check DIR < rec.json  # verdicts for a worker record,
                                                    # oracle values cached in DIR
"""

import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
from scipy import integrate, linalg, optimize, special

# D_phi(d)/2 = 0.5 * 6.88 (d/r0)^(5/3)
HALF_STRUCTURE = 3.44
# Slack for the oracle's own quadrature error when judging error bars.
ORACLE_SLACK = 1e-13
MEASURE_TOL = 1e-9
# Entries of a float density matrix carry about this much representation and
# rounding error; the matrix square root turns it into sqrt(EPS_RHO) near
# zero eigenvalues, which bounds how well the LQU of a near-pure state is
# defined at all.
EPS_RHO = 1e-15
# Eigenvalues below this are rounding noise of a zero eigenvalue.
EIG_FLOOR = 1e-15
ESD_DELTA = 1e-6
CLI_REL = 1e-11  # the CLI prints 12 significant digits

FROZEN = {  # test_regression_values in tests/test_turbulence.py
    (1, 0.5): (0.24144710016137963, 0.09354559749019398),
    (1, 2.0): (0.056873872726141854, 0.051476726677348116),
    (2, 1.0): (0.0755122792368995, 0.0492413976826873),
    (10, 1.0): (0.015355991961940305, 0.010568411014631464),
}
STRONG_REFERENCE = (10, 20.0, 7.676e-4)  # l0, x, a from an independent quad


# ---------- channel ----------

def correlation_length(l0):
    """xi(l0) = sin(pi/2|l0|) (w0/2) Gamma(|l0|+3/2)/Gamma(|l0|+1), w0 = 1."""
    l = abs(l0)
    return (math.sin(math.pi / (2 * l)) * 0.5
            * math.exp(special.gammaln(l + 1.5) - special.gammaln(l + 1.0)))


def _radial_density(r, l, p):
    """r R(r)^2 of the LG mode (w0 = 1), normalised to unit integral."""
    u = 2.0 * r * r
    if u == 0.0:
        return 0.0
    log_norm = (math.log(4.0) + special.gammaln(p + 1) - special.gammaln(p + l + 1)
                + l * math.log(u) - u)
    lag = special.eval_genlaguerre(p, l, u)
    return r * math.exp(log_norm) * lag * lag


def _angular(r, n, r0, eps):
    """int_0^pi cos(n theta) exp(-D_phi(2 r sin(theta/2))/2) dtheta, with
    breakpoints at multiples of the peak width (1/C)^(3/5)."""
    c = HALF_STRUCTURE * (2.0 * r / r0) ** (5.0 / 3.0)
    width = 2.0 * c ** -0.6
    points = [k * width for k in (1, 4, 16, 64) if k * width < math.pi]
    value, _ = integrate.quad(
        lambda th: math.cos(n * th) * math.exp(-c * math.sin(0.5 * th) ** (5.0 / 3.0)),
        0.0, math.pi, points=points or None, epsabs=eps, epsrel=0.0, limit=400)
    return value


def _coefficient(l0, p0, x, n, eps=1e-13):
    l = abs(l0)
    r0 = correlation_length(l) / x
    shape = l + 2 * p0 + 1
    r_max = math.sqrt(0.6 * special.gammainccinv(shape, 1e-18))
    quantiles = [math.sqrt(0.5 * special.gammaincinv(shape, q)) for q in (1e-4, 0.5, 1 - 1e-4)]
    value, _ = integrate.quad(lambda r: _radial_density(r, l, p0) * _angular(r, n, r0, eps / 10),
                              0.0, r_max, points=quantiles, epsabs=eps, epsrel=0.0, limit=400)
    return value / math.pi


def channel(l0, p0, x):
    """Survival and crosstalk coefficients (a, b) at strength x."""
    if x == 0.0:
        return 1.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return _coefficient(l0, p0, x, 0), _coefficient(l0, p0, x, 2 * abs(l0))


def large_x_constant(l0, p0=0):
    """lim a x for x -> inf: the angular integral tends to 2 Gamma(8/5) C^(-3/5)."""
    l = abs(l0)
    shape = l + 2 * p0 + 1
    r_max = math.sqrt(0.6 * special.gammainccinv(shape, 1e-18))
    peak = math.sqrt(0.5 * special.gammaincinv(shape, 0.5))
    moment, _ = integrate.quad(lambda r: _radial_density(r, l, p0) / r, 0.0, r_max,
                               points=[peak], epsabs=1e-14, epsrel=0.0, limit=200)
    return special.gamma(1.6) * HALF_STRUCTURE ** -0.6 * correlation_length(l) / math.pi * moment


def self_check():
    """Validate the channel oracle; return a list of problems (empty when sound)."""
    problems = []
    for (l0, x), expected in FROZEN.items():
        got = channel(l0, 0, x)
        if max(abs(g - e) for g, e in zip(got, expected)) > 1e-9:
            problems.append(f"frozen value l0={l0} x={x}: {got} vs {expected}")
    l0, x, a_ref = STRONG_REFERENCE
    a = channel(l0, 0, x)[0]
    if abs(a - a_ref) > 1e-7:
        problems.append(f"l0={l0} x={x}: a={a} vs {a_ref}")
    const = large_x_constant(10)
    for x, rel in ((100.0, 1e-6), (1000.0, 1e-8)):
        ax = channel(10, 0, x)[0] * x
        if abs(ax / const - 1.0) > rel:
            problems.append(f"a x at x={x}: {ax} vs asymptote {const}")
    return problems


# ---------- measures ----------

_Y = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_Y, _Y)
_PAULI_A = [np.kron(s, np.eye(2)) for s in (np.array([[0, 1], [1, 0]], complex), _Y,
                                           np.diag([1.0 + 0j, -1.0]))]


def output_state(a, b, gamma, theta, phi):
    """Dense two-photon state: Werner-like input pushed through the channel.

    Single photon: |l><l| -> a|l><l| + b|-l><-l|, coherences scale by a.
    """
    psi = np.array([0.0, math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2), 0.0])
    rho = gamma * np.outer(psi, psi.conj()) + (1.0 - gamma) / 4.0 * np.eye(4)
    one = np.array([[a, 0, 0, b], [0, a, 0, 0], [0, 0, a, 0], [b, 0, 0, a]], dtype=float)
    # rho[(i1 i2), (j1 j2)] -> pairs (i1 j1), (i2 j2); act with the map on each
    pairs = rho.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    pairs = one @ pairs @ one.T
    out = pairs.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    return out / np.trace(out).real


def _sqrt_psd(rho):
    w, v = linalg.eigh(rho)
    w = np.where(w < EIG_FLOOR, 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T, w


def _entropy(p):
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def w_matrix(root):
    return np.array([[np.trace(root @ pi @ root @ pj).real for pj in _PAULI_A] for pi in _PAULI_A])


def measures(rho):
    """(concurrence, relative entropy of coherence, LQU, LQU tolerance, branch)."""
    root, eigs = _sqrt_psd(rho)
    sv = linalg.svdvals(root @ _YY @ root.conj())
    conc = max(0.0, sv[0] - sv[1] - sv[2] - sv[3])
    coh = max(0.0, _entropy(np.clip(np.diag(rho).real, 0.0, None)) - _entropy(eigs))
    lam, vec = linalg.eigh(w_matrix(root))
    lqu = min(1.0, max(0.0, 1.0 - lam[-1]))
    # |sqrt(A) - sqrt(B)| <= min(sqrt|A-B|, |A-B| / (2 sqrt(lambda_min)))
    floor = max(eigs.min(), 0.0)
    root_err = min(math.sqrt(EPS_RHO), EPS_RHO / (2.0 * math.sqrt(floor)) if floor else math.inf)
    lqu_tol = MEASURE_TOL + 8.0 * root_err
    branch = int(np.argmax(np.abs(vec[:, -1]))) + 1
    return conc, coh, lqu, lqu_tol, branch


# ---------- fits ----------

def poly_form(x, p):
    A, e, B, C = p
    xp = np.where(x > 0, np.abs(x) ** e, 0.0)
    return A / (xp + B) + C


def exp_form(x, p):
    G, alpha, beta, c = p
    xb = np.where(x > 0, np.abs(x) ** beta, 0.0)
    return G * (np.exp(-alpha * xb) + c)


FORMS = {"poly_form": poly_form, "exp_form": exp_form}


def rss(form, xs, ys, params):
    r = FORMS[form](np.asarray(xs), np.asarray(params, dtype=float)) - np.asarray(ys)
    return float(r @ r)


def best_rss(form, xs, ys, initial):
    """Residual of scipy's Levenberg-Marquardt fit from the same start."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    with np.errstate(all="ignore"):
        res = optimize.least_squares(lambda p: FORMS[form](xs, p) - ys, np.asarray(initial, float),
                                     method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=20000)
    return float(res.fun @ res.fun)


# ---------- verdicts ----------

def check_channel(rec, memo):
    """Compare one returned (a, b) with the oracle, and with its error bars
    when the output reports them."""
    key = (rec["l0"], rec["p0"], rec["x"])
    if key not in memo:
        memo[key] = channel(*key)
    a, b = memo[key]
    da, db = abs(rec["a"] - a), abs(rec["b"] - b)
    if rec.get("printed"):  # parsed back from 12 significant digits
        da = max(0.0, da - CLI_REL * abs(a))
        db = max(0.0, db - CLI_REL * abs(b))
    false_bars = "err_a" in rec and (da > rec["err_a"] + ORACLE_SLACK
                                     or db > rec["err_b"] + ORACLE_SLACK)
    return {"channel_wrong": max(da, db) > rec["tol"] + ORACLE_SLACK,
            "false_err_bars": false_bars, "delta": max(da, db), "oracle": [a, b]}


def check_measures(rec):
    """Names of the measures that disagree with the dense reference."""
    conc, coh, lqu, lqu_tol, _ = measures(output_state(rec["a"], rec["b"], rec["gamma"],
                                                      rec["theta"], rec["phi"]))
    slack = CLI_REL if rec.get("printed") else 0.0
    return [name for name, got, want, tol in (
        ("concurrence", rec["concurrence"], conc, MEASURE_TOL),
        ("coherence", rec["coherence"], coh, MEASURE_TOL),
        ("lqu", rec["lqu"], lqu, lqu_tol),
        ("concurrence_analytic", rec.get("concurrence_analytic", conc), conc, MEASURE_TOL),
    ) if abs(got - want) > tol + slack]


def check_fit(rec):
    if rec.get("generating") is not None:
        reference = rss(rec["form"], rec["xs"], rec["ys"], rec["generating"])
    else:
        reference = best_rss(rec["form"], rec["xs"], rec["ys"], rec["initial"])
    ok = bool(rec["converged"]) and rec["rss"] <= reference * (1 + 1e-6) + 1e-15
    return {"wrong": not ok, "reference_rss": reference}


def _inner(a, b, gamma, theta):
    # numerator of the channel concurrence minus the noise term, times (a+b)^2
    return a * a * gamma * math.sin(theta) - 2 * a * b * gamma - 0.5 * (1 - gamma) * (a + b) ** 2


def check_esd(rec, memo):
    signs = []
    for x in (rec["x_star"] - ESD_DELTA, rec["x_star"] + ESD_DELTA):
        key = (rec["l0"], rec["p0"], x)
        memo.setdefault(key, channel(*key))
        signs.append(_inner(*memo[key], rec["gamma"], rec["theta"]))
    return {"wrong": not (signs[0] > 0.0 >= signs[1]), "oracle_inner": signs}


def check_sudden_change(rec, memo):
    branches = []
    for x in (rec["x_change"] - rec["delta"], rec["x_change"] + rec["delta"]):
        key = (rec["l0"], rec["p0"], x)
        memo.setdefault(key, channel(*key))
        rho = output_state(*memo[key], rec["gamma"], rec["theta"], rec["phi"])
        branches.append(measures(rho)[4])
    return {"wrong": branches != [rec["branch_before"], rec["branch_after"]],
            "oracle_branches": branches}


def check_output(rec, memo):
    """Verdict for one output; 'wrong' is set when any of its checks fails."""
    if "raised" in rec:  # an (a, b) returned before the failure is still judged
        return dict(check_channel(rec, memo) if "a" in rec else {}, wrong=True, raised=rec["raised"])
    kind = rec["kind"]
    if kind == "sweep":
        rows = [check_output(dict(row, kind="query"), memo) for row in rec["rows"]]
        return {"wrong": any(r["wrong"] for r in rows), "rows": rows}
    if kind == "fit":
        return check_fit(rec)
    if kind == "esd":
        return check_esd(rec, memo)
    if kind == "sudden_change":
        return check_sudden_change(rec, memo)
    v = {}
    if kind in ("channel", "query"):
        v.update(check_channel(rec, memo))
    if kind in ("measures", "query"):
        v["measures_wrong"] = check_measures(rec)
    v["wrong"] = bool(v.get("channel_wrong") or v.get("false_err_bars") or v.get("measures_wrong"))
    return v


def check_record(record, memo=None):
    """Verdicts for every output of a worker record, keyed by output id.
    memo maps (l0, p0, x) to oracle (a, b) and is filled as a side effect.
    An output with `channel_from` takes its (a, b) from that other output."""
    memo = {} if memo is None else memo
    outputs = record["outputs"]
    verdicts = {}
    for oid, rec in outputs.items():
        if "channel_from" in rec:
            source = outputs.get(rec["channel_from"], {})
            if "raised" in source or "a" not in source:
                verdicts[oid] = {"wrong": True, "raised": f"measures printed where {rec['channel_from']} "
                                                          "gave no state to check them against"}
                continue
            rec = dict(rec, a=source["a"], b=source["b"])
        verdicts[oid] = check_output(rec, memo)
    return verdicts


def _cache_path(directory):
    """Cache file named after this file's content, so edits start afresh."""
    digest = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:16]
    return Path(directory) / f"oracle-{digest}.json"


def load_memo(directory):
    path = _cache_path(directory)
    if not path.is_file():
        return {}
    return {tuple(k): tuple(v) for k, v in json.loads(path.read_text())}


def save_memo(directory, memo):
    Path(directory).mkdir(exist_ok=True)
    tmp = _cache_path(directory).with_suffix(".tmp")
    tmp.write_text(json.dumps([[list(k), list(v)] for k, v in memo.items()]))
    tmp.replace(_cache_path(directory))


def main(argv):
    if argv[1:] == ["self-check"]:
        problems = self_check()
        for p in problems:
            print(f"oracle self-check failed: {p}", file=sys.stderr)
        return 1 if problems else 0
    if len(argv) == 3 and argv[1] == "check":
        memo = load_memo(argv[2])
        print(json.dumps(check_record(json.load(sys.stdin), memo)))
        save_memo(argv[2], memo)
        return 0
    print("usage: oracle.py self-check | check CACHE_DIR < record.json", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
