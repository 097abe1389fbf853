"""One workload in one process: generate inputs from the seed, time calls into
oamturb's public API, and print a JSON record of timings, outputs and spans.

Started by run.py with BLAS pinned to one thread; the outputs are judged
afterwards, in another process, by oracle.py.
"""

import argparse
import json
import math
import subprocess
import sys
import time
from collections import Counter

_t0 = time.perf_counter()
import oamturb as ot  # noqa: E402  (timed: package import is a per-layer metric)
IMPORT_S = time.perf_counter() - _t0

import importlib.util  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from io import StringIO  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import Tracer, aggregate, calls_under, percentile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_SPAWNS = 7
# The first call a fresh process makes, per workload; fixed, not seeded.
FIRST_CALL = {
    "figure": "b = o.BeamParams(1.0, 1); o.sweep(b, o.WernerParams(1.0, math.pi / 2), [0.05], 1e-9)",
    "points": ("b = o.BeamParams(1.0, 1); cc = o.channel_ab(b, o.r0_from_x(b, 0.5), 1e-9); "
               "o.measure_triple(o.apply_channel(o.werner_like(o.WernerParams(0.8, 1.0, 0.5)), cc))"),
    "states": ("w = o.WernerParams(0.8, 1.0, 0.5); cc = o.ChannelCoefficients(0.6, 0.2); "
               "o.measure_triple(o.apply_channel(o.werner_like(w), cc)); o.concurrence_analytic(w, cc)"),
}
FIGURE_TOL = 1e-9
POINT_TOLS = (1e-6, 1e-9, 1e-11)
BLOCKS = 2  # points: 30 queries in blocks of 15
CLI_EVERY = 6  # points: one CLI process after every sixth query
FIT_EVERY = 10  # states: one fit after every tenth state
DESIGN_SEED = 20171
REF_EVERY_S = 0.15  # one sample of the reference loop per this much run time
_REF_NODES = np.linspace(-1.0, 1.0, 15)
LITERATURE = {"poly_form": ot.sweepfit.POLY_FORM_INITIAL, "exp_form": ot.sweepfit.EXP_FORM_INITIAL}


class Session:
    """Runs timed steps, keeps their outputs for checking and, when traced,
    runs every step a second time with spans recorded."""

    def __init__(self, workload, seconds, traced):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.deadline = self.start + seconds
        self.tracer = Tracer() if traced else None
        self.setup_code = f"import math\nimport oamturb as o\n{FIRST_CALL[workload]}"
        self.times = {"task": {}, "aux": {}}  # input key -> every time taken
        self.samples = {"task": 0, "aux": 0}
        self.setup = []
        self.ref = []  # times of the reference loop, spread over the run
        self.ref_at = -math.inf
        self.pairs = [0.0, 0.0]  # untraced, traced time of steps run both ways
        self.traced_first = False
        self.outputs = {}
        self.ops = Counter()
        self.fits = []

    def checkpoint(self):
        """True while the run has time left; between steps it also takes the
        set-up samples due by now, spread over the run so they see the same
        machine conditions as the steps."""
        if self.tracer is None:
            now = time.perf_counter()
            if now - self.ref_at >= REF_EVERY_S:
                self.ref.append(_timed(reference_loop)[1])
                self.ref_at = now
            due = SETUP_SPAWNS * (time.perf_counter() - self.start) / self.seconds
            while len(self.setup) < min(SETUP_SPAWNS, int(due) + 1):
                self.spawn_setup()
        return time.perf_counter() < self.deadline

    def spawn_setup(self):
        """Time a fresh process from spawn to exit: import plus first call."""
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", self.setup_code], check=True, timeout=120)
        self.setup.append(time.perf_counter() - t)

    def finish(self):
        while self.tracer is None and len(self.setup) < SETUP_SPAWNS:
            self.spawn_setup()

    def run(self, step, fn):
        """Time fn().  Traced sessions run it twice, untraced and inside a
        root span, alternating which goes first so that drift in machine
        speed cancels in the overhead ratio; the traced result is returned.
        Returns (result, seconds, exception)."""
        if self.tracer is None:
            return _timed(fn)
        self.traced_first = not self.traced_first
        if self.traced_first:
            traced = self._traced(step, fn)
            plain = _timed(fn)
        else:
            plain = _timed(fn)
            traced = self._traced(step, fn)
        self.pairs[0] += plain[1]
        self.pairs[1] += traced[1]
        return traced

    def _traced(self, step, fn):
        self.tracer.install()
        try:
            t = time.perf_counter()
            result, error = self.tracer.step(step, _catch, fn)
            return result, time.perf_counter() - t, error
        finally:
            self.tracer.uninstall()

    def op(self, oid, record):
        """Keep the output of operation `oid`.  Pools repeat their inputs once
        exhausted; a repeat must give the output the first run gave, or the
        operation is reported as not reproducible."""
        self.ops[oid] += 1
        first = self.outputs.setdefault(oid, record)
        if "raised" not in first and json.dumps(record) != json.dumps(first):
            first["raised"] = "not reproducible: a repeat gave another output"

    def fitted(self, fit):
        """Keep a traced fit's iteration count and convergence."""
        if self.tracer is not None and fit is not None:
            self.fits.append(fit)

    def timing(self, kind, key, seconds):
        """Keep every time of each input; run.py takes the mean of each
        input's repeats, which are spread over the whole run."""
        self.times[kind].setdefault(key, []).append(seconds)
        self.samples[kind] += 1


def reference_loop():
    """Fixed work in the style of the channel kernel (interpreted loops over
    15-point numpy rules) that never calls oamturb.  Its time measures how
    fast the machine runs Python at that moment, so that timings can be
    divided by it."""
    total = 0.0
    for k in range(1500):
        u = 0.5 + 0.5 * _REF_NODES * (1.0 + k % 5)
        total += float(np.dot(np.exp(-u * u), np.cos(u))) + math.sqrt(1.0 + k)
    return total


def _catch(fn):
    try:
        return fn(), None
    except Exception as exc:  # a failed operation, judged by the checker
        return None, f"{type(exc).__name__}: {exc}"


def _timed(fn):
    t = time.perf_counter()
    result, error = _catch(fn)
    return result, time.perf_counter() - t, error


def _row_record(row, l0, w):
    return {"l0": l0, "p0": 0, "x": row.x, "tol": FIGURE_TOL, "a": row.a, "b": row.b,
            "gamma": w.gamma, "theta": w.theta, "phi": w.phi, "concurrence": row.concurrence,
            "coherence": row.coherence, "lqu": row.lqu}


def _sweep_record(rows, l0, w, error):
    if error:
        return {"kind": "sweep", "raised": error}
    return {"kind": "sweep", "rows": [_row_record(r, l0, w) for r in rows]}


def _fit_record(form, fit, rows, column, generating, error):
    if error:
        return {"kind": "fit", "raised": error}
    return {"kind": "fit", "form": form, "xs": [r.x for r in rows],
            "ys": [getattr(r, column) for r in rows], "params": [float(p) for p in fit.params],
            "rss": fit.rss, "converged": bool(fit.converged), "iterations": fit.iterations,
            "initial": list(LITERATURE[form]), "generating": generating}


# ---------- figure: the paper's protocol ----------

def figure(s, rng):
    """Steps of one pass alternate between the two metrics, so that each
    metric's time is spread over the whole pass rather than one stretch."""
    phi_bell, phi_werner = rng.uniform(0.0, 2.0 * math.pi, 2)
    bell = ot.WernerParams(1.0, math.pi / 2, phi_bell)
    werner = ot.WernerParams(1.0, math.pi / 3, phi_werner)
    grid = np.linspace(0.0, 3.0, 61)
    sc_grid = np.linspace(0.0, 1.0, 21)
    beams = {l0: ot.BeamParams(1.0, l0) for l0 in (1, 10)}

    def bell_sweep(l0):
        rows, t, err = s.run("figure.sweep", lambda: ot.sweep(beams[l0], bell, grid, FIGURE_TOL))
        s.timing("task", l0, t)
        s.op(f"sweep-l{l0}", _sweep_record(rows, l0, bell, err))
        s.checkpoint()
        return rows

    def sudden_change():
        rows = ot.sweep(beams[1], werner, sc_grid, FIGURE_TOL)
        return rows, ot.detect_sudden_change(rows, beams[1], werner, FIGURE_TOL)

    while True:
        bell_sweep(1)
        esd, t_esd, err = s.run("figure.esd", lambda: ot.find_esd(beams[10], bell, FIGURE_TOL))
        s.op("esd", {"kind": "esd", "raised": err} if err else
             {"kind": "esd", "l0": 10, "p0": 0, "gamma": bell.gamma, "theta": bell.theta,
              "x_star": esd.x_star if esd.x_star is not None else -1.0})
        s.checkpoint()
        rows = bell_sweep(10)
        if rows is not None:
            for form, column in (("poly_form", "coherence"), ("exp_form", "lqu")):
                fit, _, err = s.run("figure.fit", lambda: getattr(ot, f"fit_{form}")(rows))
                s.op(f"fit-{form}", _fit_record(form, fit, rows, column, None, err))
                s.fitted(fit)
        found, t_sc, err = s.run("figure.sudden_change", sudden_change)
        s.timing("aux", "roots", t_esd + t_sc)
        s.op("sudden-change-sweep", _sweep_record(found and found[0], 1, werner, err))
        s.op("sudden-change", _change_record(found, werner, err))
        if not s.checkpoint():
            return


def _change_record(found, w, error):
    if error:
        return {"kind": "sudden_change", "raised": error}
    rows, x_change = found
    pair = next(((r0.lqu_branch, r1.lqu_branch) for r0, r1 in zip(rows, rows[1:])
                 if r0.lqu_branch != r1.lqu_branch), (0, 0))
    return {"kind": "sudden_change", "l0": 1, "p0": 0, "gamma": w.gamma, "theta": w.theta,
            "phi": w.phi, "x_change": -1.0 if x_change is None else x_change, "delta": 1e-4,
            "branch_before": pair[0], "branch_after": pair[1]}


# ---------- points: independent single-configuration queries ----------

def draw_queries(rng, blocks):
    """Blocks of fifteen queries: for each tolerance, four with x log-spread
    on [0.01, 3] and one on [3, 100]; l0 in [1, 40] and p0 in {0, 1, 2} are
    stratified over the block.  The design (tolerance, l0, p0 and x of each
    query) is drawn once from a fixed generator: query costs span three
    orders of magnitude and move in steps with x, so a design redrawn, or
    even x jittered by 10%, per seed moved the p50 query time by 25%.  The
    seed draws the state (gamma, theta, phi) of each query.  One tol=1e-6
    query per block is also run through the CLI, where the time is mostly
    start-up."""
    design = np.random.default_rng(DESIGN_SEED)
    out = []
    for k in range(blocks):
        l0s = 1 + ((design.permutation(15) + design.uniform(size=15)) / 15 * 40).astype(int)
        p0s = design.permutation(np.arange(15) % 3)
        strong = np.exp(np.log(3.0) + (design.permutation(3) + design.uniform(size=3)) / 3
                        * np.log(100.0 / 3.0))
        block = []
        for t, tol in enumerate(POINT_TOLS):
            regular = np.exp(np.log(0.01) + (np.arange(4) + design.uniform(size=4)) / 4 * np.log(300.0))
            for x in [*regular, strong[t]]:
                i = len(block)
                block.append({"l0": int(l0s[i]), "p0": int(p0s[i]), "tol": tol, "x": float(x),
                              "gamma": float(rng.uniform()), "theta": float(rng.uniform(0.0, math.pi)),
                              "phi": float(rng.uniform(0.0, 2.0 * math.pi))})
        block[int(design.integers(4))]["cli"] = "channel" if k % 2 == 0 else "measures"
        out.extend(block)
    return out


def _query(q):
    """(a, b) and the measures, or (a, b) and the error the measures raised,
    so that the channel output is judged even when the state is not."""
    beam = ot.BeamParams(1.0, q["l0"], q["p0"])
    cc = ot.channel_ab(beam, ot.r0_from_x(beam, q["x"]), q["tol"])
    return cc, _catch(lambda: ot.measure_triple(ot.apply_channel(ot.werner_like(
        ot.WernerParams(q["gamma"], q["theta"], q["phi"])), cc)))


def _cli_argv(q):
    argv = [q["cli"], "--l0", str(q["l0"]), "--p0", str(q["p0"]), "--x", repr(q["x"]),
            "--tol", repr(q["tol"])]
    if q["cli"] == "measures":
        argv += ["--gamma", repr(q["gamma"]), "--theta", repr(q["theta"] / math.pi),
                 "--phi", repr(q["phi"] / math.pi)]
    return argv


def _parse_cli(text):
    return {k: float(v) for k, v in (line.split("=", 1) for line in text.splitlines() if "=" in line)}


def _cli_subprocess(argv):
    done = subprocess.run([sys.executable, "-m", "oamturb", *argv], capture_output=True,
                          text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"exit {done.returncode}: {done.stderr.strip()[-200:]}")
    return done.stdout


def _cli_in_process(argv):
    buf = StringIO()
    with redirect_stdout(buf):
        code = ot.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}")
    return buf.getvalue()


def points(s, rng):
    """Queries in pool order; after every CLI_EVERY-th query one CLI process,
    cycling over the CLI inputs, so that each of them is timed many times
    across the run."""
    pool = draw_queries(rng, BLOCKS)
    cli = [k for k, q in enumerate(pool) if "cli" in q]
    i = 0
    while True:
        k = i % len(pool)
        q = pool[k]
        found, t, err = s.run("points.query", lambda: _query(q))
        s.timing("task", k, t)
        rec = dict(q, kind="query")
        if err:
            rec["raised"] = err
        else:
            cc, (m, err) = found
            rec.update(a=cc.a, b=cc.b, err_a=cc.err_a, err_b=cc.err_b)
            if err:
                rec["raised"] = err
            else:
                rec.update(concurrence=m.concurrence, coherence=m.coherence_rel_ent, lqu=m.lqu)
        s.op(f"q{k}", rec)
        i += 1
        if i % CLI_EVERY == 0:
            c = cli[(i // CLI_EVERY - 1) % len(cli)]
            argv = _cli_argv(pool[c])
            if s.tracer is None:
                text, t, cli_err = _timed(lambda: _cli_subprocess(argv))
                s.timing("aux", c, t)
            else:
                text, _, cli_err = s.run("points.cli", lambda: _cli_in_process(argv))
            s.op(f"cli{c}", _cli_record(pool[c], f"q{c}", text, cli_err))
        if not s.checkpoint() and i >= len(pool) and i % 15 == 0:
            return


def _cli_record(q, query_id, text, error):
    """A CLI `measures` run prints no (a, b); it is checked at the (a, b)
    the library query `query_id` returned for the same inputs."""
    if error:
        return {"kind": "query", "raised": error}
    values = _parse_cli(text)
    rec = dict(q, printed=True)
    if q["cli"] == "channel":
        rec.update(kind="channel", **{k: values[k] for k in ("a", "b", "err_a", "err_b")})
    else:
        rec.update(kind="measures", channel_from=query_id,
                   **{k: values[k] for k in ("concurrence", "coherence", "lqu")})
    return rec


# ---------- states: closed-form state algebra and fits, no quadrature ----------

def draw_states(rng, n):
    a = rng.uniform(0.01, 1.0, n)
    return [{"a": float(a[k]), "b": float(a[k] * rng.uniform()), "gamma": float(rng.uniform()),
             "theta": float(rng.uniform(0.0, math.pi)), "phi": float(rng.uniform(0.0, 2.0 * math.pi))}
            for k in range(n)]


def draw_curves(rng, n):
    """Noisy decay curves from perturbed literature constants."""
    xs = np.linspace(0.0, 3.0, 61)
    curves = []
    for k in range(n):
        form = ("poly_form", "exp_form")[k % 2]
        gen = np.array(LITERATURE[form]) * rng.uniform(0.85, 1.15, 4)
        model = ot.poly_form if form == "poly_form" else ot.exp_form
        ys = model(xs, gen) + rng.normal(0.0, 2e-3, xs.size)
        curves.append({"form": form, "generating": [float(g) for g in gen], "xs": xs, "ys": ys})
    return curves


def _state(st):
    w = ot.WernerParams(st["gamma"], st["theta"], st["phi"])
    cc = ot.ChannelCoefficients(st["a"], st["b"])
    m = ot.measure_triple(ot.apply_channel(ot.werner_like(w), cc))
    return m, ot.concurrence_analytic(w, cc)


def _fit_curve(c):
    """Rows carrying the curve in the column the form fits, and the call."""
    poly = c["form"] == "poly_form"
    rows = [ot.SweepRow(x=float(x), a=1.0, b=0.0, concurrence=0.0, coherence=float(y) if poly else 0.0,
                        lqu=0.0 if poly else float(y), lqu_branch=1) for x, y in zip(c["xs"], c["ys"])]
    return rows, "coherence" if poly else "lqu", lambda: getattr(ot, f"fit_{c['form']}")(rows)


def states(s, rng):
    pool = draw_states(rng, 2000)
    # 1000 curves, so that the seed's mix of easy and hard fits averages out:
    # over 200 the mean LM iteration count moved by 10% from seed to seed.
    curves = draw_curves(rng, 1000)
    full_pass = max(len(pool), FIT_EVERY * len(curves))
    i = 0
    while True:
        st = pool[i % len(pool)]
        found, t, err = s.run("states.state", lambda: _state(st))
        s.timing("task", i % len(pool), t)
        rec = dict(st, kind="measures")
        if err:
            rec["raised"] = err
        else:
            m, analytic = found
            rec.update(concurrence=m.concurrence, coherence=m.coherence_rel_ent, lqu=m.lqu,
                       concurrence_analytic=analytic)
        s.op(f"s{i % len(pool)}", rec)
        i += 1
        if i % FIT_EVERY == 0:
            k = (i // FIT_EVERY - 1) % len(curves)
            rows, column, call = _fit_curve(curves[k])
            fit, t, err = s.run("states.fit", call)
            s.timing("aux", k, t)
            s.op(f"c{k}", _fit_record(curves[k]["form"], fit, rows, column, curves[k]["generating"], err))
            s.fitted(fit)
            if not s.checkpoint() and i >= full_pass:
                return


WORKLOADS = {"figure": figure, "points": points, "states": states}


# ---------- record ----------

def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed):
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "oamturb": ot.__version__, "nproc": os.cpu_count(),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "git_commit": _git_commit(), "seed": seed}


def layer_metrics(tracer, fits):
    spans = tracer.spans
    stats = aggregate(spans)

    def get(name, key="calls"):
        return stats.get(name, {}).get(key, 0)

    def ms(name, pct, scale=1e3):
        return percentile(stats.get(name, {}).get("durations", []), pct) * scale

    def channel_calls_per(ancestor):
        count = get(ancestor)
        return calls_under(spans, ancestor, "turbulence.channel_ab") / count if count else 0.0

    steps = [n for n in stats if "." in n and n.split(".")[0] in WORKLOADS]
    metrics = {
        "turbulence.channel_ab.calls": (get("turbulence.channel_ab"), "count"),
        "turbulence.channel_ab.self_s": (get("turbulence.channel_ab", "self_s"), "s"),
        "turbulence.channel_ab.ms.p50": (ms("turbulence.channel_ab", 50), "ms"),
        "turbulence.channel_ab.ms.p90": (ms("turbulence.channel_ab", 90), "ms"),
        "turbulence.channel_ab.raised": (tracer.raised.get("turbulence.channel_ab", 0), "count"),
        "qstate.werner_like.calls": (get("qstate.werner_like"), "count"),
        "qstate.werner_like.self_s": (get("qstate.werner_like", "self_s"), "s"),
        "qstate.apply_channel.calls": (get("qstate.apply_channel"), "count"),
        "qstate.apply_channel.self_s": (get("qstate.apply_channel", "self_s"), "s"),
        "measures.measure_triple.calls": (get("measures.measure_triple"), "count"),
        "measures.measure_triple.self_s": (get("measures.measure_triple", "self_s"), "s"),
        "measures.measure_triple.us.p50": (ms("measures.measure_triple", 50, 1e6), "us"),
        "measures.concurrence_analytic.self_s": (get("measures.concurrence_analytic", "self_s"), "s"),
        "sweepfit.sweep.calls": (get("sweepfit.sweep"), "count"),
        "sweepfit.sweep.self_s": (get("sweepfit.sweep", "self_s"), "s"),
        "sweepfit.find_esd.calls": (get("sweepfit.find_esd"), "count"),
        "sweepfit.find_esd.channel_calls": (
            channel_calls_per("sweepfit.find_esd"), "count"),
        "sweepfit.find_esd.self_s": (get("sweepfit.find_esd", "self_s"), "s"),
        "sweepfit.detect_sudden_change.calls": (get("sweepfit.detect_sudden_change"), "count"),
        "sweepfit.detect_sudden_change.channel_calls": (
            channel_calls_per("figure.sudden_change"), "count"),
        "sweepfit.detect_sudden_change.self_s": (
            get("sweepfit.detect_sudden_change", "self_s"), "s"),
        "sweepfit.fit.calls": (get("sweepfit.fit"), "count"),
        "sweepfit.fit.self_s": (get("sweepfit.fit", "self_s"), "s"),
        "sweepfit.fit.iterations.p50": (percentile([f.iterations for f in fits], 50), "count"),
        "sweepfit.fit.not_converged": (sum(not f.converged for f in fits), "count"),
        "cli.main.calls": (get("cli.main"), "count"),
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
        "bench.self_s": (sum(stats[n]["self_s"] for n in steps), "s"),
        "trace.wall_s": (sum(end - start for _, start, end, parent in spans if parent < 0), "s"),
        "trace.spans": (len(spans), "count"),
        "trace.missing_sites": (len(tracer.missing), "count"),
    }
    # a layer none of whose names exist any more has no time to report, not zero
    return {k: v for k, v in metrics.items()
            if not any(k.startswith(layer + ".") for layer in tracer.missing_layers)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans to this JSON file")
    args = parser.parse_args(argv)

    record = {"env": environment(args.seed), "import_s": IMPORT_S}
    rng = np.random.default_rng(args.seed)
    session = Session(args.workload, args.seconds, bool(args.trace))
    WORKLOADS[args.workload](session, rng)
    session.finish()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["times"] = {k: list(v.values()) for k, v in session.times.items()}
    record["times"]["setup"] = session.setup
    record["times"]["ref"] = session.ref
    record["samples"] = dict(session.samples, setup=len(session.setup), ref=len(session.ref))
    record["ops"] = session.ops
    record["outputs"] = session.outputs
    if session.tracer is not None:
        tracer = session.tracer
        layers = layer_metrics(tracer, session.fits)
        layers["oamturb.import_s"] = (IMPORT_S, "s")
        untraced, traced = session.pairs
        layers["trace.overhead_frac"] = (traced / untraced - 1.0 if untraced else 0.0, "fraction")
        record["layers"] = layers
        record["missing_sites"] = tracer.missing
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
