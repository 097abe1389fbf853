"""Layered benchmark of oamturb.

    python3 perfbench/run.py --workload figure|points|states --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare OLD NEW

A run validates the channel oracle, runs the workload in its own process
with BLAS pinned to one thread, judges every output with the oracles in a
third process, and prints the environment, the sample counts, the plain
wall times and, as the last line, {"correct", "attempted", "failed",
"metrics"}.  --trace 0 gives the end-to-end metrics, whose timings are in
units of the worker's reference loop, --trace 1 the per-layer ones.
--out FILE also saves the run; --compare prints new/old ratios per metric
between saved runs (files or directories of them).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"  # spans and the oracle cache; not committed
BUDGET_S = 170.0  # a run must end within 180 s
PINNED = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _python(args, deadline, stdin=None):
    """Run a benchmark script to completion; its stdout, or BenchError."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {args[0]}")
    # Its own process group, so that a timeout also ends the processes it started.
    with subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_env(), text=True,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(stdin, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{args[0]} exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return stdout


def _channel_verdicts(verdict):
    """The (a, b) checks inside one output's verdict."""
    if "rows" in verdict:
        return verdict["rows"]
    return [verdict] if "delta" in verdict else []


def _per_input(times):
    """One time per input: the mean of its repeats."""
    return [statistics.fmean(v) for v in times]


def wall_times(record):
    """The untraced timings in plain milliseconds, for reading only: they
    move with the speed of the machine, which the x_ref metrics divide out."""
    t = record["times"]
    task, aux = _per_input(t["task"]), _per_input(t["aux"])
    return {"ref_ms.mean": statistics.fmean(t["ref"]) * 1e3,
            "task_ms.p50": percentile(task, 50) * 1e3, "task_ms.p90": percentile(task, 90) * 1e3,
            "aux_ms.mean": statistics.fmean(aux) * 1e3}


def assemble(record, verdicts, trace):
    # Each operation counts once, however often the run repeated it for
    # timing: every repeat had to reproduce the output that was judged.
    ops = sorted(record["ops"])
    attempted = len(ops)
    failed = sum(bool(verdicts[oid]["wrong"]) for oid in ops)
    if trace:
        metrics = dict(record["layers"])
        checked = [v for oid in ops for v in _channel_verdicts(verdicts[oid])]
        metrics["turbulence.channel_ab.wrong"] = (sum(bool(v["channel_wrong"]) for v in checked), "count")
        metrics["turbulence.channel_ab.false_err_bars"] = (
            sum(bool(v["false_err_bars"]) for v in checked), "count")
        metrics["measures.wrong"] = (sum(
            bool(v.get("measures_wrong"))
            for oid in ops for v in [verdicts[oid], *verdicts[oid].get("rows", [])]), "count")
    else:
        t = record["times"]
        ref = statistics.fmean(t["ref"])
        task, aux = _per_input(t["task"]), _per_input(t["aux"])
        metrics = {
            "setup_s": (statistics.median(t["setup"]), "s"),
            "task_rel.mean": (statistics.fmean(task) / ref, "x_ref"),
            "task_rel.p50": (percentile(task, 50) / ref, "x_ref"),
            "aux_rel.mean": (statistics.fmean(aux) / ref, "x_ref"),
            "peak_rss_mb": (record["peak_rss_mb"], "MB"),
            "ok_frac": (1.0 - failed / attempted, "fraction"),
        }
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}


def run(args):
    if not (ROOT / "src" / "oamturb" / "__init__.py").is_file():
        raise BenchError(f"no oamturb source under {ROOT / 'src'}")
    deadline = time.monotonic() + BUDGET_S
    _python([str(HERE / "oracle.py"), "self-check"], deadline)
    worker = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    OUT.mkdir(exist_ok=True)
    if args.trace:
        worker += ["--spans", str(OUT / f"spans-{args.workload}-{args.seed}.json")]
    record = json.loads(_python(worker, deadline - 15.0).splitlines()[-1])
    verdicts = json.loads(_python([str(HERE / "oracle.py"), "check", str(OUT)], deadline,
                                  stdin=json.dumps({"outputs": record["outputs"]})))
    result = assemble(record, verdicts, args.trace)
    failures = {oid: verdicts[oid] for oid in record["ops"] if verdicts[oid]["wrong"]}
    samples = dict(record["samples"], **{f"{k}_inputs": len(v) for k, v in record["times"].items()
                                         if k in ("task", "aux")})
    print("env " + json.dumps(record["env"]))
    print("samples " + json.dumps(samples))
    if not args.trace:
        print("wall " + json.dumps(wall_times(record)))
    if record.get("missing_sites"):
        print("missing spans " + json.dumps(record["missing_sites"]))
    for oid, v in list(failures.items())[:20]:
        print(f"failed {oid}: " + json.dumps({k: v[k] for k in v if k != "rows"})[:300])
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": record["env"], "samples": samples, "result": result},
            indent=1) + "\n")
    print(json.dumps(result))


def _load_runs(path):
    files = sorted(Path(path).glob("*.json")) if Path(path).is_dir() else [Path(path)]
    runs = {}
    for f in files:
        r = json.loads(f.read_text())
        runs[(r["workload"], r["trace"])] = r
    return runs


def compare(old_path, new_path):
    old, new = _load_runs(old_path), _load_runs(new_path)
    for key in sorted(old.keys() & new.keys()):
        print(f"{key[0]} trace={key[1]}  (old seed {old[key]['seed']}, new seed {new[key]['seed']})")
        om, nm = old[key]["result"]["metrics"], new[key]["result"]["metrics"]
        for name in sorted(om.keys() | nm.keys()):
            if name not in om or name not in nm:
                print(f"  {name:48s} only in {'new' if name in nm else 'old'}")
                continue
            a, b = om[name]["value"], nm[name]["value"]
            ratio = f"{b / a:.3f}" if a else "n/a"
            print(f"  {name:48s} {a:14.6g} -> {b:14.6g} {nm[name]['unit']:9s} x{ratio}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("figure", "points", "states"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also save the run to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    try:
        run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
