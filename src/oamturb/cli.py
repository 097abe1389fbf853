"""Command-line front end: config parsing, dispatch, and deterministic
key=value / CSV output.

Angles are given in units of pi (theta = 0.5 means pi/2).  Numbers are
printed with 12 significant digits, scientific notation below 1e-4, so
identical configs produce byte-identical output.
"""

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .lgmath import BeamParams, phase_correlation_length
from .measures import measure_triple
from .qstate import WernerParams, apply_channel, werner_like
from .sweepfit import (
    EXP_FORM_INITIAL,
    POLY_FORM_INITIAL,
    SweepRow,
    detect_sudden_change,
    find_esd,
    fit_exp_form,
    fit_poly_form,
    sweep,
)
from .turbulence import (
    ConvergenceFailure,
    TurbulenceParams,
    channel_ab,
    r0_from_x,
    x_ratio,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

CSV_HEADER = "x,a,b,concurrence,coherence,lqu,lqu_branch"


class ConfigError(ValueError):
    pass


def fmt(v) -> str:
    """12 significant digits; scientific notation for small magnitudes."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if v == 0.0:
        return "0"
    if abs(v) < 1e-4:
        return f"{v:.11e}"
    return f"{v:.12g}"


_FLOAT_KEYS = {
    "omega0", "gamma", "theta", "phi", "r0", "cn2", "k", "path_length",
    "x", "x_min", "x_max", "tol",
}
_INT_KEYS = {"l0", "p0", "x_points"}
_STR_KEYS = {"out", "form", "input", "initial"}
_SECTIONS = {
    "beam": {"omega0", "l0", "p0"},
    "werner": {"gamma", "theta", "phi"},
    "turbulence": {"r0", "cn2", "k", "path_length", "x", "x_min", "x_max", "x_points"},
    "run": {"tol", "out", "form", "input", "initial"},
}


def _parse_value(key: str, raw: str):
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key}: {raw!r}") from exc


def load_config_file(path: str) -> dict:
    """Flat key=value config with [beam]/[werner]/[turbulence]/[run] sections."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        reason = str(exc).splitlines()[0]
        raise ConfigError(f"malformed config file {path}: {reason}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for section, keys in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[key] = _parse_value(key, raw)
    return values


@dataclass
class RunConfig:
    """Merged beam/state/turbulence/run settings for one command."""

    beam: BeamParams
    werner: WernerParams
    tol: float
    turb_mode: str | None     # "r0" | "physical" | "x" | "grid" | None
    r0: float | None
    x: float | None
    x_min: float
    x_max: float
    x_points: int
    out: str | None
    form: str | None
    input: str | None
    initial: tuple | None


def _merge(args: argparse.Namespace) -> dict:
    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in (_FLOAT_KEYS | _INT_KEYS | _STR_KEYS):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def build_config(args: argparse.Namespace, command: str) -> RunConfig:
    v = _merge(args)
    for key in ("x", "x_min", "x_max", "tol"):
        if key in v and not math.isfinite(v[key]):
            raise ConfigError(f"{key} must be finite, got {v[key]}")
    try:
        beam = BeamParams(waist=v.get("omega0", 1.0), l0=v.get("l0", 1), p0=v.get("p0", 0))
        werner = WernerParams(
            gamma=v.get("gamma", 1.0),
            theta=v.get("theta", 0.5) * math.pi,
            phi=v.get("phi", 0.0) * math.pi,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    tol = v.get("tol", 1e-9)
    if not tol > 0:
        raise ConfigError(f"tolerance must be positive, got {tol}")

    has_r0 = "r0" in v
    physical = [key for key in ("cn2", "k", "path_length") if key in v]
    has_x = "x" in v
    grid_keys = [key for key in ("x_min", "x_max", "x_points") if key in v]
    modes = []
    if has_r0:
        modes.append("r0")
    if physical:
        if len(physical) < 3:
            raise ConfigError("physical turbulence spec needs all of cn2, k, path_length")
        modes.append("physical")
    if has_x:
        modes.append("x")
    if grid_keys:
        modes.append("grid")

    if command in ("channel", "measures"):
        if len(modes) != 1 or modes[0] == "grid":
            raise ConfigError(
                f"{command} requires exactly one turbulence spec: r0, cn2/k/path_length, or x")
    elif command in ("sweep", "esd"):
        if any(m in modes for m in ("r0", "physical", "x")):
            raise ConfigError(f"{command} takes an x grid (x_min/x_max/x_points), not a point spec")
        modes = ["grid"]
    elif command == "fit":
        if any(m in modes for m in ("r0", "physical", "x")):
            raise ConfigError("fit takes an x grid or --input CSV, not a point spec")
        modes = ["grid"]

    r0 = None
    x = None
    mode = modes[0] if modes else None
    if mode == "r0":
        r0 = v["r0"]
        if not r0 > 0:
            raise ConfigError(f"r0 must be positive, got {r0}")
    elif mode == "physical":
        try:
            r0 = TurbulenceParams.from_physical(v["cn2"], v["k"], v["path_length"]).fried_r0
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    elif mode == "x":
        x = v["x"]
        if x < 0:
            raise ConfigError(f"x must be non-negative, got {x}")

    x_min = v.get("x_min", 0.0)
    x_max = v.get("x_max", 3.0)
    x_points = v.get("x_points", 61)
    if x_min < 0 or x_max <= x_min or x_points < 2:
        raise ConfigError(f"invalid x grid: [{x_min}, {x_max}] with {x_points} points")

    form = v.get("form")
    if command == "fit" and form not in ("poly", "exp"):
        raise ConfigError("fit requires --form poly or --form exp")

    initial = None
    if "initial" in v:
        try:
            parts = tuple(float(t) for t in str(v["initial"]).split(","))
        except ValueError as exc:
            raise ConfigError(f"invalid initial guess: {v['initial']!r}") from exc
        if len(parts) != 4:
            raise ConfigError("initial guess needs 4 comma-separated values")
        initial = parts

    if command == "sweep" and "out" not in v:
        raise ConfigError("sweep requires an output path (--out)")

    return RunConfig(
        beam=beam, werner=werner, tol=tol, turb_mode=mode, r0=r0, x=x,
        x_min=x_min, x_max=x_max, x_points=x_points,
        out=v.get("out"), form=form, input=v.get("input"), initial=initial,
    )


def _turbulence_point(cfg: RunConfig) -> TurbulenceParams:
    if cfg.turb_mode == "x":
        return r0_from_x(cfg.beam, cfg.x)
    return TurbulenceParams(cfg.r0)


def _grid(cfg: RunConfig):
    step = (cfg.x_max - cfg.x_min) / (cfg.x_points - 1)
    return [cfg.x_min + i * step for i in range(cfg.x_points)]


def cmd_channel(cfg: RunConfig, stdout) -> int:
    turb = _turbulence_point(cfg)
    cc = channel_ab(cfg.beam, turb, cfg.tol)
    for key, val in (
        ("a", cc.a), ("b", cc.b), ("err_a", cc.err_a), ("err_b", cc.err_b),
        ("x", x_ratio(cfg.beam, turb)), ("r0", turb.fried_r0),
        ("xi", phase_correlation_length(cfg.beam)),
    ):
        print(f"{key}={fmt(val)}", file=stdout)
    return EXIT_OK


def cmd_measures(cfg: RunConfig, stdout) -> int:
    cc = channel_ab(cfg.beam, _turbulence_point(cfg), cfg.tol)
    m = measure_triple(apply_channel(werner_like(cfg.werner), cc))
    for key, val in (
        ("concurrence", m.concurrence), ("coherence", m.coherence_rel_ent),
        ("lqu", m.lqu), ("lqu_branch", m.lqu_branch),
    ):
        print(f"{key}={fmt(val)}", file=stdout)
    return EXIT_OK


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            fmt(r.x), fmt(r.a), fmt(r.b), fmt(r.concurrence),
            fmt(r.coherence), fmt(r.lqu), str(r.lqu_branch),
        ]))
    return "\n".join(lines) + "\n"


def csv_to_rows(path: str) -> list[SweepRow]:
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path} does not carry the expected sweep header")
    rows = []
    for n, ln in enumerate(lines[1:], 1):
        parts = ln.split(",")
        if len(parts) != 7:
            raise ConfigError(f"malformed sweep row: {ln!r}")
        values = [float(v) for v in parts[:6]]
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"non-finite value in sweep row {n}: {ln!r}")
        rows.append(SweepRow(*values, lqu_branch=int(parts[6])))
    return rows


def cmd_sweep(cfg: RunConfig, stdout) -> int:
    rows = sweep(cfg.beam, cfg.werner, _grid(cfg), cfg.tol)
    # write beside the target, then rename: an interrupted run never leaves
    # a truncated CSV at --out
    out = Path(cfg.out)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(rows_to_csv(rows))
        os.replace(tmp, out)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}") from exc
    finally:
        tmp.unlink(missing_ok=True)
    print(f"wrote {len(rows)} rows to {cfg.out}", file=stdout)
    return EXIT_OK


def cmd_fit(cfg: RunConfig, stdout) -> int:
    if cfg.input:
        rows = csv_to_rows(cfg.input)
    else:
        rows = sweep(cfg.beam, cfg.werner, _grid(cfg), cfg.tol)
    if cfg.form == "poly":
        res = fit_poly_form(rows, cfg.initial or POLY_FORM_INITIAL)
        names = ("A", "p", "B", "C")
    else:
        res = fit_exp_form(rows, cfg.initial or EXP_FORM_INITIAL)
        names = ("G", "alpha", "beta", "c")
    print(f"form={res.form}", file=stdout)
    for name, val in zip(names, res.params):
        print(f"{name}={fmt(float(val))}", file=stdout)
    print(f"rss={fmt(res.rss)}", file=stdout)
    print(f"converged={fmt(res.converged)}", file=stdout)
    print(f"iterations={res.iterations}", file=stdout)
    return EXIT_OK


def cmd_esd(cfg: RunConfig, stdout) -> int:
    res = find_esd(cfg.beam, cfg.werner, cfg.tol, x_max=cfg.x_max,
                   grid_points=cfg.x_points, x_min=cfg.x_min)
    if res.x_star is None:
        print("esd_x=none", file=stdout)
        print(f"reason={res.reason}", file=stdout)
    else:
        print(f"esd_x={fmt(res.x_star)}", file=stdout)
    # sudden-change detection needs spacing <= 0.05 whatever the esd grid was
    n_sc = max(cfg.x_points, int(math.ceil((cfg.x_max - cfg.x_min) / 0.05)) + 1)
    step = (cfg.x_max - cfg.x_min) / (n_sc - 1)
    rows = sweep(cfg.beam, cfg.werner,
                 [cfg.x_min + i * step for i in range(n_sc)], cfg.tol)
    change = detect_sudden_change(rows, cfg.beam, cfg.werner, cfg.tol)
    print(f"sudden_change_x={fmt(change) if change is not None else 'none'}", file=stdout)
    return EXIT_OK


_COMMANDS = {
    "channel": cmd_channel,
    "sweep": cmd_sweep,
    "fit": cmd_fit,
    "esd": cmd_esd,
    "measures": cmd_measures,
}


def _add_common_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="key=value config file with [beam]/[werner]/[turbulence]/[run] sections")
    sub.add_argument("--omega0", type=float, help="beam waist")
    sub.add_argument("--l0", type=int, help="azimuthal index (|l0| >= 1)")
    sub.add_argument("--p0", type=int, help="radial index")
    sub.add_argument("--gamma", type=float, help="state purity in [0, 1]")
    sub.add_argument("--theta", type=float, help="state angle theta in units of pi")
    sub.add_argument("--phi", type=float, help="state phase phi in units of pi")
    sub.add_argument("--r0", type=float, help="Fried parameter")
    sub.add_argument("--cn2", type=float, help="refractive-index structure constant")
    sub.add_argument("--k", type=float, help="optical wavenumber")
    sub.add_argument("--path-length", dest="path_length", type=float, help="propagation distance")
    sub.add_argument("--x", type=float, help="dimensionless strength xi(l0)/r0")
    sub.add_argument("--x-min", dest="x_min", type=float, help="sweep grid start")
    sub.add_argument("--x-max", dest="x_max", type=float, help="sweep grid end")
    sub.add_argument("--x-points", dest="x_points", type=int, help="sweep grid size")
    sub.add_argument("--tol", type=float, help="quadrature absolute tolerance")
    sub.add_argument("--out", help="output file path")
    sub.add_argument("--form", choices=("poly", "exp"), help="fit form")
    sub.add_argument("--input", help="existing sweep CSV to fit")
    sub.add_argument("--initial", help="comma-separated initial fit parameters")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oamturb",
        description="OAM photon-pair quantumness through Kolmogorov turbulence",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("channel", "survival/crosstalk coefficients for one turbulence strength"),
        ("sweep", "sweep turbulence strength and write a CSV of measures"),
        ("fit", "fit a universal decay form to a sweep"),
        ("esd", "entanglement sudden-death threshold and LQU sudden change"),
        ("measures", "concurrence, coherence and LQU for one configuration"),
    ):
        _add_common_flags(subparsers.add_parser(name, help=doc))
    args = parser.parse_args(argv)

    try:
        cfg = build_config(args, args.command)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](cfg, sys.stdout)
    except ConvergenceFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
