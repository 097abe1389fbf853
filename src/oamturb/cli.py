"""Command-line front end: config parsing, dispatch, and deterministic
key=value / CSV output.

Angles are given in units of pi (theta = 0.5 means pi/2).  Numbers are
printed with 12 significant digits, scientific notation below 1e-4, so
identical configs produce byte-identical output.
"""

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .lgmath import BeamParams, phase_correlation_length
from .measures import measure_triple
from .qstate import WernerParams, apply_channel, werner_like
from .sweepfit import (
    EXP_FORM_INITIAL,
    POLY_FORM_INITIAL,
    ROOT_DIGITS,
    SweepRow,
    find_esd,
    find_sudden_change,
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

# the sweep CSV has one column per SweepRow field, in field order, read back by its type
CSV_HEADER = ",".join(SweepRow._fields)
_COLUMN_TYPES = tuple(SweepRow.__annotations__.values())


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


# every setting once: key -> (config-file section, type, flag help); the flag
# is the key with "-" for "_" (--x-min sets x_min)
_KEYS = {
    "omega0": ("beam", float, "beam waist"),
    "l0": ("beam", int, "azimuthal index (|l0| >= 1)"),
    "p0": ("beam", int, "radial index"),
    "gamma": ("werner", float, "state purity in [0, 1]"),
    "theta": ("werner", float, "state angle theta in units of pi"),
    "phi": ("werner", float, "state phase phi in units of pi"),
    "r0": ("turbulence", float, "Fried parameter"),
    "cn2": ("turbulence", float, "refractive-index structure constant"),
    "k": ("turbulence", float, "optical wavenumber"),
    "path_length": ("turbulence", float, "propagation distance"),
    "x": ("turbulence", float, "dimensionless strength xi(l0)/r0"),
    "x_min": ("turbulence", float, "sweep grid start"),
    "x_max": ("turbulence", float, "sweep grid end"),
    "x_points": ("turbulence", int, "sweep grid size"),
    "tol": ("run", float, "quadrature absolute tolerance"),
    "out": ("run", str, "output file path"),
    "form": ("run", str, "fit form"),
    "input": ("run", str, "existing sweep CSV to fit"),
    "initial": ("run", str, "comma-separated initial fit parameters"),
}


def load_config_file(path: str) -> dict:
    """Flat key=value config with [beam]/[werner]/[turbulence]/[run] sections."""
    import configparser  # here, so that a run without --config does not load it
    parser = configparser.ConfigParser(interpolation=None)  # values are literal: "100%.csv"
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        reason = str(exc).splitlines()[0]
        raise ValueError(f"malformed config file {path}: {reason}") from exc
    if not read:
        raise ValueError(f"config file not found: {path}")
    if parser.defaults():
        raise ValueError("keys under [DEFAULT] are not allowed")
    sections = dict.fromkeys(section for section, _, _ in _KEYS.values())
    for section in parser.sections():
        if section not in sections:
            raise ValueError(f"unknown section [{section}]")
    values = {}
    for section in filter(parser.has_section, sections):
        for key, raw in parser.items(section):
            if key not in _KEYS or _KEYS[key][0] != section:
                raise ValueError(f"unknown key {key!r} in section [{section}]")
            try:
                values[key] = _KEYS[key][1](raw)
            except ValueError as exc:
                raise ValueError(f"invalid value for {key}: {raw!r}") from exc
    return values


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """The settings of args.command, flags over the config file, checked and
    resolved: beam, werner, tol, turb (the point of channel and measures, None
    for the grid commands), x_min, x_max, x_points, out, form, input, initial."""
    command = args.command
    v = load_config_file(args.config) if args.config else {}
    v.update((key, val) for key, val in vars(args).items() if key in _KEYS and val is not None)
    for key in ("x", "x_min", "x_max", "tol", "cn2", "k", "path_length"):
        if key in v and not math.isfinite(v[key]):
            raise ValueError(f"{key} must be finite, got {v[key]}")
    beam = BeamParams(waist=v.get("omega0", 1.0), l0=v.get("l0", 1), p0=v.get("p0", 0))
    werner = WernerParams(
        gamma=v.get("gamma", 1.0),
        theta=v.get("theta", 0.5) * math.pi,
        phi=v.get("phi", 0.0) * math.pi,
    )

    tol = v.get("tol", 1e-9)
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")

    if 0 < sum(key in v for key in ("cn2", "k", "path_length")) < 3:
        raise ValueError("physical turbulence spec needs all of cn2, k, path_length")
    # cn2 stands for the whole physical triple from here on
    point = [key for key in ("r0", "cn2", "x") if key in v]
    if command in ("channel", "measures"):
        if len(point) != 1 or any(key in v for key in ("x_min", "x_max", "x_points")):
            raise ValueError(
                f"{command} requires exactly one turbulence spec: r0, cn2/k/path_length, or x")
    elif point:
        grid = "an x grid or --input CSV" if command == "fit" else "an x grid (x_min/x_max/x_points)"
        raise ValueError(f"{command} takes {grid}, not a point spec")

    turb = None
    if "r0" in point:
        if not v["r0"] > 0:
            raise ValueError(f"r0 must be positive, got {v['r0']}")
        turb = TurbulenceParams(v["r0"])
    elif "cn2" in point:
        turb = TurbulenceParams.from_physical(v["cn2"], v["k"], v["path_length"])
    elif "x" in point:
        turb = r0_from_x(beam, v["x"])

    x_min = v.get("x_min", 0.0)
    x_max = v.get("x_max", 3.0)
    x_points = v.get("x_points", 61)
    # esd bisects [x_min, x_max] and builds no grid, so only sweep and fit need points
    if x_min < 0 or x_max <= x_min or (x_points < 2 and command in ("sweep", "fit")):
        raise ValueError(f"invalid x grid: [{x_min}, {x_max}] with {x_points} points")
    if x_points > 10**6 and command in ("sweep", "fit"):
        raise ValueError(f"x_points must be at most 10^6 (one channel call each), got {x_points}")

    form = v.get("form")
    if command == "fit" and form not in ("poly", "exp"):
        raise ValueError("fit requires --form poly or --form exp")

    initial = None
    if "initial" in v:
        try:
            initial = tuple(float(t) for t in v["initial"].split(","))
        except ValueError as exc:
            raise ValueError(f"invalid initial guess: {v['initial']!r}") from exc
        if len(initial) != 4:
            raise ValueError("initial guess needs 4 comma-separated values")
        if not all(map(math.isfinite, initial)):
            raise ValueError(f"initial must be finite, got {v['initial']}")

    if command == "sweep" and "out" not in v:
        raise ValueError("sweep requires an output path (--out)")

    return argparse.Namespace(
        beam=beam, werner=werner, tol=tol, turb=turb,
        x_min=x_min, x_max=x_max, x_points=x_points,
        out=v.get("out"), form=form, input=v.get("input"), initial=initial,
    )


def cmd_channel(cfg: argparse.Namespace, stdout):
    cc = channel_ab(cfg.beam, cfg.turb, cfg.tol)
    for key, val in (
        ("a", cc.a), ("b", cc.b), ("err_a", cc.err_a), ("err_b", cc.err_b),
        ("x", x_ratio(cfg.beam, cfg.turb)), ("r0", cfg.turb.fried_r0),
        ("xi", phase_correlation_length(cfg.beam)),
    ):
        print(f"{key}={fmt(val)}", file=stdout)


def cmd_measures(cfg: argparse.Namespace, stdout):
    cc = channel_ab(cfg.beam, cfg.turb, cfg.tol)
    m = measure_triple(apply_channel(werner_like(cfg.werner), cc))
    for key, val in (
        ("concurrence", m.concurrence), ("coherence", m.coherence_rel_ent),
        ("lqu", m.lqu), ("lqu_branch", m.lqu_branch),
    ):
        print(f"{key}={fmt(val)}", file=stdout)


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER] + [",".join(map(fmt, r)) for r in rows]
    return "\n".join(lines) + "\n"


def csv_to_rows(path: str) -> list[SweepRow]:
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} does not carry the expected sweep header")
    rows = []
    for n, ln in enumerate(lines[1:], 1):
        parts = ln.split(",")
        if len(parts) != len(_COLUMN_TYPES):
            raise ValueError(f"malformed sweep row: {ln!r}")
        try:
            values = [kind(part) for kind, part in zip(_COLUMN_TYPES, parts)]
        except ValueError:
            raise ValueError(f"invalid value in sweep row {n}: {ln!r}") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"non-finite value in sweep row {n}: {ln!r}")
        rows.append(SweepRow(*values))
    return rows


def cmd_sweep(cfg: argparse.Namespace, stdout):
    rows = sweep(cfg.beam, cfg.werner, np.linspace(cfg.x_min, cfg.x_max, cfg.x_points), cfg.tol)
    # write beside the target, then rename: an interrupted run never leaves
    # a truncated CSV at --out
    out = Path(cfg.out)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(rows_to_csv(rows))
        os.replace(tmp, out)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}") from exc
    finally:
        tmp.unlink(missing_ok=True)
    print(f"wrote {len(rows)} rows to {cfg.out}", file=stdout)


def cmd_fit(cfg: argparse.Namespace, stdout):
    if cfg.input:
        rows = csv_to_rows(cfg.input)
    else:
        rows = sweep(cfg.beam, cfg.werner, np.linspace(cfg.x_min, cfg.x_max, cfg.x_points), cfg.tol)
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


def cmd_esd(cfg: argparse.Namespace, stdout):
    res = find_esd(cfg.beam, cfg.werner, cfg.tol, x_max=cfg.x_max, x_min=cfg.x_min)
    change = find_sudden_change(cfg.beam, cfg.werner, cfg.tol, x_max=cfg.x_max, x_min=cfg.x_min)
    # both roots are bisected to width 10^-ROOT_DIGITS: print no digit below it
    if res.x_star is None:
        print("esd_x=none", file=stdout)
        print(f"reason={res.reason}", file=stdout)
    else:
        print(f"esd_x={fmt(round(res.x_star, ROOT_DIGITS))}", file=stdout)
    print(f"sudden_change_x={fmt(round(change, ROOT_DIGITS)) if change is not None else 'none'}",
          file=stdout)


# each subcommand once: name -> (handler, help), in --help order
_COMMANDS = {
    "channel": (cmd_channel, "survival/crosstalk coefficients for one turbulence strength"),
    "sweep": (cmd_sweep, "sweep turbulence strength and write a CSV of measures"),
    "fit": (cmd_fit, "fit a universal decay form to a sweep"),
    "esd": (cmd_esd, "entanglement sudden-death threshold and LQU sudden change"),
    "measures": (cmd_measures, "concurrence, coherence and LQU for one configuration"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oamturb",
        description="OAM photon-pair quantumness through Kolmogorov turbulence",
        epilog="commands:\n" + "\n".join(f"  {name:<10}{doc}" for name, (_, doc) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="what to compute (see commands below)")
    parser.add_argument("--config", help="key=value config file with [beam]/[werner]/[turbulence]/[run] sections")
    for key, (_, kind, text) in _KEYS.items():
        choices = ("poly", "exp") if key == "form" else None
        parser.add_argument("--" + key.replace("_", "-"), type=kind, choices=choices, help=text)
    args = parser.parse_args(argv)
    for key in _KEYS:
        if getattr(args, key) == []:  # argparse reads "--x=--" as no value at all
            parser.error(f"argument --{key.replace('_', '-')}: expected one argument")

    # the one map from failure to exit code: bad input 2, numerics 3
    try:
        _COMMANDS[args.command][0](build_config(args), sys.stdout)
    except ConvergenceFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
