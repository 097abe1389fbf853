import importlib
import importlib.util
import math
import os
from pathlib import Path

import pytest

from conftest import fresh_python
from oamturb import cli, sweepfit
from oamturb.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    csv_to_rows,
    fmt,
    load_config_file,
    main,
)

DATA = Path(__file__).parent / "data"


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def parse_report(out: str) -> dict:
    return dict(line.split("=", 1) for line in out.strip().splitlines() if "=" in line)


class TestFormatting:
    def test_integers_and_zero(self):
        assert fmt(0.0) == "0"
        assert fmt(3) == "3"
        assert fmt(True) == "true"

    def test_twelve_significant_digits(self):
        assert fmt(0.6646701940895688) == "0.66467019409"

    def test_scientific_below_threshold(self):
        assert fmt(3.01246486522e-10) == "3.01246486522e-10"
        assert fmt(-5e-5) == "-5.00000000000e-05"


class TestChannelCommand:
    def test_no_turbulence_limit(self, capsys):
        code, out, _ = run_cli(["channel", "--x", "0", "--l0", "1"], capsys)
        assert code == EXIT_OK
        rep = parse_report(out)
        assert rep["a"] == "1"
        assert rep["b"] == "0"
        assert rep["x"] == "0"

    def test_x_field_equals_xi_for_unit_fried(self, capsys):
        code, out, _ = run_cli(["channel", "--r0", "1", "--l0", "1", "--tol", "1e-8"], capsys)
        assert code == EXIT_OK
        rep = parse_report(out)
        assert rep["x"] == rep["xi"] == fmt(3.0 * math.sqrt(math.pi) / 8.0)

    def test_missing_turbulence_spec(self, capsys):
        code, out, err = run_cli(["channel"], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_conflicting_specs_rejected(self, capsys):
        code, _, err = run_cli(["channel", "--r0", "1", "--x", "0.5"], capsys)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command, x", [("channel", "1"), ("measures", "2")])
    def test_infinite_waist_rejected(self, command, x, capsys):
        # with an infinite waist r0 = xi/x is infinite: the no-turbulence answer
        code, out, err = run_cli([command, "--omega0", "inf", "--x", x], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("spec", [["--x", "1e200"], ["--r0", "1e-300"]])
    def test_overflowing_strength_is_numerical_failure(self, spec, capsys):
        code, out, err = run_cli(["channel", *spec], capsys)
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize("args, key", [
        (["--x", "nan"], "x"), (["--x", "inf"], "x"), (["--x", "1", "--tol", "inf"], "tol")],
        ids=["x_nan", "x_inf", "tol_inf"])
    def test_non_finite_value_rejected(self, args, key, capsys):
        code, out, err = run_cli(["channel", *args], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith(f"error: {key} must be finite") and err.count("\n") == 1

    def test_underflowing_strength_is_no_turbulence(self, capsys):
        # at r0 = 1e300 the kernel exponent underflows: the r0 = inf answer
        code, out, err = run_cli(["channel", "--r0", "1e300"], capsys)
        assert (code, err) == (EXIT_OK, "")
        rep = parse_report(out)
        assert (rep["a"], rep["b"], rep["err_a"], rep["err_b"]) == ("1", "0", "0", "0")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("key", ["cn2", "k", "path_length"])
    def test_non_finite_physical_spec_rejected(self, key, value, capsys):
        spec = {"cn2": "1e-15", "k": "4053668", "path_length": "1000", key: value}
        flags = [item for name, v in spec.items() for item in ("--" + name.replace("_", "-"), v)]
        code, out, err = run_cli(["channel", *flags], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: {key} must be finite, got {value}\n"

    def test_physical_spec(self, capsys):
        k = 2.0 * math.pi / 1550e-9
        code, out, _ = run_cli(
            ["channel", "--cn2", "1e-15", "--k", str(k), "--path-length", "1000",
             "--tol", "1e-7"], capsys)
        assert code == EXIT_OK
        rep = parse_report(out)
        assert float(rep["r0"]) == pytest.approx(0.3124481627977559, rel=1e-11)


class TestMeasuresCommand:
    def test_bell_origin(self, capsys):
        code, out, _ = run_cli(
            ["measures", "--x", "0", "--gamma", "1", "--theta", "0.5"], capsys)
        assert code == EXIT_OK
        rep = parse_report(out)
        assert rep["concurrence"] == "1"
        assert rep["coherence"] == "1"
        assert rep["lqu"] == "1"

    def test_invalid_gamma(self, capsys):
        code, _, err = run_cli(["measures", "--x", "0", "--gamma", "1.5"], capsys)
        assert code == EXIT_CONFIG

    def test_tiny_channel_gives_the_plateau(self, capsys):
        # at l0 = 40, x = 1e5 the channel certifies a = 3.8e-8; the state step
        # reads it only as b/a, so the measures match l0 = 1 at that strength
        code, out, err = run_cli(["measures", "--l0", "40", "--x", "1e5"], capsys)
        assert (code, err) == (EXIT_OK, "")
        got = parse_report(out)
        want = parse_report(run_cli(["measures", "--l0", "1", "--x", "1e5"], capsys)[1])
        for key in ("concurrence", "coherence", "lqu"):
            assert float(got[key]) == pytest.approx(float(want[key]), abs=1e-9)
        assert got["lqu_branch"] == want["lqu_branch"]


class TestSweepCommand:
    def test_csv_schema(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["sweep", "--x-max", "0.4", "--x-points", "9", "--tol", "1e-8",
             "--out", str(out_file)], capsys)
        assert code == EXIT_OK
        text = out_file.read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER == "x,a,b,concurrence,coherence,lqu,lqu_branch"
        assert len(lines) == 10
        assert text.endswith("\n")
        assert not text.endswith(",\n")
        assert "\r" not in text
        xs = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert xs == sorted(xs)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["sweep", "--x-max", "0.5", "--x-points", "6", "--tol", "1e-8"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(f1)], capsys)[0] == EXIT_OK
        assert run_cli(args + ["--out", str(f2)], capsys)[0] == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()

    def test_requires_out(self, capsys):
        code, _, err = run_cli(["sweep", "--x-points", "5"], capsys)
        assert code == EXIT_CONFIG

    def test_rejects_point_spec(self, capsys):
        code, _, _ = run_cli(["sweep", "--r0", "1", "--out", "x.csv"], capsys)
        assert code == EXIT_CONFIG

    def test_no_partial_file_on_validation_failure(self, tmp_path, capsys):
        out_file = tmp_path / "bad.csv"
        code, _, _ = run_cli(
            ["sweep", "--gamma", "2", "--out", str(out_file)], capsys)
        assert code == EXIT_CONFIG
        assert not out_file.exists()

    def test_overflowing_strength_is_numerical_failure(self, tmp_path, capsys):
        out_file = tmp_path / "f.csv"
        code, out, err = run_cli(
            ["sweep", "--x-max", "1e300", "--x-points", "3", "--out", str(out_file)], capsys)
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, key", [(["--x-max", "inf"], "x_max"), (["--x-min", "nan"], "x_min")],
                             ids=["x_max_inf", "x_min_nan"])
    def test_non_finite_grid_rejected(self, args, key, tmp_path, capsys):
        code, out, err = run_cli(["sweep", *args, "--out", str(tmp_path / "f.csv")], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith(f"error: {key} must be finite") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_missing_out_directory(self, tmp_path, capsys):
        out_file = tmp_path / "nowhere" / "sweep.csv"
        code, _, err = run_cli(["sweep", "--x-points", "3", "--out", str(out_file)], capsys)
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_file.parent.exists()

    def test_failed_replace_keeps_old_file(self, tmp_path, capsys, monkeypatch):
        out_file = tmp_path / "sweep.csv"
        out_file.write_text("previous run\n")

        def refuse(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", refuse)
        code, _, err = run_cli(["sweep", "--x-points", "3", "--out", str(out_file)], capsys)
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out_file.read_text() == "previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


class TestFitCommand:
    def test_poly_fixture_recovers_constants(self, capsys):
        code, out, _ = run_cli(
            ["fit", "--form", "poly", "--input", str(DATA / "synthetic_decay.csv")], capsys)
        assert code == EXIT_OK
        rep = parse_report(out)
        assert rep["form"] == "poly_form"
        assert rep["converged"] == "true"
        assert float(rep["A"]) == pytest.approx(0.183, abs=1e-6)
        assert float(rep["p"]) == pytest.approx(3.78, abs=1e-6)
        assert float(rep["B"]) == pytest.approx(0.21, abs=1e-6)
        assert float(rep["C"]) == pytest.approx(0.131, abs=1e-6)

    def test_exp_fixture_recovers_constants(self, capsys):
        code, out, _ = run_cli(
            ["fit", "--form", "exp", "--input", str(DATA / "synthetic_decay.csv"),
             "--initial", "1.1,2.9,2.3,0.13"], capsys)
        assert code == EXIT_OK
        rep = parse_report(out)
        assert rep["form"] == "exp_form"
        assert rep["converged"] == "true"
        assert float(rep["G"]) == pytest.approx(0.92, abs=1e-6)
        assert float(rep["alpha"]) == pytest.approx(3.50, abs=1e-6)
        assert float(rep["beta"]) == pytest.approx(1.90, abs=1e-6)
        assert float(rep["c"]) == pytest.approx(0.08, abs=1e-6)

    def test_report_keys_complete(self, capsys):
        code, out, _ = run_cli(
            ["fit", "--form", "poly", "--input", str(DATA / "synthetic_decay.csv")], capsys)
        rep = parse_report(out)
        assert set(rep) == {"form", "A", "p", "B", "C", "rss", "converged", "iterations"}

    def test_requires_form(self, capsys):
        code, _, _ = run_cli(["fit", "--input", str(DATA / "synthetic_decay.csv")], capsys)
        assert code == EXIT_CONFIG

    def test_bad_initial_rejected(self, capsys):
        code, _, _ = run_cli(
            ["fit", "--form", "poly", "--input", str(DATA / "synthetic_decay.csv"),
             "--initial", "1,2,3"], capsys)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_initial_rejected(self, value, capsys):
        code, out, err = run_cli(
            ["fit", "--form", "poly", "--input", str(DATA / "synthetic_decay.csv"),
             "--initial", f"{value},1,1,1"], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: initial") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["missing.csv", "."])
    def test_unreadable_input(self, name, tmp_path, capsys):
        code, _, err = run_cli(
            ["fit", "--form", "poly", "--input", str(tmp_path / name)], capsys)
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("form, column, value", [("poly", 5, "nan"), ("exp", 0, "inf")])
    def test_non_finite_cell_rejected(self, form, column, value, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        lines = (DATA / "synthetic_decay.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[column] = value
        lines[3] = ",".join(cells)
        bad.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["fit", "--form", form, "--input", str(bad)], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: non-finite value in sweep row 3") and err.count("\n") == 1

    def test_negative_x_rejected(self, tmp_path, capsys):
        # a negative x would be read as x = 0 by the forms and shift the fit
        bad = tmp_path / "bad.csv"
        lines = (DATA / "synthetic_decay.csv").read_text().splitlines()
        lines[3] = ",".join(["-1"] + lines[3].split(",")[1:])
        bad.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["fit", "--form", "poly", "--input", str(bad)], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: fit requires x >= 0, got x = -1 in row 3\n"

    def test_runs_its_own_sweep(self, capsys):
        code, out, err = run_cli(["fit", "--form", "poly", "--l0", "10"], capsys)
        assert (code, err) == (EXIT_OK, "")
        rep = parse_report(out)
        assert rep["form"] == "poly_form" and rep["converged"] == "true"
        assert float(rep["p"]) == pytest.approx(3.3353009, abs=2e-4)

    @pytest.mark.parametrize("initial", ["1,1,-1,1", "0,0,0,0", "1e300,1,1,1"])
    def test_initial_with_non_finite_rss_rejected(self, initial, capsys):
        code, out, err = run_cli(
            ["fit", "--form", "poly", "--input", str(DATA / "synthetic_decay.csv"),
             "--initial", initial], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("error: the initial fit parameters give a non-finite rss")
        assert err.count("\n") == 1

    def test_overflowing_trial_steps_are_quiet(self, capsys):
        # trial steps overflow the exponential: rejected, with no numpy warning
        code, out, err = run_cli(
            ["fit", "--form", "exp", "--input", str(DATA / "synthetic_decay.csv"),
             "--initial", "1,1e3,1,1"], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert parse_report(out)["converged"] == "false"

    def test_csv_without_origin_row_rejected(self, tmp_path, capsys):
        clipped = tmp_path / "clipped.csv"
        lines = (DATA / "synthetic_decay.csv").read_text().splitlines()
        clipped.write_text("\n".join([lines[0]] + lines[2:]) + "\n")
        code, _, err = run_cli(["fit", "--form", "poly", "--input", str(clipped)], capsys)
        assert code == EXIT_CONFIG
        assert "x = 0" in err


class TestEsdCommand:
    def test_unentangled_origin(self, capsys):
        code, out, _ = run_cli(
            ["esd", "--gamma", "0.2", "--theta", "0.5", "--x-points", "21",
             "--tol", "1e-8"], capsys)
        assert code == EXIT_OK
        rep = parse_report(out)
        assert rep["esd_x"] == "none"
        assert rep["reason"] == "zero at origin"

    def test_bell_reports_death_and_no_change(self, capsys):
        code, out, _ = run_cli(
            ["esd", "--gamma", "1", "--theta", "0.5", "--x-max", "1",
             "--tol", "1e-8"], capsys)
        assert code == EXIT_OK
        rep = parse_report(out)
        assert float(rep["esd_x"]) == pytest.approx(0.62255, abs=1e-3)
        assert rep["sudden_change_x"] == "none"

    def test_x_min_after_death(self, capsys):
        code, out, _ = run_cli(
            ["esd", "--gamma", "1", "--theta", "0.5", "--x-max", "1", "--x-min", "0.9",
             "--tol", "1e-8"], capsys)
        assert code == EXIT_OK
        rep = parse_report(out)
        assert rep["esd_x"] == "none"
        assert rep["reason"] == "zero at x_min"

    @pytest.mark.parametrize("x_max", ["1", "3", "100"])
    def test_roots_printed_to_bisection_width(self, x_max, capsys):
        # both roots are bisected to width 1e-9: no digit below it is printed,
        # and the value is the root to within the width plus the rounding
        code, out, _ = run_cli(["esd", "--gamma", "1", "--theta", "0.3333333333333333",
                                "--x-max", x_max], capsys)
        assert code == EXIT_OK
        rep = parse_report(out)
        for key, root in (("esd_x", 0.5466156213), ("sudden_change_x", 0.1348369593)):
            assert len(rep[key].split(".")[1]) <= 9
            assert abs(float(rep[key]) - root) <= 1.5e-9

    def test_tiny_channel_at_the_range_end(self, capsys):
        # a = 3.8e-8 at x_max = 1e5 for l0 = 40; both roots lie below x = 0.7
        code, out, err = run_cli(["esd", "--l0", "40", "--theta", "0.3333333333333333",
                                  "--x-max", "1e5"], capsys)
        assert (code, err) == (EXIT_OK, "")
        rep = parse_report(out)
        assert 0.0 < float(rep["sudden_change_x"]) < float(rep["esd_x"]) < 0.7

    def test_x_points_is_ignored(self, capsys):
        # esd bisects the range and builds no grid, so any grid size is accepted
        code, out, _ = run_cli(["esd", "--x-points", "1"], capsys)
        assert code == EXIT_OK
        assert (code, out) == run_cli(["esd"], capsys)[:2]

    def test_non_finite_grid_rejected(self, capsys):
        code, out, err = run_cli(["esd", "--x-max", "nan"], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: x_max must be finite") and err.count("\n") == 1

    def test_non_monotone_ratio_is_numerical_failure(self, ratio_dip, capsys):
        # b/a = 1 on [0.5, 1] only: the probe at x = 0.75 leaves the bracket's b/a range
        code, out, err = run_cli(["esd", "--gamma", "1", "--theta", "0.5"], capsys)
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "not monotone" in err

    def test_sudden_change_is_the_root_whatever_the_range(self, monkeypatch, capsys):
        # the x grid plays no part: a wider range only adds halvings,
        # log2(1000 / 3) < 9 of them per root
        real_channel, real_change = sweepfit.channel_ab, cli.find_sudden_change
        calls, change_calls = [], {}

        def counted_change(*args, **kwargs):
            start = len(calls)
            x = real_change(*args, **kwargs)
            change_calls[kwargs["x_max"]] = len(calls) - start
            return x

        monkeypatch.setattr(sweepfit, "channel_ab", lambda *a: calls.append(a) or real_channel(*a))
        monkeypatch.setattr(cli, "find_sudden_change", counted_change)
        total = {}
        for x_max in ("3", "100", "1000"):
            start = len(calls)
            code, out, _ = run_cli(["esd", "--gamma", "1", "--theta", "0.3333333333333333",
                                    "--x-max", x_max], capsys)
            total[float(x_max)] = len(calls) - start
            assert code == EXIT_OK
            assert float(parse_report(out)["sudden_change_x"]) == pytest.approx(0.134837, abs=1e-6)
        assert change_calls[1000.0] <= change_calls[3.0] + 10
        assert total[1000.0] <= total[3.0] + 20


class TestConfigFile:
    def test_file_plus_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[beam]\nomega0 = 1.0\nl0 = 1\n\n"
            "[werner]\ngamma = 1.0\ntheta = 0.5\n\n"
            "[turbulence]\nx = 0\n\n"
            "[run]\ntol = 1e-8\n")
        code, out, _ = run_cli(["measures", "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        assert parse_report(out)["concurrence"] == "1"
        # flag overrides the file's gamma
        code, out, _ = run_cli(["measures", "--config", str(cfg), "--gamma", "0"], capsys)
        assert code == EXIT_OK
        assert parse_report(out)["concurrence"] == "0"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["measures", "--config", "/nonexistent.cfg", "--x", "0"], capsys)
        assert code == EXIT_CONFIG

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[beam]\nwobble = 3\n")
        with pytest.raises(Exception):
            load_config_file(str(cfg))

    @pytest.mark.parametrize("text", ["l0 = 1\n", "[beam]\nl0 = 1\nl0 = 2\n"],
                             ids=["no_section_header", "duplicate_key"])
    def test_malformed_file(self, text, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code, _, err = run_cli(["measures", "--config", str(cfg), "--x", "0"], capsys)
        assert code == EXIT_CONFIG
        assert err.startswith("error: malformed config file") and err.count("\n") == 1

    @pytest.mark.parametrize("section", ["runn", "DEFAULT"])
    def test_unknown_section_rejected(self, section, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\ntol = 1e-3\n")
        code, out, err = run_cli(["measures", "--config", str(cfg), "--x", "0.5"], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: ") and f"[{section}]" in err and err.count("\n") == 1

    def test_percent_in_value_is_literal(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[turbulence]\nx_points = 3\n\n[run]\nout = {tmp_path / '100%.csv'}\n")
        code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert (tmp_path / "100%.csv").read_text().startswith(CSV_HEADER)

    def test_interpolation_syntax_not_expanded(self, tmp_path, capsys):
        # with interpolation %(tol)s would read as 1e-08 from the same section
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[turbulence]\nx_points = 3\n\n"
                       f"[run]\ntol = 1e-08\nout = {tmp_path / '%(tol)s.csv'}\n")
        code, out, err = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["%(tol)s.csv", "run.cfg"]

    def test_undecodable_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"[beam]\nl0 = \xff\n")
        code, out, err = run_cli(["measures", "--x", "0.5", "--config", str(cfg)], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("error: ") and "can't decode" in err and err.count("\n") == 1

    def test_non_finite_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[turbulence]\nx = inf\n")
        code, out, err = run_cli(["channel", "--config", str(cfg)], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: x must be finite")

    def test_csv_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "rt.csv"
        run_cli(["sweep", "--x-max", "0.3", "--x-points", "4", "--tol", "1e-8",
                 "--out", str(out_file)], capsys)
        rows = csv_to_rows(str(out_file))
        assert len(rows) == 4
        assert rows[0].a == 1.0 and rows[0].lqu_branch == 1


# bad inputs on each path from the settings to the exit code, with the one
# stderr line each must give; files are written to the working directory
BAD_INPUTS = {
    "wrong_type_in_file": (["measures", "--x", "0.5", "--config", "run.cfg"],
                           {"run.cfg": "[beam]\nl0 = 1.5\n"},
                           "error: invalid value for l0: '1.5'"),
    "zero_tol": (["channel", "--x", "1", "--tol", "0"], {},
                 "error: tolerance must be positive, got 0.0"),
    "cn2_alone": (["channel", "--cn2", "1e-15"], {},
                  "error: physical turbulence spec needs all of cn2, k, path_length"),
    "negative_r0": (["channel", "--r0", "-1"], {}, "error: r0 must be positive, got -1.0"),
    "negative_cn2": (["channel", "--cn2", "-1", "--k", "1", "--path-length", "1"], {},
                     "error: Cn2, k, L must all be positive, got (-1.0, 1.0, 1.0)"),
    "negative_x": (["channel", "--x", "-1"], {},
                   "error: turbulence strength x must be non-negative, got -1.0"),
    "one_point_grid": (["sweep", "--x-points", "1", "--out", "f.csv"], {},
                       "error: invalid x grid: [0.0, 3.0] with 1 points"),
    "huge_sweep_grid": (["sweep", "--x-points", "10000000000000", "--out", "f.csv"], {},
                        "error: x_points must be at most 10^6 (one channel call each), "
                        "got 10000000000000"),
    "huge_fit_grid": (["fit", "--form", "poly", "--x-points", "10000000000000"], {},
                      "error: x_points must be at most 10^6 (one channel call each), "
                      "got 10000000000000"),
    "reversed_grid": (["sweep", "--x-min", "2", "--x-max", "1", "--out", "f.csv"], {},
                      "error: invalid x grid: [2.0, 1.0] with 61 points"),
    "junk_initial": (["fit", "--form", "poly", "--input", "d.csv", "--initial", "a,b,c,d"], {},
                     "error: invalid initial guess: 'a,b,c,d'"),
    "wrong_header": (["fit", "--form", "poly", "--input", "d.csv"],
                     {"d.csv": "x,a,b\n0,1,0\n"},
                     "error: d.csv does not carry the expected sweep header"),
    "six_column_row": (["fit", "--form", "poly", "--input", "d.csv"],
                       {"d.csv": CSV_HEADER + "\n0,1,0,1,1,1\n"},
                       "error: malformed sweep row: '0,1,0,1,1,1'"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_2(case, tmp_path, monkeypatch, capsys):
    argv, files, message = BAD_INPUTS[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv, capsys) == (EXIT_CONFIG, "", message + "\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


# every setting: its config section, a value other than the default, and a
# command line that takes it; written out here to check the CLI's own table
SETTINGS = {
    "omega0": ("beam", "2.5", ["measures", "--x", "0.5"]),
    "l0": ("beam", "3", ["measures", "--x", "0.5"]),
    "p0": ("beam", "1", ["measures", "--x", "0.5"]),
    "gamma": ("werner", "0.7", ["measures", "--x", "0.5"]),
    "theta": ("werner", "0.25", ["measures", "--x", "0.5"]),
    "phi": ("werner", "0.5", ["measures", "--x", "0.5"]),
    "r0": ("turbulence", "0.31", ["channel"]),
    "cn2": ("turbulence", "1e-15", ["channel", "--k", "4053668", "--path-length", "1000"]),
    "k": ("turbulence", "4053668", ["channel", "--cn2", "1e-15", "--path-length", "1000"]),
    "path_length": ("turbulence", "1000", ["channel", "--cn2", "1e-15", "--k", "4053668"]),
    "x": ("turbulence", "0.8", ["channel"]),
    "x_min": ("turbulence", "0.5", ["sweep", "--out", "f.csv"]),
    "x_max": ("turbulence", "2", ["sweep", "--out", "f.csv"]),
    "x_points": ("turbulence", "7", ["sweep", "--out", "f.csv"]),
    "tol": ("run", "1e-7", ["measures", "--x", "0.5"]),
    "out": ("run", "f.csv", ["sweep"]),
    "form": ("run", "exp", ["fit", "--input", "d.csv"]),
    "input": ("run", "d.csv", ["fit", "--form", "poly"]),
    "initial": ("run", "1,2,3,4", ["fit", "--form", "poly", "--input", "d.csv"]),
}


class TestSettingsTable:
    @pytest.fixture
    def resolve(self, monkeypatch, capsys):
        """Run an argv through main and return the RunConfig its command receives."""
        got = []
        for name, (_, doc) in cli._COMMANDS.items():
            monkeypatch.setitem(cli._COMMANDS, name,
                                (lambda cfg, stdout: got.append(cfg) or EXIT_OK, doc))

        def run(argv):
            assert run_cli(argv, capsys) == (EXIT_OK, "", "")
            return got.pop()
        return run

    def test_covers_every_key(self):
        assert set(SETTINGS) == set(cli._KEYS)

    @pytest.mark.parametrize("key", SETTINGS)
    def test_flag_and_file_resolve_alike(self, key, resolve, tmp_path):
        section, value, argv = SETTINGS[key]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        from_flag = resolve([*argv, "--" + key.replace("_", "-"), value])
        assert from_flag == resolve([*argv, "--config", str(cfg)])

    @pytest.mark.parametrize("key", SETTINGS)
    def test_key_in_wrong_section_rejected(self, key, tmp_path, capsys):
        section, value, argv = SETTINGS[key]
        wrong = "run" if section == "beam" else "beam"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[{wrong}]\n{key} = {value}\n")
        code, out, err = run_cli([*argv, "--config", str(cfg)], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"error: unknown key {key!r} in section [{wrong}]\n"


def test_runtime_does_not_import_scipy():
    # numpy is the only runtime dependency; scipy is for the tests' oracles
    code = "import sys, oamturb, oamturb.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert fresh_python("-c", code).stdout.strip() == "[]"


def test_state_path_does_not_import_numpy():
    # the states workload's first call; numpy loads with the first channel name
    code = ("import sys, oamturb as o\n"
            "w = o.WernerParams(0.8, 1.0, 0.5); cc = o.ChannelCoefficients(0.6, 0.2)\n"
            "o.measure_triple(o.apply_channel(o.werner_like(w), cc)); o.concurrence_analytic(w, cc)\n"
            "print('numpy' in sys.modules)\n"
            "o.channel_ab\n"
            "print('numpy' in sys.modules)")
    assert fresh_python("-c", code).stdout.split() == ["False", "True"]


def test_every_public_name_resolves():
    code = ("import oamturb\n"
            "from oamturb import *\n"
            "print(all(globals()[n] is getattr(oamturb, n) for n in oamturb.__all__))\n"
            "print(oamturb.sweepfit.POLY_FORM_INITIAL == (0.183, 3.78, 0.21, 0.131))\n"
            "print(oamturb.ChannelCoefficients is oamturb.turbulence.ChannelCoefficients)")
    assert fresh_python("-c", code).stdout.split() == ["True"] * 3
    code = "import oamturb\nprint(set(oamturb.__all__) <= set(dir(oamturb)))"
    assert fresh_python("-c", code).stdout.split() == ["True"]


def test_unknown_name_is_attribute_error():
    # getattr with a default, as benchmark tracers probe names, needs AttributeError
    import oamturb
    assert getattr(oamturb, "radial_profile", None) is None
    with pytest.raises(AttributeError, match="no attribute 'radial_profile'"):
        oamturb.radial_profile  # noqa: B018


def test_rebinding_a_lazy_name_round_trips(monkeypatch):
    # benchmark tracers and tests rebind package names with setattr
    import oamturb
    from oamturb import turbulence

    def fake(*args):
        raise AssertionError("unreachable")

    with monkeypatch.context() as m:
        m.delitem(vars(oamturb), "channel_ab", raising=False)  # unresolved, as in a new process
        m.setattr(oamturb, "channel_ab", fake)
        assert oamturb.channel_ab is fake
    assert oamturb.channel_ab is turbulence.channel_ab


def test_every_traced_site_resolves():
    # perfbench/spans.py times a layer by rebinding these names; a name that no
    # longer resolves would drop the layer from the benchmark's trace
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).parent.parent / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = {f"{module}.{attr}" for _, attr, modules in spans.SITES for module in modules
               if getattr(importlib.import_module(module), attr, None) is None}
    # stale site: cli calls find_sudden_change, not detect_sudden_change
    assert missing <= {"oamturb.cli.detect_sudden_change"}


def test_laguerre_overflow_is_clean_numerical_failure():
    # at p0 = 400 the Laguerre recurrence overflows inside the radial rule;
    # run in a fresh interpreter so that any numpy warning reaches stderr
    done = fresh_python("-m", "oamturb", "channel", "--x", "1", "--p0", "400", check=False)
    assert done.returncode == EXIT_NUMERICAL
    assert done.stdout == ""
    assert "Warning" not in done.stderr
    assert done.stderr.startswith("numerical failure: ") and done.stderr.count("\n") == 1
    assert "p0=400" in done.stderr
