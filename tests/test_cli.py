import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oamturb import sweepfit
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


class TestSweepCommand:
    def test_csv_schema(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["sweep", "--x-max", "0.4", "--x-points", "9", "--tol", "1e-8",
             "--out", str(out_file)], capsys)
        assert code == EXIT_OK
        text = out_file.read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
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

    def test_non_finite_grid_rejected(self, capsys):
        code, out, err = run_cli(["esd", "--x-max", "nan"], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: x_max must be finite") and err.count("\n") == 1

    def test_revival_is_numerical_failure(self, monkeypatch, capsys):
        # concurrence zero on [0.5, 1] only: a revival the scan must not bracket
        monkeypatch.setattr(sweepfit, "_analytic_concurrence_at",
                            lambda beam, w, x, tol: 0.0 if 0.5 <= x <= 1.0 else 0.5)
        code, out, err = run_cli(["esd", "--gamma", "1", "--theta", "0.5"], capsys)
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "revived" in err


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


def test_runtime_does_not_import_scipy():
    # numpy is the only runtime dependency; scipy is for the tests' oracles
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, oamturb, oamturb.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.strip() == "[]"


def test_laguerre_overflow_is_clean_numerical_failure():
    # at p0 = 400 the Laguerre recurrence overflows inside the radial rule;
    # run in a fresh interpreter so that any numpy warning reaches stderr
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "oamturb", "channel", "--x", "1", "--p0", "400"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_NUMERICAL
    assert done.stdout == ""
    assert "Warning" not in done.stderr
    assert done.stderr.startswith("numerical failure: ") and done.stderr.count("\n") == 1
    assert "p0=400" in done.stderr
