import math

import numpy as np
import pytest

from oamturb.lgmath import BeamParams
from oamturb.qstate import WernerParams
from oamturb.sweepfit import (
    EXP_FORM_INITIAL,
    POLY_FORM_INITIAL,
    GridMismatch,
    SweepRow,
    collapse_check,
    detect_sudden_change,
    exp_form,
    find_esd,
    fit_exp_form,
    fit_poly_form,
    lm_least_squares,
    poly_form,
    sweep,
)
from oamturb.turbulence import channel_ab, r0_from_x

BEAM1 = BeamParams(waist=1.0, l0=1)
BELL = WernerParams(gamma=1.0, theta=math.pi / 2)


def synthetic_rows(grid=None):
    grid = np.linspace(0.0, 3.0, 61) if grid is None else grid
    return [SweepRow(x=float(x), a=1.0, b=0.0, concurrence=0.0,
                     coherence=float(poly_form(float(x), POLY_FORM_INITIAL)),
                     lqu=float(exp_form(float(x), EXP_FORM_INITIAL)), lqu_branch=1)
            for x in grid]


class TestSweep:
    def test_single_zero_row(self):
        rows = sweep(BEAM1, BELL, [0.0])
        assert len(rows) == 1
        r = rows[0]
        assert (r.a, r.b) == (1.0, 0.0)
        assert (r.concurrence, r.coherence, r.lqu) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_maximally_mixed_rows_all_zero(self):
        rows = sweep(BEAM1, WernerParams(0.0, 1.0), [0.0, 0.5, 1.5], tol=1e-8)
        for r in rows:
            assert r.concurrence == 0.0
            assert r.coherence == pytest.approx(0.0, abs=1e-12)
            assert r.lqu == pytest.approx(0.0, abs=1e-12)

    def test_rows_in_grid_order(self):
        grid = [0.0, 0.4, 0.8, 1.2]
        rows = sweep(BEAM1, BELL, grid, tol=1e-8)
        assert [r.x for r in rows] == grid

    def test_rejects_unsorted_or_negative(self):
        with pytest.raises(ValueError):
            sweep(BEAM1, BELL, [0.5, 0.2])
        with pytest.raises(ValueError):
            sweep(BEAM1, BELL, [-0.1, 0.5])

    @pytest.mark.parametrize("l0", [1, 10])
    def test_measures_non_increasing_for_bell(self, l0):
        beam = BeamParams(waist=1.0, l0=l0)
        rows = sweep(beam, BELL, np.linspace(0.0, 3.0, 16), tol=1e-8)
        for field in ("concurrence", "coherence", "lqu"):
            vals = [getattr(r, field) for r in rows]
            assert all(v1 >= v2 - 1e-9 for v1, v2 in zip(vals, vals[1:])), field

    def test_esd_permanent_on_grid(self):
        rows = sweep(BEAM1, BELL, np.linspace(0.0, 3.0, 31), tol=1e-8)
        conc = [r.concurrence for r in rows]
        died = [i for i, v in enumerate(conc) if v == 0.0]
        assert died, "concurrence never reached zero on [0, 3]"
        assert all(conc[i] == 0.0 for i in range(died[0], len(conc)))


class TestFindEsd:
    def test_bell_death_location(self):
        res = find_esd(BEAM1, BELL, tol=1e-10)
        assert res.reason is None
        assert 0.0 < res.x_star < 3.0
        assert res.x_star == pytest.approx(0.6225486, abs=1e-4)

    def test_boundary_identity_survival_equals_twice_crosstalk(self):
        res = find_esd(BEAM1, BELL, tol=1e-10)
        cc = channel_ab(BEAM1, r0_from_x(BEAM1, res.x_star), 1e-11)
        assert cc.a == pytest.approx(2.0 * cc.b, abs=1e-6)

    def test_unentangled_origin(self):
        res = find_esd(BEAM1, WernerParams(0.2, math.pi / 2), tol=1e-8)
        assert res.x_star is None
        assert res.reason == "zero at origin"

    def test_no_death_in_short_range(self):
        res = find_esd(BEAM1, BELL, tol=1e-8, x_max=0.2, grid_points=11)
        assert res.x_star is None
        assert res.reason == "no death in range"

    def test_scan_starts_at_x_min(self):
        res = find_esd(BEAM1, BELL, tol=1e-8, x_max=1.0, x_min=0.9)
        assert res.x_star is None
        assert res.reason == "zero at x_min"

    def test_x_min_before_death_finds_same_root(self):
        full = find_esd(BEAM1, BELL, tol=1e-10)
        late = find_esd(BEAM1, BELL, tol=1e-10, x_max=1.0, x_min=0.5)
        assert late.x_star == pytest.approx(full.x_star, abs=1e-8)

    @pytest.mark.parametrize("x_min, x_max", [(-0.1, 1.0), (1.0, 1.0), (2.0, 1.0)])
    def test_rejects_bad_range(self, x_min, x_max):
        with pytest.raises(ValueError):
            find_esd(BEAM1, BELL, x_max=x_max, x_min=x_min)


class TestDetectSuddenChange:
    def test_theta_pi_third_change_point(self):
        w = WernerParams(1.0, math.pi / 3)
        rows = sweep(BEAM1, w, np.linspace(0.0, 1.0, 21), tol=1e-9)
        raw = detect_sudden_change(rows)
        assert raw is not None and raw < 1.0
        refined = detect_sudden_change(rows, BEAM1, w, tol=1e-9)
        assert refined == pytest.approx(0.134837, abs=2e-4)

    def test_bell_has_no_change(self):
        rows = sweep(BEAM1, BELL, np.linspace(0.0, 1.0, 21), tol=1e-9)
        assert detect_sudden_change(rows) is None

    def test_constant_branch_returns_none(self):
        rows = synthetic_rows(np.linspace(0.0, 1.0, 30))
        assert detect_sudden_change(rows) is None

    def test_rejects_coarse_grid(self):
        rows = synthetic_rows(np.linspace(0.0, 3.0, 11))
        with pytest.raises(ValueError):
            detect_sudden_change(rows)


class TestFits:
    def test_poly_self_fit_exact(self):
        res = fit_poly_form(synthetic_rows(), initial=(0.25, 3.0, 0.3, 0.1))
        assert res.converged
        assert np.abs(res.params - np.array(POLY_FORM_INITIAL)).max() < 1e-6
        assert res.rss < 1e-20

    def test_exp_self_fit_exact(self):
        res = fit_exp_form(synthetic_rows(), initial=(1.2, 2.9, 2.2, 0.12))
        assert res.converged
        assert np.abs(res.params - np.array(EXP_FORM_INITIAL)).max() < 1e-6
        assert res.rss < 1e-20

    def test_multi_start_consistency(self, rng):
        rows = synthetic_rows()
        targets = {"poly": (fit_poly_form, POLY_FORM_INITIAL),
                   "exp": (fit_exp_form, EXP_FORM_INITIAL)}
        for fitter, truth in targets.values():
            for _ in range(5):
                start = np.array(truth) * rng.uniform(0.5, 1.5, 4)
                res = fitter(rows, initial=tuple(start))
                assert res.converged
                assert np.abs(res.params - np.array(truth)).max() < 1e-6

    def test_iteration_budget_marks_nonconvergence(self):
        res = fit_poly_form(synthetic_rows(), initial=(0.5, 2.0, 0.5, 0.3), max_iter=1)
        assert not res.converged
        assert res.iterations == 1

    def test_rss_monotone_over_accepted_steps(self):
        rows = synthetic_rows()
        xs = np.array([r.x for r in rows])
        ys = np.array([r.coherence for r in rows])
        from oamturb.sweepfit import _poly_jac
        _, _, _, _, history = lm_least_squares(
            poly_form, _poly_jac, xs, ys, (0.4, 2.5, 0.5, 0.2))
        assert all(h1 >= h2 for h1, h2 in zip(history, history[1:]))

    def test_non_finite_initial_rss_rejected(self):
        rows = synthetic_rows()
        with pytest.raises(ValueError, match="non-finite rss"):
            fit_poly_form(rows, initial=(0.0, 0.0, 0.0, 0.0))

    def test_requires_origin_row_and_enough_rows(self):
        rows = synthetic_rows()
        with pytest.raises(ValueError):
            fit_poly_form(rows[:5])
        with pytest.raises(ValueError):
            fit_poly_form(rows[10:])

    @pytest.mark.parametrize("fit", [fit_poly_form, fit_exp_form])
    def test_negative_x_rejected(self, fit):
        grid = np.linspace(0.0, 3.0, 61)
        grid[5] = -0.25
        with pytest.raises(ValueError, match=r"x >= 0, got x = -0.25 in row 6"):
            fit(synthetic_rows(grid))

    def test_channel_sweep_fit_regression(self):
        # frozen minimum of the l0 = 10 coherence/lqu fits on the default grid
        beam = BeamParams(waist=1.0, l0=10)
        rows = sweep(beam, BELL, np.linspace(0.0, 3.0, 61), tol=1e-8)
        f = fit_poly_form(rows)
        g = fit_exp_form(rows)
        assert f.converged and g.converged
        assert f.params == pytest.approx([0.0792996, 3.3353009, 0.0880649, 0.1077591], abs=2e-4)
        assert g.params == pytest.approx([0.9629787, 5.4343083, 1.7296553, 0.0489360], abs=2e-4)
        assert f.rss < 0.0023
        assert g.rss < 0.0082
        # fitted origin values stay near the exact lqu(0) = coherence(0) = 1
        assert abs(g.params[0] * (1.0 + g.params[3]) - 1.0) < 0.05
        assert abs(f.params[0] / f.params[2] + f.params[3] - 1.0) < 0.05


class TestCollapseCheck:
    def test_identical_curves_give_zero(self):
        rows = synthetic_rows()
        assert collapse_check([rows, rows]) == 0.0

    def test_detects_deviation(self):
        rows = synthetic_rows()
        shifted = [SweepRow(r.x, r.a, r.b, r.concurrence, r.coherence + 0.01,
                            r.lqu, r.lqu_branch) for r in rows]
        assert collapse_check([rows, shifted], "coherence") == pytest.approx(0.01, abs=1e-12)
        assert collapse_check([rows, shifted], "lqu") == 0.0

    def test_grid_mismatch_raises(self):
        with pytest.raises(GridMismatch):
            collapse_check([synthetic_rows(), synthetic_rows(np.linspace(0, 3, 31))])

    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError):
            collapse_check([synthetic_rows()], "purity")
