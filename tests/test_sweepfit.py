import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamturb import sweepfit
from oamturb.lgmath import BeamParams
from oamturb.measures import concurrence_analytic, lqu
from oamturb.qstate import WernerParams, apply_channel, werner_like
from oamturb.sweepfit import (
    EXP_FORM_INITIAL,
    POLY_FORM_INITIAL,
    GridMismatch,
    SweepRow,
    collapse_check,
    detect_sudden_change,
    exp_form,
    find_esd,
    find_sudden_change,
    fit_exp_form,
    fit_poly_form,
    lm_least_squares,
    poly_form,
    sweep,
)
from oamturb.turbulence import ChannelCoefficients, ConvergenceFailure, channel_ab, r0_from_x

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
        res = find_esd(BEAM1, BELL, tol=1e-8, x_max=0.2)
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

    @pytest.mark.parametrize("x_min, x_max", [(0.0, math.inf), (0.0, math.nan),
                                              (math.nan, 1.0), (math.inf, math.inf)])
    def test_rejects_non_finite_range(self, x_min, x_max):
        with pytest.raises(ValueError, match=r"invalid ESD range \["):
            find_esd(BEAM1, BELL, x_max=x_max, x_min=x_min)

    def test_one_bisection_of_the_range(self, monkeypatch):
        calls = []
        real = sweepfit.channel_ab
        monkeypatch.setattr(sweepfit, "channel_ab", lambda *a: calls.append(a) or real(*a))
        res = find_esd(BEAM1, BELL, tol=1e-9)
        # both ends, then log2(3 / 1e-9) < 32 halvings
        assert len(calls) <= 34
        assert res.x_star == pytest.approx(0.6225486, abs=1e-4)

    def test_non_monotone_ratio_raises(self, ratio_dip):
        with pytest.raises(ConvergenceFailure, match=r"x = 0\.75 .* \[0, 1\.5\]: not monotone"):
            find_esd(BEAM1, BELL, tol=1e-9)

    @pytest.mark.parametrize("l0", [1, 10, 40])
    def test_guard_quiet_at_coarse_tol(self, l0):
        # the error bound 2 tol/a of b/a far exceeds its change across the
        # last brackets; the real channel must not trip the guard there
        beam = BeamParams(waist=1.0, l0=l0)
        coarse = find_esd(beam, BELL, tol=1e-6)
        assert coarse.x_star == pytest.approx(find_esd(beam, BELL, tol=1e-10).x_star, abs=1e-4)

    def test_guard_allows_error_within_tol(self, monkeypatch):
        # every other evaluation moves b by up to its remaining error budget,
        # so b/a jitters by ~tol/a between probes, yet each b stays within tol
        real, calls = sweepfit.channel_ab, []

        def jittered(beam, turb, tol):
            cc = real(beam, turb, tol)
            calls.append(cc)
            b = cc.b + (tol - cc.err_b) * (len(calls) % 2)
            return ChannelCoefficients(cc.a, b, cc.err_a, tol)

        monkeypatch.setattr(sweepfit, "channel_ab", jittered)
        res = find_esd(BEAM1, BELL, tol=1e-6)
        assert res.x_star == pytest.approx(0.6225486, abs=1e-4)


class TestFindSuddenChange:
    THIRD = WernerParams(1.0, math.pi / 3)

    def test_bell_has_no_change(self):
        assert find_sudden_change(BEAM1, BELL, tol=1e-8) is None

    def test_range_past_the_change_has_none(self):
        assert find_sudden_change(BEAM1, self.THIRD, tol=1e-8, x_min=0.2) is None

    @pytest.mark.parametrize("x_min, x_max", [(-0.1, 1.0), (1.0, 1.0), (2.0, 1.0),
                                              (0.0, math.inf), (0.0, math.nan),
                                              (math.nan, 1.0), (math.inf, math.inf)])
    def test_rejects_bad_range(self, x_min, x_max):
        with pytest.raises(ValueError, match=r"invalid sudden-change range \["):
            find_sudden_change(BEAM1, self.THIRD, x_max=x_max, x_min=x_min)

    def test_non_monotone_ratio_raises(self, ratio_dip):
        with pytest.raises(ConvergenceFailure, match=r"x = 0\.75 .* \[0, 1\.5\]: not monotone"):
            find_sudden_change(BEAM1, self.THIRD, tol=1e-9)

    @pytest.mark.parametrize("x_max", [3.0, 1000.0])
    def test_one_bisection_of_the_range(self, monkeypatch, x_max):
        calls = []
        real = sweepfit.channel_ab
        monkeypatch.setattr(sweepfit, "channel_ab", lambda *a: calls.append(a) or real(*a))
        x = find_sudden_change(BEAM1, self.THIRD, tol=1e-9, x_max=x_max)
        assert len(calls) <= 2 + math.ceil(math.log2(x_max / 1e-9))
        assert x == pytest.approx(0.134837, abs=1e-6)

    def test_ratio_at_the_change_is_independent_of_l0(self):
        # the branch is a function of t = b/a alone, so every l0 switches at the
        # same t; the root also agrees with the grid-bracketed bisection
        ratios = []
        for l0 in (1, 10, 40):
            beam = BeamParams(waist=1.0, l0=l0)
            x = find_sudden_change(beam, self.THIRD, tol=1e-10)
            cc = channel_ab(beam, r0_from_x(beam, x), 1e-11)
            ratios.append(cc.b / cc.a)
            rows = sweep(beam, self.THIRD, np.linspace(0.0, 1.0, 21), tol=1e-10)
            grid = detect_sudden_change(rows, beam, self.THIRD, tol=1e-10, refine_to=1e-10)
            assert x == pytest.approx(grid, abs=1e-8)
        assert max(ratios) - min(ratios) <= 1e-8
        assert ratios[0] == pytest.approx(0.0270755, abs=1e-7)


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

    def test_rejects_descending_rows(self):
        w = WernerParams(1.0, math.pi / 3)
        rows = sweep(BEAM1, w, np.linspace(0.0, 1.0, 21), tol=1e-9)
        with pytest.raises(ValueError, match="ascending"):
            detect_sudden_change(rows[::-1], BEAM1, w, tol=1e-9)

    @pytest.mark.parametrize("refine_to", [0.0, -1e-4, math.inf, math.nan])
    def test_rejects_bad_refine_to(self, refine_to):
        with pytest.raises(ValueError, match="refine_to"):
            detect_sudden_change(synthetic_rows(), refine_to=refine_to)

    def test_refines_to_adjacent_floats(self):
        # a width below the float spacing at the root stops at adjacent floats
        w = WernerParams(1.0, math.pi / 3)
        rows = sweep(BEAM1, w, np.linspace(0.0, 1.0, 21), tol=1e-9)
        fine = detect_sudden_change(rows, BEAM1, w, tol=1e-9, refine_to=1e-10)
        finest = detect_sudden_change(rows, BEAM1, w, tol=1e-9, refine_to=1e-300)
        assert finest == pytest.approx(fine, abs=1e-10)

    def test_non_monotone_ratio_raises(self):
        # the row closing the bracket claims the b/a of the row opening it, so
        # the first probe, of the real channel, lies above both
        w = WernerParams(1.0, math.pi / 3)
        rows = sweep(BEAM1, w, np.linspace(0.0, 1.0, 21), tol=1e-9)
        i = next(i for i, (r0, r1) in enumerate(zip(rows, rows[1:]))
                 if r0.lqu_branch != r1.lqu_branch)
        rows[i + 1] = dataclasses.replace(rows[i + 1], b=rows[i + 1].a * rows[i].b / rows[i].a)
        with pytest.raises(ConvergenceFailure, match="not monotone"):
            detect_sudden_change(rows, BEAM1, w, tol=1e-9)


class TestBisectionPremises:
    """The facts that make the ESD and the LQU sudden change one crossing of a
    monotone function each."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(l0=st.integers(1, 40), p0=st.integers(0, 2), x_lo=st.floats(0.0, 19.0),
           u=st.floats(0.0, 1.0))
    def test_crosstalk_ratio_rises_strictly(self, l0, p0, x_lo, u):
        # steps of at least 0.05 (1 + x_lo) up to x = 20 keep the rise of b/a
        # above the error bound 2 tol/a of each end, which grows as a -> 0
        step = 0.05 * (1.0 + x_lo)
        x_hi = x_lo + step + u * (20.0 - x_lo - step)
        beam = BeamParams(waist=1.0, l0=l0, p0=p0)
        tol = 1e-9
        lo, hi = (channel_ab(beam, r0_from_x(beam, x), tol) for x in (x_lo, x_hi))
        assert (lo.b + 2 * tol) / lo.a < (hi.b - 2 * tol) / hi.a

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(gamma=st.floats(0.0, 1.0), theta=st.floats(0.0, math.pi),
           t_lo=st.floats(0.0, 1.0), gap=st.floats(1e-9, 1.0))
    def test_concurrence_falls_strictly_in_ratio(self, gamma, theta, t_lo, gap):
        w = WernerParams(gamma, theta)
        t_hi = min(1.0, t_lo + gap)
        c_lo, c_hi = (concurrence_analytic(w, ChannelCoefficients(1.0, t)) for t in (t_lo, t_hi))
        assert c_hi <= c_lo
        if c_lo > 0.0 and t_hi > t_lo:
            assert c_hi < c_lo


    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(gamma=st.floats(0.0, 1.0), theta=st.floats(0.0, math.pi),
           phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    def test_lqu_branch_switches_once_at_most_in_ratio(self, gamma, theta, phi):
        state = werner_like(WernerParams(gamma, theta, phi))
        branches = [lqu(apply_channel(state, ChannelCoefficients(1.0, t)))[1]
                    for t in np.linspace(0.0, 1.0, 401)]
        assert sum(b0 != b1 for b0, b1 in zip(branches, branches[1:])) <= 1

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
