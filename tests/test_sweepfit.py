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
        built = []

        def recorded(ax, params):
            f, jac = sweepfit._poly_eval(ax, params)
            rss = float((f - ys) @ (f - ys))

            def recorded_jac():
                built.append(rss)
                return jac()
            return f, recorded_jac

        # the Jacobian is built at p0 and at accepted points only, so built
        # holds the rss along the path the fit moved on
        p, rss, _, _ = lm_least_squares(recorded, xs, ys, (0.4, 2.5, 0.5, 0.2))
        final = sweepfit._poly_eval(sweepfit._Abscissa(xs), p)[0] - ys
        assert len(built) > 2
        assert all(r1 >= r2 for r1, r2 in zip(built, built[1:]))
        assert built[-1] >= rss == float(final @ final)

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
        rows = synthetic_rows()
        rows[5] = dataclasses.replace(rows[5], x=-0.25)
        with pytest.raises(ValueError, match=r"x >= 0, got x = -0.25 in row 6"):
            fit(rows)

    @pytest.mark.parametrize("form, params", [(poly_form, POLY_FORM_INITIAL),
                                              (exp_form, EXP_FORM_INITIAL)])
    def test_forms_reject_nan_or_negative_x(self, form, params):
        # the masked power would read these as x = 0 and return the origin value
        for x, bad in (([0.0, 1.0, math.nan, -1.0], "nan at index 2"),
                       ([0.5, -1e-300], "-1e-300 at index 1"), (-2.0, "-2 at index 0")):
            with pytest.raises(ValueError, match=f"{form.__name__} requires x >= 0, got x = {bad}"):
                form(np.array(x), params)

    def test_forms_at_infinity_are_the_plateau(self):
        A, p, B, C = POLY_FORM_INITIAL
        G, alpha, beta, c = EXP_FORM_INITIAL
        assert poly_form(np.array([0.0, math.inf]), POLY_FORM_INITIAL).tolist() == [A / B + C, C]
        assert exp_form(np.array([0.0, math.inf]), EXP_FORM_INITIAL).tolist() == [G * (1 + c), G * c]

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


def noisy_literature_rows(n=4):
    """n curves of 61 rows on [0, 3], each carrying a poly (coherence) and an
    exp (lqu) curve from the literature constants perturbed by up to 15%,
    with noise of sigma 2e-3, from a fixed generator."""
    rng = np.random.default_rng(20240613)
    xs = np.linspace(0.0, 3.0, 61)
    curves = []
    for _ in range(n):
        f = poly_form(xs, np.array(POLY_FORM_INITIAL) * rng.uniform(0.85, 1.15, 4))
        g = exp_form(xs, np.array(EXP_FORM_INITIAL) * rng.uniform(0.85, 1.15, 4))
        f, g = f + rng.normal(0.0, 2e-3, xs.size), g + rng.normal(0.0, 2e-3, xs.size)
        curves.append([SweepRow(x=float(x), a=1.0, b=0.0, concurrence=0.0, coherence=float(fx),
                                lqu=float(gx), lqu_branch=1) for x, fx, gx in zip(xs, f, g)])
    return curves


FITTERS = {"poly": fit_poly_form, "exp": fit_exp_form}
SYNTHETIC_STARTS = {"poly": [(0.25, 3.0, 0.3, 0.1), (0.5, 2.0, 0.5, 0.3)],
                    "exp": [(1.2, 2.9, 2.2, 0.12), (0.5, 2.0, 1.0, 0.3)]}

# (params, rss, converged, iterations) of each fit, frozen from an
# lm_least_squares that rebuilt the Jacobian on every iteration: building it
# only at new points must change no float operation, so every fit matches
FROZEN_FITS = {
    ('poly', 'synthetic', 0): (
        [0.18299999999999308, 3.7800000000000615, 0.20999999999999266, 0.1310000000000019],
        1.390798753759576e-28, True, 6),
    ('poly', 'synthetic', 1): (
        [0.18300000000001418, 3.7799999999998715, 0.210000000000015, 0.13099999999999612],
        5.848309684005391e-28, True, 11),
    ('poly', 'noisy', 0): (
        [0.16194139161164472, 3.321041074374586, 0.23364926570596667, 0.11360201523892888],
        0.00032528870532914846, True, 9),
    ('poly', 'noisy', 1): (
        [0.1788626439300627, 3.9472957428873103, 0.1953884380591296, 0.15006853992197391],
        0.0002665049127122878, True, 7),
    ('poly', 'noisy', 2): (
        [0.1978133000489346, 4.069215871549838, 0.21648741670465146, 0.14572779846510273],
        0.00019238811621790714, True, 7),
    ('poly', 'noisy', 3): (
        [0.19000030059592946, 4.044633886444458, 0.23675531060205365, 0.12096100990220551],
        0.00019391292080734113, True, 16),
    ('exp', 'synthetic', 0): (
        [0.92000000000105, 3.4999999999822773, 1.8999999999915622, 0.07999999999973287],
        6.0230424151489665e-24, True, 6),
    ('exp', 'synthetic', 1): (
        [0.9200000000000005, 3.499999999999992, 1.8999999999999961, 0.07999999999999988],
        1.1260912384832168e-30, True, 7),
    ('exp', 'noisy', 0): (
        [0.9524396908257354, 3.76990674867027, 1.967304429128218, 0.07638915788055985],
        0.0001830223429024021, True, 6),
    ('exp', 'noisy', 1): (
        [0.869388092599621, 3.11083332824316, 2.0547349538638184, 0.07974194700564387],
        0.00019123386972411588, True, 6),
    ('exp', 'noisy', 2): (
        [0.8637281759489523, 3.8032542130731035, 2.0304405658794127, 0.07436521981281241],
        0.00022399995977394617, True, 6),
    ('exp', 'noisy', 3): (
        [0.9881241280656475, 3.970666135868376, 1.8961210813583718, 0.08340493281152916],
        0.00017205895275511742, True, 9),
}


def _frozen_case(case):
    form, source, k = case
    if source == "synthetic":
        return FITTERS[form](synthetic_rows(), initial=SYNTHETIC_STARTS[form][k])
    return FITTERS[form](noisy_literature_rows()[k])


class TestFitBookkeeping:
    @pytest.mark.parametrize("case", list(FROZEN_FITS), ids=["-".join(map(str, c)) for c in FROZEN_FITS])
    def test_fit_matches_frozen(self, case):
        params, rss, converged, iterations = FROZEN_FITS[case]
        res = _frozen_case(case)
        assert (res.converged, res.iterations) == (converged, iterations)
        assert res.params == pytest.approx(params, rel=1e-14, abs=0.0)
        assert res.rss == pytest.approx(rss, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("form, column, start",
                             [(sweepfit._poly_eval, "coherence", (0.5, 2.0, 0.5, 0.3)),
                              (sweepfit._exp_eval, "lqu", (0.5, 5.0, 1.0, 0.0))],
                             ids=["poly", "exp"])
    def test_jacobian_built_once_per_point(self, form, column, start):
        rows = synthetic_rows()
        xs = np.array([r.x for r in rows])
        ys = np.array([getattr(r, column) for r in rows])
        evaluated, built = [], []

        def counted(ax, params):
            f, jac = form(ax, params)
            at = np.array(params)
            evaluated.append((at, float((f - ys) @ (f - ys))))

            def counted_jac():
                built.append(at)
                return jac()
            return f, counted_jac

        p, rss, converged, _ = lm_least_squares(counted, xs, ys, start)
        assert converged
        # the points the fit moved to: a trial is accepted when its rss is
        # finite and no larger than the rss of the current point
        accepted = [evaluated[0]]
        for at, trial_rss in evaluated[1:]:
            if math.isfinite(trial_rss) and trial_rss <= accepted[-1][1]:
                accepted.append((at, trial_rss))
        assert np.array_equal(accepted[-1][0], p) and accepted[-1][1] == rss
        assert len(evaluated) > len(accepted)  # some steps were rejected
        # one Jacobian at p0 and at each accepted point, none after a rejection;
        # the last point needs none when its step was below the step tolerance
        assert len(built) in (len(accepted) - 1, len(accepted))
        for (at, _), b in zip(accepted, built, strict=False):
            assert np.array_equal(at, b)

    @pytest.mark.parametrize("fit, y_field", [(fit_poly_form, "coherence"), (fit_exp_form, "lqu")])
    @pytest.mark.parametrize("row, name, value", [(5, "x", math.nan), (0, "x", math.nan),
                                                  (5, "x", math.inf), (5, "y", math.nan)])
    def test_non_finite_data_rejected(self, fit, y_field, row, name, value):
        # nan at the origin row would otherwise pass the origin check, and nan
        # x would be read as x = 0 by the masked power
        rows = synthetic_rows()
        rows[row] = dataclasses.replace(rows[row], **{"x" if name == "x" else y_field: value})
        with pytest.raises(ValueError, match=f"finite {name}, got {name} = {value} in row {row + 1}"):
            fit(rows)


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

    @pytest.mark.parametrize("curves", [[[], []], [[]]], ids=["two", "one"])
    def test_empty_sweeps_rejected(self, curves):
        with pytest.raises(ValueError, match="empty sweep"):
            collapse_check(curves)

    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError):
            collapse_check([synthetic_rows()], "purity")
