import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, gammaln

from conftest import (
    channel_ab_bruteforce,
    channel_ab_quad,
    fresh_python,
    lambda_element,
    large_x_limit,
)
from oamturb import turbulence
from oamturb.lgmath import BeamParams, phase_correlation_length
from oamturb.turbulence import (
    _TAIL_MASS,
    ChannelCoefficients,
    ConvergenceFailure,
    TurbulenceParams,
    _u_max,
    channel_ab,
    fried_parameter,
    phase_structure,
    r0_from_x,
    x_ratio,
)


class TestPhaseStructure:
    def test_zero_separation(self):
        assert phase_structure(0.0, TurbulenceParams(0.7)) == 0.0

    def test_at_fried_scale(self):
        assert phase_structure(0.3, TurbulenceParams(0.3)) == pytest.approx(6.88, rel=1e-14)

    def test_power_law(self):
        got = phase_structure(0.6, TurbulenceParams(0.3))
        assert got == pytest.approx(6.88 * 2.0 ** (5.0 / 3.0), rel=1e-14)

    def test_rejects_negative_separation(self):
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="non-negative"):
                phase_structure(bad, TurbulenceParams(1.0))

    def test_overflow_is_infinite(self):
        assert phase_structure(1.0, TurbulenceParams(1e-300)) == math.inf


class TestFriedParameter:
    def test_unit_product(self):
        # Cn2 k^2 L = 1/0.423 makes the base exactly one
        k = 2.0
        L = 3.0
        cn2 = 1.0 / (0.423 * k * k * L)
        assert fried_parameter(cn2, k, L) == pytest.approx(1.0, rel=1e-14)

    def test_path_length_scaling(self):
        r1 = fried_parameter(1e-15, 4e6, 500.0)
        r2 = fried_parameter(1e-15, 4e6, 1000.0)
        assert r2 / r1 == pytest.approx(2.0 ** (-3.0 / 5.0), rel=1e-12)

    def test_telecom_case(self):
        k = 2.0 * math.pi / 1550e-9
        expected = (0.423 * 1e-15 * k * k * 1000.0) ** (-0.6)
        assert fried_parameter(1e-15, k, 1000.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.3124481627977559, rel=1e-12)

    def test_rejects_nonpositive(self):
        for bad in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0), (math.nan, 1.0, 1.0)]:
            with pytest.raises(ValueError, match="must all be positive"):
                fried_parameter(*bad)

    def test_from_physical_matches(self):
        tp = TurbulenceParams.from_physical(1e-15, 4e6, 1000.0)
        assert tp.fried_r0 == fried_parameter(1e-15, 4e6, 1000.0)


class TestXRatio:
    def test_round_trip(self):
        beam = BeamParams(waist=1.4, l0=3)
        for x in (0.05, 0.7, 2.9):
            assert x_ratio(beam, r0_from_x(beam, x)) == pytest.approx(x, abs=1e-14)

    def test_unit_fried(self):
        beam = BeamParams(waist=1.0, l0=1)
        assert x_ratio(beam, TurbulenceParams(1.0)) == pytest.approx(
            3.0 * math.sqrt(math.pi) / 8.0, abs=1e-14)

    def test_zero_is_symbolic_no_turbulence(self):
        beam = BeamParams(waist=1.0, l0=1)
        turb = r0_from_x(beam, 0.0)
        assert math.isinf(turb.fried_r0)
        assert x_ratio(beam, turb) == 0.0

    def test_rejects_negative(self):
        for bad, message in ((-0.1, "non-negative"), (math.nan, "non-negative"),
                             (math.inf, "must be finite")):
            with pytest.raises(ValueError, match=message):
                r0_from_x(BeamParams(), bad)


class TestChannelAB:
    def test_identity_limit_exact(self):
        cc = channel_ab(BeamParams(waist=1.0, l0=1), TurbulenceParams(math.inf))
        assert (cc.a, cc.b) == (1.0, 0.0)
        assert (cc.err_a, cc.err_b) == (0.0, 0.0)

    @pytest.mark.parametrize("l0, p0", [(1, 0), (10, 3)])
    def test_underflowing_strength_is_identity(self, l0, p0):
        # at x = 1e-200 the kernel exponent underflows to 0: the r0 = inf answer
        beam = BeamParams(waist=1.0, l0=l0, p0=p0)
        cc = channel_ab(beam, r0_from_x(beam, 1e-200))
        assert (cc.a, cc.b, cc.err_a, cc.err_b) == (1.0, 0.0, 0.0, 0.0)

    def test_weakest_resolved_strength(self):
        # just above the underflow the quadrature still runs and gives a ~ 1
        beam = BeamParams(waist=1.0, l0=1)
        cc = channel_ab(beam, r0_from_x(beam, 1e-190))
        assert cc.a == pytest.approx(1.0, abs=1e-12) and cc.b < 1e-12

    def test_strict_coefficient_ordering(self):
        beam = BeamParams(waist=1.0, l0=1)
        cc = channel_ab(beam, r0_from_x(beam, 1.0), 1e-9)
        assert 0.0 < cc.b < cc.a < 1.0

    def test_regression_values(self):
        # frozen from an independent high-order quadrature of the same integrals
        cases = {
            (1, 0.5): (0.24144710016137963, 0.09354559749019398),
            (1, 2.0): (0.056873872726141854, 0.051476726677348116),
            (2, 1.0): (0.0755122792368995, 0.0492413976826873),
            (10, 1.0): (0.015355991961940305, 0.010568411014631464),
        }
        for (l0, x), (exp_a, exp_b) in cases.items():
            beam = BeamParams(waist=1.0, l0=l0)
            cc = channel_ab(beam, r0_from_x(beam, x), 1e-10)
            assert cc.a == pytest.approx(exp_a, abs=1e-9)
            assert cc.b == pytest.approx(exp_b, abs=1e-9)

    def test_error_bounds_below_tolerance(self):
        beam = BeamParams(waist=1.0, l0=2)
        cc = channel_ab(beam, r0_from_x(beam, 0.8), 1e-9)
        assert 0.0 < cc.err_a < 1e-9
        assert 0.0 < cc.err_b < 1e-9

    def test_against_bruteforce_oracle(self, rng):
        # ten random (l0, x) pairs against the fixed-order (r, theta) quadrature
        for _ in range(10):
            l0 = int(rng.integers(1, 6))
            x = float(rng.uniform(0.1, 2.0))
            beam = BeamParams(waist=1.0, l0=l0)
            cc = channel_ab(beam, r0_from_x(beam, x), 1e-9)
            ora_a, ora_b = channel_ab_bruteforce(l0, x)
            assert cc.a == pytest.approx(ora_a, abs=1e-6)
            assert cc.b == pytest.approx(ora_b, abs=1e-6)

    @pytest.mark.parametrize("l0", [1, 2, 5])
    def test_survival_strictly_decreasing(self, l0):
        beam = BeamParams(waist=1.0, l0=l0)
        grid = np.arange(0.1, 3.01, 0.1)
        a_vals = [channel_ab(beam, r0_from_x(beam, float(x)), 1e-8).a for x in grid]
        assert all(a1 > a2 for a1, a2 in zip(a_vals, a_vals[1:]))

    @pytest.mark.parametrize("l0", [1, 2, 5])
    def test_crosstalk_bounded_by_survival(self, l0):
        beam = BeamParams(waist=1.0, l0=l0)
        for x in np.arange(0.1, 3.01, 0.1):
            cc = channel_ab(beam, r0_from_x(beam, float(x)), 1e-8)
            assert 0.0 <= cc.b <= cc.a

    def test_crosstalk_ratio_approaches_one(self):
        beam = BeamParams(waist=1.0, l0=1)
        ratios = [channel_ab(beam, r0_from_x(beam, x), 1e-9) for x in (1.0, 2.0, 3.0)]
        fracs = [cc.b / cc.a for cc in ratios]
        assert fracs[0] < fracs[1] < fracs[2] < 1.0
        assert fracs[2] > 0.9

    def test_scale_invariance(self):
        # scaling waist and Fried parameter together leaves (a, b) unchanged
        for scale in (0.25, 7.0):
            base = channel_ab(BeamParams(waist=1.0, l0=2), TurbulenceParams(0.5), 1e-10)
            scaled = channel_ab(BeamParams(waist=scale, l0=2),
                                TurbulenceParams(0.5 * scale), 1e-10)
            assert scaled.a == pytest.approx(base.a, abs=1e-9)
            assert scaled.b == pytest.approx(base.b, abs=1e-9)

    def test_nonzero_radial_index(self):
        # higher radial mode: weight u L_1^1(u)^2 e^-u / 2 against the same
        # angular kernel, checked by a fixed-order Simpson oracle in u
        from scipy.integrate import simpson
        from scipy.special import eval_genlaguerre

        beam = BeamParams(waist=1.0, l0=1, p0=1)
        turb = r0_from_x(beam, 0.5)
        cc = channel_ab(beam, turb, 1e-9)
        assert 0.0 < cc.b < cc.a < 1.0

        cscale = 3.44 * (math.sqrt(2.0) / turb.fried_r0) ** (5.0 / 3.0)
        u = np.linspace(0.0, 60.0, 4001)
        theta = np.linspace(0.0, math.pi, 4001)
        weight = 0.5 * u * eval_genlaguerre(1, 1, u) ** 2 * np.exp(-u)
        kern = np.exp(-np.outer(cscale * u ** (5.0 / 6.0),
                                np.sin(theta / 2.0) ** (5.0 / 3.0)))
        # fixed-order Simpson loses accuracy at the u^(5/6) endpoint, so 1e-6
        ang_a = simpson(kern, x=theta, axis=1)
        ang_b = simpson(kern * np.cos(2.0 * theta)[None, :], x=theta, axis=1)
        assert cc.a == pytest.approx(simpson(weight * ang_a, x=u) / math.pi, abs=1e-6)
        assert cc.b == pytest.approx(simpson(weight * ang_b, x=u) / math.pi, abs=1e-6)

    def test_unreachable_tolerance_raises(self):
        beam = BeamParams(waist=1.0, l0=1)
        with pytest.raises(ConvergenceFailure):
            channel_ab(beam, r0_from_x(beam, 1.0), 1e-17)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            channel_ab(BeamParams(), TurbulenceParams(1.0), 0.0)


class TestStrongTurbulence:
    """Large x, where the theta ~ 0 peak of the angular kernel is narrow."""

    @pytest.mark.parametrize("x", [20.0, 100.0, 1000.0])
    def test_against_quad(self, x):
        beam = BeamParams(waist=1.0, l0=10)
        cc = channel_ab(beam, r0_from_x(beam, x), 1e-12)
        ora_a, ora_b = channel_ab_quad(10, 0, x)
        assert abs(cc.a - ora_a) <= cc.err_a + 1e-13
        assert abs(cc.b - ora_b) <= cc.err_b + 1e-13

    def test_reference_value(self):
        beam = BeamParams(waist=1.0, l0=10)
        assert channel_ab(beam, r0_from_x(beam, 20.0), 1e-12).a == pytest.approx(7.676e-4, abs=1e-7)

    @pytest.mark.parametrize("x, rel", [(20.0, 1e-6), (100.0, 5e-8), (1000.0, 1e-9)])
    def test_asymptote(self, x, rel):
        # a x -> const, approached as x^-2
        beam = BeamParams(waist=1.0, l0=10)
        cc = channel_ab(beam, r0_from_x(beam, x), 1e-12)
        assert cc.a * x == pytest.approx(large_x_limit(10), rel=rel)

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(l0=st.integers(1, 40), p0=st.integers(0, 3), x=st.sampled_from([100.0, 1000.0]))
    def test_asymptote_for_every_beam(self, l0, p0, x):
        # a x -> const as x^-2 for every beam; the largest gap over l0 <= 40,
        # p0 <= 3 is 0.081 const/x^2, at l0 = 1, p0 = 3
        beam = BeamParams(waist=1.0, l0=l0, p0=p0)
        cc = channel_ab(beam, r0_from_x(beam, x), 1e-12)
        limit = large_x_limit(l0, p0)
        assert abs(cc.a * x - limit) <= 0.2 * limit / x ** 2 + x * cc.err_a

    def test_beyond_resolution_raises(self):
        beam = BeamParams(waist=1.0, l0=10)
        with pytest.raises(ConvergenceFailure):
            channel_ab(beam, r0_from_x(beam, 1e7), 1e-9)

    @pytest.mark.parametrize("turb", [TurbulenceParams(1e-300), r0_from_x(BeamParams(), 1e200)])
    def test_structure_overflow_raises(self, turb):
        with pytest.raises(ConvergenceFailure):
            channel_ab(BeamParams(), turb, 1e-9)


@pytest.mark.parametrize("p0", [0, 1, 2, 5])
@pytest.mark.parametrize("l0", [1, 10, 40])
def test_radial_cut_tail_mass(l0, p0):
    # mass of the normalized radial weight p0!/(p0+l0)! u^l0 L^2 e^-u beyond the
    # cut; a Gamma(l0 + 2 p0 + 1) cut without the Laguerre leading coefficient
    # leaves up to 6e-16 here at p0 = 2
    umax = _u_max(BeamParams(waist=1.0, l0=l0, p0=p0))
    log_norm = gammaln(p0 + 1.0) - gammaln(p0 + l0 + 1.0)
    tail, err = quad(lambda u: math.exp(log_norm + l0 * math.log(u) - u)
                     * eval_genlaguerre(p0, l0, u) ** 2,
                     umax, math.inf, epsabs=0.0, epsrel=1e-8)
    assert err <= 1e-6 * tail
    assert tail <= _TAIL_MASS


@pytest.mark.parametrize("x", [1e-7, 1e-6, 1e-5])
@pytest.mark.parametrize("l0", [1, 10, 20, 40, 60, 97])
def test_small_x_series(l0, x):
    # at p0 = 0 the weight is the Gamma(l0 + 1) density, so expanding the kernel
    # a = sum_n (-c)^n/n! M(5n/6) S(5n/3), M(q) = E[u^q] = G(l0+1+q)/G(l0+1) and
    # S(k) = G((k+1)/2)/(sqrt(pi) G(k/2+1)), the mean of sin(theta/2)^k on [0, pi];
    # c M(5/6) < 1e-4 here, so the terms from c^4 on are below 1e-17
    beam = BeamParams(waist=1.0, l0=l0)
    turb = r0_from_x(beam, x)
    c = 3.44 * (math.sqrt(2.0) / turb.fried_r0) ** (5.0 / 3.0)

    def term(n):
        q, k = 5.0 * n / 6.0, 5.0 * n / 3.0
        return (-c) ** n / math.factorial(n) * math.exp(
            math.lgamma(l0 + 1.0 + q) - math.lgamma(l0 + 1.0)
            + math.lgamma(0.5 * (k + 1.0)) - math.lgamma(0.5 * k + 1.0)) / math.sqrt(math.pi)

    cc = channel_ab(beam, turb, 1e-11)
    assert abs(cc.a - math.fsum(term(n) for n in range(4))) <= cc.err_a


@pytest.mark.parametrize("tol", [1e-6, 1e-11])
@pytest.mark.parametrize("x", [0.01, 1.0, 50.0])
@pytest.mark.parametrize("p0", [0, 2])
@pytest.mark.parametrize("l0", [1, 10, 40])
def test_error_bars_are_honest(l0, p0, x, tol):
    beam = BeamParams(waist=1.0, l0=l0, p0=p0)
    cc = channel_ab(beam, r0_from_x(beam, x), tol)
    ora_a, ora_b = channel_ab_quad(l0, p0, x)
    assert 0.0 < cc.err_a <= tol
    assert 0.0 < cc.err_b <= tol
    assert abs(cc.a - ora_a) <= cc.err_a + 1e-13
    assert abs(cc.b - ora_b) <= cc.err_b + 1e-13


@pytest.mark.parametrize("l0, p0, x, tol", [(97, 2, 0.00307, 1e-12), (93, 8, 0.01435, 1e-11)])
def test_error_bars_are_honest_at_high_l0(l0, p0, x, tol):
    # the 128x256 and 256x512 rules differ here by more than tol; the pair
    # (181x362, 256x512) agrees, and nested quad confirms its error bars
    test_error_bars_are_honest(l0, p0, x, tol)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(l0=st.integers(1, 40), p0=st.integers(0, 3), x=st.floats(1e-3, 100.0),
       tol=st.sampled_from([1e-6, 1e-9, 1e-11]))
def test_channel_coefficients_in_range(l0, p0, x, tol):
    beam = BeamParams(waist=1.0, l0=l0, p0=p0)
    cc = channel_ab(beam, r0_from_x(beam, x), tol)
    assert 0.0 <= cc.b <= cc.a <= 1.0
    assert 0.0 < cc.err_a <= tol
    assert 0.0 < cc.err_b <= tol


def test_rule_cache_carries_no_state(monkeypatch):
    # the rule tables change no result: cold and warm caches, and either order
    # of inputs that need different rules, give identical bits
    cases = ((1, 0.7), (40, 0.7), (10, 2.0))

    def evaluate(l0, x):
        beam = BeamParams(waist=1.0, l0=l0, p0=1)
        cc = channel_ab(beam, r0_from_x(beam, x), 1e-11)
        return cc.a, cc.b, cc.err_a, cc.err_b

    cold = {}
    for case in cases:
        monkeypatch.setattr(turbulence, "_GAUSS", {})
        monkeypatch.setattr(turbulence, "_RULES", {})
        cold[case] = evaluate(*case)
        assert len(turbulence._RULES) >= 2
    for order in (cases, cases[::-1]):
        assert {case: evaluate(*case) for case in order} == cold


def test_exponent_table_carries_no_state(monkeypatch):
    # the kernel exponent, kept in the rule table of each ladder step, changes
    # no bit either: rebuilding the rule tables after a warm call
    beam = BeamParams(waist=1.0, l0=10, p0=1)
    turb = r0_from_x(beam, 2.0)
    warm = channel_ab(beam, turb, 1e-11)
    monkeypatch.setattr(turbulence, "_RULES", {})
    assert channel_ab(beam, turb, 1e-11) == warm
    assert len(turbulence._RULES) >= 2


def test_first_call_builds_only_the_rules_it_uses():
    # the rule tables fill per ladder step on first use: a fresh process
    # builds the Gauss rules and tables of the ladder steps it reaches, no more
    code = ("from oamturb import turbulence as t\n"
            "beam = t.BeamParams(1, 1)\n"
            "t.channel_ab(beam, t.r0_from_x(beam, 0.5), 1e-9)\n"
            "print(sorted(t._GAUSS), sorted(t._RULES))")
    assert fresh_python("-c", code).stdout.strip() == "[32, 45, 64, 90] [(32, 64), (45, 90)]"


def test_only_the_rule_tables_grow():
    # the module keeps no state keyed by beam, x or tol: after calls over
    # several of each, only the two rule tables have grown, and only by
    # ladder steps
    code = ("from oamturb import turbulence as t\n"
            "def sizes():\n"
            "    return {name: v.cache_info().currsize if hasattr(v, 'cache_info') else len(v)\n"
            "            for name, v in vars(t).items() if not name.startswith('__')\n"
            "            and (hasattr(v, 'cache_info') or isinstance(v, (dict, list, set)))}\n"
            "before = sizes()\n"
            "for l0, p0, x, tol in ((1, 0, 0.5, 1e-9), (10, 2, 3.0, 1e-11), (40, 1, 50.0, 1e-6),\n"
            "                       (3, 0, 1e-3, 1e-11), (97, 5, 0.01, 1e-10), (1, 0, 0.5, 1e-6)):\n"
            "    beam = t.BeamParams(1, l0, p0)\n"
            "    t.channel_ab(beam, t.r0_from_x(beam, x), tol)\n"
            "after = sizes()\n"
            "print(sorted(name for name in after if after[name] != before.get(name)))\n"
            "print(len(t._RULES) > 2, set(t._RULES) <= set(t._RULE_SIZES))")
    assert fresh_python("-c", code).stdout.split("\n")[:2] == ["['_GAUSS', '_RULES']", "True True"]


@pytest.mark.parametrize("l0, p0, x", [(40, 0, 1.0), (40, 0, 50.0), (10, 2, 20.0)])
def test_exponent_floor_moves_no_bit(monkeypatch, l0, p0, x):
    # the kernel exponent reaches about -c_scale u_max^(5/6) at the outer nodes,
    # far below the floor here, yet the floored terms change no bit of the sums
    beam = BeamParams(waist=1.0, l0=l0, p0=p0)
    turb = r0_from_x(beam, x)
    assert turbulence._c_scale(beam, turb) * _u_max(beam) ** (5.0 / 6.0) > -2.0 * turbulence._EXP_FLOOR
    floored = channel_ab(beam, turb, 1e-11)
    monkeypatch.setattr(turbulence, "_EXP_FLOOR", -math.inf)
    unfloored = channel_ab(beam, turb, 1e-11)
    assert ([v.hex() for v in (floored.a, floored.b, floored.err_a, floored.err_b)]
            == [v.hex() for v in (unfloored.a, unfloored.b, unfloored.err_a, unfloored.err_b)])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(l0=st.integers(1, 40), p0=st.integers(0, 3), x=st.floats(1e-3, 100.0),
       k=st.floats(1e-3, 1e3))
def test_waist_and_fried_scale_together(l0, p0, x, k):
    # (a, b) depend on (w0/r0, l0, p0) only: scaling both lengths by k moves
    # each coefficient by no more than the two error bars together
    beam = BeamParams(waist=1.0, l0=l0, p0=p0)
    turb = r0_from_x(beam, x)
    cc = channel_ab(beam, turb, 1e-9)
    scaled = channel_ab(BeamParams(waist=k, l0=l0, p0=p0), TurbulenceParams(k * turb.fried_r0), 1e-9)
    assert abs(scaled.a - cc.a) <= cc.err_a + scaled.err_a
    assert abs(scaled.b - cc.b) <= cc.err_b + scaled.err_b


class TestLambdaElement:
    def test_selection_rule_gives_exact_zero(self):
        beam = BeamParams(waist=1.0, l0=1)
        turb = r0_from_x(beam, 0.5)
        assert lambda_element(1, -1, 1, 1, beam, turb) == 0.0
        assert lambda_element(1, 1, 1, -1, beam, turb) == 0.0

    def test_diagonal_element_is_survival(self):
        beam = BeamParams(waist=1.0, l0=1)
        turb = r0_from_x(beam, 0.5)
        cc = channel_ab(beam, turb, 1e-10)
        for l, lp in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
            lam = lambda_element(l, lp, l, lp, beam, turb, 1e-10)
            assert lam.real == pytest.approx(cc.a, abs=1e-8)
            assert abs(lam.imag) < 1e-10

    def test_cross_element_is_crosstalk(self):
        beam = BeamParams(waist=1.0, l0=1)
        turb = r0_from_x(beam, 0.5)
        cc = channel_ab(beam, turb, 1e-10)
        for sign in (1, -1):
            lam = lambda_element(sign, sign, -sign, -sign, beam, turb, 1e-10)
            assert lam.real == pytest.approx(cc.b, abs=1e-8)
            assert abs(lam.imag) < 1e-10

    def test_identity_limit(self):
        beam = BeamParams(waist=1.0, l0=2)
        turb = TurbulenceParams(math.inf)
        assert lambda_element(2, 2, 2, 2, beam, turb) == 1.0 + 0.0j
        assert lambda_element(-2, -2, 2, 2, beam, turb) == 0.0 + 0.0j

    def test_rejects_foreign_indices(self):
        beam = BeamParams(waist=1.0, l0=2)
        with pytest.raises(ValueError):
            lambda_element(1, 1, 1, 1, beam, TurbulenceParams(1.0))


class TestChannelCoefficients:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelCoefficients(a=0.0, b=0.0)
        with pytest.raises(ValueError):
            ChannelCoefficients(a=0.5, b=-0.01)
        with pytest.raises(ValueError):
            ChannelCoefficients(a=0.3, b=0.4)
        ChannelCoefficients(a=1.0, b=0.0)
        ChannelCoefficients(a=0.5, b=0.5)
        ChannelCoefficients(a=1e-12, b=1e-12)
        ChannelCoefficients(a=5e-324, b=5e-324)

    @pytest.mark.parametrize("a, b", [(1e-12, 1e-11), (5e-324, 1e-11), (1e-12, 1.001e-12),
                                      (0.5, math.nan)])
    def test_crosstalk_bound_is_relative(self, a, b):
        # b <= a (1 + 1e-10): a tiny a admits no ratio b/a far above 1
        with pytest.raises(ValueError, match=f"a = {a}, b = {b}"):
            ChannelCoefficients(a, b)

    def test_turbulence_params_validation(self):
        with pytest.raises(ValueError):
            TurbulenceParams(0.0)
        with pytest.raises(ValueError):
            TurbulenceParams(-1.0)
