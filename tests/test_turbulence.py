import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, gammaln

from conftest import (
    channel_ab_bruteforce,
    channel_ab_panels,
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
    _u_head,
    _u_lo,
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

    @pytest.mark.parametrize("bad", [(math.inf, 1.0, 1.0), (1.0, math.inf, 1.0),
                                     (1.0, 1.0, math.inf)])
    def test_rejects_infinite(self, bad):
        with pytest.raises(ValueError, match="must all be finite"):
            fried_parameter(*bad)

    @pytest.mark.parametrize("spec", [(1e-300, 1e-10, 1e-10), (1e300, 1e10, 1e10),
                                      (1e-300, 1e-11, 1e30)],
                             ids=["underflow", "overflow", "subnormal_partial_product"])
    def test_product_beyond_the_float_range(self, spec):
        # 0.423 Cn2 k^2 L, or a partial product of it, leaves the normal float
        # range, r0 does not; r0 scales as Cn2^(-3/5)
        cn2, k, L = spec
        scale = 1e-100 if cn2 > 1.0 else 1e100
        expected = fried_parameter(cn2 * scale, k, L) * scale ** 0.6
        assert fried_parameter(cn2, k, L) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_r0_beyond_the_float_range_is_no_turbulence(self):
        # log r0 = 1658 overflows exp: the no-turbulence limit, as r0 = inf
        assert fried_parameter(1e-300, 1e-300, 1e-300) == math.inf
        beam = BeamParams(waist=1.0, l0=1)
        cc = channel_ab(beam, TurbulenceParams.from_physical(1e-300, 1e-10, 1e-10))
        assert (cc.a, cc.b, cc.err_a, cc.err_b) == (1.0, 0.0, 0.0, 0.0)

    def test_r0_below_the_float_range_raises(self):
        with pytest.raises(ValueError, match=r"\(1e\+300, 1e\+300, 1e\+300\) give a Fried"):
            fried_parameter(1e300, 1e300, 1e300)


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

    @pytest.mark.parametrize("p0, x, tol", [(0, 1e200, 1e-9), (400, 1.0, 1e-9), (0, 1.0, 1e-17)],
                             ids=["too_strong", "radial_index_too_large", "tol_not_reached"])
    def test_every_failure_names_the_point(self, p0, x, tol):
        beam = BeamParams(waist=1.0, l0=1, p0=p0)
        with pytest.raises(ConvergenceFailure) as info:
            channel_ab(beam, r0_from_x(beam, x), tol)
        assert str(info.value).endswith(f"(l0=1, p0={p0}, x={x:.6g})")


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


@pytest.mark.parametrize("p0", [0, 1, 2, 5])
@pytest.mark.parametrize("l0", [1, 10, 40])
def test_radial_lower_cut_mass(l0, p0):
    # mass of the normalized radial weight below the lower cut, which Szego's
    # bound on L_p^l sets; at l0 = 1 the bound is tight to 1e-8 relative
    ulo = _u_lo(BeamParams(waist=1.0, l0=l0, p0=p0))
    log_norm = gammaln(p0 + 1.0) - gammaln(p0 + l0 + 1.0)
    head, err = quad(lambda u: math.exp(log_norm + l0 * math.log(u) - u)
                     * eval_genlaguerre(p0, l0, u) ** 2,
                     0.0, ulo, epsabs=0.0, epsrel=1e-8)
    assert err <= 1e-6 * head
    assert head <= _TAIL_MASS


@pytest.mark.parametrize("p0", [0, 1, 5])
@pytest.mark.parametrize("l0", [21, 40, 97])
@pytest.mark.parametrize("mass", [1e-7, 1e-16])
def test_radial_head_cut_mass(l0, p0, mass):
    # mass of the normalized radial weight below the head cut of the oscillation
    # need, the larger of Szego's cut and the Gamma-tail Chernoff cut: here the
    # Chernoff cut is the larger except at l0 = 21, mass 1e-16 (35.6 against
    # 25.6 at l0 = 97, p0 = 0, mass 1e-16)
    cut = _u_head(BeamParams(waist=1.0, l0=l0, p0=p0), math.log(mass))
    log_norm = gammaln(p0 + 1.0) - gammaln(p0 + l0 + 1.0)
    head, err = quad(lambda u: math.exp(log_norm + l0 * math.log(u) - u)
                     * eval_genlaguerre(p0, l0, u) ** 2,
                     0.0, cut, epsabs=0.0, epsrel=1e-8)
    assert err <= 1e-6 * head
    assert head <= mass


@pytest.mark.parametrize("l0, p0, message", [
    (1, 60, "did not reach tol=1e-09 with a 256x512 rule"),
    (1, 61, "radial index too large to resolve"),
    (10 ** 7, 60, "the radial weight overflows the float range"),
    (2 ** 53, 0, "angular oscillation too fast to resolve")],
    ids=["largest_p0", "p0_past_the_rules", "weight_overflow", "largest_l0"])
def test_radial_index_bounds(l0, p0, message):
    # p0 = 60 is the largest radial index with 3 radial nodes per zero in a rule
    # that has a step after it, 181x362; past it the call raises before building
    # anything.  At l0 = 10^7 the weight leaves the float range even at p0 = 60.
    # At the largest l0 no rule has 1.3 theta nodes per period of cos(2 l0 theta)
    # where the kernel is wide, and the start test fails before the weight, whose
    # nodes miss its peak there, is found to underflow at every node
    beam = BeamParams(waist=1.0, l0=l0, p0=p0)
    with pytest.raises(ConvergenceFailure, match=message):
        channel_ab(beam, r0_from_x(beam, 1.0), 1e-9)


@pytest.mark.parametrize("x, tol", [(1e-3, 1e-2), (1e-3, 1e-9), (3e-3, 1e-6)])
def test_oscillation_past_the_rules(x, tol):
    # in weak turbulence the kernel is wide, and no rule with a step after it has
    # 1.3 theta nodes per period of cos(2 l0 theta) from l0 = 115 on
    beam = BeamParams(waist=1.0, l0=130)
    with pytest.raises(ConvergenceFailure) as info:
        channel_ab(beam, r0_from_x(beam, x), tol)
    assert str(info.value) == ("channel integral: angular oscillation too fast to resolve "
                               f"(l0=130, p0=0, x={x:g})")


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


@pytest.mark.parametrize("l0, p0, x, tol", [(97, 2, 0.00307, 1e-12), (93, 8, 0.01435, 1e-11),
                                            (40, 3, 30.0, 1e-6), (61, 5, 10.0, 1e-6),
                                            (97, 5, 30.0, 1e-6), (97, 5, 100.0, 1e-6),
                                            (97, 8, 100.0, 1e-6), (60, 12, 10.0, 1e-6),
                                            (40, 20, 10.0, 1e-6), (10, 20, 30.0, 1e-6),
                                            (97, 25, 3.0, 1e-6), (60, 0, 0.0029114, 1e-2),
                                            (68, 0, 0.0047417, 1e-4), (69, 0, 0.0016818, 1e-2),
                                            (61, 0, 0.013367, 1e-2)])
def test_error_bars_are_honest_at_high_l0(l0, p0, x, tol):
    # in the first two cases the 128x256 and 256x512 rules differ by more than
    # tol; the pair (181x362, 256x512) agrees, and nested quad confirms its error
    # bars.  In the next five, rules with radial nodes down to u = 0, half of
    # them where the weight is below 1e-18 of its mass, agreed to tol on a value
    # up to 1.4e-6 off (at l0 = 61, p0 = 5, x = 10).  In the next four, rules
    # with fewer than 3 radial nodes per zero of the weight agreed on a value up
    # to 2.9e-5 off (at l0 = 40, p0 = 20, x = 10).  In the last four, in weak
    # turbulence, rules with under 1.3 theta nodes per period of cos(2 l0 theta)
    # agreed on a b up to 4.7e-2 off (at l0 = 68, where b is 2.15e-7)
    test_error_bars_are_honest(l0, p0, x, tol)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(l0=st.integers(1, 97), p0=st.integers(0, 8), log_x=st.floats(-3.0, 2.0),
       tol=st.sampled_from([1e-2, 1e-4, 1e-6, 1e-9]))
@example(l0=97, p0=8, log_x=2.0, tol=1e-6)  # the far corner, where false bars were seen
# weak turbulence at large l0, where false bars were seen at loose tol
@example(l0=60, p0=0, log_x=math.log10(0.0029114), tol=1e-2)
@example(l0=68, p0=0, log_x=math.log10(0.0047417), tol=1e-4)
@example(l0=69, p0=0, log_x=math.log10(0.0016818), tol=1e-2)
@example(l0=61, p0=0, log_x=math.log10(0.013367), tol=1e-2)
def test_error_bars_are_honest_for_every_beam(l0, p0, log_x, tol):
    # x log-uniform on [1e-3, 1e2]
    test_error_bars_are_honest(l0, p0, 10.0 ** log_x, tol)


@pytest.mark.parametrize("l0, p0, x", [(40, 20, 10.0), (60, 12, 10.0)])
def test_panel_oracle_matches_nested_quad(l0, p0, x):
    # the Gauss-between-zeros oracle against nested quad, where both reach p0
    assert np.allclose(channel_ab_panels(l0, p0, x), channel_ab_quad(l0, p0, x), rtol=0.0, atol=1e-15)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(l0=st.integers(1, 97), p0=st.integers(9, 60), log_x=st.floats(-2.0, 2.0),
       tol=st.sampled_from([1e-6, 1e-9]))
def test_error_bars_are_honest_at_high_p0(l0, p0, log_x, tol):
    # x log-uniform on [1e-2, 1e2]; at p0 >= 9 a rule may fail to certify, but
    # every value it returns is within its error bar
    x = 10.0 ** log_x
    beam = BeamParams(waist=1.0, l0=l0, p0=p0)
    try:
        cc = channel_ab(beam, r0_from_x(beam, x), tol)
    except ConvergenceFailure:
        return
    ora_a, ora_b = channel_ab_panels(l0, p0, x)
    assert 0.0 < cc.err_a <= tol
    assert 0.0 < cc.err_b <= tol
    assert abs(cc.a - ora_a) <= cc.err_a + 1e-13
    assert abs(cc.b - ora_b) <= cc.err_b + 1e-13


@settings(max_examples=300, derandomize=True, deadline=None)
@given(l0=st.integers(1, 40), p0=st.integers(0, 3), x=st.floats(1e-3, 100.0),
       tol=st.sampled_from([1e-6, 1e-9, 1e-11]))
def test_channel_coefficients_in_range(l0, p0, x, tol):
    beam = BeamParams(waist=1.0, l0=l0, p0=p0)
    cc = channel_ab(beam, r0_from_x(beam, x), tol)
    assert 0.0 <= cc.b <= cc.a <= 1.0
    assert 0.0 < cc.err_a <= tol
    assert 0.0 < cc.err_b <= tol


def test_rule_cache_carries_no_state():
    # the rule tables change no result: cold and warm caches, and either order
    # of inputs that need different rules, give identical bits
    cases = ((1, 0.7), (40, 0.7), (10, 2.0))

    def evaluate(l0, x):
        beam = BeamParams(waist=1.0, l0=l0, p0=1)
        cc = channel_ab(beam, r0_from_x(beam, x), 1e-11)
        return cc.a, cc.b, cc.err_a, cc.err_b

    cold = {}
    for case in cases:
        turbulence._gauss01.cache_clear()
        turbulence._nodes.cache_clear()
        cold[case] = evaluate(*case)
        assert turbulence._nodes.cache_info().currsize >= 2
    for order in (cases, cases[::-1]):
        assert {case: evaluate(*case) for case in order} == cold


def test_beam_rules_carry_no_state():
    # one owner shared by calls at several x and tol, in either order, gives
    # the bits of a fresh owner per call.  The calls start the ladder at
    # different steps: x = 0.5 at tol 1e-11 reaches 32x64 to 64x128, and
    # x = 1e3 starts at 64x128, so a step is filled alone, or in a pair with
    # the next, whichever call comes first
    beam = BeamParams(waist=1.0, l0=20, p0=2)
    cases = [(x, tol) for x in (0.01, 1.0, 50.0) for tol in (1e-6, 1e-11)] + [(0.5, 1e-11), (1e3, 1e-9)]
    fresh = [channel_ab(beam, r0_from_x(beam, x), tol) for x, tol in cases]
    for order in (cases, cases[::-1]):
        rules = turbulence._BeamRules(beam)
        shared = {case: channel_ab(beam, r0_from_x(beam, case[0]), case[1], rules=rules)
                  for case in order}
        assert [shared[case] for case in cases] == fresh


def test_exponent_table_carries_no_state():
    # the kernel exponent's angular factor, kept in the rule table of each
    # ladder step, changes no bit either: rebuilding the rule tables after a
    # warm call
    beam = BeamParams(waist=1.0, l0=10, p0=1)
    turb = r0_from_x(beam, 2.0)
    warm = channel_ab(beam, turb, 1e-11)
    turbulence._nodes.cache_clear()
    assert channel_ab(beam, turb, 1e-11) == warm
    assert turbulence._nodes.cache_info().currsize >= 2


def test_first_call_builds_only_the_rules_it_uses():
    # the rule tables fill per ladder step on first use: a fresh process
    # builds the Gauss rules and tables of the ladder steps it reaches, no
    # more, and a call that goes on past its first pair of steps builds the
    # next step alone.  Asking for exactly those afterwards misses no cache
    code = ("from oamturb import turbulence as t\n"
            "def sizes():\n"
            "    print(t._gauss01.cache_info().currsize, t._nodes.cache_info().currsize)\n"
            "beam = t.BeamParams(1, 1)\n"
            "t.channel_ab(beam, t.r0_from_x(beam, 0.5), 1e-9)\n"
            "sizes()\n"
            "t.channel_ab(beam, t.r0_from_x(beam, 0.5), 1e-11)\n"
            "sizes()\n"
            "misses = t._gauss01.cache_info().misses, t._nodes.cache_info().misses\n"
            "for n in (32, 45, 64, 90, 128):\n"
            "    t._gauss01(n)\n"
            "for i, n in ((0, 1), (1, 1), (0, 2), (2, 1)):\n"
            "    t._nodes(i, n)\n"
            "print(misses == (t._gauss01.cache_info().misses, t._nodes.cache_info().misses))")
    assert fresh_python("-c", code).stdout.splitlines() == ["4 3", "5 4", "True"]


def test_only_the_rule_tables_grow():
    # the module keeps no state keyed by beam, x or tol: after calls over
    # several of each, only the two rule tables have grown, and only by
    # ladder steps: at most 7 single steps and 6 pairs
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
            "print(2 < t._nodes.cache_info().currsize <= 13)")
    assert fresh_python("-c", code).stdout.split("\n")[:2] == ["['_gauss01', '_nodes']", "True"]


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

    @pytest.mark.parametrize("err_a, err_b", [(0.0, -1.0), (-1e-300, 0.0), (math.nan, 0.0),
                                              (0.0, math.nan)])
    def test_error_bounds_are_non_negative(self, err_a, err_b):
        # a negative or NaN error bar cannot hold for any value
        with pytest.raises(ValueError, match=f"err_a = {err_a}, err_b = {err_b}"):
            ChannelCoefficients(1.0, 0.0, err_a, err_b)
        ChannelCoefficients(1.0, 0.0, 0.0, math.inf)

    def test_turbulence_params_validation(self):
        with pytest.raises(ValueError):
            TurbulenceParams(0.0)
        with pytest.raises(ValueError):
            TurbulenceParams(-1.0)
