import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, gamma

from conftest import radial_profile
from oamturb.lgmath import BeamParams, laguerre, phase_correlation_length


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre(0, 3, 7.2) == 1.0

    def test_degree_one(self):
        # direct sum: 3!/(1! 2! 0!) - x 3!/(0! 3! 1!) = 3 - x
        assert laguerre(1, 2, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_value_one_at_origin(self):
        assert laguerre(2, 0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_against_scipy(self, rng):
        for _ in range(200):
            p = int(rng.integers(0, 30))
            alpha = int(rng.integers(0, 8))
            x = float(rng.uniform(-20.0, 40.0))
            ref = float(eval_genlaguerre(p, alpha, x))
            assert laguerre(p, alpha, x) == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_three_term_recurrence(self, rng):
        for _ in range(300):
            p = int(rng.integers(1, 11))
            alpha = int(rng.integers(0, 6))
            x = float(rng.uniform(-20.0, 20.0))
            lhs = (p + 1) * laguerre(p + 1, alpha, x)
            rhs = ((2 * p + alpha + 1 - x) * laguerre(p, alpha, x)
                   - (p + alpha) * laguerre(p - 1, alpha, x))
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, -1, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, 1, math.inf)

    @pytest.mark.parametrize("p", [0, 1, 5])
    def test_array_matches_scalar(self, p):
        x = np.linspace(0.0, 30.0, 7)
        got = laguerre(p, 3, x)
        assert got.shape == x.shape
        assert list(got) == [laguerre(p, 3, float(v)) for v in x]
        with pytest.raises(ValueError):
            laguerre(p, 3, np.array([1.0, math.nan]))


class TestRadialProfile:
    def test_zero_at_origin(self):
        assert radial_profile(0.0, BeamParams(waist=1.0, l0=1)) == 0.0

    def test_reference_value(self):
        # R(1) = 2 sqrt(2) e^-1 for the fundamental l0 = 1 mode
        got = radial_profile(1.0, BeamParams(waist=1.0, l0=1))
        assert got == pytest.approx(2.0 * math.sqrt(2.0) / math.e, abs=1e-12)

    @pytest.mark.parametrize("p0", [0, 1, 2])
    @pytest.mark.parametrize("l0", [1, 2, 3])
    def test_unit_intensity_norm(self, p0, l0):
        beam = BeamParams(waist=1.3, l0=l0, p0=p0)
        val, err = quad(lambda r: radial_profile(r, beam) ** 2 * r, 0.0, 12.0,
                        epsabs=1e-13, epsrel=0, limit=300)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            radial_profile(-0.1, BeamParams())

    def test_array_matches_scalar(self):
        beam = BeamParams(waist=0.8, l0=4, p0=2)
        r = np.linspace(0.0, 3.0, 9)
        got = radial_profile(r, beam)
        assert got[0] == 0.0
        assert list(got) == [radial_profile(float(v), beam) for v in r]
        with pytest.raises(ValueError):
            radial_profile(np.array([0.5, -0.1]), beam)

    @pytest.mark.parametrize("p0", [0, 2])
    @pytest.mark.parametrize("l0", [1, 10, 40])
    def test_against_scipy_closed_form(self, l0, p0):
        # R^2 (w0/2)^2 = p0!/(p0+l0)! u^l0 L^2 e^-u at u = 2 r^2 / w0^2
        beam = BeamParams(waist=1.3, l0=l0, p0=p0)
        r = np.linspace(0.05, 8.0, 40)
        u = 2.0 * r ** 2 / 1.3 ** 2
        ref = (gamma(p0 + 1) / gamma(p0 + l0 + 1) * u ** l0 * np.exp(-u)
               * eval_genlaguerre(p0, l0, u) ** 2)
        got = (0.65 * radial_profile(r, beam)) ** 2
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-300)


class TestPhaseCorrelationLength:
    def test_l0_one_closed_form(self):
        # sin(pi/2) (1/2) Gamma(5/2)/Gamma(2) = 3 sqrt(pi)/8
        got = phase_correlation_length(BeamParams(waist=1.0, l0=1))
        assert got == pytest.approx(3.0 * math.sqrt(math.pi) / 8.0, abs=1e-14)

    def test_linear_in_waist(self):
        one = phase_correlation_length(BeamParams(waist=1.0, l0=1))
        two = phase_correlation_length(BeamParams(waist=2.0, l0=1))
        assert two == pytest.approx(2.0 * one, rel=1e-14)

    def test_l0_ten_against_gamma_ratio(self):
        # second route: direct Gamma-function ratio instead of lgamma
        got = phase_correlation_length(BeamParams(waist=1.0, l0=10))
        ref = math.sin(math.pi / 20.0) * 0.5 * float(gamma(11.5) / gamma(11.0))
        assert got == pytest.approx(ref, rel=1e-12)
        assert got == pytest.approx(0.2564869770209178, rel=1e-12)

    @pytest.mark.parametrize("l0", [1, -1, 2, 5, 10, 20, -20])
    def test_positive(self, l0):
        assert phase_correlation_length(BeamParams(waist=1.0, l0=l0)) > 0.0

    def test_no_overflow_at_large_l0(self):
        assert np.isfinite(phase_correlation_length(BeamParams(waist=1.0, l0=200)))

    def test_sign_of_l0_irrelevant(self):
        plus = phase_correlation_length(BeamParams(waist=1.0, l0=3))
        minus = phase_correlation_length(BeamParams(waist=1.0, l0=-3))
        assert plus == minus


class TestBeamParams:
    def test_rejects_zero_l0(self):
        with pytest.raises(ValueError):
            BeamParams(waist=1.0, l0=0)

    def test_l0_up_to_exact_floats(self):
        # the beam math runs on float(l0), exact up to |l0| = 2**53
        for l0 in (2 ** 53, -(2 ** 53)):
            assert BeamParams(waist=1.0, l0=l0).l0 == l0
        for l0 in (2 ** 53 + 1, -(2 ** 53) - 1, 10 ** 400):
            with pytest.raises(ValueError, match="l0"):
                BeamParams(waist=1.0, l0=l0)

    def test_rejects_bad_waist_and_p0(self):
        with pytest.raises(ValueError):
            BeamParams(waist=0.0, l0=1)
        with pytest.raises(ValueError):
            BeamParams(waist=1.0, l0=1, p0=-1)

    @pytest.mark.parametrize("l0, p0", [(2.0, 0), (1, 0.5), (1.5, 0), (np.float64(1.0), 0)])
    def test_rejects_non_integral_indices(self, l0, p0):
        # a half-integer l0 would give a phase correlation length for a beam
        # that does not exist
        with pytest.raises(ValueError, match="integers"):
            BeamParams(waist=1.0, l0=l0, p0=p0)

    def test_accepts_numpy_integers(self):
        beam = BeamParams(waist=1.0, l0=np.int64(3), p0=np.int32(2))
        assert (beam.l0, beam.p0) == (3, 2)

    @pytest.mark.parametrize("waist", [math.inf, math.nan])
    def test_rejects_non_finite_waist(self, waist):
        # an infinite waist makes xi infinite and r0 = xi/x infinite too, so
        # any requested x would silently become the no-turbulence limit
        with pytest.raises(ValueError, match="finite"):
            BeamParams(waist=waist, l0=1)
