import math

import numpy as np
import pytest

from conftest import random_x_state, to_dense
from oamturb.qstate import (
    DegenerateChannel,
    WernerParams,
    XState,
    apply_channel,
    eigenvalues_x,
    werner_like,
)
from oamturb.turbulence import ChannelCoefficients

BELL = WernerParams(gamma=1.0, theta=math.pi / 2)


def random_cc(rng):
    a = rng.uniform(0.05, 1.0)
    return ChannelCoefficients(a=a, b=rng.uniform(0.0, a))


class TestWernerLike:
    def test_bell_state(self):
        s = werner_like(BELL)
        assert s.populations == pytest.approx([0.0, 0.5, 0.5, 0.0], abs=1e-15)
        assert s.c23 == pytest.approx(0.5)
        assert s.c14 == 0j

    def test_maximally_mixed(self):
        s = werner_like(WernerParams(gamma=0.0, theta=1.2, phi=2.2))
        assert s.populations == pytest.approx([0.25] * 4, abs=1e-15)
        assert s.c23 == 0j and s.c14 == 0j

    def test_pure_product(self):
        s = werner_like(WernerParams(gamma=1.0, theta=0.0))
        assert s.populations == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=1e-15)
        assert s.c23 == 0j

    def test_phase_enters_coherence_only(self):
        s = werner_like(WernerParams(gamma=0.8, theta=1.0, phi=math.pi / 3))
        assert s.c23 == pytest.approx(0.4 * math.sin(1.0) * np.exp(-1j * math.pi / 3))

    def test_parameter_validation(self):
        for bad in [dict(gamma=-0.1, theta=1.0), dict(gamma=1.1, theta=1.0),
                    dict(gamma=0.5, theta=-0.1), dict(gamma=0.5, theta=math.pi + 0.1),
                    dict(gamma=0.5, theta=1.0, phi=-0.1),
                    dict(gamma=0.5, theta=1.0, phi=2 * math.pi)]:
            with pytest.raises(ValueError):
                WernerParams(**bad)


class TestApplyChannel:
    def test_identity_channel(self):
        s = werner_like(WernerParams(gamma=0.7, theta=1.1, phi=0.4))
        out = apply_channel(s, ChannelCoefficients(1.0, 0.0))
        assert out.populations == pytest.approx(s.populations, abs=1e-15)
        assert out.c23 == pytest.approx(s.c23)

    def test_equal_mixing_flattens(self):
        s = werner_like(BELL)  # d11 = d44, d22 = d33
        out = apply_channel(s, ChannelCoefficients(0.4, 0.4))
        assert out.populations == pytest.approx([0.25] * 4, abs=1e-14)
        assert out.c23 == pytest.approx(0.25 * s.c23)

    def test_bell_through_lossy_channel(self):
        # hand evaluation for (a, b) = (0.6, 0.2):
        # norm = 0.64, d11 = d44 = 2(0.6*0.2*0.5)/0.64, d22 = d33 = (0.36+0.04)*0.5/0.64
        out = apply_channel(werner_like(BELL), ChannelCoefficients(0.6, 0.2))
        assert out.d11 == pytest.approx(0.1875, abs=1e-14)
        assert out.d44 == pytest.approx(0.1875, abs=1e-14)
        assert out.d22 == pytest.approx(0.3125, abs=1e-14)
        assert out.d33 == pytest.approx(0.3125, abs=1e-14)
        assert out.c23 == pytest.approx(0.28125)

    def test_matches_dense_kraus_style_oracle(self, rng):
        # independent 4x4 oracle: build the population-mixing matrix and the
        # coherence scaling directly on the dense matrix
        for _ in range(50):
            s = random_x_state(rng)
            cc = random_cc(rng)
            a, b = cc.a, cc.b
            mix = np.array([
                [a * a, a * b, a * b, b * b],
                [a * b, a * a, b * b, a * b],
                [a * b, b * b, a * a, a * b],
                [b * b, a * b, a * b, a * a],
            ]) / (a + b) ** 2
            dense = to_dense(s)
            expected = np.diag(mix @ np.diag(dense).real).astype(complex)
            scale = a * a / (a + b) ** 2
            expected[0, 3] = scale * dense[0, 3]
            expected[3, 0] = scale * dense[3, 0]
            expected[1, 2] = scale * dense[1, 2]
            expected[2, 1] = scale * dense[2, 1]
            got = to_dense(apply_channel(s, cc))
            assert np.abs(got - expected).max() < 1e-13

    def test_preserves_trace(self, rng):
        for _ in range(200):
            out = apply_channel(random_x_state(rng), random_cc(rng))
            assert out.populations.sum() == pytest.approx(1.0, abs=1e-12)

    def test_preserves_positivity(self, rng):
        for _ in range(1000):
            out = apply_channel(random_x_state(rng), random_cc(rng))
            assert min(eigenvalues_x(out)) >= 0.0

    def test_preserves_x_form(self, rng):
        mask = np.ones((4, 4), dtype=bool)
        for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)):
            mask[i, j] = False
        for _ in range(50):
            dense = to_dense(apply_channel(random_x_state(rng), random_cc(rng)))
            assert np.abs(dense[mask]).max() == 0.0

    @pytest.mark.parametrize("cc", [ChannelCoefficients(1.0, 0.0),
                                    ChannelCoefficients(0.7, 0.3)])
    def test_theta_reflection_swaps_populations(self, cc):
        for theta in (0.3, 1.0, 2.0):
            s1 = apply_channel(werner_like(WernerParams(0.8, theta)), cc)
            s2 = apply_channel(werner_like(WernerParams(0.8, math.pi - theta)), cc)
            assert s1.d22 == pytest.approx(s2.d33, abs=1e-14)
            assert s1.d33 == pytest.approx(s2.d22, abs=1e-14)
            assert abs(s1.c23) == pytest.approx(abs(s2.c23), abs=1e-14)

    def test_degenerate_channel_rejected(self):
        s = werner_like(BELL)
        with pytest.raises(DegenerateChannel):
            apply_channel(s, ChannelCoefficients(a=1e-15, b=0.0))


class TestEigenvaluesX:
    def test_maximally_mixed(self):
        eigs = eigenvalues_x(werner_like(WernerParams(0.0, 1.0)))
        assert sorted(eigs) == pytest.approx([0.25] * 4, abs=1e-15)

    def test_bell_state(self):
        eigs = eigenvalues_x(werner_like(BELL))
        assert sorted(eigs) == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-15)

    def test_werner_half(self):
        eigs = eigenvalues_x(werner_like(WernerParams(0.5, math.pi / 2)))
        assert sorted(eigs) == pytest.approx([0.125, 0.125, 0.125, 0.625], abs=1e-14)

    def test_four_non_negative_floats(self, rng):
        states = [werner_like(BELL), apply_channel(werner_like(BELL), ChannelCoefficients(0.7, 0.2))]
        states += [random_x_state(rng) for _ in range(200)]
        for s in states:
            eigs = eigenvalues_x(s)
            assert isinstance(eigs, tuple) and len(eigs) == 4
            assert all(isinstance(e, float) and e >= 0.0 for e in eigs)
        # built from Python floats, the state step stays on Python floats
        assert all(type(e) is float for e in eigenvalues_x(states[1]))

    def test_against_dense_eigensolver(self, rng):
        for _ in range(300):
            s = random_x_state(rng)
            ref = np.linalg.eigvalsh(to_dense(s))
            assert np.allclose(np.sort(eigenvalues_x(s)), np.sort(ref), atol=1e-12)


class TestDenseRoundTrip:
    def test_dense_is_hermitian_unit_trace(self, rng):
        for _ in range(50):
            dense = to_dense(random_x_state(rng))
            assert np.abs(dense - dense.conj().T).max() == 0.0
            assert np.trace(dense).real == pytest.approx(1.0, abs=1e-12)


class TestXStateValidation:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            XState(0.5, 0.5, 0.5, 0.5)

    def test_rejects_negative_population(self):
        with pytest.raises(ValueError):
            XState(-0.1, 0.5, 0.3, 0.3)

    def test_rejects_excess_coherence(self):
        with pytest.raises(ValueError):
            XState(0.25, 0.25, 0.25, 0.25, c23=0.5)
