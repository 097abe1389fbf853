import itertools
import math

import numpy as np
import pytest

from conftest import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    coherence_dense,
    concurrence_wootters_oracle,
    lqu_dense,
    random_x_state,
    sqrt_psd,
    to_dense,
    w_matrix,
)
from oamturb.measures import (
    concurrence_analytic,
    concurrence_x,
    lqu,
    measure_triple,
    rel_entropy_coherence,
    von_neumann_entropy,
)
from oamturb.qstate import WernerParams, XState, apply_channel, werner_like
from oamturb.turbulence import ChannelCoefficients

BELL = WernerParams(gamma=1.0, theta=math.pi / 2)
MIXED = WernerParams(gamma=0.0, theta=1.0)


def random_cc(rng):
    a = rng.uniform(0.05, 1.0)
    return ChannelCoefficients(a=a, b=rng.uniform(0.0, a))


class TestConcurrence:
    def test_bell_is_one(self):
        assert concurrence_x(werner_like(BELL)) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed_is_zero(self):
        assert concurrence_x(werner_like(MIXED)) == 0.0

    def test_werner_half(self):
        # (3 gamma - 1)/2 at gamma = 1/2
        got = concurrence_x(werner_like(WernerParams(0.5, math.pi / 2)))
        assert got == pytest.approx(0.25, abs=1e-14)

    def test_oracle_on_bell_and_product(self):
        assert concurrence_wootters_oracle(to_dense(werner_like(BELL))) == pytest.approx(1.0, abs=1e-10)
        product = werner_like(WernerParams(1.0, 0.0))
        assert concurrence_wootters_oracle(to_dense(product)) == pytest.approx(0.0, abs=1e-10)

    def test_x_form_equals_spin_flip_oracle(self, rng):
        for _ in range(1000):
            s = random_x_state(rng)
            assert concurrence_x(s) == pytest.approx(
                concurrence_wootters_oracle(to_dense(s)), abs=1e-10)

    def test_analytic_equals_channel_composition(self, rng):
        gammas = np.linspace(0.0, 1.0, 5)
        thetas = np.linspace(0.0, math.pi, 9)
        ccs = [random_cc(rng) for _ in range(20)]
        for g, t, cc in itertools.product(gammas, thetas, ccs):
            w = WernerParams(float(g), float(t))
            via_state = concurrence_x(apply_channel(werner_like(w), cc))
            assert concurrence_analytic(w, cc) == pytest.approx(via_state, abs=1e-10)

    def test_identity_channel_separability_threshold(self):
        cc = ChannelCoefficients(1.0, 0.0)
        for theta in np.linspace(0.01, math.pi - 0.01, 15):
            boundary = 1.0 / (1.0 + 2.0 * math.sin(theta))
            below = concurrence_analytic(WernerParams(boundary - 1e-9, float(theta)), cc)
            above = concurrence_analytic(WernerParams(min(1.0, boundary + 1e-9), float(theta)), cc)
            assert below == 0.0
            assert above > 0.0


class TestEntropy:
    def test_pure(self):
        assert von_neumann_entropy([1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-14)

    def test_half_half(self):
        assert von_neumann_entropy([0.5, 0.5, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_non_spectrum(self):
        with pytest.raises(ValueError):
            von_neumann_entropy([0.5, 0.4])

    @pytest.mark.parametrize("container", [list, tuple, np.array], ids=["list", "tuple", "ndarray"])
    def test_float_from_any_sequence(self, container):
        entropy = von_neumann_entropy(container([0.5, 0.25, 0.25]))
        assert type(entropy) is float
        assert entropy == pytest.approx(1.5, abs=1e-15)
        with pytest.raises(ValueError):
            von_neumann_entropy(container([0.5, 0.4]))


class TestCoherence:
    def test_bell_is_one(self):
        assert rel_entropy_coherence(werner_like(BELL)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_states_have_none(self):
        assert rel_entropy_coherence(werner_like(MIXED)) == 0.0
        assert rel_entropy_coherence(XState(0.3, 0.3, 0.2, 0.2)) == 0.0

    def test_uniform_with_small_coherence(self):
        # diag(1/4,...) with c23 = 1/8: block eigenvalues {1/4, 1/4, 3/8, 1/8}
        s = XState(0.25, 0.25, 0.25, 0.25, c23=0.125)
        expected = 2.0 - von_neumann_entropy([0.25, 0.25, 0.375, 0.125])
        assert rel_entropy_coherence(s) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.094361, abs=1e-6)

    def test_matches_dense_oracle(self, rng):
        states = [random_x_state(rng) for _ in range(10_000)]
        for _ in range(1000):
            w = WernerParams(float(rng.uniform()), float(rng.uniform(0.0, math.pi)),
                             float(rng.uniform(0.0, 2.0 * math.pi)))
            states.append(apply_channel(werner_like(w), random_cc(rng)))
        worst = max(abs(rel_entropy_coherence(s) - coherence_dense(s)) for s in states)
        assert worst <= 1e-12

    def test_zero_iff_coherences_vanish(self, rng):
        for _ in range(100):
            s = random_x_state(rng)
            coh = rel_entropy_coherence(s)
            if abs(s.c14) < 1e-12 and abs(s.c23) < 1e-12:
                assert coh <= 1e-12
            elif abs(s.c14) > 1e-6 or abs(s.c23) > 1e-6:
                assert coh > 0.0


class TestSqrtPsd:
    def test_quarter_identity(self):
        got = sqrt_psd(np.eye(4, dtype=complex) / 4.0)
        assert np.allclose(got, np.eye(4) / 2.0, atol=1e-14)

    def test_projector_is_fixed_point(self):
        proj = to_dense(werner_like(BELL))
        assert np.abs(sqrt_psd(proj) - proj).max() < 1e-12

    def test_square_recovers_input(self, rng):
        for _ in range(100):
            dense = to_dense(random_x_state(rng))
            root = sqrt_psd(dense)
            assert np.linalg.norm(root @ root - dense) < 1e-10
            assert np.abs(root - root.conj().T).max() < 1e-12


class TestWMatrix:
    def test_maximally_mixed_gives_identity(self):
        w = w_matrix(to_dense(werner_like(MIXED)))
        assert np.allclose(w, np.eye(3), atol=1e-12)

    def test_bell_gives_zero(self):
        w = w_matrix(to_dense(werner_like(BELL)))
        assert np.abs(w).max() < 1e-12

    def test_symmetric_real(self, rng):
        for _ in range(50):
            w = w_matrix(to_dense(random_x_state(rng)))
            assert w.dtype.kind == "f"
            assert np.abs(w - w.T).max() < 1e-12


def _lqu_sphere_scan_oracle(dense, n_theta=180, n_phi=360):
    """Direct minimization of the skew information over local spin directions:
    LQU = 1 - max_n n^T W n, scanned on a spherical grid."""
    root = sqrt_psd(dense)
    paulis = [np.kron(s, np.eye(2, dtype=complex)) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
    w = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            w[i, j] = np.trace(root @ paulis[i] @ root @ paulis[j]).real
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    best = -np.inf
    for t in thetas:
        st, ct = math.sin(t), math.cos(t)
        n = np.stack([st * np.cos(phis), st * np.sin(phis), np.full_like(phis, ct)])
        vals = np.einsum("ik,ij,jk->k", n, w, n)
        best = max(best, float(vals.max()))
    return 1.0 - best


class TestLQU:
    def test_bell_is_one(self):
        value, _ = lqu(werner_like(BELL))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_zero(self):
        # W = I: all three axes tie and resolve to branch 1
        value, branch = lqu(werner_like(MIXED))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert branch == 1

    def test_pure_product_of_qubit_a(self):
        # |0><0| x I/2: measuring qubit A along z is certain, so W_zz = 1
        value, branch = lqu(XState(0.5, 0.5, 0.0, 0.0))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert branch == 3
        assert lqu_dense(XState(0.5, 0.5, 0.0, 0.0)) == (pytest.approx(value, abs=1e-12), 3)

    def test_no_outer_coherence_has_no_y_branch(self, rng):
        # c14 = 0, as in every channel-evolved Werner state, makes the xy
        # block of W degenerate: the branch is x or z
        for _ in range(500):
            s = random_x_state(rng)
            w = WernerParams(float(rng.uniform()), float(rng.uniform(0.0, math.pi)),
                             float(rng.uniform(0.0, 2.0 * math.pi)))
            for state in (XState(s.d11, s.d22, s.d33, s.d44, 0j, s.c23),
                          apply_channel(werner_like(w), random_cc(rng))):
                value, branch = lqu(state)
                ref_value, ref_branch = lqu_dense(state)
                assert branch in (1, 3)
                assert abs(value - ref_value) <= 1e-12
                assert branch == ref_branch

    @pytest.mark.parametrize("s", [
        # W_zz above the xy eigenvalues by about 1.6e-13
        XState(0.25 + 2e-7, 0.25, 0.25 - 2e-7, 0.25),
        # xy eigenvalues 8e-14 apart, the larger one along y
        XState(0.25, 0.25, 0.25, 0.25, 1e-7j, 1e-7j),
    ], ids=["z_within_band", "xy_within_band"])
    def test_near_ties_resolve_to_lowest_axis(self, s):
        assert lqu(s)[1] == 1
        assert lqu_dense(s)[1] == 1

    def test_closed_form_matches_dense_oracle(self, rng):
        branches = set()
        for _ in range(10_000):
            s = random_x_state(rng)
            value, branch = lqu(s)
            ref_value, ref_branch = lqu_dense(s)
            assert abs(value - ref_value) <= 1e-12
            assert branch == ref_branch
            branches.add(branch)
        assert branches == {1, 2, 3}

    def test_werner_half_closed_form(self):
        # fully degenerate W: lqu = (3 - sqrt 5)/4, ties resolve to branch 1
        value, branch = lqu(werner_like(WernerParams(0.5, math.pi / 2)))
        assert value == pytest.approx((3.0 - math.sqrt(5.0)) / 4.0, abs=1e-12)
        assert branch == 1

    def test_product_states_have_none(self):
        value, _ = lqu(werner_like(WernerParams(1.0, 0.0)))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_range_and_branch(self, rng):
        for _ in range(200):
            value, branch = lqu(random_x_state(rng))
            assert 0.0 <= value <= 1.0
            assert branch in (1, 2, 3)

    def test_against_sphere_scan(self, rng):
        for _ in range(5):
            s = random_x_state(rng)
            value, _ = lqu(s)
            scanned = _lqu_sphere_scan_oracle(to_dense(s))
            assert value <= scanned + 1e-12       # scan can only overestimate
            assert value == pytest.approx(scanned, abs=2e-3)

    def test_measurement_side_immaterial(self, rng):
        # W built from I x sigma instead of sigma x I gives the same LQU for
        # the channel-evolved Werner family (exchange-symmetric populations)
        paulis_b = [np.kron(np.eye(2, dtype=complex), s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
        for g, t, x in [(1.0, math.pi / 2, 0.3), (0.7, math.pi / 3, 0.8), (0.4, 1.9, 1.5)]:
            cc = ChannelCoefficients(a=0.5, b=0.2 * x / 3.0)
            s = apply_channel(werner_like(WernerParams(g, t)), cc)
            dense = to_dense(s)
            root = sqrt_psd(dense)
            wb = np.empty((3, 3))
            for i in range(3):
                for j in range(3):
                    wb[i, j] = np.trace(root @ paulis_b[i] @ root @ paulis_b[j]).real
            value_a, _ = lqu(s)
            value_b = 1.0 - np.linalg.eigvalsh(wb)[-1]
            assert value_a == pytest.approx(value_b, abs=1e-10)


class TestPhaseInvariance:
    def test_all_measures_ignore_phi(self):
        base = None
        for phi in (0.0, math.pi / 3.0, math.pi):
            s = apply_channel(werner_like(WernerParams(0.8, 1.1, phi)),
                              ChannelCoefficients(0.7, 0.25))
            triple = measure_triple(s)
            vals = (triple.concurrence, triple.coherence_rel_ent, triple.lqu)
            if base is None:
                base = vals
            else:
                assert vals == pytest.approx(base, abs=1e-10)


class TestMeasureTriple:
    def test_bell_triple(self):
        t = measure_triple(werner_like(BELL))
        assert (t.concurrence, t.coherence_rel_ent, t.lqu) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_ranges(self, rng):
        for _ in range(100):
            t = measure_triple(random_x_state(rng))
            assert 0.0 <= t.concurrence <= 1.0
            assert 0.0 <= t.coherence_rel_ent <= 2.0
            assert 0.0 <= t.lqu <= 1.0
