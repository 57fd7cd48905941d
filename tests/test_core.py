"""Tests for the general two-mode machinery (core module)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfisher import core
from gaussfisher.errors import ValidationError
from gaussfisher.states import FamilyPoint, TsParams, sq_symplectic, thermal_cov
from gaussfisher.verification import fidelity_properties, random_physical_state


def thermal4(n1, n2):
    return thermal_cov(TsParams(n1, n2))


class TestSymplecticForm:
    def test_block_entries(self):
        j = core.symplectic_form()
        assert j[0][1] == 1.0 and j[1][0] == -1.0
        assert j[2][3] == 1.0 and j[3][2] == -1.0
        np.testing.assert_allclose(j @ j, -np.eye(4))

    def test_orthogonal(self):
        j = core.symplectic_form()
        np.testing.assert_allclose(j @ j.T, np.eye(4))

    def test_determinant(self):
        assert np.linalg.det(core.symplectic_form()) == pytest.approx(1.0)


class TestCheckPhysical:
    def test_vacuum_is_edge(self):
        report = core.check_physical(0.5 * np.eye(4))
        assert report.physical
        assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-14)

    def test_thermal_interior(self):
        # eigenvalues of V + iJ/2 are (n + 1/2) +- 1/2 per mode
        report = core.check_physical(thermal4(1.0, 1.0))
        assert report.physical
        assert report.min_eigenvalue == pytest.approx(1.0, rel=1e-14)

    def test_quarter_identity_unphysical(self):
        # eigenvalues of (1/4)I + (i/2)J are 1/4 +- 1/2, so -1/4 appears
        report = core.check_physical(0.25 * np.eye(4))
        assert not report.physical
        assert report.min_eigenvalue == pytest.approx(-0.25, abs=1e-12)

    def test_rejects_asymmetric(self):
        bad = 0.5 * np.eye(4)
        bad[0, 1] = 1e-6
        with pytest.raises(ValidationError):
            core.check_physical(bad)

    def test_large_unbalanced_sts_loads(self):
        # entries near 4e12: the roundoff in the smallest eigenvalue (~1e-3)
        # dwarfs the absolute psd slack
        state = FamilyPoint.sts(1e6, 0.0, 8.0, 0.3).to_state()
        assert state.cov.max() > 1e12

    def test_large_squeezed_unphysical_rejected(self):
        # symplectic eigenvalue 0.3 < 1/2 on one mode, entries near 1.4e10
        s = sq_symplectic(2.0, 0.3)
        v = s @ np.diag([0.3, 0.3, 1e9, 1e9]) @ s.T
        report = core.check_physical(0.5 * (v + v.T))
        assert np.abs(v).max() > 1e10
        assert not report.physical

    def test_env_override_loosens_psd(self, tolerance_env):
        tolerance_env(psd="1.0")
        assert core.check_physical(0.25 * np.eye(4)).physical


class TestInvariants:
    def test_vacuum_pair(self):
        # independent evaluation of the three determinants for V = I/2
        j = core.symplectic_form()
        v = 0.5 * np.eye(4)
        delta = np.linalg.det(v + v)
        gamma = 16.0 * np.linalg.det((j @ v) @ (j @ v) - 0.25 * np.eye(4))
        lam = 16.0 * np.linalg.det(v + 0.5j * j) * np.linalg.det(v + 0.5j * j)
        assert delta == pytest.approx(1.0)
        assert gamma == pytest.approx(1.0)
        assert abs(lam) == pytest.approx(0.0, abs=1e-14)

        out = core.compute_invariants(v, v)
        assert out.delta == pytest.approx(1.0)
        assert out.gamma == pytest.approx(1.0)
        assert out.lam == pytest.approx(0.0, abs=1e-12)
        assert out.k_plus == pytest.approx(2.0)
        assert out.k_minus == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [0.3, 1.0, 2.0])
    def test_equal_thermal_lambda(self, n):
        # lam = 16 [n(n+1)]^4: the edge determinant factorizes per mode
        out = core.compute_invariants(thermal4(n, n), thermal4(n, n))
        assert out.lam == pytest.approx(16.0 * (n * (n + 1.0)) ** 4, rel=1e-12)

    def test_inequalities_on_random_pairs(self, rng):
        for _ in range(100):
            a = random_physical_state(rng)
            b = random_physical_state(rng)
            out = core.compute_invariants(a.cov, b.cov)
            assert out.delta >= 1.0 - 1e-9
            assert out.gamma >= out.delta - 1e-9
            assert out.lam >= -1e-9
            assert out.k_minus >= 0.0
            assert out.k_plus - out.k_minus >= 2.0 - 1e-9


class TestFidelityTwoMode:
    def test_identical_states(self, rng):
        for _ in range(20):
            state = random_physical_state(rng, displaced=True)
            assert core.fidelity_two_mode(state, state).fidelity == pytest.approx(1.0, abs=1e-12)

    def test_displacement_only(self):
        cov = thermal4(0.7, 0.7)
        a = core.TwoModeGaussian(mean=np.array([1.0, 0.0, 0.0, 0.0]), cov=cov)
        b = core.TwoModeGaussian(mean=np.zeros(4), cov=cov)
        expected = math.exp(-0.5 * np.linalg.inv(cov + cov)[0, 0])
        assert core.fidelity_two_mode(a, b).fidelity == pytest.approx(expected, rel=1e-12)

    def test_thermal_quarter(self):
        a = FamilyPoint.ts(0.0, 0.0).to_state()
        b = FamilyPoint.ts(1.0, 1.0).to_state()
        assert core.fidelity_two_mode(a, b).fidelity == pytest.approx(0.25, rel=1e-12)

    def test_symmetry(self, rng):
        pairs = lambda r: (random_physical_state(r, True), random_physical_state(r, True))
        assert fidelity_properties(rng, 100, pairs)[0] <= 1e-12

    def test_overlap_bound_and_identity(self, rng):
        pairs = lambda r: (random_physical_state(r), random_physical_state(r))
        _, excess, overlap, _, identity = fidelity_properties(rng, 100, pairs)
        assert excess <= 1e-10
        assert overlap <= 1e-12
        assert identity <= 1e-10

    def test_pure_state_reduces_to_overlap(self, rng):
        for _ in range(25):
            r = rng.uniform(0.1, 1.0)
            pure = FamilyPoint.sts(0.0, 0.0, r, rng.uniform(-3.0, 3.0)).to_state()
            mixed = random_physical_state(rng)
            # a pure state sits on the physicality edge
            assert core.check_physical(pure.cov).min_eigenvalue == pytest.approx(0.0, abs=1e-12)
            out = core.fidelity_two_mode(pure, mixed)
            assert out.fidelity == pytest.approx(out.overlap, abs=1e-9)


class TestFidelityOneMode:
    def test_identical_thermal(self):
        cov = 1.5 * np.eye(2)
        value = core.fidelity_one_mode(np.zeros(2), cov, np.zeros(2), cov)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_vs_thermal(self):
        value = core.fidelity_one_mode(
            np.zeros(2), 0.5 * np.eye(2), np.zeros(2), 1.5 * np.eye(2))
        assert value == pytest.approx(0.5, rel=1e-12)

    def test_pure_equals_overlap(self, rng):
        # when one state is pure the fidelity is the Hilbert-Schmidt overlap
        for _ in range(10):
            n = rng.uniform(0.1, 2.0)
            mean_b = rng.normal(0.0, 0.5, 2)
            cov_a = 0.5 * np.eye(2)
            cov_b = (n + 0.5) * np.eye(2)
            total = cov_a + cov_b
            overlap = math.exp(-0.5 * mean_b @ np.linalg.solve(total, mean_b)) \
                / math.sqrt(np.linalg.det(total))
            value = core.fidelity_one_mode(np.zeros(2), cov_a, mean_b, cov_b)
            assert value == pytest.approx(overlap, rel=1e-10)

    def test_unphysical_rejected(self):
        with pytest.raises(ValidationError):
            core.fidelity_one_mode(np.zeros(2), 0.25 * np.eye(2),
                                   np.zeros(2), np.eye(2))

    @pytest.mark.parametrize("mean", [[math.nan, 0.0], [math.inf, 0.0], [0.0, 0.0, 0.0]],
                             ids=["nan", "inf", "three"])
    def test_rejects_bad_mean(self, mean):
        cov = 1.5 * np.eye(2)
        with pytest.raises(ValidationError):
            core.fidelity_one_mode(mean, cov, [0.0, 0.0], cov)
        with pytest.raises(ValidationError):
            core.fidelity_one_mode([0.0, 0.0], cov, mean, cov)


class TestDistances:
    def test_anchors(self):
        assert core.distances(1.0) == {"bures": 0.0, "angle": 0.0}
        out = core.distances(0.0)
        assert out["bures"] == pytest.approx(math.sqrt(2.0))
        assert out["angle"] == pytest.approx(math.pi / 2.0)
        out = core.distances(0.25)
        assert out["bures"] == pytest.approx(1.0)
        assert out["angle"] == pytest.approx(math.pi / 3.0)

    def test_clamps_tiny_overshoot(self):
        assert core.distances(1.0 + 1e-12)["bures"] == 0.0

    def test_rejects_large_overshoot(self):
        with pytest.raises(ValidationError):
            core.distances(1.001)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            core.distances(math.nan)


class TestClassicalFidelity:
    def test_equal_distributions(self):
        out = core.classical_fidelity([0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
        assert out["f_cl"] == pytest.approx(1.0)
        assert out["d_bw"] == pytest.approx(0.0, abs=1e-7)
        assert out["d_h"] == pytest.approx(0.0, abs=1e-7)

    def test_equal_uniform_distances_vanish(self):
        # the affinity of these rounds to 1 - 2^-53, which 2 - 2 affinity
        # turned into a distance of 1.5e-8
        p = np.full(5, 0.8644823477329376) / (5 * 0.8644823477329376)
        out = core.classical_fidelity(p, np.roll(p, 1))
        assert out["d_h"] == pytest.approx(0.0, abs=1e-12)
        assert out["d_bw"] == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports(self):
        out = core.classical_fidelity([1.0, 0.0], [0.0, 1.0])
        assert out["f_cl"] == 0.0
        assert out["d_bw"] == pytest.approx(math.pi / 2.0)
        assert out["d_h"] == pytest.approx(math.sqrt(2.0))

    def test_half(self):
        out = core.classical_fidelity([0.5, 0.5], [1.0, 0.0])
        assert out["f_cl"] == pytest.approx(0.5, rel=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            core.classical_fidelity([0.5, 0.4], [1.0, 0.0])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            core.classical_fidelity([math.nan, 1.0], [0.5, 0.5])
        with pytest.raises(ValidationError):
            core.classical_fidelity([0.5, 0.5], [math.nan, 1.0])

    @given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_hellinger_matches_direct_sum(self, weights):
        p = np.array(weights) / sum(weights)
        q = np.roll(p, 1)
        out = core.classical_fidelity(p, q)
        direct = math.sqrt(((np.sqrt(p) - np.sqrt(q)) ** 2).sum())
        assert out["d_h"] == pytest.approx(direct, abs=1e-12)
