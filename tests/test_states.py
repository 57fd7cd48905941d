"""Tests for the family constructors and symplectic machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfisher import states
from gaussfisher.core import check_physical, symplectic_form
from gaussfisher.errors import ValidationError

angles = st.floats(min_value=-math.pi + 1e-9, max_value=math.pi)
thetas = st.floats(min_value=0.0, max_value=math.pi - 1e-9)


class TestThermalCov:
    def test_vacuum(self):
        np.testing.assert_allclose(
            states.thermal_cov(states.TsParams(0.0, 0.0)), 0.5 * np.eye(4))

    def test_asymmetric(self):
        np.testing.assert_allclose(
            states.thermal_cov(states.TsParams(1.0, 0.0)),
            np.diag([1.5, 1.5, 0.5, 0.5]))

    def test_physical_and_edge_flags(self, rng):
        for _ in range(20):
            n1, n2 = rng.uniform(0.01, 3.0, 2)
            # eigenvalues of V + iJ/2 are (n + 1/2) +- 1/2 per mode
            report = check_physical(states.thermal_cov(states.TsParams(n1, n2)))
            assert report.physical
            assert report.min_eigenvalue == pytest.approx(min(n1, n2), rel=1e-12)
        report = check_physical(states.thermal_cov(states.TsParams(1.0, 0.0)))
        assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-14)


class TestRotation:
    def test_zero(self):
        np.testing.assert_allclose(states.rotation2(0.0), np.eye(2))

    def test_quarter_turn(self):
        np.testing.assert_allclose(states.rotation2(math.pi / 2.0),
                                   [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)

    @given(angles)
    @settings(max_examples=60, deadline=None)
    def test_inverse_pair(self, phi):
        np.testing.assert_allclose(
            states.rotation2(phi) @ states.rotation2(-phi), np.eye(2), atol=1e-15)


class TestBsSymplectic:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(states.bs_symplectic(0.0, 0.7), np.eye(4))

    def test_balanced_splitter(self):
        s = states.bs_symplectic(math.pi / 2.0, 0.0)
        # transmission = reflection = 1/2
        assert s[0, 0] ** 2 == pytest.approx(0.5)
        assert s[2, 0] ** 2 == pytest.approx(0.5)

    @given(thetas, angles)
    @settings(max_examples=100, deadline=None)
    def test_symplectic_orthogonal(self, theta, phi):
        s = states.bs_symplectic(theta, phi)
        j = symplectic_form()
        np.testing.assert_allclose(s @ j @ s.T, j, atol=1e-12)
        np.testing.assert_allclose(s @ s.T, np.eye(4), atol=1e-12)


class TestSqSymplectic:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(states.sq_symplectic(0.0, 0.7), np.eye(4))

    def test_unit_squeeze_blocks(self):
        s = states.sq_symplectic(1.0, 0.0)
        np.testing.assert_allclose(s[:2, 2:], math.sinh(1.0) * np.diag([1.0, -1.0]))
        np.testing.assert_allclose(s, s.T)

    @given(st.floats(min_value=0.0, max_value=2.0), angles)
    @settings(max_examples=100, deadline=None)
    def test_symplectic_with_unit_determinant(self, r, phi):
        s = states.sq_symplectic(r, phi)
        j = symplectic_form()
        np.testing.assert_allclose(s @ j @ s.T, j, atol=1e-11)
        assert np.linalg.det(s) == pytest.approx(1.0, rel=1e-10)


class TestFamilyCov:
    def test_balanced_input_ignores_splitter(self, rng):
        for _ in range(20):
            n = rng.uniform(0.0, 3.0)
            theta = rng.uniform(0.0, math.pi - 1e-6)
            phi = rng.uniform(-math.pi + 1e-6, math.pi)
            cov = states.family_cov(states.FamilyPoint.mts(n, n, theta, phi))
            base = states.thermal_cov(states.TsParams(n, n))
            assert np.abs(cov - base).max() <= 1e-12

    def test_squeezed_vacuum_entries(self):
        cov = states.family_cov(states.FamilyPoint.sts(0.0, 0.0, 1.0, 0.0))
        assert cov[0, 0] == pytest.approx(0.5 * math.cosh(2.0))
        assert cov[0, 2] == pytest.approx(0.5 * math.sinh(2.0))

    def test_mts_standard_entries(self):
        cov = states.family_cov(states.FamilyPoint.mts(2.0, 1.0, math.pi / 2.0, 0.0))
        assert cov[0, 0] == pytest.approx(2.0)
        assert cov[2, 2] == pytest.approx(2.0)
        assert cov[0, 2] == pytest.approx(0.5)
        assert cov[1, 3] == pytest.approx(0.5)

    def test_congruence_consistency(self, rng):
        for _ in range(50):
            n1, n2 = rng.uniform(0.0, 3.0, 2)
            theta = rng.uniform(0.0, math.pi - 1e-6)
            phi = rng.uniform(-math.pi + 1e-6, math.pi)
            r = rng.uniform(0.0, 1.5)
            mts = states.FamilyPoint.mts(n1, n2, theta, phi)
            direct = states.bs_symplectic(theta, phi) @ states.thermal_cov(
                states.TsParams(n1, n2)) @ states.bs_symplectic(theta, phi).T
            assert np.abs(states.family_cov(mts) - direct).max() <= 1e-12
            sts = states.FamilyPoint.sts(n1, n2, r, phi)
            direct = states.sq_symplectic(r, phi) @ states.thermal_cov(
                states.TsParams(n1, n2)) @ states.sq_symplectic(r, phi).T
            assert np.abs(states.family_cov(sts) - direct).max() <= 1e-12

    def test_all_outputs_physical(self, rng):
        for _ in range(200):
            n1, n2 = rng.uniform(0.0, 3.0, 2)
            if rng.random() < 0.5:
                point = states.FamilyPoint.mts(
                    n1, n2, rng.uniform(0.0, math.pi - 1e-6),
                    rng.uniform(-math.pi + 1e-6, math.pi))
            else:
                point = states.FamilyPoint.sts(
                    n1, n2, rng.uniform(0.0, 1.5),
                    rng.uniform(-math.pi + 1e-6, math.pi))
            assert check_physical(states.family_cov(point)).physical

    @pytest.mark.parametrize("point", [
        states.FamilyPoint.mts(1e6, 3.0, 1.0, 0.7),
        states.FamilyPoint.sts(1e6, 4e5, 8.0, 0.3),
    ])
    def test_large_occupancy_is_exactly_symmetric(self, point):
        # the congruence leaves a roundoff asymmetry far above the absolute
        # symmetry tolerance at these scales; valid states must still load
        cov = states.family_cov(point)
        np.testing.assert_array_equal(cov, cov.T)
        assert np.array_equal(point.to_state().cov, cov)


class TestSeparabilityThreshold:
    def test_vacuum_mode_gives_zero(self):
        assert states.separability_threshold(0.0, 5.0) == 0.0

    def test_symmetric_unit(self):
        assert states.separability_threshold(1.0, 1.0) == pytest.approx(
            math.asinh(math.sqrt(1.0 / 3.0)), rel=1e-14)

    @pytest.mark.parametrize("n1,n2", [(math.inf, 1.0), (1.0, math.nan), (-0.1, 1.0)])
    def test_rejects_bad_occupancies(self, n1, n2):
        with pytest.raises(ValidationError):
            states.separability_threshold(n1, n2)

    @given(st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_in_arguments(self, n1, n2):
        assert states.separability_threshold(n1, n2) == pytest.approx(
            states.separability_threshold(n2, n1), abs=1e-15)


class TestParamValidation:
    def test_rejects_negative_occupancy(self):
        with pytest.raises(ValidationError):
            states.TsParams(-0.1, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("make", [
        lambda x: states.TsParams(x, 0.5),
        lambda x: states.TsParams(0.5, x),
        lambda x: states.MtsParams(x, 0.5, 1.0, 0.0),
        lambda x: states.MtsParams(0.5, x, 1.0, 0.0),
        lambda x: states.StsParams(x, 0.5, 0.3, 0.0),
        lambda x: states.StsParams(0.5, x, 0.3, 0.0),
        lambda x: states.StsParams(0.5, 0.5, x, 0.0),
    ], ids=["ts_n1", "ts_n2", "mts_n1", "mts_n2", "sts_n1", "sts_n2", "sts_r"])
    def test_rejects_non_finite(self, make, value):
        with pytest.raises(ValidationError, match="finite"):
            make(value)

    def test_rejects_out_of_range_angles(self):
        with pytest.raises(ValidationError):
            states.MtsParams(1.0, 0.5, math.pi, 0.0)
        with pytest.raises(ValidationError):
            states.MtsParams(1.0, 0.5, 1.0, -math.pi)
        with pytest.raises(ValidationError):
            states.StsParams(1.0, 0.5, -0.1, 0.0)

    def test_family_point_tag_consistency(self):
        with pytest.raises(ValidationError):
            states.FamilyPoint(states.MTS, states.TsParams(1.0, 0.5))
