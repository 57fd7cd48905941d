"""Tests for the family constructors and symplectic machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfisher import closed_form, geometry, states
from gaussfisher import curvature as cv
from gaussfisher.core import check_physical, symplectic_form
from gaussfisher.errors import ChartDomainError, ValidationError

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


def blockwise_bs(theta, phi):
    """bs_symplectic assembled block by block from numpy products."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    out = np.zeros((4, 4))
    out[:2, :2] = c * np.eye(2)
    out[2:, 2:] = c * np.eye(2)
    out[:2, 2:] = -s * states.rotation2(-phi)
    out[2:, :2] = s * states.rotation2(phi)
    return out


def blockwise_sq(r, phi):
    """sq_symplectic assembled block by block from numpy products."""
    ch, sh = math.cosh(r), math.sinh(r)
    c, s = math.cos(phi), math.sin(phi)
    off = sh * np.array([[c, s], [s, -c]])
    out = np.zeros((4, 4))
    out[:2, :2] = ch * np.eye(2)
    out[2:, 2:] = ch * np.eye(2)
    out[:2, 2:] = off
    out[2:, :2] = off
    return out


class TestSymplecticBits:
    """The float-built device matrices equal the block assembly entry for
    entry, the sign of every zero included."""

    @staticmethod
    def assert_same_bits(got, ref):
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_seeded_draws(self):
        draws = np.random.default_rng(25).uniform(-7.0, 7.0, (3000, 3))
        # |theta| > pi gives cos(theta/2) < 0, where c I carries -0.0
        assert (np.cos(draws[:, 0] / 2.0) < 0.0).sum() > 500
        for theta, phi, r in draws:
            for args in ((theta, phi, r), (float(theta), float(phi), float(r))):
                self.assert_same_bits(states.bs_symplectic(*args[:2]), blockwise_bs(*args[:2]))
                self.assert_same_bits(states.sq_symplectic(args[2], args[1]),
                                      blockwise_sq(args[2], args[1]))

    @pytest.mark.parametrize("a, phi", [
        (0.0, 0.0), (-0.0, -0.0), (0.0, math.pi), (2.0 * math.pi, 0.0),
        (3.0 * math.pi, -0.0), (-3.0 * math.pi, math.pi / 2.0), (math.pi, -math.pi / 2.0),
    ])
    def test_signed_zeros(self, a, phi):
        self.assert_same_bits(states.bs_symplectic(a, phi), blockwise_bs(a, phi))
        self.assert_same_bits(states.sq_symplectic(a, phi), blockwise_sq(a, phi))


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


# the figure grids' sample ranges: the surfaces over [0, 5]^2 and each
# section over its own interval
FIGURE_SECTIONS = [
    ("MTS", "symmetric", 5.0), ("MTS", "perpendicular", 1.0), ("MTS", "edge", 5.0),
    ("STS", "symmetric", 5.0), ("STS", "perpendicular", 2.0 * cv.SADDLE_OCCUPANCY),
    ("STS", "edge", 5.0),
]


def draw_points(rng, count):
    """Seeded MTS and STS points, once from numpy float64 draws and once
    from the same draws as Python floats."""
    pairs = []
    for _ in range(count):
        n1, n2, theta, r = rng.uniform([0.0, 0.0, 0.05, 0.0], [5.0, 5.0, 3.09, 1.2])
        phi = np.float64(rng.uniform(-3.1, 3.1))
        for make, device in ((states.FamilyPoint.mts, theta), (states.FamilyPoint.sts, r)):
            args = (n1, n2, device, phi)
            pairs.append((make(*args), make(*(float(a) for a in args))))
    return pairs


class TestFloatArithmetic:
    """numpy float64 inputs are converted once, so the closed forms compute
    on Python floats, bit for bit as on float inputs."""

    @pytest.mark.parametrize("tag", ["MTS", "STS"])
    def test_surface_and_warped(self, tag, rng):
        for n1, n2 in rng.uniform(0.0, 5.0, (200, 2)):
            got = cv.scalar_closed(tag, n1, n2)
            assert type(got) is float
            assert got == cv.scalar_closed(tag, float(n1), float(n2))
            if abs(n1 - n2) > 1e-3:
                got = cv.scalar_warped(tag, n1, n2)
                assert type(got) is float
                assert got == cv.scalar_warped(tag, float(n1), float(n2))

    @pytest.mark.parametrize("tag, kind, top", FIGURE_SECTIONS)
    def test_sections(self, tag, kind, top, rng):
        for s in rng.uniform(0.0, top, 200):
            got = cv.section_curve(tag, kind, s)
            assert type(got) is float
            assert got == cv.section_curve(tag, kind, float(s))

    def test_family_points(self, rng):
        for from_numpy, from_floats in draw_points(rng, 50):
            assert from_numpy == from_floats
            assert all(type(v) is float for v in vars(from_numpy.params).values())
            got = closed_form.fidelity_special(from_numpy, from_floats)
            assert type(got) is float
            assert got == closed_form.fidelity_special(from_floats, from_floats)
            h = geometry.qfi_closed(from_numpy).h
            assert all(type(v) is float for v in h.values())
            assert h == geometry.qfi_closed(from_floats).h
            got = geometry.jeffreys_prior(from_numpy)
            assert type(got) is float
            assert got == geometry.jeffreys_prior(from_floats)
            assert np.array_equal(states.family_cov(from_numpy),
                                  states.family_cov(from_floats))

    def test_ts_point_and_occupancy_helpers(self):
        point = states.FamilyPoint.ts(np.float64(0.25), np.float64(1.5))
        assert point == states.FamilyPoint.ts(0.25, 1.5)
        assert all(type(v) is float for v in vars(point.params).values())
        n1, n2 = states._check_occupancies(np.float64(0.25), np.float64(1.5))
        assert (type(n1), type(n2)) == (float, float)
        assert (states.separability_threshold(np.float64(0.25), np.float64(1.5))
                == states.separability_threshold(0.25, 1.5))
        assert np.array_equal(geometry.ts_metric(np.float64(0.25), np.float64(1.5)).matrix,
                              geometry.ts_metric(0.25, 1.5).matrix)

    def test_text_is_still_refused(self):
        with pytest.raises(TypeError):
            states.FamilyPoint.mts("1.0", 0.5, 1.0, 0.0)
        with pytest.raises(TypeError):
            cv.scalar_closed("MTS", "1.0", 0.5)


N_HUGE = 1e160

OVERFLOWING = {
    "scalar_closed_mts": lambda n: cv.scalar_closed("MTS", n, n / 10.0),
    "scalar_closed_sts": lambda n: cv.scalar_closed("STS", n, n / 10.0),
    "scalar_warped_mts": lambda n: cv.scalar_warped("MTS", n, n / 10.0),
    "scalar_warped_sts": lambda n: cv.scalar_warped("STS", n, n / 10.0),
    "section_sts_symmetric": lambda n: cv.section_curve("STS", "symmetric", n),
    "warping_mts": lambda n: geometry.warping_function("MTS", n, n / 10.0),
    "warping_sts": lambda n: geometry.warping_function("STS", n, n / 10.0),
    "separability_threshold": lambda n: states.separability_threshold(n, n / 10.0),
    "qfi_closed_mts": lambda n: geometry.qfi_closed(states.FamilyPoint.mts(n, n / 10.0, 1.0, 0.2)),
    "qfi_closed_sts": lambda n: geometry.qfi_closed(states.FamilyPoint.sts(n, n / 10.0, 0.5, 0.2)),
    "jeffreys_mts": lambda n: geometry.jeffreys_prior(states.FamilyPoint.mts(n, n / 10.0, 1.0, 0.2)),
    "jeffreys_sts": lambda n: geometry.jeffreys_prior(states.FamilyPoint.sts(n, n / 10.0, 0.5, 0.2)),
    "ts_metric": lambda n: geometry.ts_metric(n, n / 10.0),
}


class TestOverflowRefused:
    @pytest.mark.parametrize("name", sorted(OVERFLOWING))
    @pytest.mark.parametrize("n", [N_HUGE, np.float64(N_HUGE)], ids=["float", "numpy"])
    def test_raises_chart_domain_error(self, name, n):
        with pytest.raises(ChartDomainError, match="overflows double precision"):
            OVERFLOWING[name](n)

    @pytest.mark.parametrize("tag, n1, n2", [
        ("MTS", 1e77, 5e76),     # a product overflows to -inf, no OverflowError
        ("MTS", 1e200, 1e200),   # inf - inf on the diagonal
        ("STS", 0.0, 9.5e153),   # 2 * num overflows to inf
        ("MTS", 0.0, 1e-200),    # the squared denominator underflows to 0
    ])
    def test_silent_non_finite_values_refused(self, tag, n1, n2):
        for a, b in ((n1, n2), (np.float64(n1), np.float64(n2))):
            with pytest.raises(ChartDomainError, match="overflows double precision"):
                cv.scalar_closed(tag, a, b)

    @pytest.mark.parametrize("tag", ["MTS", "STS"])
    @pytest.mark.parametrize("n", [5e-324, np.float64(5e-324)], ids=["float", "numpy"])
    def test_subnormal_occupancy_refused(self, tag, n):
        # 1/(n(n+1)) overflows to inf; on the MTS diagonal the device
        # component vanishes, and the Jeffreys prior used to return nan
        point = (states.FamilyPoint.mts(n, n, 0.4, 0.1) if tag == "MTS"
                 else states.FamilyPoint.sts(n, n, 0.4, 0.1))
        for evaluate in (geometry.jeffreys_prior, geometry.qfi_closed):
            with pytest.raises(ChartDomainError, match="overflows double precision"):
                evaluate(point)
        with pytest.raises(ChartDomainError, match="overflows double precision"):
            geometry.ts_metric(n, 1.0)

    @pytest.mark.parametrize("r, x", [(178.0, "356.0"), (200.0, "400.0"), (400.0, "800.0")])
    @pytest.mark.parametrize("to_number", [float, np.float64], ids=["float", "numpy"])
    def test_fiber_component_refused(self, r, x, to_number):
        # sinh(2r)^2 overflows from 2r near 355 on, and sinh itself past 710
        point = states.FamilyPoint.sts(2.0, 1.0, to_number(r), 0.0)
        message = f"^fiber metric component at x = {x} overflows double precision$"
        for evaluate in (geometry.qfi_closed, geometry.jeffreys_prior):
            with pytest.raises(ChartDomainError, match=message):
                evaluate(point)

    def test_fiber_component_below_its_limit(self):
        h = geometry.qfi_closed(states.FamilyPoint.sts(2.0, 1.0, 177.0, 0.0)).h
        assert h["phi"] == pytest.approx(2.0 * math.sinh(354.0) ** 2)

    def test_occupancy_component_at_its_limits(self):
        # the pole at zero stays, and representable values at both ends of
        # the domain evaluate, a subnormal result included
        assert geometry.occupancy_qfi(0.0) == math.inf
        assert 0.0 < geometry.occupancy_qfi(1.3e154) < 1e-307
        assert geometry.occupancy_qfi(1e-300) == pytest.approx(1e300)

    def test_poles_and_limits_still_evaluate(self):
        assert cv.scalar_closed("MTS", 0.0, 0.0) == math.inf
        assert cv.section_curve("MTS", "symmetric", 0.0) == math.inf
        assert cv.section_curve("MTS", "edge", 0.0) == math.inf
        # representable values just inside the domain
        assert cv.scalar_closed("STS", 1e100, 1.0) == pytest.approx(-94.0 / 9.0)
        assert cv.section_curve("MTS", "symmetric", N_HUGE) == -12.0
        assert cv.section_curve("STS", "edge", N_HUGE) == 2.0
