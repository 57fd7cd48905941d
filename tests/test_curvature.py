"""Tests for the curvature pipeline, closed forms and the warped route."""

import math

import numpy as np
import pytest

from gaussfisher import curvature as cv
from gaussfisher import geometry
from gaussfisher.errors import ChartDomainError, ValidationError
from gaussfisher.states import FamilyPoint

NS = cv.SADDLE_OCCUPANCY


def euclidean_field(dim: int = 2) -> cv.MetricField:
    """Flat Euclidean metric in Cartesian coordinates."""
    names = tuple(f"x{i}" for i in range(dim))
    return cv.MetricField(
        names,
        lambda x: np.eye(dim),
        lambda x: np.zeros((dim, dim, dim)),
    )


def product_r2_sphere_field():
    """Unwarped product of the Euclidean plane and the unit sphere."""

    def metric(x):
        return np.diag([1.0, 1.0, 1.0, math.sin(x[2]) ** 2])

    def partials(x):
        out = np.zeros((4, 4, 4))
        out[2, 3, 3] = math.sin(2.0 * x[2])
        return out

    return cv.MetricField(("x", "y", "theta", "phi"), metric, partials)


class TestChristoffel:
    def test_euclidean_vanishes(self):
        gamma = cv.christoffel(euclidean_field(3), [0.2, -0.4, 1.0])
        assert np.abs(gamma).max() == 0.0

    def test_sphere_textbook_value(self):
        theta = 1.1
        gamma = cv.christoffel(cv.fiber_field("MTS"), [theta, 0.4])
        assert gamma[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta),
                                               rel=1e-12)
        assert gamma[1, 0, 1] == pytest.approx(math.cos(theta) / math.sin(theta),
                                               rel=1e-12)

    def test_lower_index_symmetry(self, rng):
        fld = cv.family_metric_field("STS")
        for _ in range(10):
            point = [rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                     rng.uniform(0.3, 2.0), rng.uniform(-2.0, 2.0)]
            gamma = cv.christoffel(fld, point)
            assert np.abs(gamma - np.transpose(gamma, (0, 2, 1))).max() <= 1e-12

    def test_singular_metric_rejected(self):
        with pytest.raises(ChartDomainError):
            cv.christoffel(cv.fiber_field("MTS"), [1e-9, 0.0])

    def test_pipeline_rejects_singular_metric_without_guard(self):
        # no domain guard, so the condition test is what refuses the point
        fld = cv.MetricField(("x", "y"), lambda x: np.diag([1.0, 0.0]),
                             lambda x: np.zeros((2, 2, 2)))
        with pytest.raises(ChartDomainError, match="metric is singular"):
            cv.scalar_curvature_pipeline(fld, [0.3, 0.4])


class TestConstantCurvature:
    # the calibration values themselves are acceptance criterion 5
    def test_sphere(self):
        report = cv.scalar_curvature_pipeline(cv.fiber_field("MTS"), [1.1, 0.4])
        assert report.residuals["antisymmetry"] < 1e-8

    def test_product_addition_law(self):
        # constant warping factor: R(B x F) = R(B) + R(F)
        report = cv.scalar_curvature_pipeline(product_r2_sphere_field(),
                                              [0.3, -0.2, 1.2, 0.5])
        assert report.scalar_r == pytest.approx(2.0, abs=1e-6)


class TestScalarClosed:
    def test_anchor_values(self):
        assert cv.scalar_closed("MTS", 0.5, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert cv.scalar_closed("MTS", 0.0, 1.0) == pytest.approx(20.0, rel=1e-12)
        assert cv.scalar_closed("STS", 0.0, 0.0) == pytest.approx(-16.0, rel=1e-12)
        assert cv.scalar_closed("STS", 8.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert cv.scalar_closed("STS", NS, NS) == pytest.approx(-143.0 / 14.0, rel=1e-12)

    @pytest.mark.parametrize("n1", [1.0, 2.0, 9.0])
    def test_mts_edge_family(self, n1):
        assert cv.scalar_closed("MTS", n1, 0.0) == pytest.approx(
            2.0 + 18.0 / n1, rel=1e-12)

    def test_vacuum_divergence(self):
        assert cv.scalar_closed("MTS", 0.0, 0.0) == math.inf

    def test_exact_swap_symmetry(self, rng):
        for _ in range(50):
            n1, n2 = rng.uniform(0.0, 5.0, 2)
            assert cv.scalar_closed("MTS", n1, n2) == cv.scalar_closed("MTS", n2, n1)
            assert cv.scalar_closed("STS", n1, n2) == cv.scalar_closed("STS", n2, n1)

    @pytest.mark.parametrize("route", [cv.scalar_closed, cv.scalar_warped])
    @pytest.mark.parametrize("tag", ["MTS", "STS"])
    @pytest.mark.parametrize("n1,n2", [(math.inf, 1.0), (1.0, math.nan), (-0.1, 1.0)])
    def test_rejects_bad_occupancies(self, route, tag, n1, n2):
        with pytest.raises(ValidationError):
            route(tag, n1, n2)

    def test_common_asymptote(self):
        assert abs(cv.scalar_closed("MTS", 100.0, 100.0) + 12.0) < 1e-2
        assert abs(cv.scalar_closed("STS", 100.0, 100.0) + 12.0) < 1e-2


class TestSectionCurves:
    def test_mts_edge_anchor(self):
        assert cv.section_curve("MTS", "edge", 1.0) == pytest.approx(20.0)

    def test_sts_edge_zero(self):
        assert cv.section_curve("STS", "edge", 8.0) == pytest.approx(0.0, abs=1e-12)

    def test_sts_symmetric_saddle(self):
        assert cv.section_curve("STS", "symmetric", NS) == pytest.approx(
            -143.0 / 14.0, rel=1e-12)

    def test_curves_match_surface(self):
        for s in np.linspace(0.05, 4.0, 12):
            assert cv.section_curve("MTS", "symmetric", s) == pytest.approx(
                cv.scalar_closed("MTS", s, s), abs=1e-12)
            assert cv.section_curve("STS", "symmetric", s) == pytest.approx(
                cv.scalar_closed("STS", s, s), abs=1e-12)
            assert cv.section_curve("MTS", "edge", s) == pytest.approx(
                cv.scalar_closed("MTS", s, 0.0), abs=1e-12)
            assert cv.section_curve("STS", "edge", s) == pytest.approx(
                cv.scalar_closed("STS", s, 0.0), abs=1e-12)
        for s in np.linspace(0.0, 1.0, 11):
            assert cv.section_curve("MTS", "perpendicular", s) == pytest.approx(
                cv.scalar_closed("MTS", s, 1.0 - s), abs=1e-12)
        for s in np.linspace(0.0, 2.0 * NS, 11):
            assert cv.section_curve("STS", "perpendicular", s) == pytest.approx(
                cv.scalar_closed("STS", s, 2.0 * NS - s), abs=1e-12)

    def test_perpendicular_endpoint(self):
        assert cv.section_curve("MTS", "perpendicular", 0.0) == pytest.approx(20.0)
        assert cv.section_curve("STS", "perpendicular", 0.0) == pytest.approx(
            cv.scalar_closed("STS", 0.0, 2.0 * NS), rel=1e-12)

    @pytest.mark.parametrize("tag", ["MTS", "STS"])
    @pytest.mark.parametrize("kind", ["symmetric", "perpendicular", "edge"])
    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_rejects_non_finite(self, tag, kind, s):
        with pytest.raises(ValidationError):
            cv.section_curve(tag, kind, s)

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValidationError):
            cv.section_curve("MTS", "perpendicular", 1.5)
        with pytest.raises(ValidationError):
            cv.section_curve("STS", "perpendicular", 2.0 * NS + 0.1)
        with pytest.raises(ValidationError):
            cv.section_curve("MTS", "symmetric", -0.1)
        with pytest.raises(ValidationError):
            cv.section_curve("MTS", "watershed", 0.5)


class TestScalarWarped:
    @pytest.mark.parametrize("tag,n1,n2", [
        ("MTS", 2.0, 1.0), ("STS", 1.0, 0.5),
        ("MTS", 0.3, 2.4), ("STS", 3.0, 0.1),
    ])
    def test_matches_closed(self, tag, n1, n2):
        assert cv.scalar_warped(tag, n1, n2) == pytest.approx(
            cv.scalar_closed(tag, n1, n2), rel=1e-9)

    def test_mts_diagonal_rejected(self):
        with pytest.raises(ChartDomainError):
            cv.scalar_warped("MTS", 1.0, 1.0)


class TestMetricTable:
    @pytest.mark.parametrize("tag", ["MTS", "STS"])
    def test_field_is_quarter_qfi(self, tag, rng):
        fld = cv.family_metric_field(tag)
        for _ in range(10):
            n1, n2 = rng.uniform(0.1, 3.0, 2)
            dev, phi = rng.uniform(0.3, 2.8), rng.uniform(-2.0, 2.0)
            if tag == "MTS":
                point = FamilyPoint.mts(n1, n2, dev, phi)
            else:
                point = FamilyPoint.sts(n1, n2, dev / 2.0, phi)
            h = geometry.qfi_closed(point).h
            bures = np.diag(fld.metric(geometry.chart_coords(point)))
            assert list(4.0 * bures) == [h[k] for k in fld.coords]


class TestFamilyPipeline:
    # agreement with the closed form and device independence are acceptance
    # criterion 4
    def test_domain_guards(self):
        fld = cv.family_metric_field("MTS")
        with pytest.raises(ChartDomainError):
            cv.scalar_curvature_pipeline(fld, [1.0, 1.0, 1.2, 0.0])
        with pytest.raises(ChartDomainError):
            cv.scalar_curvature_pipeline(fld, [1.0, 0.5, 0.01, 0.0])
        with pytest.raises(ChartDomainError):
            cv.scalar_curvature_pipeline(cv.family_metric_field("STS"),
                                         [1.0, 0.5, 0.01, 0.0])
