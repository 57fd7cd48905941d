"""Tests for the curvature pipeline, closed forms and the warped route."""

import math
import re

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


def reference_christoffel(fld, x):
    """Christoffel symbols at one point, evaluated on their own."""
    x = np.asarray(x, dtype=float)
    fld.check_domain(x)
    g = np.asarray(fld.metric(x), dtype=float)
    if np.linalg.cond(g) > 1e10:
        raise ChartDomainError("metric is singular at this point")
    ginv = np.linalg.inv(g)
    dg = np.asarray(fld.partials(x), dtype=float)
    t = np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (1, 2, 0)) - dg
    return 0.5 * np.einsum("il,ljk->ijk", ginv, t)


def reference_pipeline(fld, x):
    """The pipeline point by point: Christoffel symbols at the centre, then,
    per coordinate k, at +h/2, -h/2, +h, -h and one Richardson level."""
    x = np.asarray(x, dtype=float)
    gamma = reference_christoffel(fld, x)
    ginv = np.linalg.inv(np.asarray(fld.metric(x), dtype=float))
    dim = fld.dim
    dgamma = np.zeros((dim,) * 4)
    for k in range(dim):
        e = np.eye(dim)[k]
        h = 1e-3 * max(1.0, abs(x[k]))

        def central(step):
            return (reference_christoffel(fld, x + step * e)
                    - reference_christoffel(fld, x + (-step) * e)) / (2.0 * step)

        dgamma[k] = (4.0 * central(h / 2.0) - central(h)) / 3.0
    riemann = (
        np.einsum("kilj->ijkl", dgamma)
        - np.einsum("likj->ijkl", dgamma)
        + np.einsum("ikm,mlj->ijkl", gamma, gamma)
        - np.einsum("ilm,mkj->ijkl", gamma, gamma)
    )
    antisym = float(np.abs(riemann + np.transpose(riemann, (0, 1, 3, 2))).max())
    scalar = float(np.einsum("jl,jl->", ginv, np.einsum("ijil->jl", riemann)))
    return scalar, antisym


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


# each field with a sampler of points in (and at the edges of) its domain
BIT_IDENTITY_FIELDS = {
    "euclidean3": (lambda: euclidean_field(3), lambda rng: rng.uniform(-3.0, 3.0, 3)),
    "r2_sphere": (product_r2_sphere_field,
                  lambda rng: [*rng.uniform(-2.0, 2.0, 2), rng.uniform(0.2, 2.9),
                               rng.uniform(-3.0, 3.0)]),
    "fiber_mts": (lambda: cv.fiber_field("MTS"),
                  lambda rng: [rng.uniform(0.05, 3.1), rng.uniform(-3.0, 3.0)]),
    "fiber_sts": (lambda: cv.fiber_field("STS"),
                  lambda rng: [rng.uniform(0.0, 4.0), rng.uniform(-3.0, 3.0)]),
    "thermal": (cv.thermal_field, lambda rng: rng.uniform(0.0, 5.0, 2)),
    "family_mts": (lambda: cv.family_metric_field("MTS"),
                   lambda rng: [*rng.uniform(0.0, 3.0, 2), rng.uniform(0.0, 3.14),
                                rng.uniform(-3.0, 3.0)]),
    "family_sts": (lambda: cv.family_metric_field("STS"),
                   lambda rng: [*rng.uniform(0.0, 3.0, 2), rng.uniform(0.0, 3.0),
                                rng.uniform(-3.0, 3.0)]),
}


def squared_first_field(guard=None, nan_above=None, bad_partials_above=None):
    """diag(1, x0^2): singular where x0 = 0, guard-free unless ``guard`` is
    given. Past x1 = ``nan_above`` the metric is NaN; past
    x1 = ``bad_partials_above`` the partials raise."""

    def metric(x):
        if nan_above is not None and x[1] > nan_above:
            return np.diag([1.0, math.nan])
        return np.diag([1.0, x[0] ** 2])

    def partials(x):
        if bad_partials_above is not None and x[1] > bad_partials_above:
            raise ValueError("partials undefined here")
        out = np.zeros((2, 2, 2))
        out[0, 1, 1] = 2.0 * x[0]
        return out

    return cv.MetricField(("x0", "x1"), metric, partials, guard)


def guard_above(limit):
    def guard(x):
        if x[1] > limit:
            raise ChartDomainError(f"x1 beyond {limit}")

    return guard


def guard_right_of(limit):
    def guard(x):
        if x[0] > limit:
            raise ChartDomainError(f"x0 beyond {limit}")

    return guard


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


class TestStackedPass:
    @pytest.mark.parametrize("name", sorted(BIT_IDENTITY_FIELDS))
    def test_bit_identical_to_pointwise(self, name):
        make, draw = BIT_IDENTITY_FIELDS[name]
        fld = make()
        rng = np.random.default_rng(sorted(BIT_IDENTITY_FIELDS).index(name))
        passed = 0
        for _ in range(24):
            x = draw(rng)
            expected = outcome(reference_pipeline, fld, x)
            got = outcome(cv.scalar_curvature_pipeline, fld, x)
            if isinstance(got, cv.CurvatureReport):
                got = (got.scalar_r, got.residuals["antisymmetry"])
                passed += 1
            assert got == expected
            expected = outcome(reference_christoffel, fld, x)
            got = outcome(cv.christoffel, fld, x)
            if isinstance(expected, np.ndarray):
                assert np.array_equal(got, expected)
            else:
                assert got == expected
        assert passed >= 20

    # x = (1e-3, 0.3): the metric diag(1, x0^2) is singular only at the
    # stencil point x0 - h = 0 (row 4); x1 + h/2 (row 5) is the first point
    # past x1 = 0.3, and x0 + h/2 (row 1) the first past x0 = 1e-3
    @pytest.mark.parametrize("fld, x, message", [
        (cv.family_metric_field("STS"), [0.0015, 1.0, 1.0, 0.0],
         "pipeline requires occupancies >= 1e-3"),
        (squared_first_field(), [1e-3, 0.3], "metric is singular at this point"),
        (squared_first_field(guard_above(0.3)), [1e-3, 0.3],
         "metric is singular at this point"),
        (squared_first_field(guard_right_of(1e-3)), [1e-3, 0.3], "x0 beyond 0.001"),
        (squared_first_field(nan_above=0.3), [1e-3, 0.3],
         "metric is singular at this point"),
        (squared_first_field(bad_partials_above=0.3), [1e-3, 0.3],
         "metric is singular at this point"),
        (squared_first_field(bad_partials_above=0.3), [0.5, 0.3],
         "partials undefined here"),
    ], ids=["guard_at_stencil", "singular_at_stencil", "singular_before_guard",
            "guard_before_singular", "singular_before_nan_metric",
            "singular_before_partials", "partials_at_stencil"])
    def test_first_failing_point_raises(self, fld, x, message):
        expected = outcome(reference_pipeline, fld, x)
        assert expected[1] == message
        assert outcome(cv.scalar_curvature_pipeline, fld, x) == expected
        # the centre itself is fine
        assert isinstance(cv.christoffel(fld, x), np.ndarray)

    @pytest.mark.parametrize("point", [
        [1.0, math.nan, 1.0, 0.0], [1.0, 0.5, math.inf, 0.0], [1.0, 0.5, 1.0],
        [1.0, 0.5, 1.0, 0.0, 0.0], [[1.0, 0.5, 1.0, 0.0]], ["a", 0.5, 1.0, 0.0],
    ], ids=["nan", "inf", "three", "five", "nested", "text"])
    @pytest.mark.parametrize("route", [cv.scalar_curvature_pipeline, cv.christoffel])
    def test_rejects_bad_points(self, route, point):
        with pytest.raises(ValidationError, match="needs 4 finite coordinates"):
            route(cv.family_metric_field("MTS"), point)

    # a NaN metric at the centre with no singular point before it, and the
    # STS field where u^2 overflows to inf while the occupancy components,
    # 1/(n(n+1)), are still representable (a larger n is refused by
    # occupancy_qfi itself, see the CLI tests)
    @pytest.mark.parametrize("fld, x", [
        (squared_first_field(nan_above=0.2), [0.5, 0.3]),
        (cv.family_metric_field("STS"), [0.7e154, 0.7e154, 1.0, 0.0]),
    ], ids=["nan_metric", "overflowing_family_field"])
    @pytest.mark.parametrize("route", [cv.scalar_curvature_pipeline, cv.christoffel])
    def test_non_finite_metric_refused(self, route, fld, x):
        with pytest.raises(ChartDomainError, match="^metric is not finite at this point$"):
            route(fld, x)


# each pipeline field with a sampler of points inside its domain guard
IN_DOMAIN_FIELDS = {
    "family_mts": (lambda: cv.family_metric_field("MTS"),
                   lambda rng: [rng.uniform(1.0, 3.0), rng.uniform(0.01, 0.9),
                                rng.uniform(0.06, 3.08), rng.uniform(-3.0, 3.0)]),
    "family_sts": (lambda: cv.family_metric_field("STS"),
                   lambda rng: [*rng.uniform(0.01, 3.0, 2), rng.uniform(0.06, 6.0),
                                rng.uniform(-3.0, 3.0)]),
    "thermal": (cv.thermal_field, lambda rng: rng.uniform(0.01, 5.0, 2)),
    "fiber_mts": (lambda: cv.fiber_field("MTS"),
                  lambda rng: [rng.uniform(0.05, 3.1), rng.uniform(-3.0, 3.0)]),
    "fiber_sts": (lambda: cv.fiber_field("STS"),
                  lambda rng: [rng.uniform(0.01, 8.0), rng.uniform(-3.0, 3.0)]),
}


class TestFloatPoints:
    """The pipeline hands guards and partials a list of Python floats."""

    @pytest.mark.parametrize("name", sorted(IN_DOMAIN_FIELDS))
    def test_partials_bit_identical_on_floats(self, name):
        make, draw = IN_DOMAIN_FIELDS[name]
        fld = make()
        rng = np.random.default_rng(sorted(IN_DOMAIN_FIELDS).index(name) + 100)
        for _ in range(200):
            x = np.array(draw(rng))
            fld.check_domain(x.tolist())
            on_floats = fld.partials(x.tolist())
            assert on_floats.tobytes() == fld.partials(x).tobytes()

    # float partials leave the first error at these points as it is
    @pytest.mark.parametrize("tag, x, message", [
        ("MTS", [1e160, 1e159, 1.0, 0.0],
         "occupancy metric component at n = 1e+160 overflows double precision"),
        ("STS", [1e200, 1.0, 1.0, 0.0],
         "occupancy metric component at n = 1e+200 overflows double precision"),
        ("STS", [0.7e154, 0.7e154, 1.0, 0.0], "metric is not finite at this point"),
    ], ids=["mts_occupancy", "sts_occupancy", "sts_device"])
    def test_overflow_messages_unchanged(self, tag, x, message):
        with pytest.raises(ChartDomainError, match=f"^{re.escape(message)}$"):
            cv.scalar_curvature_pipeline(cv.family_metric_field(tag), x)

    def test_fiber_product_overflow_refused(self):
        # H_dev and sinh(x)^2 are finite on the numpy row, their product is not:
        # refused by the fiber component, no longer read as a non-finite metric
        with pytest.raises(ChartDomainError, match=(
                "^fiber metric component at x = 340.0 overflows double precision$")):
            cv.scalar_curvature_pipeline(cv.family_metric_field("STS"), [1e100, 1.0, 340.0, 0.0])

    @pytest.mark.parametrize("x", [360.0, 400.0, 800.0])
    def test_fiber_overflow_refused(self, x):
        # sinh(x)^2 overflows at the centre, from x near 355 on
        with pytest.raises(ChartDomainError, match=(
                f"^fiber metric component at x = {x!r} overflows double precision$")):
            cv.scalar_curvature_pipeline(cv.family_metric_field("STS"), [2.0, 1.0, x, 0.0])
