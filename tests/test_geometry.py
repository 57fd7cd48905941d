"""Tests for the QFI/Bures metric layer."""

import math

import mpmath
import numpy as np
import pytest

from gaussfisher import geometry
from gaussfisher import verification as v
from gaussfisher.closed_form import fidelity_special
from gaussfisher.errors import ChartDomainError, NumericalConsistencyError, ValidationError
from gaussfisher.states import FamilyPoint, separability_threshold


class TestChart:
    @pytest.mark.parametrize("point", [FamilyPoint.mts(0.9, 0.35, 1.1, 0.4),
                                       FamilyPoint.sts(0.6, 0.2, 0.45, -0.7)])
    def test_round_trip(self, point):
        coords = geometry.chart_coords(point)
        assert geometry.point_from_chart(point.tag, coords) == point
        assert len(geometry.coord_names(point.tag)) == coords.size

    def test_thermal_tag_rejected(self):
        with pytest.raises(ValidationError):
            geometry.coord_names("TS")
        with pytest.raises(ValidationError):
            geometry.chart_coords(FamilyPoint.ts(1.0, 0.5))
        with pytest.raises(ValidationError):
            geometry.point_from_chart("TS", [1.0, 0.5])

    @pytest.mark.parametrize("coords", [
        [1.0, 0.5, 1.0], [1.0, 0.5, 1.0, 0.2, 0.0], [[1.0, 0.5, 1.0, 0.2]],
        [1.0, 0.5, 1.0, math.inf],
    ], ids=["three", "five", "nested", "phi_inf"])
    def test_needs_four_finite_coordinates(self, coords):
        with pytest.raises(ValidationError):
            geometry.point_from_chart("MTS", coords)

    def test_coordinates_read_as_floats(self):
        params = geometry.point_from_chart("STS", np.array([0.6, 0.2, 0.9, -0.7])).params
        assert all(type(value) is float for value in vars(params).values())


class TestQfiClosed:
    def test_mts_anchor(self):
        h = geometry.qfi_closed(FamilyPoint.mts(2.0, 1.0, math.pi / 2.0, 0.3)).h
        assert h["n1"] == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert h["n2"] == pytest.approx(0.5, rel=1e-14)
        assert h["theta"] == pytest.approx(1.0 / 7.0, rel=1e-14)
        assert h["phi"] == pytest.approx(1.0 / 7.0, rel=1e-14)

    def test_mts_degenerate_device_components(self):
        h = geometry.qfi_closed(FamilyPoint.mts(0.8, 0.8, 1.1, 0.0)).h
        assert h["theta"] == 0.0 and h["phi"] == 0.0

    def test_sts_squeezed_vacuum(self):
        for r in (0.3, 1.0):
            h = geometry.qfi_closed(FamilyPoint.sts(0.0, 0.0, r, 0.0)).h
            assert h["2r"] == pytest.approx(1.0)
            assert h["phi"] == pytest.approx(math.sinh(2.0 * r) ** 2, rel=1e-14)

    def test_phi_absent_from_components(self, rng):
        for _ in range(10):
            n1, n2 = rng.uniform(0.1, 2.0, 2)
            h0 = geometry.qfi_closed(FamilyPoint.sts(n1, n2, 0.7, -1.0)).h
            h1 = geometry.qfi_closed(FamilyPoint.sts(n1, n2, 0.7, 2.0)).h
            assert h0 == h1

    def test_thermal_tag_rejected(self):
        with pytest.raises(ChartDomainError):
            geometry.qfi_closed(FamilyPoint.ts(1.0, 1.0))

    # H_dev ~ 3e99 and sinh(340)^2 ~ 1e295 are both finite, their product is not
    @pytest.mark.parametrize("route", [geometry.qfi_closed, geometry.jeffreys_prior])
    def test_fiber_product_overflow_refused(self, route):
        with pytest.raises(ChartDomainError, match=(
                r"^fiber metric component at x = 340\.0 overflows double precision$")):
            route(FamilyPoint.sts(1e100, 1.0, 170.0, 0.0))


class TestTsMetric:
    def test_unit_occupancies(self):
        np.testing.assert_allclose(geometry.ts_metric(1.0, 1.0).matrix,
                                   np.diag([0.125, 0.125]))

    def test_flat_coordinates(self, rng):
        # x = asinh(sqrt(n)) pulls the metric back to the identity
        assert v.flat_thermal_coordinates(rng, 20) <= 1e-12

    def test_mode_swap_symmetry(self):
        a = geometry.ts_metric(0.4, 1.7).matrix
        b = geometry.ts_metric(1.7, 0.4).matrix
        assert a[0, 0] == b[1, 1] and a[1, 1] == b[0, 0]

    def test_boundary_rejected(self):
        with pytest.raises(ChartDomainError):
            geometry.ts_metric(0.0, 1.0)

    @pytest.mark.parametrize("n1, n2", [(math.nan, 1.0), (1.0, math.inf), (-0.5, 1.0)])
    def test_rejects_bad_occupancies(self, n1, n2):
        with pytest.raises(ValidationError):
            geometry.ts_metric(n1, n2)


class TestMetricMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            geometry.MetricMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]), ("a", "b"))


def reference_numeric_metric(point):
    """numeric_metric with numpy stencil vectors and numpy scalar coordinates."""
    coords = geometry.chart_coords(point)
    h = geometry.RELATIVE_STEP * np.maximum(1.0, np.abs(coords))

    def shifted(x):
        phi = math.remainder(x[3], 2.0 * math.pi)
        if phi <= -math.pi:
            phi += 2.0 * math.pi
        if point.tag == "MTS":
            return FamilyPoint.mts(x[0], x[1], x[2], phi)
        return FamilyPoint.sts(x[0], x[1], x[2] / 2.0, phi)

    def quad_form(w):
        f = [math.sqrt(fidelity_special(point, shifted(coords + t * w)))
             for t in (-2.0, -1.0, 1.0, 2.0)]
        return -(-f[0] + 16.0 * f[1] - 30.0 + 16.0 * f[2] - f[3]) / 12.0

    g = np.zeros((4, 4))
    basis = [h[a] * np.eye(4)[a] for a in range(4)]
    for a in range(4):
        g[a, a] = quad_form(basis[a]) / h[a] ** 2
        for b in range(a + 1, 4):
            g[a, b] = g[b, a] = ((quad_form(basis[a] + basis[b])
                                  - quad_form(basis[a] - basis[b])) / (4.0 * h[a] * h[b]))
    return g


def record_path_numeric_metric(point):
    """numeric_metric with a FamilyPoint per stencil row, each row through
    point_from_chart and fidelity_special, with the same checks in the same
    order."""
    coords = geometry.chart_coords(point).tolist()
    h = [geometry.RELATIVE_STEP * max(1.0, abs(c)) for c in coords]
    geometry._interior_guard(point, h)
    if abs(fidelity_special(point, point) - 1.0) > 1e-12:
        raise NumericalConsistencyError("fidelity at zero displacement is not 1")

    def quad_form(w):
        f = [math.sqrt(fidelity_special(point, geometry.point_from_chart(
            point.tag, [c + t * wc for c, wc in zip(coords, w)])))
            for t in (-2.0, -1.0, 1.0, 2.0)]
        first = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / 12.0
        if abs(first) > geometry.FIRST_DERIVATIVE_TOL:
            raise NumericalConsistencyError(
                f"first derivative of sqrt(F) not zero (residual {first:.3e})")
        return -(-f[0] + 16.0 * f[1] - 30.0 + 16.0 * f[2] - f[3]) / 12.0

    g = np.zeros((4, 4))
    basis = [[h[a] if i == a else 0.0 for i in range(4)] for a in range(4)]
    for a in range(4):
        g[a, a] = quad_form(basis[a]) / h[a] ** 2
    for a in range(4):
        for b in range(a + 1, 4):
            q_plus = quad_form([u + v for u, v in zip(basis[a], basis[b])])
            q_minus = quad_form([u - v for u, v in zip(basis[a], basis[b])])
            g[a, b] = g[b, a] = (q_plus - q_minus) / (4.0 * h[a] * h[b])
    return g


def outcome(fn, point):
    """The matrix bytes fn returns at point, or the type and text of what it raises."""
    try:
        result = fn(point)
    except Exception as exc:
        return type(exc), str(exc)
    return getattr(result, "matrix", result).tobytes()


class TestNumericMetric:
    def test_mts_against_closed_form(self):
        _, diagonal, off_diagonal = v.metric_deviation(
            FamilyPoint.mts(2.0, 1.0, math.pi / 2.0, 0.3))
        assert diagonal <= 1e-5
        assert off_diagonal < 1e-6

    def test_sts_against_closed_form(self):
        _, diagonal, off_diagonal = v.metric_deviation(FamilyPoint.sts(1.0, 0.5, 0.8, -0.4))
        assert diagonal <= 1e-5
        assert off_diagonal < 1e-6

    def test_thermal_block_reproduces_ts_metric(self):
        point = FamilyPoint.mts(2.0, 1.0, math.pi / 2.0, 0.3)
        numeric = geometry.numeric_metric(point).matrix
        np.testing.assert_allclose(numeric[:2, :2],
                                   geometry.ts_metric(2.0, 1.0).matrix,
                                   rtol=1e-5, atol=1e-8)

    def test_phi_grid_invariance(self):
        values = [geometry.numeric_metric(FamilyPoint.sts(1.0, 0.5, 0.8, phi)).matrix
                  for phi in np.linspace(-2.0, 2.0, 5)]
        spread = max(np.abs(v - values[0]).max() for v in values[1:])
        assert spread < 1e-6

    def test_degenerate_mts_refused(self):
        with pytest.raises(ChartDomainError):
            geometry.numeric_metric(FamilyPoint.mts(1.0, 1.0004, 1.2, 0.0))

    def test_overflowing_self_fidelity_refused(self):
        # k_plus and k_minus of the self-pair overflow to inf; the metric used
        # to come out all NaN
        with pytest.raises(ChartDomainError, match="overflows double precision$"):
            geometry.numeric_metric(FamilyPoint.mts(1e100, 1e99, 1.0, 0.2))

    def test_nan_self_fidelity_refused(self, monkeypatch):
        # the self-fidelity check fails NaN, not only values away from 1
        monkeypatch.setattr(geometry, "fidelity_from_k", lambda *args: math.nan)
        with pytest.raises(NumericalConsistencyError, match="zero displacement"):
            geometry.numeric_metric(FamilyPoint.mts(2.0, 1.0, 1.0, 0.2))

    def test_bit_identical_to_numpy_stencil(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            for point in (
                FamilyPoint.mts(rng.uniform(0.01, 30.0), rng.uniform(0.01, 3.0),
                                rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0)),
                FamilyPoint.sts(rng.uniform(0.01, 30.0), rng.uniform(0.01, 3.0),
                                rng.uniform(0.05, 1.0), rng.uniform(-3.0, 3.0)),
            ):
                assert np.array_equal(geometry.numeric_metric(point).matrix,
                                      reference_numeric_metric(point))

    def test_bit_identical_across_phi_wrap(self):
        # |phi| within 2 h_phi of pi: stencil rows cross pi and are wrapped,
        # and the STS rows halve their chart coordinate 2r. The wrap moves
        # the last bits of only a few metrics (two of these 400), hence the
        # many draws
        rng = np.random.default_rng(17)
        for _ in range(200):
            for make, device in ((FamilyPoint.mts, rng.uniform(0.3, 2.8)),
                                 (FamilyPoint.sts, rng.uniform(0.05, 1.0))):
                phi = rng.choice([-1.0, 1.0]) * (math.pi - rng.uniform(0.0, 6e-3))
                point = make(rng.uniform(0.5, 30.0), rng.uniform(0.01, 0.4), device, phi)
                assert math.pi - abs(point.params.phi) < 2e-3 * math.pi
                assert np.array_equal(geometry.numeric_metric(point).matrix,
                                      reference_numeric_metric(point))

    def test_theta_guard_keeps_stencil_rows_below_pi(self):
        # numeric_metric builds no MtsParams per row, so no row may reach
        # theta = pi: every float theta near the guard's upper end that
        # passes it keeps theta + 2 h below pi after rounding
        def passes(theta):
            h = [geometry.RELATIVE_STEP * max(1.0, abs(c)) for c in (2.0, 0.5, theta, 0.0)]
            try:
                geometry._interior_guard(FamilyPoint.mts(2.0, 0.5, theta, 0.0), h)
            except ChartDomainError:
                return False
            return True

        lo, hi = 3.0, math.pi
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if passes(mid) else (lo, mid)
        theta = lo
        for _ in range(5000):
            assert passes(theta)
            assert theta + 2.0 * (geometry.RELATIVE_STEP * theta) < math.pi
            theta = math.nextafter(theta, 0.0)
        assert not passes(hi)

    @pytest.mark.parametrize("point", [
        FamilyPoint.sts(359.5598393495029, 0.2642293876435009, 1.2619252215640213,
                        2.562927318407205),
        FamilyPoint.mts(28756.220908444615, 1.1999049779393502, 0.2188232194149646,
                        -2.9008341868288254),
        FamilyPoint.mts(1e8, 5e7, 1.0, math.pi),
        FamilyPoint.sts(1e8, 1e8, 0.5, 0.2),
        FamilyPoint.mts(1.797e308, 0.5, 1.0, 0.2),
        FamilyPoint.sts(0.5, 1.796e308, 1.0, 0.2),
        FamilyPoint.sts(1.7e308, 1.797e308, 1.0, 0.2),
        FamilyPoint.sts(2.0, 1.0, 354.9, 0.2),
        FamilyPoint.sts(2.0, 1.0, 1e308, 0.2),
    ], ids=["first_derivative", "self_fidelity", "gap_below_2", "cancellation",
            "n1_row_overflow", "n2_row_overflow", "k_overflow_before_row_overflow",
            "sinh_overflow", "squeeze_row_overflow"])
    def test_errors_match_record_path(self, point):
        expected = outcome(record_path_numeric_metric, point)
        assert isinstance(expected, tuple)
        assert outcome(geometry.numeric_metric, point) == expected

    @pytest.mark.parametrize("point", [FamilyPoint.mts(1000.0, 0.3, 1.0, 0.2),
                                       FamilyPoint.sts(100.0, 0.15, 0.5, 0.2)])
    def test_occupancy_guard_per_coordinate(self, point):
        # n2 - 2 h_2 > 0 although n2 < 2 h_1: each occupancy moves by its own step
        _, diagonal, off_diagonal = v.metric_deviation(point)
        assert diagonal <= 1e-5
        assert off_diagonal < 1e-6

    def test_stencil_domain_guard(self):
        with pytest.raises(ChartDomainError):
            geometry.numeric_metric(FamilyPoint.sts(1e-4, 0.5, 0.8, 0.0))

    def test_thermal_tag_rejected(self):
        with pytest.raises(ChartDomainError):
            geometry.numeric_metric(FamilyPoint.ts(1.0, 0.5))


class TestWarping:
    def test_recombination_identity(self, rng):
        for _ in range(20):
            n1 = rng.uniform(1.0, 2.5)
            n2 = rng.uniform(0.1, 0.8)
            theta = rng.uniform(0.3, 2.8)
            r = rng.uniform(0.1, 1.0)
            h = geometry.qfi_closed(FamilyPoint.mts(n1, n2, theta, 0.0)).h
            f = geometry.warping_function("MTS", n1, n2)
            assert 0.25 * h["theta"] == pytest.approx(f * f, abs=1e-12)
            assert 0.25 * h["phi"] == pytest.approx(
                f * f * math.sin(theta) ** 2, abs=1e-12)
            h = geometry.qfi_closed(FamilyPoint.sts(n1, n2, r, 0.0)).h
            f = geometry.warping_function("STS", n1, n2)
            assert 0.25 * h["2r"] == pytest.approx(f * f, abs=1e-12)
            assert 0.25 * h["phi"] == pytest.approx(
                f * f * math.sinh(2.0 * r) ** 2, abs=1e-12)

    @pytest.mark.parametrize("tag", ["MTS", "STS"])
    @pytest.mark.parametrize("n1, n2", [(math.inf, 1.0), (1.0, math.nan)])
    def test_rejects_non_finite(self, tag, n1, n2):
        with pytest.raises(ValidationError):
            geometry.warping_function(tag, n1, n2)

    def test_mts_vacuum_undefined(self):
        with pytest.raises(ChartDomainError):
            geometry.warping_function("MTS", 0.0, 0.0)


class TestJeffreysPrior:
    def test_sts_two_variable_form(self, rng):
        assert v.jeffreys_two_variable(rng, 50) <= 1e-10

    def test_threshold_value(self):
        rs = separability_threshold(1.2, 0.7)
        value = geometry.jeffreys_prior(FamilyPoint.sts(1.2, 0.7, rs, 0.0))
        assert value == pytest.approx(2.0 / math.cosh(2.0 * rs), rel=1e-12)

    def test_mts_diagonal_vanishes(self):
        assert geometry.jeffreys_prior(FamilyPoint.mts(0.9, 0.9, 1.0, 0.0)) == 0.0

    # the running product of the components underflows (1e-200 * 1e-198) or
    # overflows (1e160 * 1e160) although the prior is representable
    @pytest.mark.parametrize("point", [FamilyPoint.mts(1e100, 1e99, 1.0, 0.2),
                                       FamilyPoint.sts(1e-160, 1e-160, 0.5, 0.2)],
                             ids=["underflow", "overflow"])
    def test_product_out_of_range_against_mpmath(self, point):
        p = point.params
        with mpmath.workdps(40):
            n1, n2 = mpmath.mpf(p.n1), mpmath.mpf(p.n2)
            if point.tag == "MTS":
                u, d, fiber = n1 - n2, 2 * n1 * n2 + n1 + n2, mpmath.sin(mpmath.mpf(p.theta))
            else:
                u, d = n1 + n2 + 1, 2 * n1 * n2 + n1 + n2 + 1
                fiber = mpmath.sinh(2 * mpmath.mpf(p.r))
            h_dev = u**2 / d
            exact = mpmath.sqrt(h_dev**2 * fiber**2 / (n1 * (n1 + 1) * n2 * (n2 + 1)))
        value = geometry.jeffreys_prior(point)
        assert 0.0 < value < math.inf
        assert value == pytest.approx(float(exact), rel=1e-14)

    def test_ordinary_points_keep_the_running_product(self, rng):
        for _ in range(50):
            point = v.random_sts(rng) if rng.uniform() < 0.5 else v.random_mts(rng)
            h = geometry.qfi_closed(point).h
            product = 1.0
            for value in h.values():
                product *= value
            assert geometry.jeffreys_prior(point) == math.sqrt(product)

    def test_zero_occupancy_diverges(self):
        with pytest.raises(ChartDomainError):
            geometry.jeffreys_prior(FamilyPoint.sts(0.0, 1.0, 0.5, 0.0))

    @pytest.mark.parametrize("n1, n2, r", [(1.0, 1.0, math.nan), (1.0, 1.0, math.inf),
                                           (1.0, 1.0, -0.1), (math.nan, 1.0, 0.5)])
    def test_sts_closed_rejects_bad_arguments(self, n1, n2, r):
        with pytest.raises(ValidationError):
            geometry.jeffreys_prior_sts_closed(n1, n2, r)

    def test_sts_closed_zero_threshold_diverges(self):
        with pytest.raises(ChartDomainError):
            geometry.jeffreys_prior_sts_closed(0.0, 1.0, 0.5)


class TestCramerRao:
    def test_anchor(self):
        h = geometry.qfi_closed(FamilyPoint.mts(2.0, 1.0, math.pi / 2.0, 0.0))
        bounds = geometry.cramer_rao(h, 100)
        assert bounds["n1"] == pytest.approx(0.06, rel=1e-12)
        one_shot = geometry.cramer_rao(h, 1)
        assert one_shot["theta"] == pytest.approx(7.0, rel=1e-12)

    def test_measurement_scaling(self):
        h = geometry.qfi_closed(FamilyPoint.sts(1.0, 0.5, 0.7, 0.0))
        single = geometry.cramer_rao(h, 1)
        double = geometry.cramer_rao(h, 2)
        for key in single:
            assert double[key] == pytest.approx(0.5 * single[key])

    def test_unidentifiable_rejected(self):
        h = geometry.qfi_closed(FamilyPoint.sts(1.0, 0.5, 0.0, 0.0))
        with pytest.raises(ChartDomainError):
            geometry.cramer_rao(h, 10)

    def test_rejects_bad_measurement_count(self):
        h = geometry.qfi_closed(FamilyPoint.sts(1.0, 0.5, 0.7, 0.0))
        for count in (0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                geometry.cramer_rao(h, count)


class TestBallVolume:
    def test_unit_ball_dimension_four(self):
        assert geometry.ball_volume_expansion(4, 1.0, 0.0) == pytest.approx(
            math.pi**2 / 2.0, rel=1e-14)

    def test_flat_space_power_law(self):
        eps = 1e-2
        assert geometry.ball_volume_expansion(3, eps, 0.0) == pytest.approx(
            4.0 / 3.0 * math.pi * eps**3, rel=1e-14)

    def test_curvature_shrinks_volume(self):
        eps = 1e-2
        low = geometry.ball_volume_expansion(4, eps, 1.0)
        high = geometry.ball_volume_expansion(4, eps, 10.0)
        assert high < low < geometry.ball_volume_expansion(4, eps, 0.0)

    def test_rejects_bad_arguments(self):
        for n, eps, r_scalar in ((0, 1.0, 0.0), (math.nan, 1.0, 0.0), (4, -1.0, 0.0),
                                 (4, math.nan, 0.0), (4, math.inf, 0.0),
                                 (4, 0.1, math.nan), (4, 0.1, math.inf)):
            with pytest.raises(ValidationError):
                geometry.ball_volume_expansion(n, eps, r_scalar)
