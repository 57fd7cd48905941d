"""Quantum Fisher information and Bures metric on the family manifolds.

Both four-parameter families carry a diagonal QFI metric in their natural
charts, MTS: (n1, n2, theta, phi) and STS: (n1, n2, 2r, phi). The Bures
metric is one quarter of the QFI metric. One per-family table,
:data:`FAMILY_METRICS`, defines the metric components; the closed forms
here and the curvature module's metric fields and warped route read it. A
finite-difference metric extracted from the fidelity provides an
independent cross-check of the closed forms.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .closed_form import fidelity_from_k, k_pair_mts, k_pair_sts, pair_k
from .errors import ChartDomainError, NumericalConsistencyError, ValidationError, overflow_error
from .states import (MTS, STS, TS, FamilyPoint, MtsParams, StsParams, _check_occupancies,
                     separability_threshold)
from .tolerances import current as current_tol

MTS_COORDS = ("n1", "n2", "theta", "phi")
STS_COORDS = ("n1", "n2", "2r", "phi")

# numeric_metric refuses device directions closer to chart degeneracy than this
DEGENERACY_GUARD = 1e-3
FIRST_DERIVATIVE_TOL = 1e-6
# numeric_metric's stencil step, relative to max(1, |coordinate|)
RELATIVE_STEP = 1e-3


@dataclass(frozen=True)
class FamilyMetric:
    """One family's QFI diagonal diag(H_occ(n1), H_occ(n2), H_dev, H_dev F(x)^2).

    The device component is H_dev = u^2 / D, with the linear numerator
    u = n1 + (du/dn2) n2 + c and the denominator D = 2 n1 n2 + n1 + n2 + c.
    The fiber over the device chart (x, phi) is the surface
    dx^2 + F(x)^2 dphi^2 of constant scalar curvature ``fiber_curvature``;
    ``device_range`` is the chart interval of x.
    """

    coords: tuple
    du_dn2: float
    c: float
    fiber: Callable[[float], float]
    fiber_curvature: float
    device_range: tuple
    chart_device: Callable[[object], float]

    def numerator(self, n1: float, n2: float) -> float:
        return n1 + self.du_dn2 * n2 + self.c

    def denominator(self, n1: float, n2: float) -> float:
        return 2.0 * n1 * n2 + n1 + n2 + self.c

    def device(self, n1: float, n2: float) -> float:
        """H_dev; zero at the MTS vacuum, where u and D both vanish.

        Raises ChartDomainError where u^2 overflows double precision.
        """
        d = self.denominator(n1, n2)
        if d == 0.0:
            return 0.0
        try:
            return self.numerator(n1, n2) ** 2 / d
        except OverflowError:
            raise overflow_error(f"device metric component at (n1, n2) = ({n1!r}, {n2!r})") from None

    def components(self, n1: float, n2: float, x: float) -> tuple:
        """The four QFI components at occupancies (n1, n2) and device coordinate x.

        Raises ChartDomainError where the fiber component H_dev F(x)^2
        overflows double precision: where F(x)^2 does (the STS fiber
        sinh(x)^2 from x near 355 on), and where the product does although
        neither factor does. An H_dev that is already inf, as on the
        numpy rows of the curvature pipeline, is left to the caller.
        """
        h_dev = self.device(n1, n2)
        try:
            fiber = h_dev * self.fiber(x) ** 2
            # equality tests, so sympy symbols pass
            overflowed = fiber == math.inf and h_dev != math.inf
        except OverflowError:
            overflowed = True
        if overflowed:
            raise overflow_error(f"fiber metric component at x = {float(x)!r}")
        return occupancy_qfi(n1), occupancy_qfi(n2), h_dev, fiber


# MTS: beam splitter, unit-sphere fiber (theta, phi); STS: two-mode squeezer,
# unit-hyperboloid fiber (2r, phi)
FAMILY_METRICS = {
    MTS: FamilyMetric(MTS_COORDS, -1.0, 0.0, math.sin, 2.0, (0.0, math.pi),
                      lambda p: p.theta),
    STS: FamilyMetric(STS_COORDS, 1.0, 1.0, math.sinh, -2.0, (0.0, math.inf),
                      lambda p: 2.0 * p.r),
}


def _chart_family(tag: str) -> FamilyMetric:
    fam = FAMILY_METRICS.get(tag)
    if fam is None:
        raise ValidationError(f"no four-parameter chart for family {tag!r}")
    return fam


def coord_names(tag: str) -> tuple:
    """Natural chart coordinate names of a four-parameter family."""
    return _chart_family(tag).coords


def chart_coords(point: FamilyPoint) -> np.ndarray:
    """Natural chart coordinates of a family point (STS uses 2r, not r)."""
    p = point.params
    return np.array([p.n1, p.n2, _chart_family(point.tag).chart_device(p), p.phi])


def _wrap_phi(phi: float) -> float:
    """phi wrapped into (-pi, pi]."""
    phi = math.remainder(phi, 2.0 * math.pi)
    if phi <= -math.pi:
        phi += 2.0 * math.pi
    return phi


def point_from_chart(tag: str, coords) -> FamilyPoint:
    """Inverse of :func:`chart_coords`; phi is wrapped into (-pi, pi].

    Exactly four coordinates are required; they are read as Python floats.
    """
    _chart_family(tag)
    try:
        n1, n2, device, phi = map(float, coords)
    except (TypeError, ValueError):
        raise ValidationError(f"a point on the {tag} chart needs four coordinates") from None
    if not math.isfinite(phi):
        raise ValidationError("phi must be finite")
    phi = _wrap_phi(phi)
    # built from the parameter records: the coordinates are floats already,
    # so the constructors' numpy conversion has nothing to do here
    if tag == MTS:
        return FamilyPoint(MTS, MtsParams(n1, n2, device, phi))
    return FamilyPoint(STS, StsParams(n1, n2, device / 2.0, phi))


def occupancy_qfi(n: float) -> float:
    """Occupancy component H_occ(n) = 1/(n(n+1)) shared by all three families.

    Infinite at n = 0; for n > 0 a value that overflows to inf or underflows
    to 0 raises ChartDomainError (equality tests, so sympy symbols pass).
    """
    if n == 0.0:
        return math.inf
    value = 1.0 / (n * (n + 1.0))
    if value == math.inf or value == 0.0:
        raise overflow_error(f"occupancy metric component at n = {float(n)!r}")
    return value


def occupancy_qfi_derivative(n: float) -> float:
    return -(2.0 * n + 1.0) / (n * (n + 1.0)) ** 2


@dataclass(frozen=True)
class QfiDiagonal:
    """The four diagonal QFI components, keyed by chart coordinate."""

    h: dict


@dataclass(frozen=True)
class MetricMatrix:
    """Bures metric tensor over a declared chart."""

    matrix: np.ndarray
    coords: tuple

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (len(self.coords),) * 2:
            raise ValidationError("metric shape does not match the chart")
        if np.abs(m - m.T).max() > 1e-9 * (1.0 + np.abs(m).max()):
            raise ValidationError("metric matrix must be symmetric")
        object.__setattr__(self, "matrix", 0.5 * (m + m.T))


def qfi_closed(point: FamilyPoint) -> QfiDiagonal:
    """Diagonal QFI components in the natural chart; phi-independent."""
    fam = FAMILY_METRICS.get(point.tag)
    if fam is None:
        raise ChartDomainError(
            "thermal points live on a two-dimensional chart; use ts_metric"
        )
    p = point.params
    return QfiDiagonal(dict(zip(
        fam.coords, fam.components(p.n1, p.n2, fam.chart_device(p)))))


def ts_metric(n1: float, n2: float) -> MetricMatrix:
    """Bures metric on the two-dimensional thermal manifold."""
    n1, n2 = _check_occupancies(n1, n2)
    if n1 == 0.0 or n2 == 0.0:
        raise ChartDomainError("thermal metric diverges at zero occupancy")
    g = 0.25 * np.diag([occupancy_qfi(n1), occupancy_qfi(n2)])
    return MetricMatrix(g, ("n1", "n2"))


def warping_function(tag: str, n1: float, n2: float) -> float:
    """Warping factor f(n1, n2): half the square root of the device component."""
    fam = _chart_family(tag)
    n1, n2 = _check_occupancies(n1, n2)
    if fam.denominator(n1, n2) == 0.0:
        raise ChartDomainError("warping undefined at the vacuum point")
    return 0.5 * math.sqrt(fam.device(n1, n2))


def _interior_guard(point: FamilyPoint, h: list):
    p = point.params
    # each occupancy moves by its own 2 h_k only
    if p.n1 - 2.0 * h[0] <= 0.0 or p.n2 - 2.0 * h[1] <= 0.0:
        raise ChartDomainError("stencil leaves the occupancy domain n > 0")
    if point.tag == MTS:
        if abs(p.n1 - p.n2) < DEGENERACY_GUARD:
            raise ChartDomainError(
                "MTS device directions degenerate for n1 ~ n2; "
                "metric components vanish"
            )
        if not 2.0 * h[2] < p.theta < math.pi - 2.0 * h[2]:
            raise ChartDomainError("stencil leaves the theta domain (0, pi)")
    else:
        if 2.0 * p.r - 2.0 * h[2] <= 0.0:
            raise ChartDomainError("stencil leaves the squeeze domain r > 0")


def numeric_metric(point: FamilyPoint) -> MetricMatrix:
    """Bures metric from 5-point differentiation of sqrt(fidelity).

    Along a ray xi + t*w the square-rooted fidelity is 1 - (t^2/2) g(w, w)
    to second order; the quadratic form is read off with a fourth-order
    central stencil, and off-diagonal entries follow by polarization.
    The step along coordinate k is h_k = 1e-3 max(1, |xi_k|), and each
    occupancy must stay positive over its own stencil (n_k > 2 h_k).
    The first-derivative stencil must vanish to within tolerance, otherwise
    a :class:`NumericalConsistencyError` is raised.

    Each stencil row is handed to the closed form's own (k_plus, k_minus)
    algebra as floats, with phi wrapped and the STS chart coordinate 2r
    halved as :func:`point_from_chart` does, and through the same
    :func:`~gaussfisher.closed_form.fidelity_from_k` as
    :func:`~gaussfisher.closed_form.fidelity_special`: the values are those
    of fidelity_special(point, point_from_chart(row)), bit for bit, with no
    record per row. A row moves coordinate k by at most 2 h_k, so the
    checks its record would make hold already:

    - n_k stays positive by the interior guard (n_k > 2 h_k);
    - theta stays in (0, pi) by the guard 2 h < theta < pi - 2 h; on
      floats the guard also keeps theta + 2 h below pi (checked for every
      float theta near the guard's upper end);
    - r stays positive by the guard 2r > 2 h;
    - phi starts in (-pi, pi], so with h_phi <= 1e-3 pi it stays finite,
      and the wrap puts it back into (-pi, pi];
    - every coordinate stays finite unless xi_k + 2 h_k overflows (n_k or
      2r near the largest double). Only there is each row checked by
      building its record, which raises where the record path always has.
    """
    if point.tag == TS:
        raise ChartDomainError("numeric metric is defined on the 4d charts")
    coords = chart_coords(point).tolist()
    h = [RELATIVE_STEP * max(1.0, abs(c)) for c in coords]
    _interior_guard(point, h)

    slack = current_tol().invariant
    if abs(fidelity_from_k(*pair_k(point, point), slack) - 1.0) > 1e-12:
        raise NumericalConsistencyError("fidelity at zero displacement is not 1")

    centre = point.params
    c_n1, c_n2, c_dev, c_phi = coords
    k_pair = k_pair_mts if point.tag == MTS else k_pair_sts
    halve = point.tag == STS
    rows_finite = all(c + 2.0 * s < math.inf for c, s in zip(coords, h))

    def quad_form(w: list) -> float:
        w_n1, w_n2, w_dev, w_phi = w
        f = []
        for t in (-2.0, -1.0, 1.0, 2.0):
            n1, n2, device, phi = (c_n1 + t * w_n1, c_n2 + t * w_n2,
                                   c_dev + t * w_dev, c_phi + t * w_phi)
            if not rows_finite:
                point_from_chart(point.tag, (n1, n2, device, phi))
            k_plus, k_minus = k_pair(centre, n1, n2, device / 2.0 if halve else device,
                                     _wrap_phi(phi))
            f.append(math.sqrt(fidelity_from_k(k_plus, k_minus, slack)))
        first = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / 12.0
        if abs(first) > FIRST_DERIVATIVE_TOL:
            raise NumericalConsistencyError(
                f"first derivative of sqrt(F) not zero (residual {first:.3e})"
            )
        second = (-f[0] + 16.0 * f[1] - 30.0 + 16.0 * f[2] - f[3]) / 12.0
        return -second

    dim = 4
    g = np.zeros((dim, dim))
    basis = [[h[a] if i == a else 0.0 for i in range(dim)] for a in range(dim)]
    for a in range(dim):
        g[a, a] = quad_form(basis[a]) / h[a] ** 2
    for a in range(dim):
        for b in range(a + 1, dim):
            q_plus = quad_form([u + v for u, v in zip(basis[a], basis[b])])
            q_minus = quad_form([u - v for u, v in zip(basis[a], basis[b])])
            g[a, b] = g[b, a] = (q_plus - q_minus) / (4.0 * h[a] * h[b])
    return MetricMatrix(g, coord_names(point.tag))


def jeffreys_prior(point: FamilyPoint) -> float:
    """Square root of the QFI determinant in the natural chart.

    Vanishes at chart degeneracies (MTS with n1 = n2, or zero device
    parameter); diverges at zero occupancy, which raises.
    """
    p = point.params
    if min(p.n1, p.n2) == 0.0:
        raise ChartDomainError("Jeffreys prior diverges at zero occupancy")
    h = qfi_closed(point).h
    product = 1.0
    for value in h.values():
        product *= value
    return math.sqrt(product)


def jeffreys_prior_sts_closed(n1: float, n2: float, r: float) -> float:
    """STS Jeffreys prior in the two-variable form 4 sinh(2r)/sinh(4 r_s)."""
    if not 0.0 <= r < math.inf:
        raise ValidationError("squeeze parameter must be finite and >= 0")
    r_s = separability_threshold(n1, n2)
    if r_s == 0.0:
        raise ChartDomainError("Jeffreys prior diverges at zero threshold")
    return 4.0 * math.sinh(2.0 * r) / math.sinh(4.0 * r_s)


def cramer_rao(h: QfiDiagonal, n_measurements: int) -> dict:
    """Variance lower bounds 1/(N * H_xi) per chart coordinate."""
    # chained so that NaN and inf fail before int() sees them
    if not (1 <= n_measurements < math.inf and int(n_measurements) == n_measurements):
        raise ValidationError("number of measurements must be a positive integer")
    bounds = {}
    for name, value in h.h.items():
        if value <= 0.0:
            raise ChartDomainError(
                f"parameter {name!r} is unidentifiable: QFI component is zero"
            )
        bounds[name] = 1.0 / (n_measurements * value)
    return bounds


def ball_volume_expansion(n: int, eps: float, r_scalar: float) -> float:
    """Small-radius geodesic-ball volume, to the curvature correction term.

    V = V_n(1) eps^n - V_n(1)/(n+2) R eps^(n+2), with V_n(1) the Euclidean
    unit-ball volume pi^(n/2)/Gamma(n/2+1).
    """
    if not (1 <= n < math.inf and int(n) == n):
        raise ValidationError("dimension must be a positive integer")
    if not 0.0 < eps < math.inf:
        raise ValidationError("radius must be positive and finite")
    if not math.isfinite(r_scalar):
        raise ValidationError("scalar curvature must be finite")
    unit = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    return unit * eps**n - unit / (n + 2.0) * r_scalar * eps ** (n + 2)
