"""Scalar curvature of the Bures metric on the family manifolds.

Three independent routes are provided: a generic small-dimension Riemannian
pipeline (Christoffel -> Riemann -> Ricci -> scalar), rational closed forms
in the two thermal occupancies, and a warped-product expression that reuses
the device metric component and its logarithmic derivatives. The metric
fields and the warped route read the per-family table
``geometry.FAMILY_METRICS``; the closed forms do not. The sign
convention is fixed so the unit round sphere has scalar curvature +2.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ChartDomainError, ValidationError
from .geometry import FAMILY_METRICS, occupancy_qfi, occupancy_qfi_derivative
from .states import MTS, STS, _check_occupancies

# occupancy of the unique stationary point of the STS curvature surface
SADDLE_OCCUPANCY = math.sqrt(1.15) - 0.5

_COND_LIMIT = 1e10

# relative step of the pipeline's Richardson differences of the Christoffel symbols
_RELATIVE_STEP = 1e-3

# pipeline domain guards: chart degeneracies make the 4x4 metric singular
_GUARD_OCC = 1e-3
_GUARD_GAP = 1e-3
_GUARD_ANGLE = 0.05


@dataclass(frozen=True)
class MetricField:
    """A metric tensor field over a coordinate chart.

    ``metric`` maps a point to the (dim x dim) matrix; ``partials`` maps a
    point to the (dim, dim, dim) array of analytic coordinate derivatives
    with ``partials(x)[k] = d g / d x_k``.
    """

    coords: tuple
    metric: Callable[[np.ndarray], np.ndarray]
    partials: Callable[[np.ndarray], np.ndarray]
    domain_guard: Optional[Callable[[np.ndarray], None]] = None

    @property
    def dim(self) -> int:
        return len(self.coords)

    def check_domain(self, point: np.ndarray):
        if self.domain_guard is not None:
            self.domain_guard(point)


@dataclass(frozen=True)
class CurvatureReport:
    scalar_r: float
    residuals: dict


def _richardson_diff(f: Callable[[float], np.ndarray], h: float) -> np.ndarray:
    """One Richardson level on the symmetric difference of f around 0."""

    def central(step):
        return (np.asarray(f(step)) - np.asarray(f(-step))) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def christoffel(fld: MetricField, point) -> np.ndarray:
    """Christoffel symbols Gamma[i, j, k] from the field's analytic partials."""
    x = np.asarray(point, dtype=float)
    fld.check_domain(x)
    g = np.asarray(fld.metric(x), dtype=float)
    if np.linalg.cond(g) > _COND_LIMIT:
        raise ChartDomainError("metric is singular at this point")
    ginv = np.linalg.inv(g)
    dg = np.asarray(fld.partials(x), dtype=float)
    # T[l, j, k] = d_j g_lk + d_k g_lj - d_l g_jk
    t = np.transpose(dg, (1, 0, 2)) + np.transpose(dg, (1, 2, 0)) - dg
    return 0.5 * np.einsum("il,ljk->ijk", ginv, t)


def scalar_curvature_pipeline(fld: MetricField, point) -> CurvatureReport:
    """Scalar curvature by explicit tensor algebra.

    The Riemann tensor is assembled from the Christoffel symbols and their
    first derivatives (Richardson central differences of the Christoffel
    evaluator), then contracted twice. The recorded ``antisymmetry``
    residual is the largest violation of R^i_j(kl) = -R^i_j(lk).
    """
    x = np.asarray(point, dtype=float)
    # christoffel checks the domain and the metric's condition at x
    gamma = christoffel(fld, x)
    ginv = np.linalg.inv(np.asarray(fld.metric(x), dtype=float))

    dim = fld.dim
    dgamma = np.zeros((dim, dim, dim, dim))
    for k in range(dim):
        e = np.zeros(dim)
        e[k] = 1.0
        h = _RELATIVE_STEP * max(1.0, abs(x[k]))
        dgamma[k] = _richardson_diff(lambda t: christoffel(fld, x + t * e), h)

    # R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj
    #           + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj
    riemann = (
        np.einsum("kilj->ijkl", dgamma)
        - np.einsum("likj->ijkl", dgamma)
        + np.einsum("ikm,mlj->ijkl", gamma, gamma)
        - np.einsum("ilm,mkj->ijkl", gamma, gamma)
    )
    antisym = float(np.abs(riemann + np.transpose(riemann, (0, 1, 3, 2))).max())
    ricci = np.einsum("ijil->jl", riemann)
    scalar = float(np.einsum("jl,jl->", ginv, ricci))
    return CurvatureReport(scalar_r=scalar, residuals={"antisymmetry": antisym})


def scalar_closed(family_tag: str, n1: float, n2: float) -> float:
    """Closed-form scalar curvature; depends only on the occupancies."""
    _check_occupancies(n1, n2)
    # factored so that swapping n1 and n2 gives bit-identical results
    occ = (n1 * (n1 + 1.0)) * (n2 * (n2 + 1.0))
    if family_tag == MTS:
        denom = 2.0 * (n1 * n2) + (n1 + n2)
        if denom == 0.0:
            return math.inf
        num = (n1 - n2) ** 2 - 24.0 * occ + 9.0 * denom
        return 2.0 * num / denom**2
    if family_tag == STS:
        denom = 2.0 * (n1 * n2) + (n1 + n2) + 1.0
        num = ((n1 + n2) + 1.0) ** 2 - 24.0 * occ - 9.0 * denom
        return 2.0 * num / denom**2
    raise ValidationError(f"no closed-form curvature for family {family_tag!r}")


def section_curve(family_tag: str, kind: str, s: float) -> float:
    """Named one-variable restrictions of the curvature surfaces.

    ``symmetric`` is the section along n1 = n2 = s; ``perpendicular`` the
    orthogonal section through the distinguished symmetric point
    (n1 + n2 = 1 for MTS, n1 + n2 = twice the saddle occupancy for STS);
    ``edge`` the physicality-edge section n2 = 0.
    """
    if family_tag == MTS:
        if kind == "symmetric":
            if not 0.0 <= s < math.inf:
                raise ValidationError("symmetric section needs finite s >= 0")
            return math.inf if s == 0.0 else 9.0 / (s * (s + 1.0)) - 12.0
        if kind == "perpendicular":
            if not 0.0 <= s <= 1.0:
                raise ValidationError("MTS perpendicular section domain is [0, 1]")
            alpha = s * (1.0 - s)
            return -4.0 * (12.0 * alpha**2 + 17.0 * alpha - 5.0) / (2.0 * alpha + 1.0) ** 2
        if kind == "edge":
            if not 0.0 <= s < math.inf:
                raise ValidationError("edge section needs finite s >= 0")
            return math.inf if s == 0.0 else 2.0 + 18.0 / s
    elif family_tag == STS:
        if kind == "symmetric":
            if not 0.0 <= s < math.inf:
                raise ValidationError("symmetric section needs finite s >= 0")
            beta = s * (s + 1.0)
            return -4.0 * (12.0 * beta**2 + 7.0 * beta + 4.0) / (2.0 * beta + 1.0) ** 2
        if kind == "perpendicular":
            ns = SADDLE_OCCUPANCY
            if not 0.0 <= s <= 2.0 * ns:
                raise ValidationError(
                    "STS perpendicular section domain is [0, 2 * saddle occupancy]"
                )
            w = s * (2.0 * ns - s) + ns
            const = 4.0 - 14.0 * ns * (ns + 1.0)
            return -4.0 * (12.0 * w**2 + 21.0 * w + const) / (2.0 * w + 1.0) ** 2
        if kind == "edge":
            if not 0.0 <= s < math.inf:
                raise ValidationError("edge section needs finite s >= 0")
            return 2.0 - 18.0 / (s + 1.0)
    else:
        raise ValidationError(f"no section curves for family {family_tag!r}")
    raise ValidationError(f"unknown section kind {kind!r}")


def scalar_warped(family_tag: str, n1: float, n2: float) -> float:
    """Scalar curvature through the warped-product relation.

    Combines the constant fiber curvature (+2 sphere for MTS, -2
    hyperboloid for STS) with first and second logarithmic derivatives of
    the device metric component u^2/D in the occupancies; all derivatives
    are analytic rational functions.
    """
    _check_occupancies(n1, n2)
    fam = FAMILY_METRICS.get(family_tag)
    if fam is None:
        raise ValidationError(f"no warped route for family {family_tag!r}")
    u = fam.numerator(n1, n2)
    if u == 0.0:
        raise ChartDomainError("warped route is undefined on the MTS diagonal")
    d = fam.denominator(n1, n2)
    # log H_dev = 2 log u - log D, with dD/dn1 = 2 n2 + 1 and dD/dn2 = 2 n1 + 1
    l1 = 2.0 / u - (2.0 * n2 + 1.0) / d
    l2 = 2.0 * fam.du_dn2 / u - (2.0 * n1 + 1.0) / d
    l11 = -2.0 / u**2 + (2.0 * n2 + 1.0) ** 2 / d**2
    l22 = -2.0 / u**2 + (2.0 * n1 + 1.0) ** 2 / d**2
    return (
        4.0 * fam.fiber_curvature / (u**2 / d)
        - 2.0 * n1 * (n1 + 1.0) * (4.0 * l11 + 3.0 * l1**2)
        - 2.0 * n2 * (n2 + 1.0) * (4.0 * l22 + 3.0 * l2**2)
        - 4.0 * (2.0 * n1 + 1.0) * l1
        - 4.0 * (2.0 * n2 + 1.0) * l2
    )


# --- metric fields -------------------------------------------------------


def fiber_field(family_tag: str) -> MetricField:
    """Unit fiber dx^2 + F(x)^2 dphi^2 of a family, chart (x, phi).

    The round two-sphere (F = sin, chart (theta, phi)) for MTS and the upper
    hyperboloid sheet (F = sinh, chart (2r, phi)) for STS.
    """
    fam = FAMILY_METRICS.get(family_tag)
    if fam is None:
        raise ValidationError(f"no fiber for family {family_tag!r}")

    def metric(x):
        return np.diag([1.0, fam.fiber(x[0]) ** 2])

    def partials(x):
        out = np.zeros((2, 2, 2))
        out[0, 1, 1] = fam.fiber(2.0 * x[0])
        return out

    def guard(x):
        if fam.fiber(x[0]) ** 2 < 1e-10:
            raise ChartDomainError("fiber chart degenerates where F vanishes")

    return MetricField(fam.coords[2:], metric, partials, guard)


def thermal_field() -> MetricField:
    """Bures metric on the two-dimensional thermal manifold, chart (n1, n2)."""

    def metric(x):
        return 0.25 * np.diag([occupancy_qfi(x[0]), occupancy_qfi(x[1])])

    def partials(x):
        out = np.zeros((2, 2, 2))
        out[0, 0, 0] = 0.25 * occupancy_qfi_derivative(x[0])
        out[1, 1, 1] = 0.25 * occupancy_qfi_derivative(x[1])
        return out

    def guard(x):
        if x[0] <= 0.0 or x[1] <= 0.0:
            raise ChartDomainError("thermal metric diverges at zero occupancy")

    return MetricField(("n1", "n2"), metric, partials, guard)


def family_metric_field(family_tag: str) -> MetricField:
    """Bures metric field on a 4d family chart, with analytic partials.

    The domain guard enforces the pipeline working region: occupancies and
    the device numerator u (the MTS gap n1 - n2) away from zero, device
    coordinate away from the ends of its chart range.
    """
    fam = FAMILY_METRICS.get(family_tag)
    if fam is None:
        raise ValidationError(f"no 4d metric field for family {family_tag!r}")
    name = fam.coords[2]
    lo, hi = fam.device_range

    def metric(x):
        return 0.25 * np.diag(fam.components(x[0], x[1], x[2]))

    def partials(x):
        n1, n2 = x[0], x[1]
        u = fam.numerator(n1, n2)
        d = fam.denominator(n1, n2)
        d1 = (2.0 * u * d - u**2 * (2.0 * n2 + 1.0)) / d**2
        d2 = (2.0 * fam.du_dn2 * u * d - u**2 * (2.0 * n1 + 1.0)) / d**2
        af = fam.fiber(x[2]) ** 2
        out = np.zeros((4, 4, 4))
        out[0, 0, 0] = 0.25 * occupancy_qfi_derivative(n1)
        out[1, 1, 1] = 0.25 * occupancy_qfi_derivative(n2)
        out[0, 2, 2] = 0.25 * d1
        out[1, 2, 2] = 0.25 * d2
        out[0, 3, 3] = 0.25 * d1 * af
        out[1, 3, 3] = 0.25 * d2 * af
        # d(F^2)/dx = F(2x) for both sin and sinh
        out[2, 3, 3] = 0.25 * fam.device(n1, n2) * fam.fiber(2.0 * x[2])
        return out

    def guard(x):
        if min(x[0], x[1]) < _GUARD_OCC:
            raise ChartDomainError("pipeline requires occupancies >= 1e-3")
        # u >= 1 for STS, so only the MTS gap n1 - n2 can trip this
        if abs(fam.numerator(x[0], x[1])) < _GUARD_GAP:
            raise ChartDomainError("pipeline requires |n1 - n2| >= 1e-3")
        if not lo + _GUARD_ANGLE <= x[2] <= hi - _GUARD_ANGLE:
            raise ChartDomainError(
                f"pipeline requires {name} at least {_GUARD_ANGLE} from the "
                f"ends of its chart range"
            )

    return MetricField(fam.coords, metric, partials, guard)
