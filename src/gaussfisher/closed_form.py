"""Closed-form fidelity for same-family pairs.

For two states of the same family the invariant pair (k_plus, k_minus) has
explicit expressions in the defining parameters, and the fidelity becomes
2 (sqrt(k_plus) - sqrt(k_minus))^-2 with no displacement factor.
"""

import math
from dataclasses import dataclass

from .errors import NumericalConsistencyError, ValidationError, cancellation_error, overflow_error
from .states import MTS, STS, FamilyPoint, MtsParams, StsParams
from .tolerances import current as current_tol


def q_affinity(x: float, y: float) -> float:
    """sqrt((x+1)(y+1)) - sqrt(xy); >= 1 with equality iff x == y."""
    # written so that NaN fails too
    if not (0.0 <= x < math.inf and 0.0 <= y < math.inf):
        raise ValidationError("q_affinity arguments must be finite and >= 0")
    return math.sqrt((x + 1.0) * (y + 1.0)) - math.sqrt(x * y)


def fidelity_ts(n1a: float, n2a: float, n1b: float, n2b: float) -> float:
    """Fidelity of two two-mode thermal states; multiplicative over modes."""
    return (q_affinity(n1a, n1b) * q_affinity(n2a, n2b)) ** -2


def _k_overflow():
    """The error of a pair whose (k_plus, k_minus) algebra leaves double precision."""
    return overflow_error("(k_plus, k_minus) of this pair")


def _gap_error(k_plus: float, k_minus: float):
    """The error of a pair whose gap k_plus - k_minus fails the test
    ``2 - slack <= k_plus - k_minus < inf``: an overflow where k_plus or
    k_minus is not finite (k_minus >= 0, so a finite pair has a finite gap),
    NumericalConsistencyError where the gap is below 2."""
    if not (abs(k_plus) < math.inf and abs(k_minus) < math.inf):
        return _k_overflow()
    return NumericalConsistencyError(f"k_plus - k_minus = {k_plus - k_minus:.6e} < 2")


@dataclass(frozen=True)
class PairInvariants:
    k_plus: float
    k_minus: float

    def __post_init__(self):
        # chained so that NaN and inf fail too
        if not 2.0 - current_tol().invariant <= self.k_plus - self.k_minus < math.inf:
            raise _gap_error(self.k_plus, self.k_minus)


def fidelity_from_k(k_plus: float, k_minus: float, slack: float) -> float:
    """F = 2 / (sqrt(k_plus) - sqrt(k_minus))^2 of one pair's invariants.

    ``slack`` is the ``invariant`` tolerance, read once by the caller.
    k_plus - k_minus below 2 - slack raises NumericalConsistencyError, as
    :class:`PairInvariants` does; so does sqrt(k_plus) - sqrt(k_minus)
    rounding to zero. A k_plus or k_minus that is not finite raises
    ChartDomainError (:func:`~gaussfisher.errors.overflow_error`).
    """
    # chained so that NaN and inf fail too
    if not 2.0 - slack <= k_plus - k_minus < math.inf:
        raise _gap_error(k_plus, k_minus)
    try:
        return 2.0 / (math.sqrt(k_plus) - math.sqrt(k_minus)) ** 2
    except ZeroDivisionError:
        raise cancellation_error(k_plus, k_minus) from None


# The (k_plus, k_minus) algebra of each family, written once. The MTS and STS
# functions take the first point's parameter record and the second point's
# parameters as plain numbers, so that numeric_metric can feed them stencil
# rows without building records. Where a ``**``, cosh or sinh overflows
# (OverflowError on Python floats) they raise ChartDomainError; a product
# that overflows to inf inside a square root is left to the gap test.


def _k_pair_thermal(n1a, n2a, n1b, n2b):
    try:
        k_plus = 2.0 * (
            math.sqrt(n1a * n2a * n1b * n2b)
            + math.sqrt((n1a + 1.0) * (n2a + 1.0) * (n1b + 1.0) * (n2b + 1.0))
        ) ** 2
        k_minus = 2.0 * (
            math.sqrt(n1a * (n2a + 1.0) * n1b * (n2b + 1.0))
            + math.sqrt((n1a + 1.0) * n2a * (n1b + 1.0) * n2b)
        ) ** 2
    except OverflowError:
        raise _k_overflow() from None
    return k_plus, k_minus


def k_pair_mts(a: MtsParams, n1: float, n2: float, theta: float, phi: float) -> tuple:
    """(k_plus, k_minus) of the record ``a`` and the MTS point (n1, n2, theta, phi).

    k_plus carries no device dependence; k_minus is lowered by a
    trigonometric term in the angle differences.
    """
    k_plus, k_minus_t = _k_pair_thermal(a.n1, a.n2, n1, n2)
    device = (1.0 - math.cos(a.theta - theta)) + math.sin(a.theta) * math.sin(
        theta
    ) * (1.0 - math.cos(a.phi - phi))
    k_minus = k_minus_t - (a.n1 - a.n2) * (n1 - n2) * device
    return k_plus, max(k_minus, 0.0)


def k_pair_sts(a: StsParams, n1: float, n2: float, r: float, phi: float) -> tuple:
    """(k_plus, k_minus) of the record ``a`` and the STS point (n1, n2, r, phi).

    k_minus carries no device dependence; k_plus gains a hyperbolic term in
    the squeeze and phase differences.
    """
    try:
        k_plus_cross = 2.0 * (
            math.sqrt(a.n1 * a.n2 * (n1 + 1.0) * (n2 + 1.0))
            + math.sqrt((a.n1 + 1.0) * (a.n2 + 1.0) * n1 * n2)
        ) ** 2
        device = (1.0 + math.cosh(2.0 * (a.r - r))) + math.sinh(2.0 * a.r) * math.sinh(
            2.0 * r
        ) * (1.0 - math.cos(a.phi - phi))
    except OverflowError:
        raise _k_overflow() from None
    k_plus = k_plus_cross + (a.n1 + a.n2 + 1.0) * (n1 + n2 + 1.0) * device
    _, k_minus = _k_pair_thermal(a.n1, a.n2, n1, n2)
    return k_plus, k_minus


def pair_invariants_ts(a, b) -> PairInvariants:
    return PairInvariants(*_k_pair_thermal(a.n1, a.n2, b.n1, b.n2))


def pair_invariants_mts(a: MtsParams, b: MtsParams) -> PairInvariants:
    """(k_plus, k_minus) for a pair of mode-mixed thermal states."""
    return PairInvariants(*k_pair_mts(a, b.n1, b.n2, b.theta, b.phi))


def pair_invariants_sts(a: StsParams, b: StsParams) -> PairInvariants:
    """(k_plus, k_minus) for a pair of squeezed thermal states."""
    return PairInvariants(*k_pair_sts(a, b.n1, b.n2, b.r, b.phi))


def pair_k(a: FamilyPoint, b: FamilyPoint) -> tuple:
    """(k_plus, k_minus) of two same-family points; the gap k_plus - k_minus >= 2
    is left to the caller (:class:`PairInvariants`, :func:`fidelity_from_k`)."""
    if a.tag != b.tag:
        raise ValidationError(
            f"closed-form invariants need matching families, got {a.tag}/{b.tag}"
        )
    q = b.params
    if a.tag == MTS:
        return k_pair_mts(a.params, q.n1, q.n2, q.theta, q.phi)
    if a.tag == STS:
        return k_pair_sts(a.params, q.n1, q.n2, q.r, q.phi)
    return _k_pair_thermal(a.params.n1, a.params.n2, q.n1, q.n2)


def pair_invariants(a: FamilyPoint, b: FamilyPoint) -> PairInvariants:
    return PairInvariants(*pair_k(a, b))


def fidelity_special(a: FamilyPoint, b: FamilyPoint) -> float:
    """Closed-form fidelity of two same-family points.

    Cross-family pairs are rejected; route those through the general
    covariance-matrix path instead. Where sqrt(k_plus) - sqrt(k_minus)
    rounds to zero, NumericalConsistencyError is raised.
    """
    return fidelity_from_k(*pair_k(a, b), current_tol().invariant)
