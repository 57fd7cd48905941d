"""Closed-form fidelity for same-family pairs.

For two states of the same family the invariant pair (k_plus, k_minus) has
explicit expressions in the defining parameters, and the fidelity becomes
2 (sqrt(k_plus) - sqrt(k_minus))^-2 with no displacement factor.
"""

import math
from dataclasses import dataclass

from .errors import NumericalConsistencyError, ValidationError
from .states import MTS, STS, TS, FamilyPoint, MtsParams, StsParams
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


@dataclass(frozen=True)
class PairInvariants:
    k_plus: float
    k_minus: float

    def __post_init__(self):
        if self.k_plus - self.k_minus < 2.0 - current_tol().invariant:
            raise NumericalConsistencyError(
                f"k_plus - k_minus = {self.k_plus - self.k_minus:.6e} < 2"
            )


def _k_pair_thermal(n1a, n2a, n1b, n2b):
    k_plus = 2.0 * (
        math.sqrt(n1a * n2a * n1b * n2b)
        + math.sqrt((n1a + 1.0) * (n2a + 1.0) * (n1b + 1.0) * (n2b + 1.0))
    ) ** 2
    k_minus = 2.0 * (
        math.sqrt(n1a * (n2a + 1.0) * n1b * (n2b + 1.0))
        + math.sqrt((n1a + 1.0) * n2a * (n1b + 1.0) * n2b)
    ) ** 2
    return k_plus, k_minus


def pair_invariants_ts(a, b) -> PairInvariants:
    k_plus, k_minus = _k_pair_thermal(a.n1, a.n2, b.n1, b.n2)
    return PairInvariants(k_plus, k_minus)


def pair_invariants_mts(a: MtsParams, b: MtsParams) -> PairInvariants:
    """(k_plus, k_minus) for a pair of mode-mixed thermal states.

    k_plus carries no device dependence; k_minus is lowered by a
    trigonometric term in the angle differences.
    """
    k_plus, k_minus_t = _k_pair_thermal(a.n1, a.n2, b.n1, b.n2)
    device = (1.0 - math.cos(a.theta - b.theta)) + math.sin(a.theta) * math.sin(
        b.theta
    ) * (1.0 - math.cos(a.phi - b.phi))
    k_minus = k_minus_t - (a.n1 - a.n2) * (b.n1 - b.n2) * device
    return PairInvariants(k_plus, max(k_minus, 0.0))


def pair_invariants_sts(a: StsParams, b: StsParams) -> PairInvariants:
    """(k_plus, k_minus) for a pair of squeezed thermal states.

    k_minus carries no device dependence; k_plus gains a hyperbolic term in
    the squeeze and phase differences.
    """
    k_plus_cross = 2.0 * (
        math.sqrt(a.n1 * a.n2 * (b.n1 + 1.0) * (b.n2 + 1.0))
        + math.sqrt((a.n1 + 1.0) * (a.n2 + 1.0) * b.n1 * b.n2)
    ) ** 2
    device = (1.0 + math.cosh(2.0 * (a.r - b.r))) + math.sinh(2.0 * a.r) * math.sinh(
        2.0 * b.r
    ) * (1.0 - math.cos(a.phi - b.phi))
    k_plus = k_plus_cross + (a.n1 + a.n2 + 1.0) * (b.n1 + b.n2 + 1.0) * device
    _, k_minus = _k_pair_thermal(a.n1, a.n2, b.n1, b.n2)
    return PairInvariants(k_plus, k_minus)


_PAIR_DISPATCH = {
    TS: pair_invariants_ts,
    MTS: pair_invariants_mts,
    STS: pair_invariants_sts,
}


def pair_invariants(a: FamilyPoint, b: FamilyPoint) -> PairInvariants:
    if a.tag != b.tag:
        raise ValidationError(
            f"closed-form invariants need matching families, got {a.tag}/{b.tag}"
        )
    return _PAIR_DISPATCH[a.tag](a.params, b.params)


def fidelity_special(a: FamilyPoint, b: FamilyPoint) -> float:
    """Closed-form fidelity of two same-family points.

    Cross-family pairs are rejected; route those through the general
    covariance-matrix path instead.
    """
    inv = pair_invariants(a, b)
    return 2.0 / (math.sqrt(inv.k_plus) - math.sqrt(inv.k_minus)) ** 2
