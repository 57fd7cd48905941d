"""Constructors for the three special state families and their symplectics.

The families are two-mode thermal states (TS), beam-splitter images of them
(mode-mixed thermal states, MTS) and two-mode-squeezer images (squeezed
thermal states, STS). All three are undisplaced; a family point is fully
described by its parameter record.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import TwoModeGaussian, validate_cov
from .errors import ValidationError
from .tolerances import current as current_tol

TS = "TS"
MTS = "MTS"
STS = "STS"


def _check_occupancies(n1, n2):
    # written so that NaN fails too
    if not (0.0 <= n1 < math.inf and 0.0 <= n2 < math.inf):
        raise ValidationError("mean photon numbers must be finite and >= 0")


@dataclass(frozen=True)
class TsParams:
    """Mean thermal photon numbers of the two modes."""

    n1: float
    n2: float

    def __post_init__(self):
        _check_occupancies(self.n1, self.n2)


@dataclass(frozen=True)
class MtsParams:
    """Thermal occupancies plus beam-splitter angles theta, phi."""

    n1: float
    n2: float
    theta: float
    phi: float

    def __post_init__(self):
        _check_occupancies(self.n1, self.n2)
        if not 0.0 <= self.theta < math.pi:
            raise ValidationError("theta must lie in [0, pi)")
        if not -math.pi < self.phi <= math.pi:
            raise ValidationError("phi must lie in (-pi, pi]")


@dataclass(frozen=True)
class StsParams:
    """Thermal occupancies plus squeeze parameter r and phase phi.

    r = 0 is admitted as the thermal limit.
    """

    n1: float
    n2: float
    r: float
    phi: float

    def __post_init__(self):
        _check_occupancies(self.n1, self.n2)
        if not 0.0 <= self.r < math.inf:
            raise ValidationError("squeeze parameter must be finite and >= 0")
        if not -math.pi < self.phi <= math.pi:
            raise ValidationError("phi must lie in (-pi, pi]")


_PARAM_TYPES = {TS: TsParams, MTS: MtsParams, STS: StsParams}


@dataclass(frozen=True)
class FamilyPoint:
    """Tagged parameter record for one of the three families."""

    tag: str
    params: TsParams | MtsParams | StsParams

    def __post_init__(self):
        if self.tag not in _PARAM_TYPES:
            raise ValidationError(f"unknown family tag {self.tag!r}")
        if not isinstance(self.params, _PARAM_TYPES[self.tag]):
            raise ValidationError(
                f"family {self.tag} expects {_PARAM_TYPES[self.tag].__name__}"
            )

    @classmethod
    def ts(cls, n1, n2):
        return cls(TS, TsParams(n1, n2))

    @classmethod
    def mts(cls, n1, n2, theta, phi):
        return cls(MTS, MtsParams(n1, n2, theta, phi))

    @classmethod
    def sts(cls, n1, n2, r, phi):
        return cls(STS, StsParams(n1, n2, r, phi))

    def to_state(self) -> TwoModeGaussian:
        return TwoModeGaussian(mean=np.zeros(4), cov=family_cov(self))


def occupancy_from_ratio(eta: float) -> float:
    """Bose-Einstein mean photon number from the ratio hbar*omega/(kT)."""
    if eta <= 0.0:
        raise ValidationError("eta must be positive")
    return 1.0 / math.expm1(eta)


def ratio_from_occupancy(n: float) -> float:
    """Inverse of :func:`occupancy_from_ratio`: eta = ln((n+1)/n)."""
    if n <= 0.0:
        raise ValidationError("mean photon number must be positive")
    return math.log1p(1.0 / n)


def thermal_cov(params: TsParams) -> np.ndarray:
    """Diagonal covariance matrix of a two-mode thermal state."""
    b1 = params.n1 + 0.5
    b2 = params.n2 + 0.5
    return np.diag([b1, b1, b2, b2])


def rotation2(phi: float) -> np.ndarray:
    """Planar rotation matrix by angle phi."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def bs_symplectic(theta: float, phi: float) -> np.ndarray:
    """Symplectic-orthogonal 4x4 matrix of a beam splitter.

    Blocks: cos(theta/2) I on the diagonal, -sin(theta/2) R(-phi) and
    sin(theta/2) R(phi) off the diagonal.
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    out = np.zeros((4, 4))
    out[:2, :2] = c * np.eye(2)
    out[2:, 2:] = c * np.eye(2)
    out[:2, 2:] = -s * rotation2(-phi)
    out[2:, :2] = s * rotation2(phi)
    return out


def sq_symplectic(r: float, phi: float) -> np.ndarray:
    """Symmetric symplectic 4x4 matrix of a two-mode squeezer.

    Diagonal blocks cosh(r) I; off-diagonal blocks
    sinh(r) (cos(phi) sigma_3 + sin(phi) sigma_1).
    """
    ch, sh = math.cosh(r), math.sinh(r)
    c, s = math.cos(phi), math.sin(phi)
    off = sh * np.array([[c, s], [s, -c]])
    out = np.zeros((4, 4))
    out[:2, :2] = ch * np.eye(2)
    out[2:, 2:] = ch * np.eye(2)
    out[:2, 2:] = off
    out[2:, :2] = off
    return out


def family_cov(point: FamilyPoint) -> np.ndarray:
    """Covariance matrix of a family point, via symplectic congruence.

    The congruence is symmetric in exact arithmetic; its roundoff asymmetry
    grows with the entries, so the result is symmetrized explicitly.
    """
    p = point.params
    base = thermal_cov(TsParams(p.n1, p.n2))
    if point.tag == TS:
        return base
    if point.tag == MTS:
        s = bs_symplectic(p.theta, p.phi)
    else:
        s = sq_symplectic(p.r, p.phi)
    m = s @ base @ s.T
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class StandardForm:
    """Canonical block entries (b1, b2, c, d) of a two-mode covariance matrix.

    For MTS points c = d >= 0, for STS points d = -c <= 0, for TS points
    c = d = 0. The reported c is |c|; an MTS with n1 < n2 has raw
    cross-correlation of opposite sign, which this canonicalization absorbs.
    """

    b1: float
    b2: float
    c: float
    d: float

    def __post_init__(self):
        tol = current_tol()
        if self.b1 < 0.5 - tol.block or self.b2 < 0.5 - tol.block:
            raise ValidationError("standard-form b parameters must be >= 1/2")
        if self.c < abs(self.d) - tol.block:
            raise ValidationError("standard form requires c >= |d|")


def standard_form(cov, family_tag: str) -> StandardForm:
    """Read the standard-form parameters off a family covariance matrix.

    The input must have the family block pattern: b_j I diagonal blocks and
    a cross block proportional to R(-phi) (MTS) or to
    cos(phi) sigma_3 + sin(phi) sigma_1 (STS). Residues beyond tolerance
    raise :class:`ValidationError`.
    """
    tol = current_tol().block
    cov = validate_cov(cov)
    if family_tag not in _PARAM_TYPES:
        raise ValidationError(f"unknown family tag {family_tag!r}")

    v1 = cov[:2, :2]
    v2 = cov[2:, 2:]
    cross = cov[:2, 2:]
    for name, block in (("mode-1", v1), ("mode-2", v2)):
        if abs(block[0, 0] - block[1, 1]) > tol or abs(block[0, 1]) > tol:
            raise ValidationError(f"{name} block is not a multiple of the identity")
    b1 = 0.5 * (v1[0, 0] + v1[1, 1])
    b2 = 0.5 * (v2[0, 0] + v2[1, 1])

    if family_tag == TS:
        if np.abs(cross).max() > tol:
            raise ValidationError("thermal states have no cross-correlations")
        return StandardForm(b1, b2, 0.0, 0.0)

    if family_tag == MTS:
        # c * R(-phi): equal diagonal, antisymmetric off-diagonal
        if abs(cross[0, 0] - cross[1, 1]) > tol or abs(cross[0, 1] + cross[1, 0]) > tol:
            raise ValidationError("cross block does not match the MTS pattern")
        c = math.hypot(cross[0, 0], cross[0, 1])
        return StandardForm(b1, b2, c, c)

    # STS: c * (cos(phi) sigma_3 + sin(phi) sigma_1): traceless symmetric
    if abs(cross[0, 0] + cross[1, 1]) > tol or abs(cross[0, 1] - cross[1, 0]) > tol:
        raise ValidationError("cross block does not match the STS pattern")
    c = math.hypot(cross[0, 0], cross[0, 1])
    return StandardForm(b1, b2, c, -c)


def separability_threshold(n1: float, n2: float) -> float:
    """Squeeze value below which an STS with these occupancies is separable."""
    if n1 < 0.0 or n2 < 0.0:
        raise ValidationError("mean photon numbers must be >= 0")
    return math.asinh(math.sqrt(n1 * n2 / (n1 + n2 + 1.0)))
