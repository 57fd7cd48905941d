"""Constructors for the three special state families and their symplectics.

The families are two-mode thermal states (TS), beam-splitter images of them
(mode-mixed thermal states, MTS) and two-mode-squeezer images (squeezed
thermal states, STS). All three are undisplaced; a family point is fully
described by its parameter record.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import TwoModeGaussian
from .errors import ValidationError, overflow_error

TS = "TS"
MTS = "MTS"
STS = "STS"


def _check_occupancies(n1, n2):
    """Refuse occupancies that are not finite and >= 0; return the two.

    numpy float64 scalars come back as Python floats, so that the closed
    forms calling this compute on floats, several times faster than on
    numpy scalars; other types, such as the sympy symbols of the symbolic
    tests, pass through unchanged.
    """
    if type(n1) is np.float64:
        n1 = float(n1)
    if type(n2) is np.float64:
        n2 = float(n2)
    # written so that NaN fails too
    if not (0.0 <= n1 < math.inf and 0.0 <= n2 < math.inf):
        raise ValidationError("mean photon numbers must be finite and >= 0")
    return n1, n2


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

    # The constructors hand numpy float64 arguments on as Python floats, so
    # that the closed forms on the point compute on floats.

    @classmethod
    def ts(cls, n1, n2):
        n1 = float(n1) if type(n1) is np.float64 else n1
        n2 = float(n2) if type(n2) is np.float64 else n2
        return cls(TS, TsParams(n1, n2))

    @classmethod
    def mts(cls, n1, n2, theta, phi):
        n1 = float(n1) if type(n1) is np.float64 else n1
        n2 = float(n2) if type(n2) is np.float64 else n2
        theta = float(theta) if type(theta) is np.float64 else theta
        phi = float(phi) if type(phi) is np.float64 else phi
        return cls(MTS, MtsParams(n1, n2, theta, phi))

    @classmethod
    def sts(cls, n1, n2, r, phi):
        n1 = float(n1) if type(n1) is np.float64 else n1
        n2 = float(n2) if type(n2) is np.float64 else n2
        r = float(r) if type(r) is np.float64 else r
        phi = float(phi) if type(phi) is np.float64 else phi
        return cls(STS, StsParams(n1, n2, r, phi))

    def to_state(self) -> TwoModeGaussian:
        return TwoModeGaussian(mean=np.zeros(4), cov=family_cov(self))


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
    sin(theta/2) R(phi) off the diagonal. The entries are the products of
    ``c I`` and ``s R`` (see :func:`rotation2`) taken on Python floats, so
    a zero of ``c I`` is -0.0 where cos(theta/2) < 0.
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    cm, sm = math.cos(-phi), math.sin(-phi)
    cp, sp = math.cos(phi), math.sin(phi)
    z = c * 0.0
    return np.array([
        [c, z, -s * cm, -s * -sm],
        [z, c, -s * sm, -s * cm],
        [s * cp, s * -sp, c, z],
        [s * sp, s * cp, z, c],
    ])


def sq_symplectic(r: float, phi: float) -> np.ndarray:
    """Symmetric symplectic 4x4 matrix of a two-mode squeezer.

    Diagonal blocks cosh(r) I; off-diagonal blocks
    sinh(r) (cos(phi) sigma_3 + sin(phi) sigma_1). The entries are the
    products of ``ch I`` and ``sh sigma`` taken on Python floats.
    """
    ch, sh = math.cosh(r), math.sinh(r)
    c, s = math.cos(phi), math.sin(phi)
    z = ch * 0.0
    return np.array([
        [ch, z, sh * c, sh * s],
        [z, ch, sh * s, sh * -c],
        [sh * c, sh * s, ch, z],
        [sh * s, sh * -c, z, ch],
    ])


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


def separability_threshold(n1: float, n2: float) -> float:
    """Squeeze value below which an STS with these occupancies is separable."""
    n1, n2 = _check_occupancies(n1, n2)
    value = math.asinh(math.sqrt(n1 * n2 / (n1 + n2 + 1.0)))
    if value == math.inf:  # n1 * n2 overflowed
        raise overflow_error(f"separability threshold at (n1, n2) = ({n1!r}, {n2!r})")
    return value
