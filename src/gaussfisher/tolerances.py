"""Numerical tolerances, overridable through GAUSSFISHER_* environment variables.

Every field of :class:`Tolerances` can be overridden by exporting
``GAUSSFISHER_<FIELD>`` (upper-case), e.g. ``GAUSSFISHER_PSD=1e-8``. The
environment is read once per process, at the first :func:`current` call;
later calls return the same record. :func:`reload` is the one way to pick up
changed variables. An override that is not a finite non-negative number
raises :class:`~gaussfisher.errors.ValidationError` naming the variable.
"""

import math
import os
from dataclasses import dataclass, fields

from .errors import ValidationError


@dataclass(frozen=True)
class Tolerances:
    # symmetry slack for covariance-matrix input, absolute
    sym: float = 1e-12
    # physicality: smallest eigenvalue of V + (i/2)J may undershoot by this much,
    # on top of the eigensolver roundoff allowed in core.check_physical
    psd: float = 1e-10
    # slack for the exact determinant identities, scaled by (1 + magnitude):
    # the inequalities on delta, gamma and k_minus, and the imaginary or
    # negative residue of the complex edge determinants det(V + iJ/2)
    invariant: float = 1e-9
    # core.distances accepts fidelities up to 1 + branch and reads them as 1
    branch: float = 1e-10
    # K_minus below this (scaled by 1 + sqrt(Delta)) is treated as exactly zero;
    # the fidelity branch point at K_minus = 0 amplifies absolute noise as
    # sqrt(noise), so saturated pairs need a symmetric clamp
    kminus: float = 1e-11
    # probability vectors must be normalized to within this
    prob_norm: float = 1e-9


_current: Tolerances | None = None
_overridden: frozenset = frozenset()


def _read_overrides() -> dict:
    overrides = {}
    for f in fields(Tolerances):
        name = "GAUSSFISHER_" + f.name.upper()
        raw = os.environ.get(name)
        if raw is None:
            continue
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        # NaN would turn every `x > tol` check off; a negative slack rejects
        # valid input
        if not (math.isfinite(value) and value >= 0.0):
            raise ValidationError(f"{name}={raw!r} is not a finite non-negative number")
        overrides[f.name] = value
    return overrides


def reload() -> Tolerances:
    """Re-read the GAUSSFISHER_* environment and make the result current."""
    global _current, _overridden
    # a failed re-read leaves nothing in force, so the next current() raises too
    _current = None
    overrides = _read_overrides()
    _current, _overridden = Tolerances(**overrides), frozenset(overrides)
    return _current


def current() -> Tolerances:
    """Tolerances with the GAUSSFISHER_* overrides read at first use."""
    return _current if _current is not None else reload()


def describe() -> str:
    """The current tolerances as ``name=value`` pairs, ``*`` marking overrides."""
    tol = current()
    return " ".join(
        f"{f.name}={getattr(tol, f.name)!r}{'*' if f.name in _overridden else ''}"
        for f in fields(Tolerances)
    )
