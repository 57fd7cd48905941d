"""Numerical tolerances, overridable through GAUSSFISHER_* environment variables.

Every field of :class:`Tolerances` can be overridden by exporting
``GAUSSFISHER_<FIELD>`` (upper-case), e.g. ``GAUSSFISHER_PSD=1e-8``.
"""

import os
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    # symmetry slack for covariance-matrix input, absolute
    sym: float = 1e-12
    # physicality: smallest eigenvalue of V + (i/2)J may undershoot by this much,
    # on top of the eigensolver roundoff allowed in core.check_physical
    psd: float = 1e-10
    # |det(V + iJ/2)| below this counts as the physicality edge
    edge: float = 1e-9
    # imaginary / negative residue allowed in the complex edge determinants,
    # scaled by (1 + |Re|)
    imag: float = 1e-9
    # slack for the exact determinant inequalities, scaled by (1 + magnitude)
    invariant: float = 1e-9
    # square-root arguments this close below zero are clamped to zero
    branch: float = 1e-10
    # K_minus below this (scaled by 1 + sqrt(Delta)) is treated as exactly zero;
    # the fidelity branch point at K_minus = 0 amplifies absolute noise as
    # sqrt(noise), so saturated pairs need a symmetric clamp
    kminus: float = 1e-11
    # probability vectors must be normalized to within this
    prob_norm: float = 1e-9
    # off-pattern residue allowed when reading standard-form blocks
    block: float = 1e-9


def current() -> Tolerances:
    """Tolerances with any GAUSSFISHER_* environment overrides applied."""
    overrides = {}
    for f in fields(Tolerances):
        raw = os.environ.get("GAUSSFISHER_" + f.name.upper())
        if raw is not None:
            overrides[f.name] = float(raw)
    return Tolerances(**overrides)
