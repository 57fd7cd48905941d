"""Truncated Fock-space oracle for the family states.

States live on a d x d per-mode photon-number grid (total dimension
D = d^2, flat index n1 * d + n2). Each device generator conserves one
photon-number combination: the mode mixer conserves n1 + n2, the two-mode
squeezer n1 - n2. Grouping the flat indices by that number splits the
truncated space into 2d - 1 sectors of sizes 1, 2, ..., d, ..., 2, 1. The
truncated generator couples only neighbouring states of one sector, so it
is a direct sum of tridiagonal sector blocks, built from one matrix
exponential per block. A state is held as its thermal spectrum plus those
unitary sector blocks, never as a dense D x D density matrix; Uhlmann
fidelities and overlaps are taken sector by sector. A mode-mixed x
squeezed pair shares no such sectoring, but both devices keep the parity
of n1 + n2 (the mixer keeps n1 + n2, the squeezer changes it by 2), so
its fidelity and overlap split into the two parity classes, of
ceil(D/2) and floor(D/2) indices, and take one singular value
decomposition each.

The mixer's truncation is exact on the sectors n1 + n2 < d, which the
truncation keeps whole; the squeezer's sectors are cut where the true
operator would climb past d - 1 photons, so it leaks probability through
the truncation boundary. This module backs tests and the ``oracle`` CLI
command only; the closed-form library never calls into it.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .errors import TruncationError, ValidationError
from .states import MTS, STS, FamilyPoint, MtsParams, StsParams

DEFAULT_MAX_DEFICIT = 1e-6
DEFAULT_MAX_DEFECT = 1e-8

TOTAL = "n1+n2"       # conserved by the mode mixer
DIFFERENCE = "n1-n2"  # conserved by the two-mode squeezer
PARITY = "(n1+n2)%2"  # conserved by both


@dataclass(frozen=True)
class FockDensity:
    """Truncated density matrix U diag(spectrum) U^dag, kept spectral.

    U is the direct sum of the unitary ``blocks`` over
    ``sectors(d, conserved)``, or the identity when ``blocks`` is None (a
    thermal state). No dense D x D matrix is stored: fidelities and
    overlaps are computed from the spectrum and the blocks, and a
    mode-mixed x squeezed pair forms one block per parity class of
    n1 + n2, of at most ceil(D/2) indices.
    """

    d: int
    spectrum: np.ndarray
    trace_deficit: float
    conserved: str | None = None
    blocks: tuple[np.ndarray, ...] | None = None


@lru_cache(maxsize=None)
def sectors(d: int, conserved: str) -> tuple[np.ndarray, ...]:
    """Ascending flat indices of each photon-number sector.

    ``conserved`` is TOTAL (sectors n1 + n2 = 0, ..., 2d - 2) or
    DIFFERENCE (sectors n1 - n2 = -(d - 1), ..., d - 1). Either way there
    are 2d - 1 sectors of at most d indices each, and n1 ascends within a
    sector. PARITY gives the two classes of even and odd n1 + n2, of
    ceil(d^2/2) and floor(d^2/2) indices; each TOTAL or DIFFERENCE sector
    lies inside one of them.
    """
    n1, n2 = np.divmod(np.arange(d * d), d)
    if conserved == TOTAL:
        key = n1 + n2
    elif conserved == DIFFERENCE:
        key = n1 - n2 + d - 1
    elif conserved == PARITY:
        key = (n1 + n2) % 2
    else:
        raise ValidationError(f"unknown conserved quantity {conserved!r}")
    order = np.argsort(key, kind="stable")
    out = tuple(np.split(order, np.cumsum(np.bincount(key))[:-1]))
    for idx in out:
        idx.flags.writeable = False
    return out


def thermal_weights(n: float, d: int) -> np.ndarray:
    """Geometric photon-number weights n^k / (n+1)^(k+1), k < d."""
    k = np.arange(d)
    if n == 0.0:
        w = np.zeros(d)
        w[0] = 1.0
        return w
    return np.exp(k * math.log(n) - (k + 1) * math.log(n + 1.0))


def _thermal_spectrum(n1: float, n2: float, d: int, max_deficit: float):
    if n1 < 0.0 or n2 < 0.0:
        raise ValidationError("mean photon numbers must be >= 0")
    if d < 2:
        raise ValidationError("per-mode truncation must be at least 2")
    w = np.kron(thermal_weights(n1, d), thermal_weights(n2, d))
    deficit = 1.0 - w.sum()
    if deficit > max_deficit:
        raise TruncationError(
            f"trace deficit {deficit:.3e} exceeds {max_deficit:.1e}; raise d"
        )
    return w, deficit


def thermal_dm(n1: float, n2: float, d: int,
               max_deficit: float = DEFAULT_MAX_DEFICIT) -> FockDensity:
    """Two-mode thermal state as a product of geometric mixtures."""
    w, deficit = _thermal_spectrum(n1, n2, d, max_deficit)
    return FockDensity(d=d, spectrum=w, trace_deficit=deficit)


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm deviation of u^dag u from the identity."""
    dim = u.shape[0]
    return float(np.abs(u.conj().T @ u - np.eye(dim)).max())


def _sector_unitaries(d: int, conserved: str, coupling: complex):
    """expm of each sector block of a truncated two-mode generator.

    Within a sector, ordered by ascending n1, the generator links only
    neighbouring states, so each block is tridiagonal and anti-Hermitian:
    superdiagonal ``coupling * sqrt(m1 m2)``, subdiagonal minus its
    conjugate. sqrt(m1 m2) is the ladder amplitude between neighbours j and
    j + 1. In a TOTAL sector j + 1 holds one photon more in mode 1 and one
    fewer in mode 2, so m1 is n1 of j + 1 and m2 is n2 of j; in a
    DIFFERENCE sector j + 1 holds one more in each mode, so both are read
    off j + 1.
    """
    blocks = []
    for idx in sectors(d, conserved):
        n1, n2 = np.divmod(idx, d)
        ladder = n2[:-1] if conserved == TOTAL else n2[1:]
        upper = coupling * np.sqrt(n1[1:] * ladder)
        blocks.append(expm(np.diag(upper, 1) - np.diag(upper.conj(), -1)))
    return tuple(blocks)


def _assemble(pieces, dim: int) -> np.ndarray:
    """Dense dim x dim matrix of a direct sum of (index set, block) pieces."""
    out = np.zeros((dim, dim), dtype=complex)
    for idx, block in pieces:
        out[np.ix_(idx, idx)] = block
    return out


def _bs_blocks(theta: float, phi: float, d: int):
    MtsParams(0.0, 0.0, theta, phi)  # range validation
    # generator (theta/2)(e^{i phi} a1 a2^dag - e^{-i phi} a1^dag a2)
    return _sector_unitaries(d, TOTAL, 0.5 * theta * np.exp(1j * phi))


def _sq_blocks(r: float, phi: float, d: int, max_defect: float):
    StsParams(0.0, 0.0, r, phi)  # range validation
    # generator r (e^{i phi} a1^dag a2^dag - e^{-i phi} a1 a2)
    blocks = _sector_unitaries(d, DIFFERENCE, -r * np.exp(-1j * phi))
    # u is block-diagonal, so its defect is the largest block defect
    defect = max(unitarity_defect(u) for u in blocks)
    if defect > max_defect:
        raise TruncationError(
            f"unitarity defect {defect:.3e} exceeds {max_defect:.1e}; raise d"
        )
    return blocks


def bs_unitary(theta: float, phi: float, d: int) -> np.ndarray:
    """Mode-mixing unitary on the truncated two-mode Fock space."""
    return _assemble(zip(sectors(d, TOTAL), _bs_blocks(theta, phi, d)), d * d)


def sq_unitary(r: float, phi: float, d: int,
               max_defect: float = DEFAULT_MAX_DEFECT) -> np.ndarray:
    """Two-mode squeeze operator on the truncated space.

    The truncated generator is still anti-Hermitian, so the exponential is
    unitary to roundoff; the recorded defect is checked against
    ``max_defect`` anyway, since squeezing does not conserve photon number
    and the matrix only represents the true operator faithfully on states
    far from the truncation boundary.
    """
    return _assemble(zip(sectors(d, DIFFERENCE), _sq_blocks(r, phi, d, max_defect)),
                     d * d)


def family_dm(point: FamilyPoint, d: int,
              max_deficit: float = DEFAULT_MAX_DEFICIT) -> FockDensity:
    """Spectral record of a family point's truncated density matrix."""
    p = point.params
    if point.tag not in (MTS, STS):
        return thermal_dm(p.n1, p.n2, d, max_deficit=max_deficit)
    w, thermal_deficit = _thermal_spectrum(p.n1, p.n2, d, max_deficit)
    if point.tag == MTS:
        conserved, blocks = TOTAL, _bs_blocks(p.theta, p.phi, d)
    else:
        conserved, blocks = DIFFERENCE, _sq_blocks(p.r, p.phi, d, DEFAULT_MAX_DEFECT)
    # conjugation preserves the trace; the honest deficit is the thermal one.
    # Tr(U W U^dag) = sum over blocks of the column norms |U_B|^2 weighted by w
    trace = sum((np.abs(u) ** 2).sum(axis=0) @ w[idx]
                for idx, u in zip(sectors(d, conserved), blocks))
    deficit = max(1.0 - float(trace), thermal_deficit)
    return FockDensity(d=d, spectrum=w, trace_deficit=deficit,
                       conserved=conserved, blocks=blocks)


def _inner_blocks(rho_a: FockDensity, rho_b: FockDensity):
    """Index set and Ua^dag Ub block of each piece of a pair's product.

    States that share a sectoring give one pair per sector; a state without
    blocks is diagonal in the Fock basis and fits either sectoring. A
    mode-mixed x squeezed pair shares neither, but each of its sectors lies
    inside one parity class of n1 + n2, so it gives one pair per parity
    class, assembled from the sector blocks in that class. The entries
    between the classes are exactly zero and are never formed.
    """
    if rho_a.d != rho_b.d:
        raise ValidationError("density matrices have incompatible truncations")
    kinds = {rho_a.conserved, rho_b.conserved} - {None}
    if len(kinds) > 1:
        d = rho_a.d
        classes = sectors(d, PARITY)
        position = np.empty(d * d, dtype=int)  # of each flat index in its class
        for idx in classes:
            position[idx] = np.arange(len(idx))
        for parity, idx in enumerate(classes):
            # Ub restricted to the class, then Ua^dag applied sector by sector
            inner = _assemble(_in_class(rho_b, parity, position), len(idx))
            for rows, ua in _in_class(rho_a, parity, position):
                inner[rows] = ua.conj().T @ inner[rows]
            yield idx, inner
        return
    conserved = kinds.pop() if kinds else TOTAL
    for idx, ua, ub in zip(sectors(rho_a.d, conserved),
                           _unitary_blocks(rho_a, conserved),
                           _unitary_blocks(rho_b, conserved)):
        yield idx, ua.conj().T @ ub


def _in_class(rho: FockDensity, parity: int, position: np.ndarray):
    """(positions within parity class ``parity``, unitary block) of each
    sector of ``rho`` that lies in that class."""
    for idx, u in zip(sectors(rho.d, rho.conserved), rho.blocks):
        if sum(divmod(int(idx[0]), rho.d)) % 2 == parity:
            yield position[idx], u


def _unitary_blocks(rho: FockDensity, conserved: str):
    if rho.blocks is not None:
        return rho.blocks
    return [np.eye(len(idx)) for idx in sectors(rho.d, conserved)]


def uhlmann_fidelity(rho_a: FockDensity, rho_b: FockDensity) -> float:
    """[Tr sqrt(sqrt(rho_b) rho_a sqrt(rho_b))]^2 via spectral square roots.

    Evaluated as the squared trace norm of sqrt(rho_a) sqrt(rho_b): the
    singular values of that product are the eigenvalue square roots of the
    sandwiched matrix, but carry no square-root amplification of
    eigenvalue roundoff near zero. The trace norm is invariant under the
    outer unitaries,
    || Ua sqrt(Wa) Ua^dag Ub sqrt(Wb) Ub^dag ||_1
      = || sqrt(Wa) (Ua^dag Ub) sqrt(Wb) ||_1,
    and the middle product splits into the blocks of ``_inner_blocks``: one
    per photon-number sector when the states share a sectoring, one per
    parity class of n1 + n2 for a mode-mixed x squeezed pair.
    """
    for rho in (rho_a, rho_b):
        if rho.trace_deficit > DEFAULT_MAX_DEFICIT:
            raise TruncationError(
                f"trace deficit {rho.trace_deficit:.3e} too large for the oracle"
            )
    sqrt_a = np.sqrt(rho_a.spectrum)
    sqrt_b = np.sqrt(rho_b.spectrum)
    return sum(_trace_norm(sqrt_a[idx, None] * inner * sqrt_b[None, idx])
               for idx, inner in _inner_blocks(rho_a, rho_b)) ** 2


def _trace_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def overlap_fock(rho_a: FockDensity, rho_b: FockDensity) -> float:
    """Tr(rho_a rho_b) on the truncated space."""
    # Tr(Ua Wa Ua^dag Ub Wb Ub^dag) = sum_ij Wa_i |(Ua^dag Ub)_ij|^2 Wb_j
    return float(sum(rho_a.spectrum[idx] @ np.abs(inner) ** 2 @ rho_b.spectrum[idx]
                     for idx, inner in _inner_blocks(rho_a, rho_b)))


def spectral_fidelity_ts(n1a: float, n2a: float, n1b: float, n2b: float,
                         n_terms: int) -> float:
    """Thermal-pair fidelity from the commuting spectral resolutions.

    The affinity sum factorizes over modes; the result increases
    monotonically with ``n_terms`` toward the closed-form value.
    """
    if min(n1a, n2a, n1b, n2b) < 0.0:
        raise ValidationError("mean photon numbers must be >= 0")
    if n_terms < 1:
        raise ValidationError("n_terms must be at least 1")
    s1 = np.sqrt(thermal_weights(n1a, n_terms) * thermal_weights(n1b, n_terms)).sum()
    s2 = np.sqrt(thermal_weights(n2a, n_terms) * thermal_weights(n2b, n_terms)).sum()
    return float((s1 * s2) ** 2)
