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

All couplings of one generator share one phase, and n1 rises by one per
step within every sector, so each device unitary is U = P O P^dag with a
real orthogonal O (the expm of the same blocks with a real coupling) and
P = diag(exp(-i psi n1)); psi is phi for the mixer and -phi for the
squeezer. Diagonal factors commute with the thermal spectra and drop out
of every trace norm and |.|^2 the oracle takes. For a mode-mixed x
squeezed pair the relative phase exp(-i (psi_b - psi_a) n1) splits into a
factor constant on each mixer sector (in n1 + n2) and one constant on each
squeezer sector (in n1 - n2); each commutes past its own device's O and
drops as well, so that pair's products and singular value decompositions
are real.

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
from .states import MTS, STS, FamilyPoint, MtsParams, StsParams, _check_occupancies

DEFAULT_MAX_DEFICIT = 1e-6
DEFAULT_MAX_DEFECT = 1e-8

TOTAL = "n1+n2"       # conserved by the mode mixer
DIFFERENCE = "n1-n2"  # conserved by the two-mode squeezer
PARITY = "(n1+n2)%2"  # conserved by both


@dataclass(frozen=True)
class FockDensity:
    """Truncated density matrix U diag(spectrum) U^dag, kept spectral.

    U = P O P^dag, where O is the direct sum of the real orthogonal
    ``blocks`` over ``sectors(d, conserved)`` and P = diag(exp(-i phase n1))
    over the flat indices; U is the identity when ``blocks`` is None (a
    thermal state). No dense D x D matrix is stored: fidelities and
    overlaps are computed from the spectrum and the blocks, and a
    mode-mixed x squeezed pair forms one real block per parity class of
    n1 + n2, of at most ceil(D/2) indices, since both device phases drop
    out of its products.
    """

    d: int
    spectrum: np.ndarray
    trace_deficit: float
    conserved: str | None = None
    blocks: tuple[np.ndarray, ...] | None = None
    phase: float = 0.0


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
    _check_occupancies(n1, n2)
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


def _sector_unitaries(d: int, conserved: str, coupling: float):
    """Real orthogonal expm of each sector block of a truncated generator.

    Within a sector, ordered by ascending n1, the generator links only
    neighbouring states, so each block is tridiagonal and antisymmetric:
    superdiagonal ``coupling * sqrt(m1 m2)``, subdiagonal its negative.
    sqrt(m1 m2) is the ladder amplitude between neighbours j and j + 1. In
    a TOTAL sector j + 1 holds one photon more in mode 1 and one fewer in
    mode 2, so m1 is n1 of j + 1 and m2 is n2 of j; in a DIFFERENCE sector
    j + 1 holds one more in each mode, so both are read off j + 1. The
    exponential is taken in complex arithmetic, whose imaginary part is
    exactly zero here: scipy's real-dtype expm is about ten times less
    accurate on these blocks.
    """
    blocks = []
    for idx in sectors(d, conserved):
        n1, n2 = np.divmod(idx, d)
        ladder = n2[:-1] if conserved == TOTAL else n2[1:]
        upper = coupling * np.sqrt(n1[1:] * ladder)
        generator = np.diag(upper, 1) - np.diag(upper, -1)
        blocks.append(expm(generator.astype(complex)).real)
    return tuple(blocks)


def _assemble(pieces, dim: int) -> np.ndarray:
    """Dense dim x dim matrix of a direct sum of (index set, block) pieces."""
    out = np.zeros((dim, dim))
    for idx, block in pieces:
        out[np.ix_(idx, idx)] = block
    return out


def _gauged(d: int, conserved: str, blocks, psi: float) -> np.ndarray:
    """Dense device unitary P O P^dag, P = diag(exp(-i psi n1))."""
    p = np.exp(-1j * psi * (np.arange(d * d) // d))
    o = _assemble(zip(sectors(d, conserved), blocks), d * d)
    return p[:, None] * o * p.conj()[None, :]


def _bs_blocks(theta: float, phi: float, d: int):
    MtsParams(0.0, 0.0, theta, phi)  # range validation
    # generator (theta/2)(e^{i phi} a1 a2^dag - e^{-i phi} a1^dag a2);
    # its phase is gauged out as psi = phi
    return _sector_unitaries(d, TOTAL, 0.5 * theta)


def _sq_blocks(r: float, phi: float, d: int, max_defect: float):
    StsParams(0.0, 0.0, r, phi)  # range validation
    # generator r (e^{i phi} a1^dag a2^dag - e^{-i phi} a1 a2);
    # its phase is gauged out as psi = -phi
    blocks = _sector_unitaries(d, DIFFERENCE, -r)
    # O is block-diagonal, so its defect is the largest block defect
    defect = max(unitarity_defect(o) for o in blocks)
    if defect > max_defect:
        raise TruncationError(
            f"unitarity defect {defect:.3e} exceeds {max_defect:.1e}; raise d"
        )
    return blocks


def bs_unitary(theta: float, phi: float, d: int) -> np.ndarray:
    """Mode-mixing unitary on the truncated two-mode Fock space."""
    return _gauged(d, TOTAL, _bs_blocks(theta, phi, d), phi)


def sq_unitary(r: float, phi: float, d: int,
               max_defect: float = DEFAULT_MAX_DEFECT) -> np.ndarray:
    """Two-mode squeeze operator on the truncated space.

    The truncated generator is still anti-Hermitian, so the exponential is
    unitary to roundoff; the recorded defect is checked against
    ``max_defect`` anyway, since squeezing does not conserve photon number
    and the matrix only represents the true operator faithfully on states
    far from the truncation boundary.
    """
    return _gauged(d, DIFFERENCE, _sq_blocks(r, phi, d, max_defect), -phi)


def family_dm(point: FamilyPoint, d: int,
              max_deficit: float = DEFAULT_MAX_DEFICIT) -> FockDensity:
    """Spectral record of a family point's truncated density matrix."""
    p = point.params
    if point.tag not in (MTS, STS):
        return thermal_dm(p.n1, p.n2, d, max_deficit=max_deficit)
    w, thermal_deficit = _thermal_spectrum(p.n1, p.n2, d, max_deficit)
    if point.tag == MTS:
        conserved, blocks, psi = TOTAL, _bs_blocks(p.theta, p.phi, d), p.phi
    else:
        conserved, blocks = DIFFERENCE, _sq_blocks(p.r, p.phi, d, DEFAULT_MAX_DEFECT)
        psi = -p.phi
    # conjugation preserves the trace; the honest deficit is the thermal one.
    # Tr(U W U^dag) = sum over blocks of the column norms |O_B|^2 weighted by w
    trace = sum((o ** 2).sum(axis=0) @ w[idx]
                for idx, o in zip(sectors(d, conserved), blocks))
    deficit = max(1.0 - float(trace), thermal_deficit)
    return FockDensity(d=d, spectrum=w, trace_deficit=deficit,
                       conserved=conserved, blocks=blocks, phase=psi)


def _inner_blocks(rho_a: FockDensity, rho_b: FockDensity):
    """Index set and block of Ua^dag Ub, up to outer diagonal phases, of
    each piece of a pair's product.

    Ua^dag Ub = Pa (Oa^T Pa^dag Pb Ob) Pb^dag, and the outer Pa, Pb^dag
    commute with the spectra, so only the middle product is formed. States
    that share a sectoring give one piece per sector; a state without
    blocks is diagonal in the Fock basis and fits either sectoring. A
    mode-mixed x squeezed pair shares neither, but each of its sectors lies
    inside one parity class of n1 + n2, so it gives one real piece Oa^T Ob
    per parity class, assembled from the sector blocks in that class (the
    relative phase commutes outward, see the module notes). The entries
    between the classes are exactly zero and are never formed.
    """
    if rho_a.d != rho_b.d:
        raise ValidationError("density matrices have incompatible truncations")
    d = rho_a.d
    kinds = {rho_a.conserved, rho_b.conserved} - {None}
    if len(kinds) > 1:
        classes = sectors(d, PARITY)
        position = np.empty(d * d, dtype=int)  # of each flat index in its class
        for idx in classes:
            position[idx] = np.arange(len(idx))
        for parity, idx in enumerate(classes):
            # Ob restricted to the class, then Oa^T applied sector by sector
            inner = _assemble(_in_class(rho_b, parity, position), len(idx))
            for rows, oa in _in_class(rho_a, parity, position):
                inner[rows] = oa.T @ inner[rows]
            yield idx, inner
        return
    conserved = kinds.pop() if kinds else TOTAL
    # a state without blocks is diagonal, so the other's phase drops as well
    both = rho_a.blocks is not None and rho_b.blocks is not None
    shift = rho_b.phase - rho_a.phase if both else 0.0
    for idx, oa, ob in zip(sectors(d, conserved),
                           _orthogonal_blocks(rho_a, conserved),
                           _orthogonal_blocks(rho_b, conserved)):
        if shift:
            ob = np.exp(-1j * shift * (idx // d))[:, None] * ob
        yield idx, oa.T @ ob


def _in_class(rho: FockDensity, parity: int, position: np.ndarray):
    """(positions within parity class ``parity``, orthogonal block) of each
    sector of ``rho`` that lies in that class."""
    for idx, o in zip(sectors(rho.d, rho.conserved), rho.blocks):
        if sum(divmod(int(idx[0]), rho.d)) % 2 == parity:
            yield position[idx], o


def _orthogonal_blocks(rho: FockDensity, conserved: str):
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
    and under the outer diagonal phases that ``_inner_blocks`` strips from
    the middle product. That product splits into its pieces: one per
    photon-number sector when the states share a sectoring, one real piece
    per parity class of n1 + n2 for a mode-mixed x squeezed pair.
    """
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
    _check_occupancies(n1a, n2a)
    _check_occupancies(n1b, n2b)
    # chained so that NaN and inf fail before int() sees them
    if not (1 <= n_terms < math.inf and int(n_terms) == n_terms):
        raise ValidationError("n_terms must be a positive integer")
    n_terms = int(n_terms)
    s1 = np.sqrt(thermal_weights(n1a, n_terms) * thermal_weights(n1b, n_terms)).sum()
    s2 = np.sqrt(thermal_weights(n2a, n_terms) * thermal_weights(n2b, n_terms)).sum()
    return float((s1 * s2) ** 2)
