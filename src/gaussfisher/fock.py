"""Truncated Fock-space oracle for the family states.

States live on a d x d per-mode photon-number grid (total dimension
D = d^2, flat index n1 * d + n2). Each device generator conserves one
photon-number combination: the mode mixer conserves n1 + n2, the two-mode
squeezer n1 - n2. Grouping the flat indices by that number splits the
truncated space into 2d - 1 sectors of sizes 1, 2, ..., d, ..., 2, 1. The
truncated generator couples only neighbouring states of one sector, so it
is a direct sum of tridiagonal sector blocks; the squeezer's sectors
n1 - n2 = k and -k swap the two modes and share one block. A state is held
as its thermal spectrum plus those unitary sector blocks, never as a dense
D x D density matrix; Uhlmann fidelities and overlaps are taken sector by
sector.

All couplings of one generator share one phase, and n1 rises by one per
step within every sector, so each device unitary is U = P O P^dag with a
real orthogonal O and P = diag(exp(-i psi n1)); psi is phi for the mixer
and -phi for the squeezer. O is the exponential of the same sector blocks
with a real coupling. The blocks are zero-padded into a few stacks of
equal size, and each stack is exponentiated in one batched real pass:
scaling and squaring with the degree-13 Pade approximant (Higham 2005),
each block scaled by its own power of two. The pad exponentiates to
exactly the identity and leaks into no block, so each block is read off
the leading corner of its slice.

Diagonal factors commute with the thermal spectra and drop out of every
trace norm and |.|^2 the oracle takes. For a mode-mixed x
squeezed pair the relative phase exp(-i (psi_b - psi_a) n1) splits into a
factor constant on each mixer sector (in n1 + n2) and one constant on each
squeezer sector (in n1 - n2); each commutes past its own device's O and
drops as well, so that pair's products and singular value decompositions
are real.

A mode-mixed x squeezed pair shares no sectoring, but a mixer sector
(fixed T = n1 + n2) and a squeezer sector (fixed K = n1 - n2) share at
most one flat index, m = ((T + K)/2, (T - K)/2) when that lies on the
d x d grid. So every entry of the product Oa^T Ob of the pair's real
orthogonal factors is a single product, not a sum:
(Oa^T Ob)_ij = Oa[m, i] Ob[m, j] for the m shared by the sectors of i
and j, and exactly zero when there is none. Both devices
keep the parity of n1 + n2 (the mixer keeps n1 + n2, the squeezer
changes it by 2), so the product splits into the two parity classes, of
ceil(D/2) and floor(D/2) indices, and the fidelity takes one singular
value decomposition per class. The same identity gives the squared
entries as (Oa o Oa)^T (Ob o Ob), o the elementwise product, so the
squared row norms of the weighted product M = sqrt(Wa) (Oa^T Ob) sqrt(Wb)
are wa o ((Oa o Oa)^T ((Ob o Ob) wb)) and its column norms likewise:
sector-block work, O(d^3), with no product formed. Their sum is the
overlap Tr(rho_a rho_b).

The thermal weights decay geometrically, so most of M lies below
roundoff. Each class drops the lightest rows of M while their 2-norms sum
to at most u ||M||_F / 2, u = 2^-53 the unit roundoff, then the lightest
columns of what remains under the same budget, all read off those norms;
only the kept block of Oa^T Ob is gathered, one product per entry, and
decomposed. Removing rows or columns raises no singular value
(interlacing) and, by the triangle inequality, lowers the trace norm by
at most the trace norm of what is removed; a removed row or column has
rank one, so its trace norm is its 2-norm; and ||M||_1 >= ||M||_F. So
each class's trace norm moves by at most u ||M||_1. The budget is fixed
by u and is not an option; the overlap is not pruned.

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

from .errors import TruncationError, ValidationError
from .states import MTS, STS, FamilyPoint, MtsParams, StsParams, _check_occupancies

DEFAULT_MAX_DEFICIT = 1e-6
DEFAULT_MAX_DEFECT = 1e-8
UNIT_ROUNDOFF = 2.0 ** -53

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
    mode-mixed x squeezed pair gathers at most one real block per parity
    class of n1 + n2, of at most ceil(D/2) indices, since both device
    phases drop out of its products.
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


def _thermal_weights(n: float, d: int) -> np.ndarray:
    """Geometric photon-number weights n^k / (n+1)^(k+1), k < d; the
    callers check n and d."""
    k = np.arange(d)
    if n == 0.0:
        w = np.zeros(d)
        w[0] = 1.0
        return w
    return np.exp(k * math.log(n) - (k + 1) * math.log(n + 1.0))


def _check_truncation(d) -> int:
    """The per-mode truncation as an int; it must be an integer of at least 2."""
    # chained so that NaN and inf fail before int() sees them
    if not (2 <= d < math.inf and int(d) == d):
        raise ValidationError("per-mode truncation must be an integer of at least 2")
    return int(d)


def _thermal_spectrum(n1: float, n2: float, d: int, max_deficit: float):
    """(d as an int, product thermal weights, trace deficit), checked."""
    _check_occupancies(n1, n2)
    d = _check_truncation(d)
    # a NaN bound would pass every deficit, a negative one refuse every state
    if not max_deficit >= 0.0:
        raise ValidationError("max_deficit must be a non-negative number")
    w = np.kron(_thermal_weights(n1, d), _thermal_weights(n2, d))
    deficit = 1.0 - w.sum()
    if deficit > max_deficit:
        raise TruncationError(
            f"trace deficit {deficit:.3e} exceeds {max_deficit:.1e}; raise d"
        )
    return d, w, deficit


def thermal_dm(n1: float, n2: float, d: int,
               max_deficit: float = DEFAULT_MAX_DEFICIT) -> FockDensity:
    """Two-mode thermal state as a product of geometric mixtures."""
    d, w, deficit = _thermal_spectrum(n1, n2, d, max_deficit)
    return FockDensity(d=d, spectrum=w, trace_deficit=deficit)


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm deviation of u^dag u from the identity; for a stack of
    matrices, the largest over the stack."""
    dim = u.shape[-1]
    return float(np.abs(np.swapaxes(u, -1, -2).conj() @ u - np.eye(dim)).max())


# Degree-13 Pade approximant r13 = q13(A)^-1 p13(A) of exp(A), with
# p13(A) = sum_k b_k A^k, b_k = (26 - k)! / (k! (13 - k)!), and
# q13(A) = p13(-A), and the largest 1-norm at which it reaches unit-roundoff
# backward error unscaled: Higham, SIAM J. Matrix Anal. Appl. 26, 1179
# (2005), eq. (2.2) and Table 2.3. Every b_k is an integer that float64
# holds exactly.
_PADE13 = tuple(float(math.factorial(26 - k) // (math.factorial(k) * math.factorial(13 - k)))
                for k in range(14))
_THETA13 = 5.371920351148152
_STACK_STEP = 8  # stacked sector generators are zero-padded to a multiple of this


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """exp of each slice of a real (B, m, m) stack.

    Scaling and squaring with the degree-13 Pade approximant, evaluated in
    Higham's six-product form and one batched solve; each slice is scaled
    by its own power of two, chosen from its own 1-norm, and squared back
    that many times. An index whose row and column of a slice are zero is
    decoupled, and its exponential is 1: its diagonal entry of V -/+ U is
    set to 1 instead of b_0, so that the solve returns exactly 1 there.
    """
    norms = np.abs(a).sum(axis=1).max(axis=1)
    squarings = np.ceil(np.log2(np.maximum(norms / _THETA13, 1.0))).astype(int)
    a = np.ldexp(a, -squarings[:, None, None])
    b = _PADE13
    count, m, _ = a.shape
    eye = np.eye(m)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    # p13(A) = V + U and q13(A) = V - U, V even and U odd in A
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    coupled = a.any(axis=1) | a.any(axis=2)
    v.reshape(count, m * m)[:, ::m + 1] += np.where(coupled, b[0], 1.0)
    x = np.linalg.solve(v - u, v + u)
    for k in range(squarings.max(initial=0)):
        left = squarings > k
        x[left] = x[left] @ x[left]
    return x


@lru_cache(maxsize=None)
def _ladder_stacks(d: int, conserved: str):
    """Unit-coupling sector generators, zero-padded into a few stacks.

    Returns (positions, stack) pairs: ``stack[j]`` holds, in its leading
    corner, the generator of sector ``sectors(d, conserved)[positions[j]]``
    at coupling 1, and zeros elsewhere; sectors are grouped by their size
    rounded up to a multiple of ``_STACK_STEP``. Within a sector, ordered by
    ascending n1, the generator links only neighbouring states, so each
    generator is tridiagonal and antisymmetric: superdiagonal
    sqrt(m1 m2), subdiagonal its negative. sqrt(m1 m2) is the ladder
    amplitude between neighbours j and j + 1. In a TOTAL sector j + 1 holds
    one photon more in mode 1 and one fewer in mode 2, so m1 is n1 of j + 1
    and m2 is n2 of j; in a DIFFERENCE sector j + 1 holds one more in each
    mode, so both are read off j + 1, and the sectors n1 - n2 = k and -k,
    which swap the two modes, hold the same generator: only the d sectors
    with k >= 0 are stacked.
    """
    every = sectors(d, conserved)
    positions = range(len(every)) if conserved == TOTAL else range(d - 1, 2 * d - 1)
    padded = {}
    for p in positions:
        padded.setdefault(-(-len(every[p]) // _STACK_STEP) * _STACK_STEP, []).append(p)
    out = []
    for m, group in sorted(padded.items()):
        stack = np.zeros((len(group), m, m))
        for j, p in enumerate(group):
            n1, n2 = np.divmod(every[p], d)
            ladder = n2[:-1] if conserved == TOTAL else n2[1:]
            upper = np.sqrt(n1[1:] * ladder)
            step = np.arange(len(upper))
            stack[j, step, step + 1] = upper
            stack[j, step + 1, step] = -upper
        stack.flags.writeable = False
        out.append((tuple(group), stack))
    return tuple(out)


def _sector_unitaries(d: int, conserved: str, coupling: float):
    """(real orthogonal exp of each sector block, the exponentiated stacks).

    The generator is ``coupling`` times the unit-coupling stacks of
    ``_ladder_stacks``; each stack is exponentiated in one real pass of
    ``_expm_stack`` and the blocks are its leading corners. The zero pad
    exponentiates to exactly the identity, with exactly zero off-diagonal
    blocks: every power of the slice is zero on the pad rows and columns,
    so V - U and V + U hold exactly the identity there (see
    ``_expm_stack``); partial pivoting never picks a pad row, which is zero
    in every block column, a unit pivot divides exactly, and squaring keeps
    the identity. A DIFFERENCE sector n1 - n2 = -k reuses the block of k.
    """
    every = sectors(d, conserved)
    blocks = [None] * len(every)
    stacks = []
    for group, unit in _ladder_stacks(d, conserved):
        x = _expm_stack(coupling * unit)
        stacks.append(x)
        for j, p in enumerate(group):
            size = len(every[p])
            blocks[p] = x[j, :size, :size]
    if conserved == DIFFERENCE:
        # sectors k = 0, ..., d - 1 sit at positions d - 1 + k
        blocks[:d - 1] = blocks[:d - 1:-1]
    return tuple(blocks), stacks


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
    return _sector_unitaries(d, TOTAL, 0.5 * theta)[0]


def _sq_blocks(r: float, phi: float, d: int, max_defect: float):
    StsParams(0.0, 0.0, r, phi)  # range validation
    if not max_defect >= 0.0:
        raise ValidationError("max_defect must be a non-negative number")
    # generator r (e^{i phi} a1^dag a2^dag - e^{-i phi} a1 a2);
    # its phase is gauged out as psi = -phi
    blocks, stacks = _sector_unitaries(d, DIFFERENCE, -r)
    # O is block-diagonal, so its defect is the largest block defect; the
    # blocks of n1 - n2 < 0 repeat those of n1 - n2 > 0, and the stacks hold
    # the blocks of n1 - n2 >= 0 plus exact identity pads, which add nothing
    defect = max(unitarity_defect(x) for x in stacks)
    if defect > max_defect:
        raise TruncationError(
            f"unitarity defect {defect:.3e} exceeds {max_defect:.1e}; raise d"
        )
    return blocks


def bs_unitary(theta: float, phi: float, d: int) -> np.ndarray:
    """Mode-mixing unitary on the truncated two-mode Fock space."""
    d = _check_truncation(d)
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
    d = _check_truncation(d)
    return _gauged(d, DIFFERENCE, _sq_blocks(r, phi, d, max_defect), -phi)


def family_dm(point: FamilyPoint, d: int,
              max_deficit: float = DEFAULT_MAX_DEFICIT) -> FockDensity:
    """Spectral record of a family point's truncated density matrix."""
    p = point.params
    if point.tag not in (MTS, STS):
        return thermal_dm(p.n1, p.n2, d, max_deficit=max_deficit)
    d, w, thermal_deficit = _thermal_spectrum(p.n1, p.n2, d, max_deficit)
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
    """(row indices, column indices, block) of Ua^dag Ub, up to outer
    diagonal phases, for each piece of a pair's product.

    Ua^dag Ub = Pa (Oa^T Pa^dag Pb Ob) Pb^dag, and the outer Pa, Pb^dag
    commute with the spectra, so only the middle product is formed. States
    that share a sectoring give one piece per sector, with rows = cols = the
    sector; a state without blocks is diagonal in the Fock basis and fits
    either sectoring. A mode-mixed x squeezed pair shares neither, but each
    of its sectors lies inside one parity class of n1 + n2, so it gives one
    real piece of Oa^T Ob per parity class (the relative phase commutes
    outward, see the module notes). A mixer sector and a squeezer sector
    share at most one flat index, so every entry of Oa^T Ob is a single
    product Oa[m, i] Ob[m, j] (see ``_cross_entries``). Of each class only
    the rows and columns that survive the unit-roundoff pruning of
    sqrt(Wa) (Oa^T Ob) sqrt(Wb) are kept, chosen from norms taken sector
    block by sector block (see the module notes), and only the kept block
    is formed; a class that is exactly zero there is dropped whole.
    """
    if _is_cross(rho_a, rho_b):
        yield from _cross_blocks(rho_a, rho_b)
        return
    d = rho_a.d
    conserved = rho_a.conserved or rho_b.conserved or TOTAL
    # a state without blocks is diagonal, so the other's phase drops as well
    both = rho_a.blocks is not None and rho_b.blocks is not None
    shift = rho_b.phase - rho_a.phase if both else 0.0
    for idx, oa, ob in zip(sectors(d, conserved),
                           _orthogonal_blocks(rho_a, conserved),
                           _orthogonal_blocks(rho_b, conserved)):
        if shift:
            ob = np.exp(-1j * shift * (idx // d))[:, None] * ob
        yield idx, idx, oa.T @ ob


def _is_cross(rho_a: FockDensity, rho_b: FockDensity) -> bool:
    """Whether the pair is mode-mixed x squeezed; refuses unequal truncations."""
    if rho_a.d != rho_b.d:
        raise ValidationError("density matrices have incompatible truncations")
    return len({rho_a.conserved, rho_b.conserved} - {None}) > 1


def _squares_times(rho: FockDensity, v: np.ndarray, transpose: bool = False):
    """(O o O) v, or (O o O)^T v, over the flat indices, sector by sector;
    o is the elementwise product."""
    out = np.empty_like(v)
    for idx, o in zip(sectors(rho.d, rho.conserved), rho.blocks):
        sq = o * o
        out[idx] = (sq.T if transpose else sq) @ v[idx]
    return out


def _cross_row_norms(rho_a: FockDensity, rho_b: FockDensity,
                     wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Squared row 2-norms of sqrt(diag wa) (Oa^T Ob) sqrt(diag wb) for a
    mode-mixed x squeezed pair, over all flat indices.

    Every entry of Oa^T Ob is one product Oa[m, i] Ob[m, j], so its square
    is that of (Oa o Oa)^T (Ob o Ob), o the elementwise product, and the
    row norms are wa o ((Oa o Oa)^T ((Ob o Ob) wb)): sector-block work
    only, no product is formed. The column norms are the row norms of the
    swapped pair.
    """
    return wa * _squares_times(rho_a, _squares_times(rho_b, wb), transpose=True)


def _cross_blocks(rho_a: FockDensity, rho_b: FockDensity):
    """The pruned parity-class pieces of a mode-mixed x squeezed pair."""
    wa, wb = rho_a.spectrum, rho_b.spectrum
    row_sq = _cross_row_norms(rho_a, rho_b, wa, wb)
    classes = sectors(rho_a.d, PARITY)
    budgets = [0.5 * UNIT_ROUNDOFF * math.sqrt(row_sq[idx].sum()) for idx in classes]
    kept_rows = [idx[_heavy(np.sqrt(row_sq[idx]), budget)]
                 for idx, budget in zip(classes, budgets)]
    # column norms over the kept rows only: wa is zeroed on the others;
    # the two classes do not mix, so both are taken at once
    kept_wa = np.zeros_like(wa)
    for rows in kept_rows:
        kept_wa[rows] = wa[rows]
    col_sq = _cross_row_norms(rho_b, rho_a, wb, kept_wa)
    columns_a, columns_b = _columns_by_n1(rho_a), _columns_by_n1(rho_b)
    for idx, budget, rows in zip(classes, budgets, kept_rows):
        if rows.size:
            cols = idx[_heavy(np.sqrt(col_sq[idx]), budget)]
            yield rows, cols, _cross_entries(columns_a, columns_b, rows, cols)


def _columns_by_n1(rho: FockDensity):
    """(conserved number of each flat index, table) of one device state.

    Row x of the (D, d + 1) table holds column x of O, each entry placed
    by the n1 of its row index; the last column and every n1 outside
    x's sector hold zero. The conserved number is n1 + n2 or n1 - n2.
    """
    d = rho.d
    n1, n2 = np.divmod(np.arange(d * d), d)
    table = np.zeros((d * d, d + 1))
    for idx, o in zip(sectors(d, rho.conserved), rho.blocks):
        first = idx[0] // d  # n1 ascends by one within a sector
        table[idx, first:first + len(idx)] = o.T
    return (n1 + n2 if rho.conserved == TOTAL else n1 - n2), table


def _cross_entries(columns_a, columns_b, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Oa^T Ob on the given flat rows and columns of one parity class.

    Row i lies in the sector of Oa with conserved number s_i, column j in
    the sector of Ob with t_j; one of the two is n1 + n2, the other
    n1 - n2, so the two sectors share at most the flat index m with
    n1 = (s_i + t_j) / 2, and the entry is the single product
    Oa[m, i] Ob[m, j]. It is exactly zero when no such m lies on the
    d x d grid: one of the sectors then holds no index with that n1,
    and its table holds zero there (``_columns_by_n1``).
    """
    (key_a, table_a), (key_b, table_b) = columns_a, columns_b
    d = table_a.shape[1] - 1
    n1 = (key_a[rows, None] + key_b[None, cols]) // 2
    n1[(n1 < 0) | (n1 >= d)] = d
    block = np.take_along_axis(table_a[rows], n1, axis=1)
    block *= np.take_along_axis(table_b[cols], n1.T, axis=1).T
    return block


def _heavy(norms: np.ndarray, budget: float) -> np.ndarray:
    """Ascending positions left once the smallest ``norms`` are dropped
    while their sum stays at most ``budget``."""
    order = np.argsort(norms, kind="stable")
    light = np.searchsorted(np.cumsum(norms[order]), budget, side="right")
    return np.sort(order[light:])


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
    per parity class of n1 + n2 for a mode-mixed x squeezed pair. That
    class piece M is cut to the rows and columns whose removal moves its
    trace norm by at most u ||M||_1 (u = 2^-53, see the module notes), so
    the fidelity moves by a relative 2u at most; they are chosen from row
    and column norms taken from the sector blocks, and only the kept
    block is gathered and decomposed.
    """
    sqrt_a = np.sqrt(rho_a.spectrum)
    sqrt_b = np.sqrt(rho_b.spectrum)
    return sum(_trace_norm(sqrt_a[rows, None] * block * sqrt_b[None, cols])
               for rows, cols, block in _inner_blocks(rho_a, rho_b)) ** 2


def _trace_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def overlap_fock(rho_a: FockDensity, rho_b: FockDensity) -> float:
    """Tr(rho_a rho_b) on the truncated space.

    Tr(Ua Wa Ua^dag Ub Wb Ub^dag) = sum_ij Wa_i |(Ua^dag Ub)_ij|^2 Wb_j.
    Pairs that share a sectoring sum it over the pieces of
    ``_inner_blocks``. A mode-mixed x squeezed pair forms no product: the
    sum is that of the squared row norms of sqrt(Wa) (Oa^T Ob) sqrt(Wb),
    taken from the sector blocks (``_cross_row_norms``) without pruning.
    """
    if _is_cross(rho_a, rho_b):
        return float(_cross_row_norms(rho_a, rho_b, rho_a.spectrum, rho_b.spectrum).sum())
    return float(sum(rho_a.spectrum[rows] @ np.abs(block) ** 2 @ rho_b.spectrum[cols]
                     for rows, cols, block in _inner_blocks(rho_a, rho_b)))


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
    s1 = np.sqrt(_thermal_weights(n1a, n_terms) * _thermal_weights(n1b, n_terms)).sum()
    s2 = np.sqrt(_thermal_weights(n2a, n_terms) * _thermal_weights(n2b, n_terms)).sum()
    return float((s1 * s2) ** 2)
