"""Truncated Fock-space oracle for the family states.

States live on a d x d per-mode photon-number grid (total dimension
D = d^2, flat index n1 * d + n2). Each device generator conserves one
photon-number combination: the mode mixer conserves n1 + n2, the two-mode
squeezer n1 - n2. Grouping the flat indices by that number splits the
truncated space into 2d - 1 sectors of sizes 1, 2, ..., d, ..., 2, 1. The
truncated generator couples only neighbouring states of one sector, so it
is a direct sum of tridiagonal sector blocks; the squeezer's sectors
n1 - n2 = k and -k swap the two modes and share one block.

All couplings of one generator share one phase, and n1 rises by one per
step within every sector, so each device unitary is U = P O P^dag with a
real orthogonal O and P = diag(exp(-i psi n1)); psi is phi for the mixer
and -phi for the squeezer. O is the exponential of the same sector blocks
with a real coupling. The blocks are zero-padded into a few stacks of
equal size, and each stack is exponentiated in one batched real pass:
scaling and squaring with the degree-13 Pade approximant (Higham 2005),
each block scaled by its own power of two. The pad exponentiates to
exactly the identity and leaks into no block. A state is held as its
thermal spectrum plus those exponentiated stacks, never as a dense
D x D density matrix, and every operation reads the stacks whole: a table
per (d, conserved) maps each slice to its sector's flat indices, and each
pad to a sentinel index whose weight is zero; the squeezer's slice k
serves the sectors +k and -k through two tables. A thermal state reads
as identity stacks, on either sectoring.

Diagonal factors commute with the thermal spectra and drop out of every
trace norm and |.|^2 the oracle takes. For a pair on one sectoring, Ua^dag
Ub leaves the middle product Oa^T diag(exp(-i (psi_b - psi_a) n1)) Ob;
within a sector n1 is its first value plus the position j in the slice,
and the constant factor drops, so each stack gives one batched product
Xa^T diag(exp(-i (psi_b - psi_a) j)) Xb of the two states' stacks, taken
as two real products (one when the phases agree or a state is thermal),
and the sectors +k and -k share it. For a mode-mixed x squeezed pair the
relative phase exp(-i (psi_b - psi_a) n1) splits into a factor constant on
each mixer sector (in n1 + n2) and one constant on each squeezer sector
(in n1 - n2); each commutes past its own device's O and drops as well, so
that pair's products and singular value decompositions are real.

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
entries as (Oa o Oa)^T (Ob o Ob), o the elementwise product.

One pair evaluator serves both the fidelity and the overlap: it checks
the truncations, picks the case, and returns S, the squared moduli of
the product (or (Oa o Oa)^T (Ob o Ob)), as the operators v -> S v and
v -> S^T v. The squared row norms of the weighted product
M = sqrt(Wa) (Oa^T Ob) sqrt(Wb), phases included, are wa o (S wb), and
its column norms likewise; the overlap Tr(rho_a rho_b) is the unpruned
sum of those row norms, and the pruning below reads the same norms. The
thermal weights decay geometrically, so most of M lies below roundoff. The
pruning drops the lightest rows of M while their 2-norms sum to at most
u ||M||_F / 2, u = 2^-53 the unit roundoff, then the lightest columns of
what remains under the same budget, all read off those norms; a
mode-mixed x squeezed pair does so per parity class, a pair on one
sectoring over all its sectors at once. Only the kept rows and columns
are gathered and decomposed: per class, or per stack as one batch of
sector blocks. Removing rows or columns raises no singular value
(interlacing) and, by the triangle inequality, lowers the trace norm by
at most the trace norm of what is removed; a removed row or column has
rank one, so its trace norm is its 2-norm; and ||M||_1 >= ||M||_F. So
the trace norm moves by at most u ||M||_1. The budget is fixed by u and
is not an option.

The mixer's truncation is exact on the sectors n1 + n2 < d, which the
truncation keeps whole; the squeezer's sectors are cut where the true
operator would climb past d - 1 photons, so it leaks probability through
the truncation boundary. This module backs tests and the ``oracle`` CLI
command only; the closed-form library never calls into it.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import TruncationError, ValidationError
from .states import MTS, STS, FamilyPoint, _check_occupancies

DEFAULT_MAX_DEFICIT = 1e-6
UNIT_ROUNDOFF = 2.0 ** -53

TOTAL = "n1+n2"       # conserved by the mode mixer
DIFFERENCE = "n1-n2"  # conserved by the two-mode squeezer
PARITY = "(n1+n2)%2"  # conserved by both


@dataclass(frozen=True, eq=False)
class FockDensity:
    """Truncated density matrix U diag(spectrum) U^dag, kept spectral.

    U = P O P^dag, where O is the real orthogonal direct sum of the sector
    blocks in ``stacks``, laid out by ``_stack_tables(d, conserved)``, and
    P = diag(exp(-i phase n1)) over the flat indices; U is the identity
    when ``stacks`` is None (a thermal state), which reads as identity
    stacks on either sectoring. No dense D x D matrix is stored: fidelities
    and overlaps are computed from the spectrum and the stacks, one batched
    product per stack for a pair on one sectoring, and a mode-mixed x
    squeezed pair gathers at most one real block per parity class of
    n1 + n2, of at most ceil(D/2) indices, since both device phases drop
    out of its products. Either way only the rows and columns that survive
    the unit-roundoff pruning are decomposed. Records compare and hash by
    identity.
    """

    d: int
    spectrum: np.ndarray
    trace_deficit: float
    conserved: str | None = None
    stacks: tuple[np.ndarray, ...] | None = None
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
def _stack_tables(d: int, conserved: str) -> tuple[np.ndarray, ...]:
    """Flat indices of the slices of each padded stack.

    One read-only (sides, slices, m) integer table per stack. The sectors
    are grouped by their size rounded up to a multiple of ``_STACK_STEP``,
    one stack per group, in ascending conserved number. Slice j of a stack
    holds one sector's block in its leading corner, rows and columns in
    ascending n1, and ``table[side, j]`` holds that sector's flat indices
    there and the sentinel D = d^2 on the pad; every weight vector is read
    with a zero appended at D. TOTAL stacks all 2d - 1 sectors, on one
    side. The squeezer's sectors n1 - n2 = k and -k swap the two modes and
    hold the same block, so DIFFERENCE stacks k = 0, ..., d - 1 on two
    sides: side 0 maps slice k to the sector +k, side 1 to -k, and side 1
    of k = 0 is all sentinel, so that the sector 0 is read once.
    """
    n1, n2 = np.divmod(np.arange(d * d), d)
    if conserved == TOTAL:
        label, side = n1 + n2, np.zeros_like(n1)
        size = d - np.abs(label - (d - 1))
        position = n1 - np.maximum(label - (d - 1), 0)
    else:
        label, side = np.abs(n1 - n2), (n1 < n2).astype(n1.dtype)
        size = d - label
        position = np.minimum(n1, n2)
    padded = -(-size // _STACK_STEP) * _STACK_STEP
    out = []
    for m in np.unique(padded):
        member = padded == m
        labels = np.unique(label[member])
        table = np.full((1 if conserved == TOTAL else 2, len(labels), m), d * d)
        table[side[member], np.searchsorted(labels, label[member]),
              position[member]] = np.flatnonzero(member)
        table.flags.writeable = False
        out.append(table)
    return tuple(out)


@lru_cache(maxsize=None)
def _ladder_stacks(d: int, conserved: str) -> tuple[np.ndarray, ...]:
    """Unit-coupling sector generators, zero-padded into the stacks of
    ``_stack_tables``.

    Within a sector, ordered by ascending n1, the generator links only
    neighbouring states, so each generator is tridiagonal and
    antisymmetric: superdiagonal sqrt(m1 m2), subdiagonal its negative.
    sqrt(m1 m2) is the ladder amplitude between neighbours j and j + 1. In
    a TOTAL sector j + 1 holds one photon more in mode 1 and one fewer in
    mode 2, so m1 is n1 of j + 1 and m2 is n2 of j; in a DIFFERENCE sector
    j + 1 holds one more in each mode, so both are read off j + 1. The pad
    is zero.
    """
    out = []
    for table in _stack_tables(d, conserved):
        idx = table[0]
        n1, n2 = np.divmod(idx, d)
        ladder = n2[:, :-1] if conserved == TOTAL else n2[:, 1:]
        upper = np.where(idx[:, 1:] < d * d, np.sqrt(n1[:, 1:] * ladder), 0.0)
        step = np.arange(idx.shape[1] - 1)
        stack = np.zeros(idx.shape + idx.shape[1:])
        stack[:, step, step + 1] = upper
        stack = stack - np.swapaxes(stack, 1, 2)
        stack.flags.writeable = False
        out.append(stack)
    return tuple(out)


@lru_cache(maxsize=None)
def _identity_stacks(d: int, conserved: str) -> tuple[np.ndarray, ...]:
    """Read-only identity stacks in the layout of ``_stack_tables``; a
    thermal state's O on that sectoring."""
    return tuple(np.broadcast_to(np.eye(t.shape[2]), t.shape[1:] + t.shape[2:])
                 for t in _stack_tables(d, conserved))


def _stacks(rho: FockDensity, conserved: str) -> tuple[np.ndarray, ...]:
    """The exponentiated stacks of a state, identity stacks for a thermal one."""
    return _identity_stacks(rho.d, conserved) if rho.stacks is None else rho.stacks


def _sector_unitaries(d: int, conserved: str, coupling: float) -> tuple[np.ndarray, ...]:
    """Real orthogonal exp of each sector block, as exponentiated stacks.

    The generator is ``coupling`` times the unit-coupling stacks of
    ``_ladder_stacks``; each stack is exponentiated in one real pass of
    ``_expm_stack`` and the blocks are its leading corners. The zero pad
    exponentiates to exactly the identity, with exactly zero off-diagonal
    blocks: every power of the slice is zero on the pad rows and columns,
    so V - U and V + U hold exactly the identity there (see
    ``_expm_stack``); partial pivoting never picks a pad row, which is zero
    in every block column, a unit pivot divides exactly, and squaring keeps
    the identity.
    """
    return tuple(_expm_stack(coupling * unit) for unit in _ladder_stacks(d, conserved))


def _assemble(d: int, conserved: str, stacks) -> np.ndarray:
    """Dense D x D real O, the direct sum of the blocks in ``stacks``."""
    out = np.zeros((d * d + 1, d * d + 1))
    for table, x in zip(_stack_tables(d, conserved), stacks):
        # pads land in the sentinel row and column, cut off below
        out[table[..., :, None], table[..., None, :]] = x
    return out[:-1, :-1]


def _gauged(rho: FockDensity) -> np.ndarray:
    """Dense device unitary P O P^dag of a device state's record,
    P = diag(exp(-i phase n1))."""
    d = rho.d
    p = np.exp(-1j * rho.phase * (np.arange(d * d) // d))
    return p[:, None] * _assemble(d, rho.conserved, rho.stacks) * p.conj()[None, :]


def bs_unitary(theta: float, phi: float, d: int) -> np.ndarray:
    """Mode-mixing unitary on the truncated two-mode Fock space: the dense
    P O P^dag of the ``family_dm`` record of the mode-mixed vacuum."""
    return _gauged(family_dm(FamilyPoint.mts(0.0, 0.0, theta, phi), d))


def sq_unitary(r: float, phi: float, d: int) -> np.ndarray:
    """Two-mode squeeze operator on the truncated space: the dense P O P^dag
    of the ``family_dm`` record of the squeezed vacuum.

    The truncated generator is a direct sum of real antisymmetric sector
    blocks, so O is orthogonal up to the roundoff of the Pade kernel:
    ``test_blocks_match_complex_expm`` bounds the unitarity defect of every
    block at d = 40 by 5e-14, and a state's ``trace_deficit`` is at least
    1 - Tr(O W O^T), where a loss of orthogonality would show. Squeezing
    does not conserve photon number, so the matrix represents the true
    operator faithfully only on states far from the truncation boundary.
    """
    return _gauged(family_dm(FamilyPoint.sts(0.0, 0.0, r, phi), d))


def family_dm(point: FamilyPoint, d: int,
              max_deficit: float = DEFAULT_MAX_DEFICIT) -> FockDensity:
    """Spectral record of a family point's truncated density matrix.

    A device state's unitary is P O P^dag (see the module notes); its
    record holds the sectoring, the exponentiated stacks of O at the
    device's real coupling, and the phase psi of P.
    """
    p = point.params
    d = _check_truncation(d)
    # a NaN bound would pass every deficit, a negative one refuse every state
    if not max_deficit >= 0.0:
        raise ValidationError("max_deficit must be a non-negative number")
    w = np.kron(_thermal_weights(p.n1, d), _thermal_weights(p.n2, d))
    thermal_deficit = 1.0 - w.sum()
    if thermal_deficit > max_deficit:
        raise TruncationError(
            f"trace deficit {thermal_deficit:.3e} exceeds {max_deficit:.1e}; raise d"
        )
    if point.tag == MTS:
        # generator (theta/2)(e^{i phi} a1 a2^dag - e^{-i phi} a1^dag a2)
        conserved, coupling, psi = TOTAL, 0.5 * p.theta, p.phi
    elif point.tag == STS:
        # generator r (e^{i phi} a1^dag a2^dag - e^{-i phi} a1 a2)
        conserved, coupling, psi = DIFFERENCE, -p.r, -p.phi
    else:
        return FockDensity(d=d, spectrum=w, trace_deficit=thermal_deficit)
    stacks = _sector_unitaries(d, conserved, coupling)
    # conjugation preserves the trace; the honest deficit is the thermal one.
    # Tr(U W U^dag) sums the squared column norms of O weighted by w, one
    # reduction per stack; the pads read the zero weight of the sentinel
    w_pad = np.append(w, 0.0)
    trace = sum(float(((x * x).sum(axis=1) * w_pad[table]).sum())
                for table, x in zip(_stack_tables(d, conserved), stacks))
    deficit = max(1.0 - trace, thermal_deficit)
    return FockDensity(d=d, spectrum=w, trace_deficit=deficit,
                       conserved=conserved, stacks=stacks, phase=psi)


def _pair(rho_a: FockDensity, rho_b: FockDensity):
    """(S v, S^T v, classes, pieces) of a pair; refuses unequal truncations.

    Ua^dag Ub = Pa (Oa^T Pa^dag Pb Ob) Pb^dag, and the outer Pa, Pb^dag
    commute with the spectra, so only the middle product matters. S holds
    the squared moduli of its entries: the squared stack products
    (``_sector_products``) for states that share a sectoring, a thermal
    state fitting either; (Oa o Oa)^T (Ob o Ob), o the elementwise product,
    for a mode-mixed x squeezed pair, applied from each state's squared
    stacks with no product formed. The squared row norms of
    M = sqrt(Wa) (middle product) sqrt(Wb) are then wa o (S wb), and the
    overlap is their sum. ``classes`` are the index sets pruned apart (all
    flat indices, or the two parity classes of n1 + n2), and
    ``pieces(rows, cols)`` yields (row indices, column indices, block) of
    the middle product on each class's kept rows and columns, up to outer
    diagonal phases: a batch of sector blocks per stack
    (``_sector_blocks``), or one real block per parity class
    (``_cross_blocks``; the relative phase commutes outward, see the
    module notes).
    """
    if rho_a.d != rho_b.d:
        raise ValidationError("density matrices have incompatible truncations")
    d = rho_a.d
    if len({rho_a.conserved, rho_b.conserved} - {None}) < 2:
        tables, products, squares = _sector_products(rho_a, rho_b)
        return (partial(_stack_times, tables, squares),
                partial(_stack_times, tables, squares, transpose=True),
                (np.arange(d * d),), partial(_sector_blocks, d, tables, products))
    a, b = ((_stack_tables(d, rho.conserved), [x * x for x in rho.stacks])
            for rho in (rho_a, rho_b))
    return (lambda v: _stack_times(*a, _stack_times(*b, v), transpose=True),
            lambda v: _stack_times(*b, _stack_times(*a, v), transpose=True),
            sectors(d, PARITY), partial(_cross_blocks, rho_a, rho_b))


def _stack_times(tables, squares, v: np.ndarray, transpose: bool = False) -> np.ndarray:
    """S v, or S^T v, over the flat indices, S the direct sum of the sector
    blocks in the stacks ``squares`` laid out by ``tables``: one batched
    product per stack. v is read with a zero appended at the sentinel, so
    the pads add nothing."""
    v = np.append(v, 0.0)
    out = np.empty_like(v)
    for table, sq in zip(tables, squares):
        if transpose:
            sq = np.swapaxes(sq, 1, 2)
        out[table] = (sq @ v[table][..., None])[..., 0]
    return out[:-1]


def _sector_products(rho_a: FockDensity, rho_b: FockDensity):
    """(tables, products, squared moduli) of a pair on one sectoring.

    Per stack the product Xa^T diag(exp(-i shift j)) Xb of the two states'
    stacks, j the position in the slice and shift = psi_b - psi_a (see the
    module notes), held as its real part, or as its real part and the real
    product Xa^T diag(sin(shift j)) Xb, which is minus its imaginary part.
    A thermal state reads as identity stacks, and the phase of its partner
    drops with it. Slice k of a squeezer stack serves the sectors +k and
    -k through the two sides of its table.
    """
    conserved = rho_a.conserved or rho_b.conserved or TOTAL
    # a state without stacks is diagonal, so the other's phase drops as well
    both = rho_a.stacks is not None and rho_b.stacks is not None
    shift = rho_b.phase - rho_a.phase if both else 0.0
    products = []
    for xa, xb in zip(_stacks(rho_a, conserved), _stacks(rho_b, conserved)):
        xat = np.swapaxes(xa, 1, 2)
        if shift:
            j = shift * np.arange(xb.shape[1])[:, None]
            products.append((xat @ (np.cos(j) * xb), xat @ (np.sin(j) * xb)))
        else:
            products.append((xat @ xb,))
    squares = [sum(part * part for part in parts) for parts in products]
    return _stack_tables(rho_a.d, conserved), products, squares


def _sector_blocks(d: int, tables, products, class_rows, class_cols):
    """The kept pieces of a pair on one sectoring, one batch per stack.

    ``class_rows`` and ``class_cols`` hold the kept rows and columns of its
    one class, all flat indices. Each stack's live sectors, those that keep
    a row and a column, are cut to their kept rows and columns, moved to
    the front, and padded with the sentinel to the longest kept count of
    the stack.
    """
    (rows,), (cols,) = class_rows, class_cols
    kept_rows, kept_cols = np.zeros((2, d * d + 1), dtype=bool)
    kept_rows[rows] = kept_cols[cols] = True
    for table, parts in zip(tables, products):
        live = kept_rows[table].any(axis=2) & kept_cols[table].any(axis=2)
        if not live.any():
            continue
        idx = table[live]
        (row_at, row_idx), (col_at, col_idx) = (_kept_first(kept[idx], idx, d * d)
                                                for kept in (kept_rows, kept_cols))
        gather = np.nonzero(live)[1][:, None, None], row_at[:, :, None], col_at[:, None, :]
        block = parts[0][gather]
        if len(parts) > 1:
            block = block - 1j * parts[1][gather]
        yield row_idx, col_idx, block


def _kept_first(kept: np.ndarray, idx: np.ndarray, sentinel: int):
    """(positions, flat indices) of each row's kept entries, moved to the
    front in ascending position and padded to the longest kept count with
    dropped positions, whose index is the sentinel."""
    at = np.argsort(~kept, axis=1, kind="stable")[:, :kept.sum(axis=1).max()]
    return at, np.where(np.take_along_axis(kept, at, axis=1),
                        np.take_along_axis(idx, at, axis=1), sentinel)


def _cross_blocks(rho_a: FockDensity, rho_b: FockDensity, kept_rows, kept_cols):
    """The kept parity-class pieces of a mode-mixed x squeezed pair."""
    columns_a, columns_b = _columns_by_n1(rho_a), _columns_by_n1(rho_b)
    for rows, cols in zip(kept_rows, kept_cols):
        if rows.size:
            yield rows, cols, _cross_entries(columns_a, columns_b, rows, cols)


def _kept(times, times_t, wa: np.ndarray, wb: np.ndarray, classes):
    """(kept rows, kept columns) of each class of flat indices of
    M = sqrt(Wa) (middle product) sqrt(Wb).

    ``times`` and ``times_t`` apply S and S^T (see ``_pair``), so the
    squared row 2-norms of M are wa o (S wb), and its squared column norms
    over the kept rows (S^T kept_wa) o wb. Each class drops its lightest
    rows while their 2-norms sum to at most u ||M_class||_F / 2; then, with
    wa zeroed off the kept rows of every class (classes do not mix), its
    lightest columns under the same budget. Every class's trace norm moves
    by at most u ||M_class||_1 (see the module notes).
    """
    row_sq = wa * times(wb)
    budgets = [0.5 * UNIT_ROUNDOFF * math.sqrt(row_sq[idx].sum()) for idx in classes]
    rows = [idx[_heavy(np.sqrt(row_sq[idx]), budget)]
            for idx, budget in zip(classes, budgets)]
    kept_wa = np.zeros_like(wa)
    for idx in rows:
        kept_wa[idx] = wa[idx]
    col_sq = wb * times_t(kept_wa)
    cols = [idx[_heavy(np.sqrt(col_sq[idx]), budget)]
            for idx, budget in zip(classes, budgets)]
    return rows, cols


def _columns_by_n1(rho: FockDensity):
    """(conserved number of each flat index, table) of one device state.

    Row x of the (D, d + 1) table holds column x of O, each entry placed
    by the n1 of its row index; the last column and every n1 outside
    x's sector hold zero. The conserved number is n1 + n2 or n1 - n2.
    """
    d = rho.d
    n1, n2 = np.divmod(np.arange(d * d), d)
    table = np.zeros((d * d + 1, d + 1))
    for idx, x in zip(_stack_tables(d, rho.conserved), rho.stacks):
        # row i of a slice has n1 = (n1 of its first index) + i; pad rows
        # hold zero in real columns and go to the last column, pad columns
        # to the sentinel row, which is cut off below
        at = np.minimum(idx[..., :1] // d + np.arange(idx.shape[2]), d)
        table[idx[..., None, :], at[..., :, None]] = x
    return (n1 + n2 if rho.conserved == TOTAL else n1 - n2), table[:-1]


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


def uhlmann_fidelity(rho_a: FockDensity, rho_b: FockDensity) -> float:
    """[Tr sqrt(sqrt(rho_b) rho_a sqrt(rho_b))]^2 via spectral square roots.

    Evaluated as the squared trace norm of sqrt(rho_a) sqrt(rho_b): the
    singular values of that product are the eigenvalue square roots of the
    sandwiched matrix, but carry no square-root amplification of
    eigenvalue roundoff near zero. The trace norm is invariant under the
    outer unitaries,
    || Ua sqrt(Wa) Ua^dag Ub sqrt(Wb) Ub^dag ||_1
      = || sqrt(Wa) (Ua^dag Ub) sqrt(Wb) ||_1,
    and under the outer diagonal phases that ``_pair`` strips from the
    middle product. That product splits into its pieces: the sector blocks
    when the states share a sectoring, one real piece per parity class of
    n1 + n2 for a mode-mixed x squeezed pair. M is cut to the rows and
    columns whose removal moves its trace norm by at most u ||M||_1
    (u = 2^-53, see the module notes), so the fidelity moves by a relative
    2u at most; they are chosen from the row and column norms of ``_pair``,
    and only the kept blocks are gathered and decomposed, a stack's sector
    blocks in one batch.
    """
    times, times_t, classes, pieces = _pair(rho_a, rho_b)
    rows, cols = _kept(times, times_t, rho_a.spectrum, rho_b.spectrum, classes)
    # the sentinel index of the sector pieces reads weight zero
    sqrt_a = np.sqrt(np.append(rho_a.spectrum, 0.0))
    sqrt_b = np.sqrt(np.append(rho_b.spectrum, 0.0))
    return sum(_trace_norm(sqrt_a[rows][..., :, None] * block * sqrt_b[cols][..., None, :])
               for rows, cols, block in pieces(rows, cols)) ** 2


def _trace_norm(m: np.ndarray) -> float:
    """Sum of the singular values of a matrix, or of every matrix of a stack."""
    return float(np.linalg.svd(m, compute_uv=False).sum())


def overlap_fock(rho_a: FockDensity, rho_b: FockDensity) -> float:
    """Tr(rho_a rho_b) on the truncated space.

    Tr(Ua Wa Ua^dag Ub Wb Ub^dag) = sum_ij Wa_i |(Ua^dag Ub)_ij|^2 Wb_j, the
    sum of the squared row norms wa o (S wb) of
    sqrt(Wa) (Ua^dag Ub) sqrt(Wb) that the fidelity's pruning starts from
    (``_pair``), taken without pruning and without a singular value
    decomposition.
    """
    times = _pair(rho_a, rho_b)[0]
    return float((rho_a.spectrum * times(rho_b.spectrum)).sum())


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
