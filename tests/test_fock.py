"""Tests for the truncated Fock-space oracle.

The spec-level agreement runs (d = 25 and d = 40, ten pairs each) live in
the acceptance suite; here the operations are checked at small
truncations, and the sector blocks against the dense truncated generator.
That reference is built from kron products of the one-mode ladder
operator and exponentiated by scipy's complex expm, so it shares no code
with the library's batched real Pade kernel. At d = 40 every block is
checked against scipy's complex expm, and two against 40-digit mpmath, of
the library's own float64 sector generator, itself checked against the
kron-built one.
"""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from gaussfisher import closed_form as cf
from gaussfisher import core, fock, verification
from gaussfisher.errors import TruncationError, ValidationError
from gaussfisher.states import MTS, STS, FamilyPoint


def dense_matrix(point, d):
    """Dense U diag(w) U^dag of a family point; the reference the spectral
    records are checked against. w is the record's spectrum, U comes from
    bs_unitary / sq_unitary (checked against the kron-built expm below), or
    is the identity for a thermal state."""
    w = fock.family_dm(point, d).spectrum
    u = dense_unitary(point, d)
    return (u * w) @ u.conj().T


def dense_unitary(point, d):
    """Dense device unitary of a family point; the identity for a thermal
    state."""
    p = point.params
    if point.tag == MTS:
        return fock.bs_unitary(p.theta, p.phi, d)
    if point.tag == STS:
        return fock.sq_unitary(p.r, p.phi, d)
    return np.eye(d * d, dtype=complex)


# the pair of the CI smoke run: a mode-mixed and a squeezed thermal state
CI_PAIR = (FamilyPoint.mts(0.3, 0.15, 1.2, 0.4), FamilyPoint.sts(0.2, 0.1, 0.3, -0.8))


class TestThermalDm:
    def test_vacuum_projector(self):
        rho = fock.family_dm(FamilyPoint.ts(0.0, 0.0), 6)
        expected = np.zeros((36, 36))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(dense_matrix(FamilyPoint.ts(0.0, 0.0), 6), expected)
        assert rho.trace_deficit == 0.0

    def test_single_mode_weights(self):
        rho = fock.family_dm(FamilyPoint.ts(1.0, 0.0), 30)
        diag = np.diag(dense_matrix(FamilyPoint.ts(1.0, 0.0), 30)).real.reshape(30, 30)
        np.testing.assert_allclose(diag[:, 0], 0.5 ** (np.arange(30) + 1.0),
                                   rtol=1e-12)
        assert rho.trace_deficit < 1e-9

    def test_trace_monotone_in_truncation(self):
        deficits = [fock.family_dm(FamilyPoint.ts(0.8, 0.5), d, max_deficit=1.0).trace_deficit
                    for d in (8, 16, 32)]
        assert deficits[0] > deficits[1] > deficits[2] >= 0.0

    def test_deficit_guard(self):
        with pytest.raises(TruncationError):
            fock.family_dm(FamilyPoint.ts(5.0, 5.0), 3)

    @pytest.mark.parametrize("n1, n2", [(math.nan, 1.0), (1.0, math.inf), (-0.1, 0.2)])
    def test_rejects_bad_occupancies(self, n1, n2):
        with pytest.raises(ValidationError):
            fock.family_dm(FamilyPoint.ts(n1, n2), 6)

    def test_rejects_nan_deficit_bound(self):
        # a NaN bound used to pass a state with trace deficit 7.4e-3
        with pytest.raises(ValidationError, match="max_deficit"):
            fock.family_dm(FamilyPoint.mts(0.4, 0.2, 1.3, 0.6), 4, max_deficit=math.nan)

    def test_rejects_negative_deficit_bound(self):
        with pytest.raises(ValidationError, match="max_deficit"):
            fock.family_dm(FamilyPoint.mts(0.4, 0.2, 1.3, 0.6), 40, max_deficit=-1e-9)

    @pytest.mark.parametrize("d", [2.5, math.inf, math.nan])
    def test_rejects_non_integer_truncation(self, d):
        with pytest.raises(ValidationError, match="integer of at least 2"):
            fock.family_dm(FamilyPoint.ts(0.3, 0.2), d, max_deficit=1.0)

    def test_weights_helper_is_private(self):
        # the geometric weights checked neither occupancy nor truncation:
        # (0.5, 2.5) gave three weights, NaN a NaN array, n = -1 a bare math
        # ValueError; only the validating entry points above reach them now
        assert not hasattr(fock, "thermal_weights")

    @pytest.mark.parametrize("d", [np.int64(12), 12.0], ids=["numpy_int", "float"])
    def test_accepts_integer_valued_truncation(self, d):
        point = FamilyPoint.sts(0.3, 0.2, 0.4, 0.1)
        rho = fock.family_dm(point, d)
        assert rho.d == 12 and type(rho.d) is int
        reference = fock.family_dm(point, 12)
        assert fock.uhlmann_fidelity(rho, reference) == fock.uhlmann_fidelity(reference,
                                                                              reference)


def dense_generator(device, x, phi, d):
    """Truncated device generator built densely from kron mode operators;
    the reference the sector blocks are checked against."""
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    eye = np.eye(d)
    a1, a2 = np.kron(a, eye), np.kron(eye, a)
    if device == "bs":
        return (x / 2.0) * (np.exp(1j * phi) * (a1 @ a2.T)
                            - np.exp(-1j * phi) * (a1.T @ a2))
    return x * (np.exp(1j * phi) * (a1.T @ a2.T) - np.exp(-1j * phi) * (a1 @ a2))


def kron_generator(device, x, d):
    """The phase-free generator of ``dense_generator``, from kron products
    of the one-mode lowering operator alone (no D x D matrix product), so
    that it stays cheap at d = 40."""
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    if device == "bs":
        return (x / 2.0) * (np.kron(a, a.T) - np.kron(a.T, a))
    return x * (np.kron(a.T, a.T) - np.kron(a, a))


def slices(d, conserved):
    """(stack, slice, flat indices) of each sector the library's stack
    tables name, read off side 0 of each table, so that the squeezer's
    sectors n1 - n2 < 0, which reuse the slices of n1 - n2 > 0 (see the
    mirror test), are left out."""
    for s, table in enumerate(fock._stack_tables(d, conserved)):
        for j, idx in enumerate(table[0]):
            yield s, j, idx[idx < d * d]


def sector_blocks(d, conserved, stacks):
    """(flat indices, block) of every sector: the leading corner of its
    slice, through both sides of the tables."""
    for table, stack in zip(fock._stack_tables(d, conserved), stacks):
        for side in table:
            for idx, x in zip(side, stack):
                idx = idx[idx < d * d]
                if idx.size:
                    yield idx, x[:idx.size, :idx.size]


def exponentiated_generators(device, x, d):
    """(library block, its float64 generator, kron-built sector block) for
    each sector the library exponentiates at phase 0, where U = O. The
    generator is read off the library's unit-coupling stacks; it differs
    from the kron-built one only in rounding sqrt(m1 m2) instead of
    sqrt(m1) sqrt(m2)."""
    if device == "bs":
        conserved, coupling = fock.TOTAL, 0.5 * x
    else:
        conserved, coupling = fock.DIFFERENCE, -x
    stacks = fock._sector_unitaries(d, conserved, coupling)
    kron = kron_generator(device, x, d)
    units = fock._ladder_stacks(d, conserved)
    for s, j, idx in slices(d, conserved):
        n = len(idx)
        yield stacks[s][j, :n, :n], coupling * units[s][j, :n, :n], kron[np.ix_(idx, idx)]


class TestSectors:
    @pytest.mark.parametrize("conserved", [fock.TOTAL, fock.DIFFERENCE])
    @pytest.mark.parametrize("d", [2, 6, 12])
    def test_partition_into_small_sectors(self, conserved, d):
        blocks = fock.sectors(d, conserved)
        assert len(blocks) == 2 * d - 1
        assert max(len(idx) for idx in blocks) == d
        np.testing.assert_array_equal(np.sort(np.concatenate(blocks)),
                                      np.arange(d * d))

    @pytest.mark.parametrize("conserved", [fock.TOTAL, fock.DIFFERENCE])
    def test_conserved_number_constant_per_sector(self, conserved):
        d = 7
        sign = 1 if conserved == fock.TOTAL else -1
        for idx in fock.sectors(d, conserved):
            n1, n2 = np.divmod(idx, d)
            assert len(set(n1 + sign * n2)) == 1
            assert np.all(np.diff(n1) == 1)

    @pytest.mark.parametrize("d", [2, 6, 13])
    def test_parity_classes(self, d):
        even, odd = fock.sectors(d, fock.PARITY)
        assert (len(even), len(odd)) == ((d * d + 1) // 2, d * d // 2)
        for parity, idx in enumerate((even, odd)):
            n1, n2 = np.divmod(idx, d)
            assert np.all((n1 + n2) % 2 == parity) and np.all(np.diff(idx) > 0)
        for conserved in (fock.TOTAL, fock.DIFFERENCE):
            for idx in fock.sectors(d, conserved):
                assert set(idx) <= set(even) or set(idx) <= set(odd)

    @pytest.mark.parametrize("d", [6, 12])
    def test_cross_family_product_keeps_parity(self, d):
        # the premise of the parity split: every entry of Ua^dag Ub that
        # joins the two parity classes of n1 + n2 is exactly zero
        n1, n2 = np.divmod(np.arange(d * d), d)
        parity = (n1 + n2) % 2
        product = fock.bs_unitary(1.2, 0.4, d).conj().T @ fock.sq_unitary(0.3, -0.8, d)
        assert np.all(product[parity[:, None] != parity[None, :]] == 0.0)

    def test_unknown_quantity_rejected(self):
        with pytest.raises(ValidationError):
            fock.sectors(4, "n1")


class TestBlockedUnitaries:
    @pytest.mark.parametrize("d", [6, 12])
    @pytest.mark.parametrize("theta, phi", [(0.3, 0.1), (1.7, -2.2), (3.1, 3.0)])
    def test_bs_matches_dense_expm(self, d, theta, phi):
        reference = expm(dense_generator("bs", theta, phi, d))
        assert np.abs(fock.bs_unitary(theta, phi, d) - reference).max() <= 1e-13

    @pytest.mark.parametrize("d", [6, 12])
    @pytest.mark.parametrize("r, phi", [(0.2, 0.4), (0.9, -1.3), (1.5, 2.8)])
    def test_sq_matches_dense_expm(self, d, r, phi):
        reference = expm(dense_generator("sq", r, phi, d))
        assert np.abs(fock.sq_unitary(r, phi, d) - reference).max() <= 1e-13

    @pytest.mark.parametrize("d", [6, 40])
    @pytest.mark.parametrize("vacuum, helper", [(FamilyPoint.mts, fock.bs_unitary),
                                                (FamilyPoint.sts, fock.sq_unitary)],
                             ids=["bs", "sq"])
    def test_dense_helpers_are_the_vacuum_record(self, vacuum, helper, d):
        # the dense helpers and the spectral records share one map from a
        # device setting to its (sectoring, coupling, phase)
        rho = fock.family_dm(vacuum(0.0, 0.0, 0.9, -1.3), d)
        p = np.exp(-1j * rho.phase * (np.arange(d * d) // d))
        dense = p[:, None] * fock._assemble(d, rho.conserved, rho.stacks) * p.conj()[None, :]
        assert np.array_equal(helper(0.9, -1.3, d), dense)

    @pytest.mark.parametrize("d", [6, 40])
    def test_squeezer_sectors_mirror(self, d):
        # n1 - n2 = k and -k swap the two modes: the same generator, so one
        # slice serves both sectors through the two sides of its table (the
        # blocks themselves are checked against the dense expm above)
        every = fock.sectors(d, fock.DIFFERENCE)
        stacks = fock._sector_unitaries(d, fock.DIFFERENCE, -0.9)
        assert sum(x.shape[0] for x in stacks) == d
        for table in fock._stack_tables(d, fock.DIFFERENCE):
            for plus, minus in zip(*table):
                plus, minus = plus[plus < d * d], minus[minus < d * d]
                k = plus[0] // d - plus[0] % d
                assert np.array_equal(plus, every[d - 1 + k])
                assert np.array_equal(minus, every[d - 1 - k] if k else [])
        dense = fock._assemble(d, fock.DIFFERENCE, stacks)
        for k in range(1, d):
            assert np.array_equal(dense[np.ix_(every[d - 1 - k], every[d - 1 - k])],
                                  dense[np.ix_(every[d - 1 + k], every[d - 1 + k])])

    @pytest.mark.parametrize("device", ["bs", "sq"])
    def test_kron_generator_is_the_dense_generator(self, device):
        dense = dense_generator(device, 0.7, 0.0, 6)
        assert not dense.imag.any()
        assert np.array_equal(kron_generator(device, 0.7, 6), dense.real)

    @pytest.mark.parametrize("device, x", [("bs", 3.1), ("sq", 8.0)])
    def test_padded_stacks_exponentiate_exactly(self, device, x):
        # 0 to 7 squarings per slice and pads of 0 to 7 indices: every pad is
        # exactly the identity and every off-diagonal block exactly zero
        d = 40
        conserved = fock.TOTAL if device == "bs" else fock.DIFFERENCE
        coupling = 0.5 * x if device == "bs" else -x
        stacks = fock._sector_unitaries(d, conserved, coupling)
        assert len(stacks) == len(fock._stack_tables(d, conserved)) == 5
        for s, j, idx in slices(d, conserved):
            n, stack = len(idx), stacks[s]
            pad = np.eye(stack.shape[1])
            assert np.array_equal(stack[j, n:, n:], pad[n:, n:])
            assert not stack[j, :n, n:].any() and not stack[j, n:, :n].any()

    @pytest.mark.parametrize("device, x", [("bs", 0.3), ("bs", 1.6), ("bs", 3.1),
                                           ("sq", 0.05), ("sq", 0.4), ("sq", 1.2),
                                           ("sq", 8.0)])
    def test_blocks_match_complex_expm(self, device, x):
        for block, generator, kron in exponentiated_generators(device, x, 40):
            np.testing.assert_allclose(generator, kron, rtol=1e-15, atol=0.0)
            reference = expm(generator.astype(complex)).real
            assert np.abs(block - reference).max() <= 2e-14
            assert fock.unitarity_defect(block) <= 5e-14

    @pytest.mark.parametrize("device, x", [("bs", 3.1), ("sq", 8.0)])
    def test_block_matches_high_precision_expm(self, device, x):
        block, generator, _ = next(b for b in exponentiated_generators(device, x, 40)
                                   if len(b[0]) == 20)
        with mpmath.workdps(40):
            reference = np.array(mpmath.expm(mpmath.matrix(generator.tolist())).tolist(),
                                 dtype=float)
        assert np.abs(block - reference).max() <= 2e-14

    @pytest.mark.parametrize("helper", [fock.bs_unitary, fock.sq_unitary], ids=["bs", "sq"])
    @pytest.mark.parametrize("d", [1, 2.5, math.inf, math.nan])
    def test_dense_helpers_reject_bad_truncation(self, helper, d):
        with pytest.raises(ValidationError, match="integer of at least 2"):
            helper(0.3, 0.1, d)

    @pytest.mark.parametrize("helper", [fock.bs_unitary, fock.sq_unitary], ids=["bs", "sq"])
    def test_dense_helpers_accept_integer_valued_truncation(self, helper):
        assert np.array_equal(helper(0.3, 0.1, 6.0), helper(0.3, 0.1, 6))
        assert np.array_equal(helper(0.3, 0.1, np.int64(7)), helper(0.3, 0.1, 7))


class TestBsUnitary:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(fock.bs_unitary(0.0, 0.3, 8), np.eye(64))

    def test_unitary_on_retained_space(self):
        u = fock.bs_unitary(1.2, 0.5, 12)
        assert fock.unitarity_defect(u) < 1e-12

    def test_balanced_thermal_invariant(self):
        rho = dense_matrix(FamilyPoint.ts(0.4, 0.4), 15)
        u = fock.bs_unitary(1.1, 0.7, 15)
        conjugated = u @ rho @ u.conj().T
        assert np.abs(conjugated - rho).max() < 1e-12


class TestSqUnitary:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(fock.sq_unitary(0.0, 0.3, 8), np.eye(64))

    def test_vacuum_gives_schmidt_weights(self):
        r, d = 0.6, 30
        u = fock.sq_unitary(r, 0.25, d)
        amplitudes = u[:, 0].reshape(d, d)
        weights = np.abs(np.diagonal(amplitudes)) ** 2
        t = math.tanh(r)
        expected = (1.0 - t * t) * t ** (2.0 * np.arange(d))
        np.testing.assert_allclose(weights, expected, atol=1e-12)
        # off the |n, n> diagonal everything vanishes
        off = np.abs(amplitudes) ** 2 - np.diag(weights)
        assert np.abs(off).max() < 1e-14

    def test_reduced_occupancy_matches_covariance(self):
        # mode-1 occupancy of a squeezed vacuum is sinh^2(r), the same
        # number the covariance-matrix construction produces
        r, d = 0.5, 30
        u = fock.sq_unitary(r, 0.0, d)
        weights = np.abs(np.diagonal(u[:, 0].reshape(d, d))) ** 2
        occupancy = float((np.arange(d) * weights).sum())
        cov = FamilyPoint.sts(0.0, 0.0, r, 0.0).to_state().cov
        assert occupancy == pytest.approx(cov[0, 0] - 0.5, abs=1e-10)
        assert occupancy == pytest.approx(math.sinh(r) ** 2, abs=1e-10)

    def test_defect_stays_small_as_d_grows(self):
        defects = [fock.unitarity_defect(fock.sq_unitary(0.5, 0.2, d))
                   for d in (10, 20, 30)]
        assert max(defects) < 1e-12


# pairs on one sectoring: the same device, or a thermal state with either
SECTOR_PAIRS = [
    (FamilyPoint.mts(0.3, 0.15, 1.2, 0.4), FamilyPoint.mts(0.2, 0.4, 2.9, -1.1), 25),
    (FamilyPoint.sts(0.2, 0.1, 0.3, -0.8), FamilyPoint.sts(0.15, 0.25, 0.1, 0.6), 40),
    (FamilyPoint.ts(0.25, 0.35), FamilyPoint.mts(0.3, 0.15, 1.2, 0.4), 30),
    (FamilyPoint.ts(0.25, 0.35), FamilyPoint.sts(0.2, 0.1, 0.3, -0.8), 30),
    (FamilyPoint.ts(0.25, 0.35), FamilyPoint.ts(0.1, 0.5), 30),
]
SECTOR_IDS = ["mts", "sts", "ts-mts", "ts-sts", "ts-ts"]


def sector_reference(a, b, rho_a, rho_b):
    """Unpruned Uhlmann fidelity and overlap of a pair on one sectoring:
    one complex singular value decomposition per sector of
    sqrt(Wa) (Ua^dag Ub) sqrt(Wb), from the dense unitaries."""
    d = rho_a.d
    conserved = fock.DIFFERENCE if STS in (a.tag, b.tag) else fock.TOTAL
    ua, ub = dense_unitary(a, d), dense_unitary(b, d)
    sqrt_a, sqrt_b = np.sqrt(rho_a.spectrum), np.sqrt(rho_b.spectrum)
    trace_norm = overlap = 0.0
    for idx in fock.sectors(d, conserved):
        m = (sqrt_a[idx, None] * (ua[np.ix_(idx, idx)].conj().T @ ub[np.ix_(idx, idx)])
             * sqrt_b[None, idx])
        trace_norm += np.linalg.svd(m, compute_uv=False).sum()
        overlap += (np.abs(m) ** 2).sum()
    return trace_norm ** 2, overlap


def pruned_pieces(rho_a, rho_b):
    """(row indices, column indices, block) of each piece whose trace norm
    ``uhlmann_fidelity`` sums: the pair's pieces on its kept rows and
    columns."""
    times, times_t, classes, pieces = fock._pair(rho_a, rho_b)
    return list(pieces(*fock._kept(times, times_t, rho_a.spectrum, rho_b.spectrum, classes)))


class TestUhlmannFidelity:
    def test_identical_inputs(self):
        rho = fock.family_dm(FamilyPoint.mts(0.3, 0.2, 1.0, 0.5), 15)
        assert fock.uhlmann_fidelity(rho, rho) == pytest.approx(
            1.0, abs=1e-8 + 2.0 * rho.trace_deficit)

    def test_pure_vs_mixed_is_expectation(self):
        d = 20
        # a squeezed vacuum is the pure state |psi> = S |0, 0>
        pure = fock.family_dm(FamilyPoint.sts(0.0, 0.0, 0.4, 0.1), d)
        psi = fock.sq_unitary(0.4, 0.1, d)[:, 0]
        mixed = fock.family_dm(FamilyPoint.ts(0.3, 0.2), d)
        thermal = dense_matrix(FamilyPoint.ts(0.3, 0.2), d)
        expectation = float((psi.conj() @ thermal @ psi).real)
        assert fock.uhlmann_fidelity(pure, mixed) == pytest.approx(
            expectation, rel=1e-8)

    def test_symmetric(self):
        a = fock.family_dm(FamilyPoint.mts(0.3, 0.1, 0.8, 0.2), 18)
        b = fock.family_dm(FamilyPoint.mts(0.2, 0.4, 1.4, -0.9), 18)
        assert fock.uhlmann_fidelity(a, b) == pytest.approx(
            fock.uhlmann_fidelity(b, a), rel=1e-10)

    def test_matches_closed_form_quickly(self):
        a = FamilyPoint.mts(0.35, 0.15, 1.3, 0.6)
        b = FamilyPoint.mts(0.2, 0.4, 0.7, -1.1)
        value = fock.uhlmann_fidelity(fock.family_dm(a, 20), fock.family_dm(b, 20))
        assert value == pytest.approx(cf.fidelity_special(a, b), abs=1e-6)

    @pytest.fixture
    def svd_inputs(self, monkeypatch):
        """(shape, dtype) of each matrix whose trace norm the oracle takes."""
        inputs = []
        trace_norm = fock._trace_norm

        def recording(m):
            inputs.append((m.shape, m.dtype))
            return trace_norm(m)

        monkeypatch.setattr(fock, "_trace_norm", recording)
        return inputs

    @pytest.fixture
    def kept(self, monkeypatch):
        """(row indices, column indices) of each piece the oracle sums."""
        found = []
        pair = fock._pair

        def recording(rho_a, rho_b):
            times, times_t, classes, pieces = pair(rho_a, rho_b)

            def recorded(kept_rows, kept_cols):
                for rows, cols, block in pieces(kept_rows, kept_cols):
                    found.append((rows, cols))
                    yield rows, cols, block

            return times, times_t, classes, recorded

        monkeypatch.setattr(fock, "_pair", recording)
        return found

    def test_cross_family_takes_parity_path(self, svd_inputs, kept):
        d = 16
        a = FamilyPoint.mts(0.3, 0.15, 1.2, 0.4)
        b = FamilyPoint.sts(0.2, 0.1, 0.3, -0.8)
        general = core.fidelity_two_mode(a.to_state(), b.to_state())
        for pair in ((a, b), (b, a)):
            value = fock.uhlmann_fidelity(*(fock.family_dm(p, d) for p in pair))
            assert value == pytest.approx(general.fidelity, abs=1e-10)
        # both device phases gauge out, so the two SVDs per pair are real;
        # each is taken on the kept rows and columns of one parity class
        assert [dtype for _, dtype in svd_inputs] == [np.float64] * 4
        for (shape, _), (rows, cols), cls in zip(svd_inputs, kept,
                                                 fock.sectors(d, fock.PARITY) * 2):
            assert shape == (len(rows), len(cols))
            assert set(rows) <= set(cls) and set(cols) <= set(cls)

    @pytest.mark.parametrize("device", [FamilyPoint.mts(0.3, 0.15, 1.2, 0.4),
                                        FamilyPoint.sts(0.2, 0.1, 0.3, -0.8)])
    def test_thermal_pair_takes_sector_path(self, device, svd_inputs):
        d = 16
        thermal = FamilyPoint.ts(0.25, 0.35)
        general = core.fidelity_two_mode(thermal.to_state(), device.to_state())
        for pair in ((thermal, device), (device, thermal)):
            value = fock.uhlmann_fidelity(*(fock.family_dm(p, d) for p in pair))
            assert value == pytest.approx(general.fidelity, abs=1e-9)
        # one batched real decomposition per stack that keeps a sector: a
        # stack of sector blocks, each cut to its kept rows and columns
        conserved = fock.TOTAL if device.tag == MTS else fock.DIFFERENCE
        assert 0 < len(svd_inputs) <= 2 * len(fock._stack_tables(d, conserved))
        assert all(len(shape) == 3 and max(shape[1:]) <= d for shape, _ in svd_inputs)
        assert {dtype for _, dtype in svd_inputs} == {np.dtype(np.float64)}

    @pytest.mark.parametrize("d", [12, 13])
    def test_cross_family_matches_one_dense_svd(self, d, svd_inputs):
        # at d = 13 the parity classes hold 85 and 84 indices
        a = FamilyPoint.mts(0.3, 0.15, 1.2, 0.4)
        b = FamilyPoint.sts(0.2, 0.1, 0.3, -0.8)
        for first, second in ((a, b), (b, a)):
            rho_a, rho_b = fock.family_dm(first, d), fock.family_dm(second, d)
            inner = dense_unitary(first, d).conj().T @ dense_unitary(second, d)
            sqrt_a, sqrt_b = np.sqrt(rho_a.spectrum), np.sqrt(rho_b.spectrum)
            fidelity = np.linalg.svd(sqrt_a[:, None] * inner * sqrt_b[None, :],
                                     compute_uv=False).sum() ** 2
            overlap = rho_a.spectrum @ np.abs(inner) ** 2 @ rho_b.spectrum
            assert abs(fock.uhlmann_fidelity(rho_a, rho_b) - fidelity) <= 1e-13
            assert abs(fock.overlap_fock(rho_a, rho_b) - overlap) <= 1e-13
        assert max(max(shape) for shape, _ in svd_inputs) == (d * d + 1) // 2

    @staticmethod
    def class_products(rho_a, rho_b):
        """(class, full Oa^T Ob on it) per parity class, formed densely
        from the sector blocks without any pruning."""
        d = rho_a.d
        dense = [np.zeros((d * d, d * d)) for _ in range(2)]
        for out, rho in zip(dense, (rho_a, rho_b)):
            for idx, block in sector_blocks(d, rho.conserved, rho.stacks):
                out[np.ix_(idx, idx)] = block
        return [(cls, dense[0][np.ix_(cls, cls)].T @ dense[1][np.ix_(cls, cls)])
                for cls in fock.sectors(d, fock.PARITY)]

    def test_pruned_classes_match_unpruned(self, rng, svd_inputs, kept):
        d = 40
        classes = fock.sectors(d, fock.PARITY)
        pairs = [(FamilyPoint.mts(0.3, 0.15, 1.2, 0.4), FamilyPoint.sts(0.2, 0.1, 0.3, -0.8))]
        pairs += [(verification.random_mts(rng, occ_high=1.0),
                   verification.random_sts(rng, occ_high=0.5, r_high=0.6))
                  for _ in range(4)]
        for a, b in pairs:
            rho = fock.family_dm(a, d), fock.family_dm(b, d)
            sqrt_a, sqrt_b = (np.sqrt(r.spectrum) for r in rho)
            fidelity = overlap = 0.0
            for cls, inner in self.class_products(*rho):
                m = sqrt_a[cls, None] * inner * sqrt_b[None, cls]
                fidelity += np.linalg.svd(m, compute_uv=False).sum()
                overlap += (m ** 2).sum()
            # the reversed pair's class products are the transposes
            for rho_a, rho_b in (rho, rho[::-1]):
                svd_inputs.clear()
                kept.clear()
                assert abs(fock.uhlmann_fidelity(rho_a, rho_b) - fidelity ** 2) <= 2e-15
                # most of each class lies below roundoff at d = 40, so every
                # decomposed block is a strict row and column subset of it
                assert len(svd_inputs) == len(kept) == len(classes)
                for (shape, _), (rows, cols), cls in zip(svd_inputs, kept, classes):
                    assert shape == (len(rows), len(cols))
                    assert set(rows) < set(cls) and set(cols) < set(cls)
                assert abs(fock.overlap_fock(rho_a, rho_b) - overlap) <= 2e-15

    @pytest.mark.parametrize("d", [12, 13, 40])
    def test_kept_blocks_are_class_product_entries(self, d):
        # each gathered entry is the single product Oa[m, i] Ob[m, j], which
        # is also all that the dense product of the class blocks sums to
        for pair in (CI_PAIR, CI_PAIR[::-1]):
            rho = [fock.family_dm(p, d) for p in pair]
            pieces = pruned_pieces(*rho)
            assert len(pieces) == 2
            for (rows, cols, block), (cls, inner) in zip(pieces, self.class_products(*rho)):
                at_rows, at_cols = np.searchsorted(cls, rows), np.searchsorted(cls, cols)
                assert np.array_equal(cls[at_rows], rows)
                assert np.array_equal(cls[at_cols], cols)
                assert block.dtype == np.float64
                assert np.array_equal(block, inner[np.ix_(at_rows, at_cols)])

    @pytest.mark.parametrize("d", [13, 40])
    def test_norms_from_blocks_match_dense(self, d, rng):
        for pair in (CI_PAIR, CI_PAIR[::-1]):
            rho_a, rho_b = (fock.family_dm(p, d) for p in pair)
            wa, wb = rho_a.spectrum, rho_b.spectrum
            # column norms are taken over the kept rows: zero some row weights
            kept_wa = np.where(rng.uniform(size=wa.size) < 0.5, wa, 0.0)
            times, times_t, _, _ = fock._pair(rho_a, rho_b)
            rows, cols = wa * times(wb), wb * times_t(kept_wa)
            for cls, inner in self.class_products(rho_a, rho_b):
                square = inner ** 2
                np.testing.assert_allclose(rows[cls], wa[cls] * (square @ wb[cls]),
                                           rtol=1e-13, atol=0.0)
                np.testing.assert_allclose(cols[cls], (kept_wa[cls] @ square) * wb[cls],
                                           rtol=1e-13, atol=0.0)

    def test_cross_pair_memory(self):
        # below one dense class product at d = 40 (800 x 800 float64)
        d = 40
        rho_a, rho_b = (fock.family_dm(p, d) for p in CI_PAIR)
        class_bytes = 8 * len(fock.sectors(d, fock.PARITY)[0]) ** 2
        tracemalloc.start()
        try:
            fock.uhlmann_fidelity(rho_a, rho_b)
            uhlmann_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            fock.overlap_fock(rho_a, rho_b)
            overlap_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert class_bytes == 5_120_000
        assert uhlmann_peak < class_bytes
        assert overlap_peak < 1_000_000

    def test_pure_pair_drops_zero_class(self, kept):
        # a vacuum and a squeezed vacuum: both spectra are |0, 0>, so the
        # odd class of the product is exactly zero
        d = 40
        a = FamilyPoint.mts(0.0, 0.0, 1.2, 0.4)
        b = FamilyPoint.sts(0.0, 0.0, 0.3, -0.8)
        general = core.fidelity_two_mode(a.to_state(), b.to_state())
        even, _ = fock.sectors(d, fock.PARITY)
        for pair in ((a, b), (b, a)):
            kept.clear()
            value = fock.uhlmann_fidelity(*(fock.family_dm(p, d) for p in pair))
            assert value == pytest.approx(general.fidelity, abs=1e-10)
            assert len(kept) == 1 and set(kept[0][0]) <= set(even)

    @pytest.mark.parametrize("a, b, d", SECTOR_PAIRS, ids=SECTOR_IDS)
    def test_pruned_sectors_match_unpruned(self, a, b, d):
        for first, second in ((a, b), (b, a)):
            rho_a, rho_b = fock.family_dm(first, d), fock.family_dm(second, d)
            fidelity, overlap = sector_reference(first, second, rho_a, rho_b)
            assert abs(fock.uhlmann_fidelity(rho_a, rho_b) - fidelity) <= 2e-15 * fidelity
            assert abs(fock.overlap_fock(rho_a, rho_b) - overlap) <= 2e-15 * overlap

    def test_squeezed_pair_keeps_strict_subsets(self, svd_inputs, kept):
        a, b, d = SECTOR_PAIRS[SECTOR_IDS.index("sts")]
        sector_of = np.empty(d * d, dtype=int)
        for k, idx in enumerate(fock.sectors(d, fock.DIFFERENCE)):
            sector_of[idx] = k
        for pair in ((a, b), (b, a)):
            svd_inputs.clear()
            kept.clear()
            fock.uhlmann_fidelity(*(fock.family_dm(p, d) for p in pair))
            # at most one batched decomposition per stack, of the gathered blocks
            assert 0 < len(svd_inputs) <= len(fock._stack_tables(d, fock.DIFFERENCE))
            for (shape, dtype), (rows, cols) in zip(svd_inputs, kept):
                assert dtype == np.complex128
                assert shape == rows.shape + cols.shape[1:]
                # every batch member is cut from one sector
                for r, c in zip(rows, cols):
                    members = np.concatenate([r[r < d * d], c[c < d * d]])
                    assert len(set(sector_of[members])) == 1
            # most of M lies below roundoff at d = 40: the kept rows and
            # columns are strict subsets of the flat indices, each kept once
            for at in (0, 1):
                flat = np.concatenate([piece[at].ravel() for piece in kept])
                flat = flat[flat < d * d]
                assert len(set(flat)) == len(flat) < d * d

    def test_squeezer_slices_share_one_product(self):
        # the sectors n1 - n2 = +k and -k read one product of slice k; the
        # dense product agrees with that in modulus on the two sectors, up to
        # the roundoff of its complex sums
        a, b, d = SECTOR_PAIRS[SECTOR_IDS.index("sts")]
        rho_a, rho_b = fock.family_dm(a, d), fock.family_dm(b, d)
        tables, products, squares = fock._sector_products(rho_a, rho_b)
        assert sum(parts[0].shape[0] for parts in products) == d
        assert sum(np.count_nonzero((t < d * d).any(axis=2)) for t in tables) == 2 * d - 1
        # unequal device phases: a real and an imaginary product per stack
        assert all(len(parts) == 2 for parts in products)
        every = fock.sectors(d, fock.DIFFERENCE)
        ua, ub = dense_unitary(a, d), dense_unitary(b, d)
        for k in range(1, d):
            plus, minus = every[d - 1 + k], every[d - 1 - k]
            sector = [np.abs(ua[np.ix_(idx, idx)].conj().T @ ub[np.ix_(idx, idx)])
                      for idx in (plus, minus)]
            np.testing.assert_allclose(sector[0], sector[1], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("a, b, d", SECTOR_PAIRS, ids=SECTOR_IDS)
    def test_pads_carry_zero_weight(self, a, b, d):
        rho_a, rho_b = fock.family_dm(a, d), fock.family_dm(b, d)
        sqrt_a, sqrt_b = (np.sqrt(np.append(r.spectrum, 0.0)) for r in (rho_a, rho_b))
        assert sqrt_a[d * d] == sqrt_b[d * d] == 0.0
        for rows, cols, block in pruned_pieces(rho_a, rho_b):
            m = sqrt_a[rows][..., :, None] * block * sqrt_b[cols][..., None, :]
            assert not m[rows == d * d].any()
            assert not np.swapaxes(m, 1, 2)[cols == d * d].any()

    @pytest.mark.parametrize("conserved", [fock.TOTAL, fock.DIFFERENCE])
    @pytest.mark.parametrize("d", [2, 9, 40])
    def test_tables_name_each_sector_once(self, d, conserved):
        named = []
        for table in fock._stack_tables(d, conserved):
            assert table.shape[2] % 8 == 0
            for idx in table.reshape(-1, table.shape[2]):
                real = idx[idx < d * d]
                # the pad trails the sector and holds exactly the sentinel
                assert np.all(idx[real.size:] == d * d)
                if real.size:
                    named.append(tuple(real))
        assert sorted(named) == sorted(tuple(idx) for idx in fock.sectors(d, conserved))

    def test_cross_family_catalogue_check(self):
        fidelity, overlap = verification.fock_cross_agreement(np.random.default_rng(5), 2, 20)
        assert fidelity <= 1e-6 and overlap <= 1e-6

    @pytest.mark.parametrize("a, b", [
        (FamilyPoint.mts(0.40, 0.20, 1.30, 0.60), FamilyPoint.mts(0.25, 0.45, 0.70, -1.10)),
        (FamilyPoint.sts(0.25, 0.10, 0.35, 0.40), FamilyPoint.sts(0.15, 0.28, 0.20, -0.90)),
    ], ids=["mts", "sts"])
    def test_deficit_is_checked_only_at_construction(self, a, b):
        # records built with a widened max_deficit are used as they are
        rho_a = fock.family_dm(a, 6, max_deficit=1.0)
        rho_b = fock.family_dm(b, 6, max_deficit=1.0)
        assert rho_a.trace_deficit > fock.DEFAULT_MAX_DEFICIT
        general = core.fidelity_two_mode(a.to_state(), b.to_state())
        assert fock.uhlmann_fidelity(rho_a, rho_b) == pytest.approx(
            general.fidelity, abs=1e-2)
        assert fock.overlap_fock(rho_a, rho_b) == pytest.approx(general.overlap, abs=1e-2)

    def test_incompatible_truncations_rejected(self):
        # every case of the pair evaluator refuses them, for both results
        pairs = [(FamilyPoint.ts(0.1, 0.1),) * 2,
                 SECTOR_PAIRS[SECTOR_IDS.index("mts")][:2],
                 SECTOR_PAIRS[SECTOR_IDS.index("ts-sts")][:2],
                 CI_PAIR]
        for a, b in pairs:
            for first, second in ((a, b), (b, a)):
                for function in (fock.uhlmann_fidelity, fock.overlap_fock):
                    with pytest.raises(ValidationError, match="incompatible truncations"):
                        function(fock.family_dm(first, 16), fock.family_dm(second, 18))


def with_phase(point, phi):
    """The family point with its device phase replaced by ``phi``."""
    p = point.params
    if point.tag == MTS:
        return FamilyPoint.mts(p.n1, p.n2, p.theta, phi)
    return FamilyPoint.sts(p.n1, p.n2, p.r, phi)


class TestPhaseGauge:
    """The premise of the real cross-family route: the local phase rotation
    exp(i(x n1 + y n2)) leaves thermal states unchanged and can zero both
    device phases, so a mode-mixed x squeezed fidelity depends on neither."""

    def test_covariance_route_ignores_device_phases(self, rng):
        for _ in range(10):
            a, b = verification.random_mts(rng), verification.random_sts(rng)
            base = core.fidelity_two_mode(a.to_state(), b.to_state()).fidelity
            for phi_a, phi_b in rng.uniform(-math.pi, math.pi, (3, 2)):
                a2, b2 = with_phase(a, phi_a), with_phase(b, phi_b)
                value = core.fidelity_two_mode(a2.to_state(), b2.to_state()).fidelity
                assert value == pytest.approx(base, rel=1e-12)

    def test_dense_oracle_ignores_device_phases(self, rng):
        # the reference multiplies the complex kron-built unitaries, so it
        # does not lean on the gauge the oracle uses
        d = 12
        for _ in range(3):
            a = verification.random_mts(rng, occ_high=0.3)
            b = verification.random_sts(rng, occ_high=0.2, r_high=0.3)
            base = fock.uhlmann_fidelity(fock.family_dm(a, d), fock.family_dm(b, d))
            for phi_a, phi_b in rng.uniform(-math.pi, math.pi, (2, 2)):
                rho_a = fock.family_dm(with_phase(a, phi_a), d)
                rho_b = fock.family_dm(with_phase(b, phi_b), d)
                inner = (expm(dense_generator("bs", a.params.theta, phi_a, d)).conj().T
                         @ expm(dense_generator("sq", b.params.r, phi_b, d)))
                sqrt_a, sqrt_b = np.sqrt(rho_a.spectrum), np.sqrt(rho_b.spectrum)
                dense = np.linalg.svd(sqrt_a[:, None] * inner * sqrt_b[None, :],
                                      compute_uv=False).sum() ** 2
                assert dense == pytest.approx(base, rel=1e-12)
                assert fock.uhlmann_fidelity(rho_a, rho_b) == pytest.approx(base, rel=1e-12)


class TestOverlap:
    def test_matches_covariance_overlap(self):
        a = FamilyPoint.sts(0.2, 0.1, 0.3, 0.4)
        b = FamilyPoint.sts(0.15, 0.25, 0.2, -0.6)
        fock_value = fock.overlap_fock(fock.family_dm(a, 25), fock.family_dm(b, 25))
        general = core.fidelity_two_mode(a.to_state(), b.to_state()).overlap
        assert fock_value == pytest.approx(general, abs=1e-8)

    @pytest.mark.parametrize("a, b", [
        (FamilyPoint.mts(0.3, 0.1, 0.8, 0.2), FamilyPoint.mts(0.2, 0.4, 1.4, -0.9)),
        (FamilyPoint.sts(0.2, 0.1, 0.3, 0.4), FamilyPoint.sts(0.15, 0.25, 0.2, -0.6)),
        (FamilyPoint.ts(0.25, 0.35), FamilyPoint.sts(0.2, 0.1, 0.3, 0.4)),
        (FamilyPoint.mts(0.3, 0.1, 0.8, 0.2), FamilyPoint.sts(0.2, 0.1, 0.3, 0.4)),
    ])
    def test_matches_dense_trace(self, a, b):
        rho_a, rho_b = fock.family_dm(a, 16), fock.family_dm(b, 16)
        dense = np.einsum("ij,ji->", dense_matrix(a, 16), dense_matrix(b, 16)).real
        assert fock.overlap_fock(rho_a, rho_b) == pytest.approx(dense, abs=1e-14)


class TestSpectralRecord:
    @pytest.mark.parametrize("point", [FamilyPoint.mts(0.3, 0.15, 1.2, 0.4),
                                       FamilyPoint.sts(0.2, 0.1, 0.3, -0.8),
                                       FamilyPoint.ts(0.25, 0.35)])
    def test_family_dm_stores_no_dense_matrix(self, point):
        d = 40
        rho = fock.family_dm(point, d)
        values = [getattr(rho, field.name) for field in dataclasses.fields(rho)]
        arrays = [a for v in values for a in (v if isinstance(v, tuple) else (v,))
                  if isinstance(a, np.ndarray)]
        assert arrays and max(a.size for a in arrays) < d ** 4

    @pytest.mark.parametrize("point", [FamilyPoint.mts(0.3, 0.15, 1.2, 0.4),
                                       FamilyPoint.sts(0.2, 0.1, 0.3, -0.8)])
    def test_blocks_are_real(self, point):
        rho = fock.family_dm(point, 12)
        assert all(x.dtype == np.float64 for x in rho.stacks)

    def test_records_compare_by_identity(self):
        # arrays have no single truth value, so field-wise equality raised
        # ValueError, and the frozen record was unhashable
        point = FamilyPoint.sts(0.2, 0.1, 0.3, -0.8)
        rho, twin = fock.family_dm(point, 8), fock.family_dm(point, 8)
        assert rho == rho and rho != twin
        assert hash(rho) == hash(rho) and len({rho, twin, rho}) == 2

    @pytest.mark.parametrize("point", [FamilyPoint.mts(0.3, 0.15, 1.2, 0.4),
                                       FamilyPoint.sts(0.2, 0.1, 0.3, -0.8)])
    def test_trace_deficit_matches_dense_trace(self, point):
        d = 20
        dense_deficit = 1.0 - np.trace(dense_matrix(point, d)).real
        assert fock.family_dm(point, d).trace_deficit == pytest.approx(
            dense_deficit, abs=1e-15)


class TestSpectralThermal:
    def test_equal_states(self):
        assert fock.spectral_fidelity_ts(0.4, 0.7, 0.4, 0.7, 200) == pytest.approx(
            1.0, abs=1e-10)

    def test_vacuum_vs_unit(self):
        assert fock.spectral_fidelity_ts(0.0, 0.0, 1.0, 1.0, 200) == pytest.approx(
            0.25, abs=1e-10)

    def test_monotone_in_terms(self):
        values = [fock.spectral_fidelity_ts(0.7, 0.3, 0.4, 0.9, n)
                  for n in (2, 4, 8, 16, 64)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(cf.fidelity_ts(0.7, 0.3, 0.4, 0.9),
                                           abs=1e-10)

    @pytest.mark.parametrize("ns", [(math.nan, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, math.inf),
                                    (0.2, -0.1, 0.3, 0.3)])
    def test_rejects_bad_occupancies(self, ns):
        with pytest.raises(ValidationError):
            fock.spectral_fidelity_ts(*ns, 10)

    @pytest.mark.parametrize("n_terms", [0, 1.5, math.inf, math.nan])
    def test_rejects_non_integer_terms(self, n_terms):
        with pytest.raises(ValidationError, match="positive integer"):
            fock.spectral_fidelity_ts(1.0, 1.0, 1.0, 1.0, n_terms)

    def test_matches_uhlmann_on_commuting_states(self):
        spectral = fock.spectral_fidelity_ts(0.7, 0.3, 0.4, 0.9, 30)
        uhlmann = fock.uhlmann_fidelity(fock.family_dm(FamilyPoint.ts(0.7, 0.3), 30),
                                        fock.family_dm(FamilyPoint.ts(0.4, 0.9), 30))
        assert spectral == pytest.approx(uhlmann, abs=1e-8)
