"""Tests for the truncated Fock-space oracle.

The spec-level agreement runs (d = 25 and d = 40, ten pairs each) live in
the acceptance suite; here the operations are checked at small
truncations, and the sector blocks against the dense truncated generator.
"""

import dataclasses
import math

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


class TestThermalDm:
    def test_vacuum_projector(self):
        rho = fock.thermal_dm(0.0, 0.0, 6)
        expected = np.zeros((36, 36))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(dense_matrix(FamilyPoint.ts(0.0, 0.0), 6), expected)
        assert rho.trace_deficit == 0.0

    def test_single_mode_weights(self):
        rho = fock.thermal_dm(1.0, 0.0, 30)
        diag = np.diag(dense_matrix(FamilyPoint.ts(1.0, 0.0), 30)).real.reshape(30, 30)
        np.testing.assert_allclose(diag[:, 0], 0.5 ** (np.arange(30) + 1.0),
                                   rtol=1e-12)
        assert rho.trace_deficit < 1e-9

    def test_trace_monotone_in_truncation(self):
        deficits = [fock.thermal_dm(0.8, 0.5, d, max_deficit=1.0).trace_deficit
                    for d in (8, 16, 32)]
        assert deficits[0] > deficits[1] > deficits[2] >= 0.0

    def test_deficit_guard(self):
        with pytest.raises(TruncationError):
            fock.thermal_dm(5.0, 5.0, 3)

    @pytest.mark.parametrize("n1, n2", [(math.nan, 1.0), (1.0, math.inf), (-0.1, 0.2)])
    def test_rejects_bad_occupancies(self, n1, n2):
        with pytest.raises(ValidationError):
            fock.thermal_dm(n1, n2, 6)


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
        u = fock.sq_unitary(r, phi, d, max_defect=1.0)
        assert np.abs(u - reference).max() <= 1e-13

    def test_sq_defect_guard_still_applies(self):
        with pytest.raises(TruncationError):
            fock.sq_unitary(1.5, 0.3, 6, max_defect=0.0)


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
        mixed = fock.thermal_dm(0.3, 0.2, d)
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
        """(size, dtype) of each matrix whose trace norm the oracle takes."""
        inputs = []
        trace_norm = fock._trace_norm

        def recording(m):
            inputs.append((max(m.shape), m.dtype))
            return trace_norm(m)

        monkeypatch.setattr(fock, "_trace_norm", recording)
        return inputs

    def test_cross_family_takes_parity_path(self, svd_inputs):
        d = 16
        a = FamilyPoint.mts(0.3, 0.15, 1.2, 0.4)
        b = FamilyPoint.sts(0.2, 0.1, 0.3, -0.8)
        general = core.fidelity_two_mode(a.to_state(), b.to_state())
        for pair in ((a, b), (b, a)):
            value = fock.uhlmann_fidelity(*(fock.family_dm(p, d) for p in pair))
            assert value == pytest.approx(general.fidelity, abs=1e-10)
        # both device phases gauge out, so the two SVDs per pair are real
        assert svd_inputs == [((d * d + 1) // 2, np.float64), (d * d // 2, np.float64)] * 2

    @pytest.mark.parametrize("device", [FamilyPoint.mts(0.3, 0.15, 1.2, 0.4),
                                        FamilyPoint.sts(0.2, 0.1, 0.3, -0.8)])
    def test_thermal_pair_takes_sector_path(self, device, svd_inputs):
        d = 16
        thermal = FamilyPoint.ts(0.25, 0.35)
        general = core.fidelity_two_mode(thermal.to_state(), device.to_state())
        for pair in ((thermal, device), (device, thermal)):
            value = fock.uhlmann_fidelity(*(fock.family_dm(p, d) for p in pair))
            assert value == pytest.approx(general.fidelity, abs=1e-9)
        sizes = [size for size, _ in svd_inputs]
        assert len(sizes) == 2 * (2 * d - 1) and max(sizes) == d
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
        assert max(size for size, _ in svd_inputs) == (d * d + 1) // 2

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
        with pytest.raises(ValidationError):
            fock.uhlmann_fidelity(fock.thermal_dm(0.1, 0.1, 10),
                                  fock.thermal_dm(0.1, 0.1, 12))


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
        assert all(o.dtype == np.float64 for o in rho.blocks)

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
        uhlmann = fock.uhlmann_fidelity(fock.thermal_dm(0.7, 0.3, 30),
                                        fock.thermal_dm(0.4, 0.9, 30))
        assert spectral == pytest.approx(uhlmann, abs=1e-8)
