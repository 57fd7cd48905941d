"""Tests for the closed-form same-family fidelity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfisher import closed_form as cf
from gaussfisher import core
from gaussfisher import verification as v
from gaussfisher.errors import NumericalConsistencyError, ValidationError, cancellation_error
from gaussfisher.states import FamilyPoint, MtsParams, StsParams, TsParams
from gaussfisher.verification import random_mts, random_sts

occupancies = st.floats(min_value=0.0, max_value=5.0)


class TestQAffinity:
    def test_vacuum(self):
        assert cf.q_affinity(0.0, 0.0) == 1.0

    @pytest.mark.parametrize("x", [0.3, 1.0, 7.0])
    def test_equal_arguments_saturate(self, x):
        assert cf.q_affinity(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_zero_one(self):
        assert cf.q_affinity(0.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            cf.q_affinity(-0.1, 1.0)

    @pytest.mark.parametrize("x, y", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)])
    def test_rejects_non_finite(self, x, y):
        with pytest.raises(ValidationError):
            cf.q_affinity(x, y)

    @given(occupancies, occupancies)
    @settings(max_examples=100, deadline=None)
    def test_at_least_one(self, x, y):
        assert cf.q_affinity(x, y) >= 1.0 - 1e-12


class TestThermalFidelity:
    def test_equal_pairs(self):
        assert cf.fidelity_ts(0.7, 1.3, 0.7, 1.3) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_vs_unit(self):
        assert cf.fidelity_ts(0.0, 0.0, 1.0, 1.0) == pytest.approx(0.25, rel=1e-14)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            cf.fidelity_ts(math.nan, 1.0, 1.0, 1.0)

    def test_multiplicative_over_modes(self, rng):
        eye2 = np.eye(2)
        for _ in range(50):
            ns = rng.uniform(0.0, 3.0, 4)
            product = core.fidelity_one_mode(
                np.zeros(2), (ns[0] + 0.5) * eye2, np.zeros(2), (ns[2] + 0.5) * eye2
            ) * core.fidelity_one_mode(
                np.zeros(2), (ns[1] + 0.5) * eye2, np.zeros(2), (ns[3] + 0.5) * eye2)
            assert cf.fidelity_ts(*ns) == pytest.approx(product, rel=1e-12)


class TestPairInvariants:
    def test_identical_mts_gives_unit_fidelity(self, rng):
        for _ in range(20):
            point = random_mts(rng)
            assert cf.fidelity_special(point, point) == pytest.approx(1.0, abs=1e-12)

    def test_mts_thermal_reduction(self, rng):
        for _ in range(50):
            ns = rng.uniform(0.0, 3.0, 4)
            theta, phi = rng.uniform(0.0, math.pi - 1e-6), rng.uniform(-3.0, 3.0)
            km = cf.pair_invariants_mts(MtsParams(ns[0], ns[1], theta, phi),
                                        MtsParams(ns[2], ns[3], theta, phi))
            kt = cf.pair_invariants_ts(TsParams(ns[0], ns[1]), TsParams(ns[2], ns[3]))
            assert km.k_plus == pytest.approx(kt.k_plus, abs=1e-12 * (1 + kt.k_plus))
            assert km.k_minus == pytest.approx(kt.k_minus, abs=1e-12 * (1 + kt.k_plus))

    def test_sts_thermal_reduction(self, rng):
        for _ in range(50):
            ns = rng.uniform(0.0, 3.0, 4)
            r, phi = rng.uniform(0.0, 1.5), rng.uniform(-3.0, 3.0)
            ks = cf.pair_invariants_sts(StsParams(ns[0], ns[1], r, phi),
                                        StsParams(ns[2], ns[3], r, phi))
            kt = cf.pair_invariants_ts(TsParams(ns[0], ns[1]), TsParams(ns[2], ns[3]))
            assert ks.k_plus == pytest.approx(kt.k_plus, abs=1e-12 * (1 + kt.k_plus))
            assert ks.k_minus == pytest.approx(kt.k_minus, abs=1e-12 * (1 + kt.k_plus))

    def test_matches_general_invariants(self, rng):
        # the general covariance-matrix path is the oracle for K+-
        for _ in range(50):
            pair = (random_mts(rng), random_mts(rng)) if rng.random() < 0.5 \
                else (random_sts(rng), random_sts(rng))
            closed = cf.pair_invariants(*pair)
            general = core.compute_invariants(*(p.to_state().cov for p in pair))
            assert closed.k_plus == pytest.approx(general.k_plus, rel=1e-10)
            assert closed.k_minus == pytest.approx(general.k_minus, rel=1e-10, abs=1e-10)

    @given(occupancies, occupancies, occupancies, occupancies,
           st.floats(min_value=0.0, max_value=math.pi - 1e-6),
           st.floats(min_value=0.0, max_value=math.pi - 1e-6))
    @settings(max_examples=100, deadline=None)
    def test_gap_at_least_two(self, n1a, n2a, n1b, n2b, ta, tb):
        inv = cf.pair_invariants_mts(MtsParams(n1a, n2a, ta, 0.3),
                                     MtsParams(n1b, n2b, tb, -0.4))
        assert inv.k_plus - inv.k_minus >= 2.0 - 1e-9


class TestFidelitySpecial:
    def test_rejects_mixed_families(self, rng):
        with pytest.raises(ValidationError):
            cf.fidelity_special(random_mts(rng), random_sts(rng))

    def test_oracle_equivalence(self, rng):
        assert v.closed_matches_general(rng, 200) <= 1e-10

    def test_phase_even_and_decreasing(self, rng):
        even, rise = v.phase_dependence(rng, 5)
        assert even <= 1e-12
        assert rise < 0.0

    def test_bounded_by_thermal_fidelity(self, rng):
        for _ in range(200):
            hi = rng.uniform(1.0, 3.0, 2)
            lo = rng.uniform(0.0, 0.9, 2)
            if rng.random() < 0.5:
                a = FamilyPoint.mts(hi[0], lo[0], rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0))
                b = FamilyPoint.mts(hi[1], lo[1], rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0))
            else:
                a = FamilyPoint.sts(hi[0], lo[0], rng.uniform(0.0, 1.2), rng.uniform(-3.0, 3.0))
                b = FamilyPoint.sts(hi[1], lo[1], rng.uniform(0.0, 1.2), rng.uniform(-3.0, 3.0))
            f_family = cf.fidelity_special(a, b)
            f_thermal = cf.fidelity_ts(a.params.n1, a.params.n2, b.params.n1, b.params.n2)
            assert f_family <= f_thermal + 1e-9
            assert f_thermal <= 1.0 + 1e-9

    def test_chain_saturates_iff_devices_match(self, rng):
        equal, shifted = v.device_chain(rng, 40)
        assert equal <= 1e-12
        assert shifted < -1e-9

    def test_saturation_iff_equal_records(self, rng):
        assert v.self_fidelity(rng, 40, cf.fidelity_special) <= 1e-10
        # records differing by 1e-3 in a well-conditioned region stay below 1
        assert v.separated_records(rng, 20) < 0.0

    @pytest.mark.parametrize("point", [FamilyPoint.ts(1e8, 1e8),
                                       FamilyPoint.mts(1e8, 1e8, 0.5, 0.2),
                                       FamilyPoint.sts(1e8, 1e8, 0.5, 0.2)],
                             ids=["ts", "mts", "sts"])
    def test_cancelled_self_pair_raises_consistency_error(self, point):
        # past double precision the self-pair's invariants cancel: for TS and
        # MTS k_plus - k_minus rounds below 2; for STS that gap stays large
        # but sqrt(k_plus) - sqrt(k_minus) rounds to 0, which used to raise
        # a bare ZeroDivisionError
        with pytest.raises(NumericalConsistencyError):
            cf.fidelity_special(point, point)

    def test_bit_identical_to_pair_invariants(self, rng):
        draws = {"TS": lambda: FamilyPoint.ts(*rng.uniform(0.0, 3.0, 2)),
                 "MTS": lambda: random_mts(rng), "STS": lambda: random_sts(rng)}
        for _ in range(100):
            for draw in draws.values():
                a, b = draw(), draw()
                inv = cf.pair_invariants(a, b)
                expected = 2.0 / (math.sqrt(inv.k_plus) - math.sqrt(inv.k_minus)) ** 2
                assert cf.fidelity_special(a, b) == expected

    @pytest.mark.parametrize("point", [FamilyPoint.ts(1e8, 1e8),
                                       FamilyPoint.mts(1e8, 1e8, 0.5, 0.2)],
                             ids=["ts", "mts"])
    def test_gap_error_same_as_record(self, point):
        with pytest.raises(NumericalConsistencyError, match="^k_plus - k_minus = ") as record:
            cf.pair_invariants(point, point)
        with pytest.raises(NumericalConsistencyError) as special:
            cf.fidelity_special(point, point)
        assert str(special.value) == str(record.value)

    def test_cancellation_error_names_the_invariants(self):
        point = FamilyPoint.sts(1e8, 1e8, 0.5, 0.2)
        inv = cf.pair_invariants(point, point)
        with pytest.raises(NumericalConsistencyError) as special:
            cf.fidelity_special(point, point)
        assert str(special.value) == str(cancellation_error(inv.k_plus, inv.k_minus))
