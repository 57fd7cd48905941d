"""Acceptance suite: one test per criterion, at the stated tolerances.

The seeded criteria run the property checks of ``gaussfisher.verification``,
the same functions behind ``gaussfisher verify``, with their own seeds, draw
counts and bounds. Each test enforces its runtime budget; the Fock-space
criterion is the longest (about a second of sector-blocked linear algebra).
"""

import math
import time

import numpy as np
import pytest

from gaussfisher import cli
from gaussfisher import closed_form as cf
from gaussfisher import curvature, geometry
from gaussfisher import verification as v
from gaussfisher.states import MTS, STS, FamilyPoint, separability_threshold
from gaussfisher.verification import random_mts, random_sts

NS = curvature.SADDLE_OCCUPANCY


def test_criterion_1_closed_form_anchors():
    start = time.monotonic()
    assert curvature.scalar_closed("MTS", 0.5, 0.5) == pytest.approx(0.0, abs=1e-9)
    assert curvature.scalar_closed("MTS", 0.0, 1.0) == pytest.approx(20.0, abs=1e-9)
    for n1 in (1.0, 2.0, 9.0):
        assert curvature.scalar_closed("MTS", n1, 0.0) == pytest.approx(
            2.0 + 18.0 / n1, abs=1e-9)
    assert curvature.scalar_closed("STS", 0.0, 0.0) == pytest.approx(-16.0, abs=1e-9)
    assert curvature.scalar_closed("STS", 8.0, 0.0) == pytest.approx(0.0, abs=1e-9)
    assert curvature.scalar_closed("STS", NS, NS) == pytest.approx(
        -143.0 / 14.0, abs=1e-9)
    assert abs(curvature.scalar_closed("MTS", 100.0, 100.0) + 12.0) < 1e-2
    assert abs(curvature.scalar_closed("STS", 100.0, 100.0) + 12.0) < 1e-2

    # inflection of the symmetric STS section by bisection on the second
    # difference (concavity flips from negative to positive)
    h = 1e-4

    def second(n):
        f = lambda m: curvature.scalar_closed("STS", m, m)
        return (f(n - h) - 2.0 * f(n) + f(n + h)) / h**2

    lo, hi = 0.7, 1.5
    assert second(lo) < 0.0 < second(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if second(mid) < 0.0 else (lo, mid)
    n_i = 0.5 * (lo + hi)
    assert n_i == pytest.approx(0.9565, abs=1e-3)
    assert curvature.scalar_closed("STS", n_i, n_i) == pytest.approx(-10.5140, abs=1e-3)
    assert time.monotonic() - start < 1.0


def test_criterion_2_fidelity_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for draw in (random_mts, random_sts):
        assert v.closed_matches_general(rng, 200, lambda r: (draw(r), draw(r))) <= 1e-10
    assert v.fock_agreement(rng, 10, MTS, 25)[0] <= 1e-6
    assert v.fock_agreement(rng, 10, STS, 40)[0] <= 1e-4
    assert time.monotonic() - start < 300.0


def test_criterion_3_metric_reproduction():
    start = time.monotonic()
    diagonal, off_diagonal = v.numeric_metric_agreement(np.random.default_rng(31), 20)
    assert diagonal <= 1e-4
    assert off_diagonal < 1e-6
    assert time.monotonic() - start < 30.0


def test_criterion_4_curvature_three_way_agreement():
    start = time.monotonic()
    pipeline, warped, antisymmetry = v.curvature_agreement(np.random.default_rng(41), 10)
    assert pipeline <= 1e-3
    assert warped <= 1e-9
    assert antisymmetry < 1e-8
    assert v.device_independence(5) < 1e-3
    assert time.monotonic() - start < 120.0


def test_criterion_5_constant_curvature_calibration():
    assert v.constant_curvature_calibration() <= 1e-6


def test_criterion_6_property_suites():
    start = time.monotonic()
    rng = np.random.default_rng(61)
    slack = 1e-9

    def state_pair(r):
        return [p.to_state() for p in v.random_same_family_pair(r)]

    symmetry, excess, overlap, inequality, _ = v.fidelity_properties(rng, 200, state_pair)
    assert all(w <= slack for w in (symmetry, excess, overlap, inequality))

    # saturation iff equal parameter records
    assert v.self_fidelity(rng, 200, cf.fidelity_special) <= 1e-10
    assert v.separated_records(rng, 25) < 0.0

    # chain saturation: equal device settings reach the thermal fidelity,
    # different settings stay strictly below it
    equal, shifted = v.device_chain(rng, 50)
    assert equal <= slack
    assert shifted < -slack

    # same-occupancy chains against the thermal pair
    assert all(w <= slack for w in v.family_below_thermal(rng, 200))
    assert time.monotonic() - start < 10.0


def test_criterion_7_jeffreys_identity():
    assert v.jeffreys_two_variable(np.random.default_rng(71), 50) <= 1e-10
    rs = separability_threshold(0.9, 1.4)
    value = geometry.jeffreys_prior(FamilyPoint.sts(0.9, 1.4, rs, 0.0))
    assert value == pytest.approx(2.0 / math.cosh(2.0 * rs), rel=1e-10)


def test_criterion_8_figure_reproduction(tmp_path):
    def rows(figure, values):
        out = tmp_path / f"fig{figure.replace('.', '_')}.csv"
        assert cli.main(["surface", figure, "--values", values,
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        return lines[0].split(","), [line.split(",") for line in lines[1:]]

    # zero crossing of the symmetric MTS section at n = 1/2
    _, data = rows("2a", "0.5")
    assert abs(float(data[0][1])) <= 1e-6

    # edge curves: STS zero crossing at n1 = 8, common asymptote at 2
    header, data = rows("5", "8,100000000")
    assert header == ["n1", "R_MT_edge", "R_ST_edge"]
    assert abs(float(data[0][2])) <= 1e-6
    assert abs(float(data[1][1]) - 2.0) <= 1e-6
    assert abs(float(data[1][2]) - 2.0) <= 1e-6

    # watershed minimum at the saddle
    _, data = rows("4b", f"{NS!r}")
    assert abs(float(data[0][1]) + 143.0 / 14.0) <= 1e-6

    # symmetric sections approach -12
    _, data = rows("2a", "100000")
    assert abs(float(data[0][1]) + 12.0) <= 1e-6
    _, data = rows("4a", "100000")
    assert abs(float(data[0][1]) + 12.0) <= 1e-6

    # full-grid surfaces are emitted and byte-stable
    first = tmp_path / "fig1_a.csv"
    second = tmp_path / "fig1_b.csv"
    assert cli.main(["surface", "1", "--count", "21", "--out", str(first)]) == 0
    assert cli.main(["surface", "1", "--count", "21", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
