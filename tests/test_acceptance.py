"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test enforces its runtime budget; the Fock-space criterion is the
longest (a few seconds of sector-blocked linear algebra).
"""

import math
import time

import numpy as np
import pytest

from gaussfisher import cli
from gaussfisher import closed_form as cf
from gaussfisher import core, curvature, fock, geometry
from gaussfisher.states import FamilyPoint, separability_threshold
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


@pytest.mark.slow
def test_criterion_2_fidelity_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for draw in (random_mts, random_sts):
        for _ in range(200):
            a, b = draw(rng), draw(rng)
            closed = cf.fidelity_special(a, b)
            general = core.fidelity_two_mode(a.to_state(), b.to_state()).fidelity
            assert abs(closed - general) / closed <= 1e-10

    for _ in range(10):
        a = FamilyPoint.mts(rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5),
                            rng.uniform(0.05, math.pi - 0.05),
                            rng.uniform(-math.pi, math.pi))
        b = FamilyPoint.mts(rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5),
                            rng.uniform(0.05, math.pi - 0.05),
                            rng.uniform(-math.pi, math.pi))
        uhlmann = fock.uhlmann_fidelity(fock.family_dm(a, 25), fock.family_dm(b, 25))
        assert abs(uhlmann - cf.fidelity_special(a, b)) <= 1e-6

    for _ in range(10):
        a = FamilyPoint.sts(rng.uniform(0.02, 0.3), rng.uniform(0.02, 0.3),
                            rng.uniform(0.0, 0.4), rng.uniform(-math.pi, math.pi))
        b = FamilyPoint.sts(rng.uniform(0.02, 0.3), rng.uniform(0.02, 0.3),
                            rng.uniform(0.0, 0.4), rng.uniform(-math.pi, math.pi))
        uhlmann = fock.uhlmann_fidelity(fock.family_dm(a, 40), fock.family_dm(b, 40))
        assert abs(uhlmann - cf.fidelity_special(a, b)) <= 1e-4
    assert time.monotonic() - start < 300.0


def test_criterion_3_metric_reproduction():
    start = time.monotonic()
    rng = np.random.default_rng(31)
    for tag in ("MTS", "STS"):
        for _ in range(20):
            if tag == "MTS":
                point = FamilyPoint.mts(rng.uniform(1.0, 2.5), rng.uniform(0.1, 0.8),
                                        rng.uniform(0.4, math.pi - 0.4),
                                        rng.uniform(-2.0, 2.0))
            else:
                point = FamilyPoint.sts(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0),
                                        rng.uniform(0.2, 1.0), rng.uniform(-2.0, 2.0))
            numeric = geometry.numeric_metric(point).matrix
            h = geometry.qfi_closed(point).h
            closed = 0.25 * np.array([h[k] for k in geometry.coord_names(tag)])
            assert np.max(np.abs(np.diag(numeric) - closed) / closed) <= 1e-4
            off = numeric - np.diag(np.diag(numeric))
            assert np.abs(off).max() < 1e-6
    assert time.monotonic() - start < 30.0


def test_criterion_4_curvature_three_way_agreement():
    start = time.monotonic()
    rng = np.random.default_rng(41)
    for tag in ("MTS", "STS"):
        field = curvature.family_metric_field(tag)
        for _ in range(10):
            n1, n2 = rng.uniform(1.0, 2.5), rng.uniform(0.1, 0.8)
            closed = curvature.scalar_closed(tag, n1, n2)
            point = [n1, n2, rng.uniform(0.4, 2.6), rng.uniform(-2.0, 2.0)]
            pipeline = curvature.scalar_curvature_pipeline(field, point).scalar_r
            assert abs(pipeline - closed) / abs(closed) <= 1e-3
            warped = curvature.scalar_warped(tag, n1, n2)
            assert abs(warped - closed) / abs(closed) <= 1e-9
        values = [
            curvature.scalar_curvature_pipeline(field, [1.8, 0.4, dev, phi]).scalar_r
            for dev in np.linspace(0.5, 2.5, 5)
            for phi in np.linspace(-2.0, 2.0, 5)
        ]
        assert max(values) - min(values) < 1e-3 * abs(np.mean(values))
    assert time.monotonic() - start < 120.0


def test_criterion_5_constant_curvature_calibration():
    sphere = curvature.scalar_curvature_pipeline(curvature.fiber_field("MTS"), [1.1, 0.4])
    assert sphere.scalar_r == pytest.approx(2.0, abs=1e-6)
    hyper = curvature.scalar_curvature_pipeline(curvature.fiber_field("STS"),
                                                [0.9, -0.6])
    assert hyper.scalar_r == pytest.approx(-2.0, abs=1e-6)
    thermal = curvature.scalar_curvature_pipeline(curvature.thermal_field(),
                                                  [1.3, 0.7])
    assert thermal.scalar_r == pytest.approx(0.0, abs=1e-6)


def test_criterion_6_property_suites():
    start = time.monotonic()
    rng = np.random.default_rng(61)
    slack = 1e-9
    for _ in range(200):
        a, b = (random_mts(rng), random_mts(rng)) if rng.random() < 0.5 \
            else (random_sts(rng), random_sts(rng))
        out = core.fidelity_two_mode(a.to_state(), b.to_state())
        back = core.fidelity_two_mode(b.to_state(), a.to_state())
        assert abs(out.fidelity - back.fidelity) <= slack * out.fidelity
        assert out.fidelity <= 1.0 + slack
        assert out.fidelity >= out.overlap - slack
        assert out.delta >= 1.0 - slack
        assert out.gamma >= out.delta - slack * (1.0 + abs(out.gamma))
        assert out.lam >= -slack
        assert out.k_minus >= -slack
        assert out.k_plus - out.k_minus >= 2.0 - slack

    # saturation iff equal parameter records
    for _ in range(200):
        point = random_mts(rng) if rng.random() < 0.5 else random_sts(rng)
        assert abs(cf.fidelity_special(point, point) - 1.0) <= 1e-10
    for _ in range(25):
        n1, n2 = rng.uniform(1.5, 2.5), rng.uniform(0.2, 0.8)
        theta = rng.uniform(math.pi / 3.0, 2.0 * math.pi / 3.0)
        r = rng.uniform(0.3, 1.0)
        phi = rng.uniform(-1.5, 1.5)
        for base in (FamilyPoint.mts(n1, n2, theta, phi),
                     FamilyPoint.sts(n1, n2, r, phi)):
            for bump in range(4):
                delta = [0.0] * 4
                delta[bump] = 1e-3
                if base.tag == "MTS":
                    other = FamilyPoint.mts(n1 + delta[0], n2 + delta[1],
                                            theta + delta[2], phi + delta[3])
                else:
                    other = FamilyPoint.sts(n1 + delta[0], n2 + delta[1],
                                            r + delta[2], phi + delta[3])
                assert cf.fidelity_special(base, other) < 1.0 - slack

    # chain saturation: equal device settings reach the thermal fidelity,
    # different settings stay strictly below it
    for _ in range(50):
        hi = rng.uniform(1.2, 2.5, 2)
        lo = rng.uniform(0.3, 0.9, 2)
        theta = rng.uniform(0.4, math.pi - 0.4)
        phi = rng.uniform(-2.0, 2.0)
        f_thermal = cf.fidelity_ts(hi[0], lo[0], hi[1], lo[1])
        equal = cf.fidelity_special(FamilyPoint.mts(hi[0], lo[0], theta, phi),
                                    FamilyPoint.mts(hi[1], lo[1], theta, phi))
        assert abs(equal - f_thermal) <= slack
        shifted = cf.fidelity_special(FamilyPoint.mts(hi[0], lo[0], theta, phi),
                                      FamilyPoint.mts(hi[1], lo[1], theta + 0.3, phi))
        assert shifted < f_thermal - slack

    # same-occupancy chains against the thermal pair
    for _ in range(200):
        hi = rng.uniform(1.0, 3.0, 2)
        lo = rng.uniform(0.0, 0.9, 2)
        if rng.random() < 0.5:
            a = FamilyPoint.mts(hi[0], lo[0], rng.uniform(0.05, 3.0),
                                rng.uniform(-3.0, 3.0))
            b = FamilyPoint.mts(hi[1], lo[1], rng.uniform(0.05, 3.0),
                                rng.uniform(-3.0, 3.0))
        else:
            a = FamilyPoint.sts(hi[0], lo[0], rng.uniform(0.0, 1.2),
                                rng.uniform(-3.0, 3.0))
            b = FamilyPoint.sts(hi[1], lo[1], rng.uniform(0.0, 1.2),
                                rng.uniform(-3.0, 3.0))
        f_family = cf.fidelity_special(a, b)
        f_thermal = cf.fidelity_ts(a.params.n1, a.params.n2,
                                   b.params.n1, b.params.n2)
        assert f_family <= f_thermal + slack
        assert f_thermal <= 1.0 + slack
    assert time.monotonic() - start < 10.0


def test_criterion_7_jeffreys_identity():
    rng = np.random.default_rng(71)
    for _ in range(50):
        n1, n2 = rng.uniform(0.05, 3.0, 2)
        r = rng.uniform(0.02, 1.5)
        product = geometry.jeffreys_prior(FamilyPoint.sts(n1, n2, r, 0.0))
        closed = geometry.jeffreys_prior_sts_closed(n1, n2, r)
        assert abs(product - closed) / closed <= 1e-10
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
