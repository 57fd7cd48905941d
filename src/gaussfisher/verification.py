"""Seeded property checks and the self-verification suites behind ``verify``.

Each check function draws its inputs from the generator it is given and
returns the worst deviation it saw (a tuple where one loop measures several
properties). The ``verify`` suites, the acceptance criteria and the unit
tests call the same functions, each with its own seed, draw count and bound.
A NaN deviation is returned as NaN, so it fails every bound. Everything is
deterministic for a fixed seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import closed_form as cf
from . import core, curvature, fock, geometry
from .states import (MTS, STS, FamilyPoint, MtsParams, StsParams, TsParams,
                     bs_symplectic, rotation2, separability_threshold,
                     sq_symplectic)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(results, name, worst, bound, extra=""):
    passed = bool(worst <= bound)
    detail = f"worst {worst:.3e} vs bound {bound:.1e}"
    if extra:
        detail += f" ({extra})"
    results.append(CheckResult(name, passed, detail))


def _worst(values, floor=0.0) -> float:
    """Largest of ``floor`` and ``values``; any NaN among them is returned."""
    return float(np.max([floor, *values]))


def _worst_columns(rows, floors):
    """:func:`_worst` of each column of ``rows``, one floor per column."""
    return tuple(_worst(column, floor) for column, floor in zip(zip(*rows), floors))


# --- random draws --------------------------------------------------------


def random_mts(rng, occ_high=2.5) -> FamilyPoint:
    n1, n2 = rng.uniform(0.05, occ_high, 2)
    return FamilyPoint.mts(n1, n2, rng.uniform(0.05, math.pi - 0.05),
                           rng.uniform(-math.pi, math.pi))


def random_sts(rng, occ_high=2.5, r_high=1.2) -> FamilyPoint:
    n1, n2 = rng.uniform(0.05, occ_high, 2)
    return FamilyPoint.sts(n1, n2, rng.uniform(0.0, r_high),
                           rng.uniform(-math.pi, math.pi))


def random_physical_state(rng, displaced=False) -> core.TwoModeGaussian:
    """Generic physical state: random symplectic image of a mixed thermal."""
    nu1, nu2 = rng.uniform(0.55, 2.0, 2)
    base = np.diag([nu1, nu1, nu2, nu2])
    local = np.zeros((4, 4))
    local[:2, :2] = rotation2(rng.uniform(-math.pi, math.pi))
    local[2:, 2:] = rotation2(rng.uniform(-math.pi, math.pi))
    s = (
        local
        @ sq_symplectic(rng.uniform(0.0, 0.8), rng.uniform(-math.pi, math.pi))
        @ bs_symplectic(rng.uniform(0.05, math.pi - 0.05), rng.uniform(-math.pi, math.pi))
    )
    mean = rng.normal(0.0, 0.7, 4) if displaced else np.zeros(4)
    return core.TwoModeGaussian(mean=mean, cov=s @ base @ s.T)


def random_same_family_pair(rng):
    """Two random MTS points or two random STS points, with equal odds."""
    if rng.random() < 0.5:
        return random_mts(rng), random_mts(rng)
    return random_sts(rng), random_sts(rng)


def _displaced_pair(rng):
    return random_physical_state(rng, displaced=True), random_physical_state(rng, displaced=True)


def _general_fidelity(a: FamilyPoint, b: FamilyPoint) -> float:
    return core.fidelity_two_mode(a.to_state(), b.to_state()).fidelity


# --- general two-mode checks ---------------------------------------------


def fidelity_properties(rng, count, draw_pair):
    """General-route properties on ``count`` state pairs from ``draw_pair(rng)``.

    Returns the worst (relative asymmetry F(a, b) vs F(b, a), F - 1,
    overlap - F, determinant-inequality violation, relative residual of
    the overlap proportionality identity).
    """
    rows = []
    for _ in range(count):
        a, b = draw_pair(rng)
        fab, fba = core.fidelity_two_mode(a, b), core.fidelity_two_mode(b, a)
        factor = 1.0 + math.sqrt(fab.k_minus / fab.delta) * (
            math.sqrt(fab.k_plus) + math.sqrt(fab.k_minus))
        inequality = _worst((1.0 - fab.delta, fab.delta - fab.gamma, -fab.lam,
                             -fab.k_minus, 2.0 - (fab.k_plus - fab.k_minus)), -math.inf)
        rows.append((abs(fab.fidelity - fba.fidelity) / fab.fidelity,
                     fab.fidelity - 1.0, fab.overlap - fab.fidelity, inequality,
                     abs(fab.fidelity - factor * fab.overlap) / fab.fidelity))
    return _worst_columns(rows, (0.0, 0.0, 0.0, -math.inf, 0.0))


def self_fidelity(rng, count, fidelity=_general_fidelity):
    """Worst |F(x, x) - 1| over ``count`` random MTS or STS points."""
    points = [random_mts(rng) if rng.random() < 0.5 else random_sts(rng)
              for _ in range(count)]
    return _worst(abs(fidelity(p, p) - 1.0) for p in points)


def separated_records(rng, count):
    """Largest F - (1 - 1e-9) over same-family pairs whose records differ by
    1e-3 in one coordinate, drawn where every metric component is order 1e-3
    or larger; negative when all such pairs stay below 1 - 1e-9."""
    pairs = []
    for _ in range(count):
        n1 = rng.uniform(1.5, 2.5)
        n2 = rng.uniform(0.2, 0.8)
        theta = rng.uniform(math.pi / 3.0, 2.0 * math.pi / 3.0)
        phi = rng.uniform(-1.5, 1.5)
        base = (n1, n2, theta, phi)
        pairs += [(FamilyPoint.mts(*base), FamilyPoint.mts(*np.add(base, bump)))
                  for bump in 1e-3 * np.eye(4)]
        base = (n1, n2, rng.uniform(0.3, 1.0), phi)
        pairs += [(FamilyPoint.sts(*base), FamilyPoint.sts(*np.add(base, bump)))
                  for bump in 1e-3 * np.eye(4)]
    return _worst((cf.fidelity_special(a, b) - (1.0 - 1e-9) for a, b in pairs), -math.inf)


def pure_state_overlap(rng, count):
    """Worst |F - overlap| between a squeezed vacuum and a mixed STS."""
    worst = []
    for _ in range(count):
        pure = FamilyPoint.sts(0.0, 0.0, rng.uniform(0.1, 1.0),
                               rng.uniform(-math.pi, math.pi))
        mixed = random_sts(rng, occ_high=1.0)
        f = core.fidelity_two_mode(pure.to_state(), mixed.to_state())
        worst.append(abs(f.fidelity - f.overlap))
    return _worst(worst)


def classical_hellinger(rng, count):
    """Worst Hellinger-distance error against the direct sum over outcomes."""
    worst = []
    for _ in range(count):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        direct = math.sqrt(((np.sqrt(p) - np.sqrt(q)) ** 2).sum())
        worst.append(abs(core.classical_fidelity(p, q)["d_h"] - direct))
    return _worst(worst)


# --- closed-form (appendix) checks ---------------------------------------


def affinity_at_least_one(rng, count):
    """Worst violation of Q(x, y) >= 1 and of Q(x, x) = 1."""
    worst = []
    for _ in range(count):
        x, y = rng.uniform(0.0, 5.0, 2)
        worst += [1.0 - cf.q_affinity(x, y), abs(cf.q_affinity(x, x) - 1.0)]
    return _worst(worst)


def thermal_multiplicativity(rng, count):
    """Worst |F_TS - F_mode1 F_mode2| against the one-mode fidelity."""
    eye2 = np.eye(2)

    def one_mode(na, nb):
        return core.fidelity_one_mode(np.zeros(2), (na + 0.5) * eye2,
                                      np.zeros(2), (nb + 0.5) * eye2)

    worst = []
    for _ in range(count):
        ns = rng.uniform(0.0, 3.0, 4)
        worst.append(abs(cf.fidelity_ts(*ns) - one_mode(ns[0], ns[2]) * one_mode(ns[1], ns[3])))
    return _worst(worst)


def thermal_reduction(rng, count):
    """Worst scaled distance of equal-device MTS and STS invariants from the
    thermal pair's."""
    worst = []
    for _ in range(count):
        ns = rng.uniform(0.0, 3.0, 4)
        theta, phi = rng.uniform(0.05, math.pi - 0.05), rng.uniform(-math.pi, math.pi)
        r = rng.uniform(0.0, 1.2)
        km = cf.pair_invariants_mts(MtsParams(ns[0], ns[1], theta, phi),
                                    MtsParams(ns[2], ns[3], theta, phi))
        ks = cf.pair_invariants_sts(StsParams(ns[0], ns[1], r, phi),
                                    StsParams(ns[2], ns[3], r, phi))
        kt = cf.pair_invariants_ts(TsParams(ns[0], ns[1]), TsParams(ns[2], ns[3]))
        worst += [abs(k.k_plus - kt.k_plus) / (1.0 + kt.k_plus) for k in (km, ks)]
        worst += [abs(k.k_minus - kt.k_minus) / (1.0 + kt.k_plus) for k in (km, ks)]
    return _worst(worst)


def family_below_thermal(rng, count):
    """Largest (F_family - F_thermal, F_thermal - 1) over same-family pairs
    ordered n1 > n2, the device convention of the chain."""
    rows = []
    for _ in range(count):
        hi = rng.uniform(1.0, 3.0, 2)
        lo = rng.uniform(0.0, 0.9, 2)
        if rng.random() < 0.5:
            a = FamilyPoint.mts(hi[0], lo[0], rng.uniform(0.05, 3.0), rng.uniform(-3.0, 3.0))
            b = FamilyPoint.mts(hi[1], lo[1], rng.uniform(0.05, 3.0), rng.uniform(-3.0, 3.0))
        else:
            a = FamilyPoint.sts(hi[0], lo[0], rng.uniform(0.0, 1.2), rng.uniform(-3.0, 3.0))
            b = FamilyPoint.sts(hi[1], lo[1], rng.uniform(0.0, 1.2), rng.uniform(-3.0, 3.0))
        f_thermal = cf.fidelity_ts(hi[0], lo[0], hi[1], lo[1])
        rows.append((cf.fidelity_special(a, b) - f_thermal, f_thermal - 1.0))
    return _worst_columns(rows, (-math.inf, -math.inf))


def chain_saturation(rng, count):
    """Worst |F_family - F_thermal| for MTS and STS pairs with equal devices."""
    worst = []
    for _ in range(count):
        ns = rng.uniform(0.0, 2.5, 4)
        theta = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(-math.pi, math.pi)
        r = rng.uniform(0.0, 1.2)
        ft = cf.fidelity_ts(*ns)
        worst += [
            abs(cf.fidelity_special(FamilyPoint.mts(ns[0], ns[1], theta, phi),
                                    FamilyPoint.mts(ns[2], ns[3], theta, phi)) - ft),
            abs(cf.fidelity_special(FamilyPoint.sts(ns[0], ns[1], r, phi),
                                    FamilyPoint.sts(ns[2], ns[3], r, phi)) - ft),
        ]
    return _worst(worst)


def device_chain(rng, count):
    """MTS pairs ordered n1 > n2: equal beam splitters reach the thermal
    fidelity, a theta offset of 0.3 falls below it. Returns the worst
    |F_equal - F_thermal| and the largest F_shifted - F_thermal."""
    rows = []
    for _ in range(count):
        hi = rng.uniform(1.2, 2.5, 2)
        lo = rng.uniform(0.3, 0.9, 2)
        theta, phi = rng.uniform(0.4, math.pi - 0.4), rng.uniform(-2.0, 2.0)
        ft = cf.fidelity_ts(hi[0], lo[0], hi[1], lo[1])
        a = FamilyPoint.mts(hi[0], lo[0], theta, phi)
        equal = cf.fidelity_special(a, FamilyPoint.mts(hi[1], lo[1], theta, phi))
        shifted = cf.fidelity_special(a, FamilyPoint.mts(hi[1], lo[1], theta + 0.3, phi))
        rows.append((abs(equal - ft), shifted - ft))
    return _worst_columns(rows, (0.0, -math.inf))


def phase_dependence(rng, count):
    """Phase sweeps phi in [0, pi] of MTS and STS pairs ordered n1 > n2, the
    convention under which the dependence is monotone. Returns the worst
    |F(-phi) - F(phi)| and the largest rise between neighbouring samples
    (negative when every sweep strictly decreases)."""
    grid = np.linspace(0.0, math.pi, 9)
    rows = []
    for _ in range(count):
        hi = rng.uniform(1.0, 2.0, 2)
        lo = rng.uniform(0.1, 0.9, 2)
        theta = rng.uniform(0.4, math.pi - 0.4)
        r = rng.uniform(0.3, 1.0)
        for make in (
            lambda s: cf.fidelity_special(FamilyPoint.mts(hi[0], lo[0], theta, 0.0),
                                          FamilyPoint.mts(hi[1], lo[1], theta, s)),
            lambda s: cf.fidelity_special(FamilyPoint.sts(hi[0], lo[0], r, 0.0),
                                          FamilyPoint.sts(hi[1], lo[1], r, s)),
        ):
            values = [make(s) for s in grid]
            # s = pi is excluded: -pi falls outside the phase range
            even = _worst(abs(make(-s) - v) for s, v in zip(grid[1:-1], values[1:-1]))
            rows.append((even, _worst(np.diff(values), -math.inf)))
    return _worst_columns(rows, (0.0, -math.inf))


def invariant_gap(rng, count):
    """Largest 2 - (k_plus - k_minus) over random same-family pairs."""
    worst = []
    for _ in range(count):
        inv = cf.pair_invariants(*random_same_family_pair(rng))
        worst.append(2.0 - (inv.k_plus - inv.k_minus))
    return _worst(worst, -math.inf)


def closed_matches_general(rng, count, draw_pair=random_same_family_pair):
    """Worst relative distance of the closed-form fidelity from the general
    covariance-matrix route on ``count`` pairs from ``draw_pair(rng)``."""
    worst = []
    for _ in range(count):
        a, b = draw_pair(rng)
        f_closed = cf.fidelity_special(a, b)
        worst.append(abs(f_closed - _general_fidelity(a, b)) / f_closed)
    return _worst(worst)


# --- metric checks -------------------------------------------------------


def metric_deviation(point: FamilyPoint):
    """Finite-difference Bures metric at ``point`` and its distance from the
    closed form: (metric, worst relative diagonal deviation, largest
    off-diagonal entry)."""
    metric = geometry.numeric_metric(point)
    h = geometry.qfi_closed(point).h
    closed = 0.25 * np.array([h[k] for k in metric.coords])
    diag = np.diag(metric.matrix)
    return (metric, float(np.max(np.abs(diag - closed) / closed)),
            float(np.abs(metric.matrix - np.diag(diag)).max()))


def numeric_metric_agreement(rng, count):
    """:func:`metric_deviation` at ``count`` points per family; returns the
    worst diagonal and off-diagonal deviations."""
    rows = []
    for tag in (MTS, STS):
        for _ in range(count):
            if tag == MTS:
                point = FamilyPoint.mts(rng.uniform(1.0, 2.5), rng.uniform(0.1, 0.8),
                                        rng.uniform(0.4, math.pi - 0.4), rng.uniform(-2.0, 2.0))
            else:
                point = FamilyPoint.sts(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0),
                                        rng.uniform(0.2, 1.0), rng.uniform(-2.0, 2.0))
            rows.append(metric_deviation(point)[1:])
    return _worst_columns(rows, (0.0, 0.0))


def flat_thermal_coordinates(rng, count):
    """Worst entry of J g J - I, with x = asinh(sqrt(n)) flattening the
    thermal metric g."""
    worst = []
    for _ in range(count):
        n1, n2 = rng.uniform(0.05, 4.0, 2)
        x1, x2 = math.asinh(math.sqrt(n1)), math.asinh(math.sqrt(n2))
        jac = np.diag([math.sinh(2.0 * x1), math.sinh(2.0 * x2)])
        worst.append(np.abs(jac @ geometry.ts_metric(n1, n2).matrix @ jac - np.eye(2)).max())
    return _worst(worst)


def warped_recombination(rng, count):
    """Worst distance of the device components H/4 from f^2 and f^2 F(x)^2."""
    worst = []
    for _ in range(count):
        for tag in (MTS, STS):
            if tag == MTS:
                point = FamilyPoint.mts(rng.uniform(1.0, 2.5), rng.uniform(0.1, 0.8),
                                        rng.uniform(0.3, 2.8), 0.3)
                fiber = math.sin(point.params.theta) ** 2
            else:
                point = FamilyPoint.sts(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0),
                                        rng.uniform(0.1, 1.0), 0.3)
                fiber = math.sinh(2.0 * point.params.r) ** 2
            h = geometry.qfi_closed(point).h
            f = geometry.warping_function(tag, point.params.n1, point.params.n2)
            dev = h["theta" if tag == MTS else "2r"]
            worst += [abs(0.25 * dev - f * f), abs(0.25 * h["phi"] - f * f * fiber)]
    return _worst(worst)


def jeffreys_two_variable(rng, count):
    """Worst relative distance of the STS Jeffreys prior from its
    two-variable form 4 sinh(2r) / sinh(4 r_s)."""
    worst = []
    for _ in range(count):
        n1, n2 = rng.uniform(0.05, 3.0, 2)
        r = rng.uniform(0.02, 1.5)
        point = FamilyPoint.sts(n1, n2, r, rng.uniform(-3.0, 3.0))
        closed = geometry.jeffreys_prior_sts_closed(n1, n2, r)
        worst.append(abs(geometry.jeffreys_prior(point) - closed) / closed)
    return _worst(worst)


# --- curvature checks ----------------------------------------------------


def constant_curvature_calibration():
    """Worst pipeline error on the unit sphere (R = 2), the unit hyperboloid
    (R = -2) and the flat thermal manifold."""
    pipeline = curvature.scalar_curvature_pipeline
    return _worst([
        abs(pipeline(curvature.fiber_field(MTS), [1.1, 0.4]).scalar_r - 2.0),
        abs(pipeline(curvature.fiber_field(STS), [0.9, -0.6]).scalar_r + 2.0),
        abs(pipeline(curvature.thermal_field(), [1.3, 0.7]).scalar_r),
    ])


def curvature_agreement(rng, count):
    """Pipeline and warped curvature against the closed form at ``count``
    points per family; returns the worst relative pipeline error, the worst
    relative warped error and the largest Riemann antisymmetry residual."""
    rows = []
    for tag in (MTS, STS):
        fld = curvature.family_metric_field(tag)
        for _ in range(count):
            n1 = rng.uniform(1.0, 2.5)
            n2 = rng.uniform(0.1, 0.8)
            closed = curvature.scalar_closed(tag, n1, n2)
            device = [rng.uniform(0.4, 2.6), rng.uniform(-2.0, 2.0)]
            report = curvature.scalar_curvature_pipeline(fld, [n1, n2] + device)
            rows.append((abs(report.scalar_r - closed) / abs(closed),
                         abs(curvature.scalar_warped(tag, n1, n2) - closed) / abs(closed),
                         report.residuals["antisymmetry"]))
    return _worst_columns(rows, (0.0, 0.0, 0.0))


def device_independence(count):
    """Largest relative spread of the pipeline curvature at (1.8, 0.4) over a
    ``count`` x ``count`` grid of device points, over both families."""
    spreads = []
    for tag in (MTS, STS):
        fld = curvature.family_metric_field(tag)
        values = [
            curvature.scalar_curvature_pipeline(fld, [1.8, 0.4, dev, phi]).scalar_r
            for dev in np.linspace(0.5, 2.5, count)
            for phi in np.linspace(-2.0, 2.0, count)
        ]
        spreads.append(np.ptp(values) / abs(np.mean(values)))
    return _worst(spreads)


# --- Fock oracle checks --------------------------------------------------


def _low_occupancy_point(rng, tag):
    if tag == MTS:
        return FamilyPoint.mts(rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5),
                               rng.uniform(0.05, math.pi - 0.05), rng.uniform(-math.pi, math.pi))
    return FamilyPoint.sts(rng.uniform(0.02, 0.3), rng.uniform(0.02, 0.3),
                           rng.uniform(0.0, 0.4), rng.uniform(-math.pi, math.pi))


def _fock_deviations(pairs, d, fidelity):
    """Worst |Uhlmann - ``fidelity``| and worst |Fock overlap - general
    overlap| over ``pairs`` at per-mode truncation ``d``."""
    rows = []
    for a, b in pairs:
        rho_a, rho_b = fock.family_dm(a, d), fock.family_dm(b, d)
        overlap = core.fidelity_two_mode(a.to_state(), b.to_state()).overlap
        rows.append((abs(fock.uhlmann_fidelity(rho_a, rho_b) - fidelity(a, b)),
                     abs(fock.overlap_fock(rho_a, rho_b) - overlap)))
    return _worst_columns(rows, (0.0, 0.0))


def fock_agreement(rng, count, tag, d):
    """Truncated-Fock oracle at per-mode truncation ``d`` on ``count``
    low-occupancy ``tag`` pairs; returns the worst |Uhlmann - closed form|
    and the worst |Fock overlap - general overlap|."""
    pairs = ((_low_occupancy_point(rng, tag), _low_occupancy_point(rng, tag))
             for _ in range(count))
    return _fock_deviations(pairs, d, cf.fidelity_special)


def fock_cross_agreement(rng, count, d):
    """Truncated-Fock oracle at per-mode truncation ``d`` on ``count``
    low-occupancy mode-mixed x squeezed pairs; returns the worst
    |Uhlmann - general| and the worst |Fock overlap - general overlap|."""
    pairs = ((_low_occupancy_point(rng, MTS), _low_occupancy_point(rng, STS))
             for _ in range(count))
    return _fock_deviations(pairs, d, _general_fidelity)


def commuting_spectral(rng, count):
    """Worst distance of the thermal spectral fidelity from the Uhlmann
    fidelity of the same truncated thermal states."""
    worst = []
    for _ in range(count):
        ns = rng.uniform(0.0, 0.6, 4)
        uhl = fock.uhlmann_fidelity(fock.family_dm(FamilyPoint.ts(ns[0], ns[1]), 30),
                                    fock.family_dm(FamilyPoint.ts(ns[2], ns[3]), 30))
        worst.append(abs(fock.spectral_fidelity_ts(*ns, n_terms=30) - uhl))
    return _worst(worst)


# --- suites --------------------------------------------------------------


def core_suite(seed: int):
    rng = np.random.default_rng(seed)
    results = []
    sym, excess, overlap, inequality, identity = fidelity_properties(rng, 100, _displaced_pair)
    _check(results, "fidelity symmetry", sym, 1e-12)
    _check(results, "fidelity bounded by one", excess, 1e-10)
    _check(results, "fidelity at least overlap", overlap, 1e-12)
    _check(results, "determinant inequalities", inequality, 1e-9)
    _check(results, "overlap proportionality identity", identity, 1e-10)
    _check(results, "saturation at equal states", self_fidelity(rng, 50), 1e-10)
    _check(results, "separated records stay below one", _worst([separated_records(rng, 25)]),
           0.0, extra="records differing by 1e-3 give F < 1 - 1e-9")
    _check(results, "pure-state reduction to overlap", pure_state_overlap(rng, 25), 1e-9)

    anchors = [
        abs(core.distances(1.0)["bures"]), abs(core.distances(1.0)["angle"]),
        abs(core.distances(0.0)["bures"] - math.sqrt(2.0)),
        abs(core.distances(0.0)["angle"] - math.pi / 2.0),
        abs(core.distances(0.25)["bures"] - 1.0),
        abs(core.distances(0.25)["angle"] - math.pi / 3.0),
    ]
    _check(results, "fidelity-derived distances", _worst(anchors), 1e-12)
    _check(results, "classical Hellinger consistency", classical_hellinger(rng, 50), 1e-12)

    eye2 = 0.5 * np.eye(2)
    f_half = core.fidelity_one_mode(np.zeros(2), eye2, np.zeros(2), 3.0 * eye2)
    _check(results, "one-mode thermal fidelity", abs(f_half - 0.5), 1e-12)
    return results


def appendix_suite(seed: int):
    rng = np.random.default_rng(seed)
    results = []
    _check(results, "affinity function at least one", affinity_at_least_one(rng, 200), 1e-12)
    _check(results, "thermal fidelity multiplicativity", thermal_multiplicativity(rng, 50), 1e-12)
    _check(results, "thermal reduction of pair invariants", thermal_reduction(rng, 50), 1e-12)
    below, thermal_excess = family_below_thermal(rng, 200)
    _check(results, "family fidelity below thermal fidelity", below, 1e-9)
    _check(results, "thermal fidelity below one", thermal_excess, 1e-9)
    _check(results, "chain saturation at equal device settings", chain_saturation(rng, 40), 1e-12)
    even, rise = phase_dependence(rng, 10)
    _check(results, "phase evenness", even, 1e-12)
    results.append(CheckResult("phase monotonicity on [0, pi]", rise < 0.0,
                               "fidelity strictly decreasing on sampled grid"))
    _check(results, "invariant gap at least two", invariant_gap(rng, 100), 1e-9)
    _check(results, "closed form matches general path", closed_matches_general(rng, 200), 1e-10)
    return results


def geometry_suite(seed: int):
    rng = np.random.default_rng(seed)
    results = []
    diag, off = numeric_metric_agreement(rng, 5)
    _check(results, "numeric metric diagonal vs closed form", diag, 1e-4)
    _check(results, "numeric metric off-diagonal entries", off, 1e-6)
    _check(results, "thermal manifold is flat", flat_thermal_coordinates(rng, 20), 1e-12)
    _check(results, "warped-product recombination", warped_recombination(rng, 20), 1e-12)
    _check(results, "Jeffreys prior two-variable form", jeffreys_two_variable(rng, 50), 1e-10)

    rs = separability_threshold(1.3, 0.6)
    value = geometry.jeffreys_prior(FamilyPoint.sts(1.3, 0.6, rs, 0.0))
    _check(results, "Jeffreys prior at the separability threshold",
           abs(value - 2.0 / math.cosh(2.0 * rs)), 1e-12)

    h = geometry.qfi_closed(FamilyPoint.mts(2.0, 1.0, math.pi / 2.0, 0.0))
    bounds = geometry.cramer_rao(h, 100)
    _check(results, "Cramer-Rao bound anchor", abs(bounds["n1"] - 0.06), 1e-12)

    vol = geometry.ball_volume_expansion(4, 1e-3, 0.0)
    _check(results, "ball volume flat-space anchor",
           abs(vol - math.pi**2 / 2.0 * 1e-12), 1e-24)
    return results


def curvature_suite(seed: int):
    rng = np.random.default_rng(seed)
    results = []

    anchors = [
        abs(curvature.scalar_closed(MTS, 0.5, 0.5)),
        abs(curvature.scalar_closed(MTS, 0.0, 1.0) - 20.0),
        abs(curvature.scalar_closed(STS, 0.0, 0.0) + 16.0),
        abs(curvature.scalar_closed(STS, 8.0, 0.0)),
        abs(curvature.scalar_closed(
            STS, curvature.SADDLE_OCCUPANCY, curvature.SADDLE_OCCUPANCY) + 143.0 / 14.0),
    ]
    _check(results, "closed-form curvature anchors", _worst(anchors), 1e-12)
    _check(results, "constant-curvature calibration", constant_curvature_calibration(), 1e-6)
    pipe, warp, _ = curvature_agreement(rng, 3)
    _check(results, "pipeline curvature vs closed form", pipe, 1e-3)
    _check(results, "warped curvature vs closed form", warp, 1e-9)
    _check(results, "device-parameter independence", device_independence(3), 1e-3)

    ns2 = 2.0 * curvature.SADDLE_OCCUPANCY
    sections = []
    for s in np.linspace(0.1, 4.0, 7):
        sections += [(tag, "symmetric", s, s) for tag in (MTS, STS)]
        sections += [(tag, "edge", s, 0.0) for tag in (MTS, STS)]
    sections += [(MTS, "perpendicular", s, 1.0 - s) for s in np.linspace(0.0, 1.0, 7)]
    sections += [(STS, "perpendicular", s, ns2 - s) for s in np.linspace(0.0, ns2, 7)]
    _check(results, "section curves match the surfaces",
           _worst(abs(curvature.section_curve(tag, section, s) - curvature.scalar_closed(tag, s, n2))
                  for tag, section, s, n2 in sections), 1e-12)

    asym = _worst(abs(curvature.scalar_closed(tag, 100.0, 100.0) + 12.0) for tag in (MTS, STS))
    _check(results, "common asymptote at -12", asym, 1e-2)

    sym = _worst(abs(curvature.scalar_closed(tag, 1.7, 0.3) - curvature.scalar_closed(tag, 0.3, 1.7))
                 for tag in (MTS, STS))
    _check(results, "curvature symmetry under mode swap", sym, 0.0)
    return results


def oracle_suite(seed: int):
    rng = np.random.default_rng(seed)
    results = []
    mixing, overlap_mts = fock_agreement(rng, 10, MTS, 25)
    _check(results, "Fock oracle agreement (mode mixing)", mixing, 1e-6)
    squeezing, overlap_sts = fock_agreement(rng, 10, STS, 40)
    _check(results, "Fock oracle agreement (squeezing)", squeezing, 1e-4)
    _check(results, "Fock overlap agreement", _worst((overlap_mts, overlap_sts)), 1e-6)
    _check(results, "commuting-case spectral fidelity", commuting_spectral(rng, 5), 1e-8)
    cross = fock_cross_agreement(rng, 2, 40)
    _check(results, "Fock oracle agreement (mixed x squeezed)", _worst(cross), 1e-6)
    return results


SUITES = {
    "core": core_suite,
    "appendix": appendix_suite,
    "geometry": lambda seed: geometry_suite(seed) + curvature_suite(seed),
    "oracle": oracle_suite,
}
