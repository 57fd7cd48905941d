"""Seeded self-verification suites behind the ``verify`` CLI command.

Each suite replays the library's exact-inequality and cross-validation
properties on pseudo-random draws and returns one result per check.
Everything is deterministic for a fixed seed.
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


def _separated_pairs(rng, count):
    """Same-family pairs whose records differ by >= 1e-3 in one coordinate,
    drawn in a region where every metric component is order 1e-3 or larger."""
    pairs = []
    for _ in range(count):
        n1 = rng.uniform(1.5, 2.5)
        n2 = rng.uniform(0.2, 0.8)
        theta = rng.uniform(math.pi / 3.0, 2.0 * math.pi / 3.0)
        phi = rng.uniform(-1.5, 1.5)
        base = FamilyPoint.mts(n1, n2, theta, phi)
        for bump in range(4):
            delta = [0.0] * 4
            delta[bump] = 1e-3
            pairs.append((base, FamilyPoint.mts(
                n1 + delta[0], n2 + delta[1], theta + delta[2], phi + delta[3])))
        r = rng.uniform(0.3, 1.0)
        sbase = FamilyPoint.sts(n1, n2, r, phi)
        for bump in range(4):
            delta = [0.0] * 4
            delta[bump] = 1e-3
            pairs.append((sbase, FamilyPoint.sts(
                n1 + delta[0], n2 + delta[1], r + delta[2], phi + delta[3])))
    return pairs


# --- suites --------------------------------------------------------------


def core_suite(seed: int):
    rng = np.random.default_rng(seed)
    results = []
    draws = [(random_physical_state(rng, displaced=True),
              random_physical_state(rng, displaced=True)) for _ in range(100)]

    worst_sym = worst_bound = worst_overlap = worst_identity = 0.0
    worst_inequality = -math.inf
    for a, b in draws:
        fab = core.fidelity_two_mode(a, b)
        fba = core.fidelity_two_mode(b, a)
        worst_sym = max(worst_sym, abs(fab.fidelity - fba.fidelity) / fab.fidelity)
        worst_bound = max(worst_bound, fab.fidelity - 1.0)
        worst_overlap = max(worst_overlap, fab.overlap - fab.fidelity)
        factor = 1.0 + math.sqrt(fab.k_minus / fab.delta) * (
            math.sqrt(fab.k_plus) + math.sqrt(fab.k_minus))
        worst_identity = max(
            worst_identity,
            abs(fab.fidelity - factor * fab.overlap) / fab.fidelity)
        worst_inequality = max(
            worst_inequality,
            1.0 - fab.delta, fab.delta - fab.gamma, -fab.lam,
            -fab.k_minus, 2.0 - (fab.k_plus - fab.k_minus))
    _check(results, "fidelity symmetry", worst_sym, 1e-12)
    _check(results, "fidelity bounded by one", worst_bound, 1e-10)
    _check(results, "fidelity at least overlap", worst_overlap, 1e-12)
    _check(results, "determinant inequalities", worst_inequality, 1e-9)
    _check(results, "overlap proportionality identity", worst_identity, 1e-10)

    worst = 0.0
    for _ in range(50):
        point = random_mts(rng) if rng.random() < 0.5 else random_sts(rng)
        state = point.to_state()
        worst = max(worst, abs(core.fidelity_two_mode(state, state).fidelity - 1.0))
    _check(results, "saturation at equal states", worst, 1e-10)

    worst = 0.0
    for a, b in _separated_pairs(rng, 25):
        f = cf.fidelity_special(a, b)
        worst = max(worst, f - (1.0 - 1e-9))
    _check(results, "separated records stay below one", worst, 0.0,
           extra="records differing by 1e-3 give F < 1 - 1e-9")

    worst = 0.0
    for _ in range(25):
        pure = FamilyPoint.sts(0.0, 0.0, rng.uniform(0.1, 1.0),
                               rng.uniform(-math.pi, math.pi))
        mixed = random_sts(rng, occ_high=1.0)
        f = core.fidelity_two_mode(pure.to_state(), mixed.to_state())
        worst = max(worst, abs(f.fidelity - f.overlap))
    _check(results, "pure-state reduction to overlap", worst, 1e-9)

    anchors = [
        abs(core.distances(1.0)["bures"]), abs(core.distances(1.0)["angle"]),
        abs(core.distances(0.0)["bures"] - math.sqrt(2.0)),
        abs(core.distances(0.0)["angle"] - math.pi / 2.0),
        abs(core.distances(0.25)["bures"] - 1.0),
        abs(core.distances(0.25)["angle"] - math.pi / 3.0),
    ]
    _check(results, "fidelity-derived distances", max(anchors), 1e-12)

    worst = 0.0
    for _ in range(50):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        out = core.classical_fidelity(p, q)
        direct = math.sqrt(((np.sqrt(p) - np.sqrt(q)) ** 2).sum())
        worst = max(worst, abs(out["d_h"] - direct))
    _check(results, "classical Hellinger consistency", worst, 1e-12)

    eye2 = 0.5 * np.eye(2)
    f_half = core.fidelity_one_mode(np.zeros(2), eye2, np.zeros(2), 3.0 * eye2)
    _check(results, "one-mode thermal fidelity", abs(f_half - 0.5), 1e-12)
    return results


def appendix_suite(seed: int):
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for _ in range(200):
        x, y = rng.uniform(0.0, 5.0, 2)
        q = cf.q_affinity(x, y)
        worst = max(worst, 1.0 - q)
        worst = max(worst, abs(cf.q_affinity(x, x) - 1.0))
    _check(results, "affinity function at least one", worst, 1e-12)

    worst = 0.0
    for _ in range(50):
        ns = rng.uniform(0.0, 3.0, 4)
        f2 = cf.fidelity_ts(*ns)
        eye2 = np.eye(2)
        f1a = core.fidelity_one_mode(np.zeros(2), (ns[0] + 0.5) * eye2,
                                     np.zeros(2), (ns[2] + 0.5) * eye2)
        f1b = core.fidelity_one_mode(np.zeros(2), (ns[1] + 0.5) * eye2,
                                     np.zeros(2), (ns[3] + 0.5) * eye2)
        worst = max(worst, abs(f2 - f1a * f1b))
    _check(results, "thermal fidelity multiplicativity", worst, 1e-12)

    worst = 0.0
    for _ in range(50):
        ns = rng.uniform(0.0, 3.0, 4)
        theta, phi = rng.uniform(0.05, math.pi - 0.05), rng.uniform(-math.pi, math.pi)
        r = rng.uniform(0.0, 1.2)
        km = cf.pair_invariants_mts(MtsParams(ns[0], ns[1], theta, phi),
                                    MtsParams(ns[2], ns[3], theta, phi))
        ks = cf.pair_invariants_sts(StsParams(ns[0], ns[1], r, phi),
                                    StsParams(ns[2], ns[3], r, phi))
        kt = cf.pair_invariants_ts(TsParams(ns[0], ns[1]), TsParams(ns[2], ns[3]))
        scale = 1.0 + kt.k_plus
        worst = max(worst,
                    abs(km.k_plus - kt.k_plus) / scale,
                    abs(km.k_minus - kt.k_minus) / scale,
                    abs(ks.k_plus - kt.k_plus) / scale,
                    abs(ks.k_minus - kt.k_minus) / scale)
    _check(results, "thermal reduction of pair invariants", worst, 1e-12)

    worst_chain = -math.inf
    worst_one = -math.inf
    for _ in range(200):
        # both states ordered n1 > n2, matching the device convention
        hi = rng.uniform(1.0, 3.0, 2)
        lo = rng.uniform(0.0, 0.9, 2)
        if rng.random() < 0.5:
            a = FamilyPoint.mts(hi[0], lo[0], rng.uniform(0.05, 3.0), rng.uniform(-3.0, 3.0))
            b = FamilyPoint.mts(hi[1], lo[1], rng.uniform(0.05, 3.0), rng.uniform(-3.0, 3.0))
        else:
            a = FamilyPoint.sts(hi[0], lo[0], rng.uniform(0.0, 1.2), rng.uniform(-3.0, 3.0))
            b = FamilyPoint.sts(hi[1], lo[1], rng.uniform(0.0, 1.2), rng.uniform(-3.0, 3.0))
        f_family = cf.fidelity_special(a, b)
        f_thermal = cf.fidelity_ts(a.params.n1, a.params.n2, b.params.n1, b.params.n2)
        worst_chain = max(worst_chain, f_family - f_thermal)
        worst_one = max(worst_one, f_thermal - 1.0)
    _check(results, "family fidelity below thermal fidelity", worst_chain, 1e-9)
    _check(results, "thermal fidelity below one", worst_one, 1e-9)

    worst = 0.0
    for _ in range(40):
        ns = rng.uniform(0.0, 2.5, 4)
        theta = rng.uniform(0.05, math.pi - 0.05)
        phi = rng.uniform(-math.pi, math.pi)
        r = rng.uniform(0.0, 1.2)
        fm = cf.fidelity_special(FamilyPoint.mts(ns[0], ns[1], theta, phi),
                                 FamilyPoint.mts(ns[2], ns[3], theta, phi))
        fs = cf.fidelity_special(FamilyPoint.sts(ns[0], ns[1], r, phi),
                                 FamilyPoint.sts(ns[2], ns[3], r, phi))
        ft = cf.fidelity_ts(*ns)
        worst = max(worst, abs(fm - ft), abs(fs - ft))
    _check(results, "chain saturation at equal device settings", worst, 1e-12)

    grid = np.linspace(0.0, math.pi, 9)
    worst_even = 0.0
    monotone = True
    for _ in range(10):
        # both states ordered n1 > n2, the device convention under which the
        # phase dependence is monotone
        hi = rng.uniform(1.0, 2.0, 2)
        lo = rng.uniform(0.1, 0.9, 2)
        ns = np.array([hi[0], lo[0], hi[1], lo[1]])
        theta = rng.uniform(0.4, math.pi - 0.4)
        r = rng.uniform(0.3, 1.0)
        for make in (
            lambda s: cf.fidelity_special(FamilyPoint.mts(ns[0], ns[1], theta, 0.0),
                                          FamilyPoint.mts(ns[2], ns[3], theta, s)),
            lambda s: cf.fidelity_special(FamilyPoint.sts(ns[0], ns[1], r, 0.0),
                                          FamilyPoint.sts(ns[2], ns[3], r, s)),
        ):
            values = [make(s) for s in grid]
            # s = pi is excluded: -pi falls outside the phase range
            for s, v in zip(grid[1:-1], values[1:-1]):
                worst_even = max(worst_even, abs(make(-s) - v))
            if any(b >= a for a, b in zip(values, values[1:])):
                monotone = False
    _check(results, "phase evenness", worst_even, 1e-12)
    results.append(CheckResult("phase monotonicity on [0, pi]", monotone,
                               "fidelity strictly decreasing on sampled grid"))

    worst = -math.inf
    for _ in range(100):
        pair = (random_mts(rng), random_mts(rng)) if rng.random() < 0.5 \
            else (random_sts(rng), random_sts(rng))
        inv = cf.pair_invariants(*pair)
        worst = max(worst, 2.0 - (inv.k_plus - inv.k_minus))
    _check(results, "invariant gap at least two", worst, 1e-9)

    worst = 0.0
    for _ in range(200):
        pair = (random_mts(rng), random_mts(rng)) if rng.random() < 0.5 \
            else (random_sts(rng), random_sts(rng))
        f_closed = cf.fidelity_special(*pair)
        f_general = core.fidelity_two_mode(pair[0].to_state(), pair[1].to_state()).fidelity
        worst = max(worst, abs(f_closed - f_general) / f_closed)
    _check(results, "closed form matches general path", worst, 1e-10)
    return results


def _metric_checks(rng, results, points_per_family=5):
    worst_diag = worst_off = 0.0
    for tag in (MTS, STS):
        for _ in range(points_per_family):
            if tag == MTS:
                n1 = rng.uniform(1.0, 2.5)
                n2 = rng.uniform(0.1, 0.8)
                point = FamilyPoint.mts(n1, n2, rng.uniform(0.4, math.pi - 0.4),
                                        rng.uniform(-2.0, 2.0))
            else:
                point = FamilyPoint.sts(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0),
                                        rng.uniform(0.2, 1.0), rng.uniform(-2.0, 2.0))
            numeric = geometry.numeric_metric(point).matrix
            h = geometry.qfi_closed(point).h
            closed = 0.25 * np.array([h[k] for k in geometry.coord_names(tag)])
            diag = np.diag(numeric)
            worst_diag = max(worst_diag, np.max(np.abs(diag - closed) / closed))
            off = numeric - np.diag(diag)
            worst_off = max(worst_off, np.abs(off).max())
    _check(results, "numeric metric diagonal vs closed form", worst_diag, 1e-4)
    _check(results, "numeric metric off-diagonal entries", worst_off, 1e-6)


def geometry_suite(seed: int):
    rng = np.random.default_rng(seed)
    results = []
    _metric_checks(rng, results)

    worst = 0.0
    for _ in range(20):
        n1, n2 = rng.uniform(0.05, 4.0, 2)
        x1, x2 = math.asinh(math.sqrt(n1)), math.asinh(math.sqrt(n2))
        jac = np.diag([math.sinh(2.0 * x1), math.sinh(2.0 * x2)])
        pulled = jac @ geometry.ts_metric(n1, n2).matrix @ jac
        worst = max(worst, np.abs(pulled - np.eye(2)).max())
    _check(results, "thermal manifold is flat", worst, 1e-12)

    worst = 0.0
    for _ in range(20):
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
            worst = max(worst, abs(0.25 * dev - f * f),
                        abs(0.25 * h["phi"] - f * f * fiber))
    _check(results, "warped-product recombination", worst, 1e-12)

    worst = 0.0
    for _ in range(50):
        n1, n2 = rng.uniform(0.05, 3.0, 2)
        r = rng.uniform(0.02, 1.5)
        point = FamilyPoint.sts(n1, n2, r, rng.uniform(-3.0, 3.0))
        closed = geometry.jeffreys_prior_sts_closed(n1, n2, r)
        worst = max(worst, abs(geometry.jeffreys_prior(point) - closed) / closed)
    _check(results, "Jeffreys prior two-variable form", worst, 1e-10)

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
    _check(results, "closed-form curvature anchors", max(anchors), 1e-12)

    calib = [
        abs(curvature.scalar_curvature_pipeline(curvature.fiber_field("MTS"), [1.1, 0.4]).scalar_r - 2.0),
        abs(curvature.scalar_curvature_pipeline(curvature.fiber_field("STS"), [0.9, -0.6]).scalar_r + 2.0),
        abs(curvature.scalar_curvature_pipeline(curvature.thermal_field(), [1.3, 0.7]).scalar_r),
    ]
    _check(results, "constant-curvature calibration", max(calib), 1e-6)

    worst_pipe = worst_warp = 0.0
    for tag in (MTS, STS):
        fld = curvature.family_metric_field(tag)
        for _ in range(3):
            n1 = rng.uniform(1.0, 2.5)
            n2 = rng.uniform(0.1, 0.8)
            closed = curvature.scalar_closed(tag, n1, n2)
            device = [rng.uniform(0.4, 2.6), rng.uniform(-2.0, 2.0)]
            report = curvature.scalar_curvature_pipeline(fld, [n1, n2] + device)
            worst_pipe = max(worst_pipe, abs(report.scalar_r - closed) / abs(closed))
            worst_warp = max(worst_warp,
                             abs(curvature.scalar_warped(tag, n1, n2) - closed) / abs(closed))
    _check(results, "pipeline curvature vs closed form", worst_pipe, 1e-3)
    _check(results, "warped curvature vs closed form", worst_warp, 1e-9)

    worst = 0.0
    for tag in (MTS, STS):
        fld = curvature.family_metric_field(tag)
        values = [
            curvature.scalar_curvature_pipeline(fld, [1.8, 0.4, dev, phi]).scalar_r
            for dev in np.linspace(0.5, 2.5, 3)
            for phi in np.linspace(-2.0, 2.0, 3)
        ]
        spread = (max(values) - min(values)) / abs(np.mean(values))
        worst = max(worst, spread)
    _check(results, "device-parameter independence", worst, 1e-3)

    worst = 0.0
    for s in np.linspace(0.1, 4.0, 7):
        worst = max(worst, abs(curvature.section_curve(MTS, "symmetric", s)
                               - curvature.scalar_closed(MTS, s, s)))
        worst = max(worst, abs(curvature.section_curve(STS, "symmetric", s)
                               - curvature.scalar_closed(STS, s, s)))
        worst = max(worst, abs(curvature.section_curve(MTS, "edge", s)
                               - curvature.scalar_closed(MTS, s, 0.0)))
        worst = max(worst, abs(curvature.section_curve(STS, "edge", s)
                               - curvature.scalar_closed(STS, s, 0.0)))
    for s in np.linspace(0.0, 1.0, 7):
        worst = max(worst, abs(curvature.section_curve(MTS, "perpendicular", s)
                               - curvature.scalar_closed(MTS, s, 1.0 - s)))
    ns2 = 2.0 * curvature.SADDLE_OCCUPANCY
    for s in np.linspace(0.0, ns2, 7):
        worst = max(worst, abs(curvature.section_curve(STS, "perpendicular", s)
                               - curvature.scalar_closed(STS, s, ns2 - s)))
    _check(results, "section curves match the surfaces", worst, 1e-12)

    asym = max(abs(curvature.scalar_closed(MTS, 100.0, 100.0) + 12.0),
               abs(curvature.scalar_closed(STS, 100.0, 100.0) + 12.0))
    _check(results, "common asymptote at -12", asym, 1e-2)

    sym = max(abs(curvature.scalar_closed(MTS, 1.7, 0.3) - curvature.scalar_closed(MTS, 0.3, 1.7)),
              abs(curvature.scalar_closed(STS, 1.7, 0.3) - curvature.scalar_closed(STS, 0.3, 1.7)))
    _check(results, "curvature symmetry under mode swap", sym, 0.0)
    return results


def oracle_suite(seed: int, truncation: int | None = None):
    rng = np.random.default_rng(seed)
    results = []
    d_mts = 25 if truncation is None else truncation
    d_sts = 40 if truncation is None else truncation

    worst_fid = worst_overlap = 0.0
    for _ in range(10):
        a = FamilyPoint.mts(rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5),
                            rng.uniform(0.05, math.pi - 0.05), rng.uniform(-math.pi, math.pi))
        b = FamilyPoint.mts(rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5),
                            rng.uniform(0.05, math.pi - 0.05), rng.uniform(-math.pi, math.pi))
        rho_a, rho_b = fock.family_dm(a, d_mts), fock.family_dm(b, d_mts)
        worst_fid = max(worst_fid, abs(fock.uhlmann_fidelity(rho_a, rho_b)
                                       - cf.fidelity_special(a, b)))
        general = core.fidelity_two_mode(a.to_state(), b.to_state())
        worst_overlap = max(worst_overlap,
                            abs(fock.overlap_fock(rho_a, rho_b) - general.overlap))
    _check(results, "Fock oracle agreement (mode mixing)", worst_fid, 1e-6)

    worst_sts = 0.0
    for _ in range(10):
        a = FamilyPoint.sts(rng.uniform(0.02, 0.3), rng.uniform(0.02, 0.3),
                            rng.uniform(0.0, 0.4), rng.uniform(-math.pi, math.pi))
        b = FamilyPoint.sts(rng.uniform(0.02, 0.3), rng.uniform(0.02, 0.3),
                            rng.uniform(0.0, 0.4), rng.uniform(-math.pi, math.pi))
        rho_a, rho_b = fock.family_dm(a, d_sts), fock.family_dm(b, d_sts)
        worst_sts = max(worst_sts, abs(fock.uhlmann_fidelity(rho_a, rho_b)
                                       - cf.fidelity_special(a, b)))
        general = core.fidelity_two_mode(a.to_state(), b.to_state())
        worst_overlap = max(worst_overlap,
                            abs(fock.overlap_fock(rho_a, rho_b) - general.overlap))
    _check(results, "Fock oracle agreement (squeezing)", worst_sts, 1e-4)
    _check(results, "Fock overlap agreement", worst_overlap, 1e-6)

    worst = 0.0
    for _ in range(5):
        ns = rng.uniform(0.0, 0.6, 4)
        spectral = fock.spectral_fidelity_ts(*ns, n_terms=30)
        uhl = fock.uhlmann_fidelity(fock.thermal_dm(ns[0], ns[1], 30),
                                    fock.thermal_dm(ns[2], ns[3], 30))
        worst = max(worst, abs(spectral - uhl))
    _check(results, "commuting-case spectral fidelity", worst, 1e-8)
    return results


SUITES = {
    "core": core_suite,
    "appendix": appendix_suite,
    "geometry": lambda seed: geometry_suite(seed) + curvature_suite(seed),
    "oracle": oracle_suite,
}
