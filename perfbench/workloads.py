"""Benchmark workloads: seeded inputs, the library calls that make up each
user-level call, and the independent route each result is checked against.

A workload is a list of rounds; a round is a list of :class:`Call`. The
timed loop runs whole rounds and wraps around when it reaches the end, so
the pooled workloads repeat their inputs (the pool sizes are in the
builders). Each call's reference is computed once per distinct input,
after the timed phase, and every executed call is compared against it.
Draw ranges are those of ``gaussfisher.verification`` and its suites.
"""

import math

import numpy as np

from gaussfisher import closed_form as cf
from gaussfisher import core, fock, states, tolerances
from gaussfisher import curvature as cv
from gaussfisher import geometry as geo
from gaussfisher.states import MTS, STS, FamilyPoint
from gaussfisher.verification import (random_mts, random_physical_state,
                                      random_sts)

import mpref


class Call:
    """One user-level call.

    ``run(t)`` makes the library calls through the call wrapper ``t`` and
    returns plain values. ``reference()`` evaluates the independent route;
    ``accept(result, reference)`` is the check. ``unitaries`` lists the
    (function, args) of each Fock unitary the call builds, for the traced
    run's separate unitary timing.
    """

    __slots__ = ("kind", "run", "reference", "accept", "unitaries", "_ref")

    def __init__(self, kind, run, reference, accept, unitaries=()):
        self.kind = kind
        self.run = run
        self.reference = reference
        self.accept = accept
        self.unitaries = unitaries
        self._ref = None

    def passes(self, result) -> bool:
        """Check ``result``; a reference that raises is re-raised on every use."""
        if self._ref is None:
            try:
                self._ref = (True, self.reference())
            except Exception as exc:
                self._ref = (False, exc)
        ok, ref = self._ref
        if not ok:
            raise ref.with_traceback(None)
        return bool(self.accept(result, ref))


class Workload:
    """Rounds of calls plus what the traced run measures in isolation.

    ``isolated`` maps a per-layer metric name to (function, list of argument
    tuples) for library functions the timed calls reach only from inside
    the library, where the benchmark cannot put a span. ``probe`` names
    the probe in ``run.PROBES`` that round times are scaled by: a probe of
    the same kind of work, so that both slow alike when the host is busy.
    """

    def __init__(self, name, rounds, isolated=None, fock_dims=(), probe="host"):
        self.name = name
        self.rounds = rounds
        self.isolated = isolated or {}
        self.fock_dims = tuple(fock_dims)
        self.probe = probe


def _rel(x, ref):
    return abs(x - ref) / abs(ref)


# --- closed_form_sweep ---------------------------------------------------


def _ts_point(rng):
    return FamilyPoint.ts(*rng.uniform(0.05, 2.5, 2))


def _closed_pair(rng, family):
    draw = {MTS: random_mts, STS: random_sts, "TS": _ts_point}[family]
    a, b = draw(rng), draw(rng)

    def run(t):
        f = t("closed_form.fidelity_special", cf.fidelity_special, a, b)
        dist = t("core.distances", core.distances, f)
        inv = t("closed_form.pair_invariants", cf.pair_invariants, a, b)
        return f, dist["bures"], dist["angle"], inv.k_plus, inv.k_minus

    def reference():
        g = core.fidelity_two_mode(a.to_state(), b.to_state())
        return g.fidelity, g.k_plus, g.k_minus

    def accept(res, ref):
        f, bures, angle, k_plus, k_minus = res
        g_f, g_plus, g_minus = ref
        root = math.sqrt(min(f, 1.0))
        scale = 1.0 + g_plus
        return (_rel(f, g_f) <= 1e-10
                and abs(k_plus - g_plus) <= 1e-10 * scale
                and abs(k_minus - g_minus) <= 1e-10 * scale
                and abs(bures - math.sqrt(2.0 - 2.0 * root)) <= 1e-12
                and abs(angle - math.acos(root)) <= 1e-12)

    return Call("pair", run, reference, accept)


def _closed_metric(rng, family):
    point = random_mts(rng) if family == MTS else random_sts(rng)
    n_meas = int(rng.integers(1, 1001))

    def run(t):
        h = t("geometry.qfi_closed", geo.qfi_closed, point)
        bounds = t("geometry.cramer_rao", geo.cramer_rao, h, n_meas)
        prior = t("geometry.jeffreys_prior", geo.jeffreys_prior, point)
        return h.h, bounds, prior

    def reference():
        # occupancy entries from the thermal metric, device entries from the
        # warping function; the priors from the two-variable STS form
        p = point.params
        occ = 4.0 * np.diag(geo.ts_metric(p.n1, p.n2).matrix)
        dev = 4.0 * geo.warping_function(point.tag, p.n1, p.n2) ** 2
        if family == MTS:
            fiber = math.sin(p.theta) ** 2
            prior = math.sqrt(occ[0] * occ[1]) * dev * math.sqrt(fiber)
        else:
            fiber = math.sinh(2.0 * p.r) ** 2
            prior = geo.jeffreys_prior_sts_closed(p.n1, p.n2, p.r)
        h = dict(zip(geo.coord_names(point.tag), (occ[0], occ[1], dev, dev * fiber)))
        return h, {k: 1.0 / (n_meas * v) for k, v in h.items()}, prior

    def accept(res, ref):
        h, bounds, prior = res
        h_ref, bounds_ref, prior_ref = ref
        return (all(_rel(h[k], v) <= 1e-12 for k, v in h_ref.items())
                and all(_rel(bounds[k], v) <= 1e-12 for k, v in bounds_ref.items())
                and _rel(prior, prior_ref) <= 1e-10)

    return Call("metric", run, reference, accept)


def _warped_point(rng, family):
    """One curvature query as `gaussfisher curvature --method warped` makes
    it, drawn from curvature_suite's box; the warped route loses precision
    near the MTS diagonal (see the wide_domain probe)."""
    n1, n2 = rng.uniform(1.0, 2.5), rng.uniform(0.1, 0.8)

    def run(t):
        return t("curvature.scalar_warped", cv.scalar_warped, family, n1, n2)

    def reference():
        return cv.scalar_closed(family, n1, n2)

    return Call("curvature", run, reference, lambda r, ref: _rel(r, ref) <= 1e-9)


# The figure set that scripts/make_figure_grids.py writes through
# `gaussfisher surface` at that command's default sizes: figures 1 and 3 are
# 41 x 41 grids of scalar_closed over [0, 5]^2, looped row by row; 2a, 2b,
# 4a and 4b are 201 section_curve samples; 5 is 201 samples of both edge
# sections. Curves are cut into rows of at most 41 samples.
_ROW = 41
_FIGURE_SET = (
    ("surface", MTS, None, 5.0, _ROW),
    ("curve", MTS, "symmetric", 5.0, 201),
    ("curve", MTS, "perpendicular", 1.0, 201),
    ("surface", STS, None, 5.0, _ROW),
    ("curve", STS, "symmetric", 5.0, 201),
    ("curve", STS, "perpendicular", 2.0 * cv.SADDLE_OCCUPANCY, 201),
    ("curve", None, "edge", 5.0, 201),
)


def _figure_rows():
    """(kind, family, section, top, samples) of every row of one figure set."""
    rows = []
    for kind, family, section, top, count in _FIGURE_SET:
        if kind == "surface":
            rows += [(kind, family, section, top, _ROW)] * count
        else:
            rows += [(kind, family, section, top, min(_ROW, count - k))
                     for k in range(0, count, _ROW)]
    return rows


def _on_surface(section, top, s):
    return {"symmetric": (s, s), "edge": (s, 0.0), "perpendicular": (s, top - s)}[section]


def _figure_row(rng, row):
    """One row of a figure grid: the curvature points `gaussfisher surface`
    computes along one grid line, at seeded points of the figure's range,
    each checked against a 60-digit evaluation on its surface point."""
    kind, family, section, top, samples = row
    values = rng.uniform(0.0, top, samples)
    if kind == "surface":
        n1 = rng.uniform(0.0, top)
        points = [(family, n1, n2) for n2 in values]
        fn, name, args = cv.scalar_closed, "curvature.scalar_closed", points
    else:
        families = (MTS, STS) if family is None else (family,)
        points = [(f, *_on_surface(section, top, s)) for s in values for f in families]
        args = [(f, section, s) for s in values for f in families]
        fn, name = cv.section_curve, "curvature.section_curve"

    def run(t):
        return [t(name, fn, *a) for a in args]

    def reference():
        return np.array([mpref.scalar_curvature(*p) for p in points])

    def accept(res, ref):
        return bool(np.all(np.abs(np.asarray(res) - ref) <= 1e-12 * (1.0 + np.abs(ref))))

    return Call("figure_row", run, reference, accept)


def closed_form_sweep(seed, tiny=False):
    """Pool of five figure sets' worth of rounds, each one pair fidelity
    (MTS, STS and TS in turn), one metric point, one warped curvature query
    and one figure row, the rows in figure-set order. The 1:1:1:1 mix of
    these four kinds is chosen, not measured."""
    rng = np.random.default_rng(seed)
    rows = _figure_rows()
    if tiny:  # one row of each shape
        rows = list(dict.fromkeys(rows))
    rounds = []
    for i in range(len(rows) if tiny else 5 * len(rows)):
        family = (MTS, STS)[i % 2]
        rounds.append([
            _closed_pair(rng, (MTS, STS, "TS")[i % 3]),
            _closed_metric(rng, family),
            _warped_point(rng, family),
            _figure_row(rng, rows[i % len(rows)]),
        ])
    return Workload("closed_form_sweep", rounds,
                    isolated={"tolerances.current_us": (tolerances.current, [()] * 200)})


# --- cross_check ---------------------------------------------------------


def _general_pair(a, b):
    """Same-family pair through the general path, checked against the
    closed form."""

    def run(t):
        sa = t("states.to_state", a.to_state)
        sb = t("states.to_state", b.to_state)
        g = t("core.fidelity_two_mode", core.fidelity_two_mode, sa, sb)
        return g.fidelity

    def reference():
        return cf.fidelity_special(a, b)

    return Call("pair", run, reference, lambda f, ref: _rel(f, ref) <= 1e-10)


def _generic_pair(rng):
    sa = random_physical_state(rng, displaced=True)
    sb = random_physical_state(rng, displaced=True)
    raw = (sa.mean, sa.cov, sb.mean, sb.cov)

    def run(t):
        a = t("core.TwoModeGaussian", core.TwoModeGaussian, raw[0], raw[1])
        b = t("core.TwoModeGaussian", core.TwoModeGaussian, raw[2], raw[3])
        return t("core.fidelity_two_mode", core.fidelity_two_mode, a, b)

    def reference():
        return core.fidelity_two_mode(sb, sa).fidelity

    def accept(g, swapped):
        # core_suite's property checks for generic displaced pairs
        factor = 1.0 + math.sqrt(g.k_minus / g.delta) * (
            math.sqrt(g.k_plus) + math.sqrt(g.k_minus))
        inequality = max(1.0 - g.delta, g.delta - g.gamma, -g.lam, -g.k_minus,
                         2.0 - (g.k_plus - g.k_minus))
        return (_rel(g.fidelity, swapped) <= 1e-12
                and g.fidelity - 1.0 <= 1e-10
                and g.overlap - g.fidelity <= 1e-12
                and _rel(factor * g.overlap, g.fidelity) <= 1e-10
                and inequality <= 1e-9)

    return Call("generic_pair", run, reference, accept)


def _numeric_metric_point(rng, family):
    if family == MTS:
        n1, n2 = rng.uniform(1.0, 2.5), rng.uniform(0.1, 0.8)
        point = FamilyPoint.mts(n1, n2, rng.uniform(0.4, math.pi - 0.4),
                                rng.uniform(-2.0, 2.0))
    else:
        point = FamilyPoint.sts(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0),
                                rng.uniform(0.2, 1.0), rng.uniform(-2.0, 2.0))

    def run(t):
        return t("geometry.numeric_metric", geo.numeric_metric, point).matrix

    def reference():
        h = geo.qfi_closed(point).h
        return 0.25 * np.array([h[k] for k in geo.coord_names(family)])

    def accept(m, closed):
        diag = np.diag(m)
        return (np.max(np.abs(diag - closed) / closed) <= 1e-4
                and np.abs(m - np.diag(diag)).max() <= 1e-6)

    return Call("metric", run, reference, accept)


def _pipeline_point(rng, family, fld):
    n1, n2 = rng.uniform(1.0, 2.5), rng.uniform(0.1, 0.8)
    x = [n1, n2, rng.uniform(0.4, 2.6), rng.uniform(-2.0, 2.0)]

    def run(t):
        return t("curvature.scalar_curvature_pipeline",
                 cv.scalar_curvature_pipeline, fld, x).scalar_r

    def reference():
        return cv.scalar_closed(family, n1, n2)

    return Call("curvature", run, reference, lambda r, ref: _rel(r, ref) <= 1e-3)


def _general_isolated(points, invariants=True):
    """Isolated timings of what to_state and fidelity_two_mode call inside."""
    out = {
        "tolerances.current_us": (tolerances.current, [()] * 200),
        "states.family_cov_us": (states.family_cov, [(p,) for p in points[:200]]),
    }
    if invariants:
        covs = [states.family_cov(p) for p in points[:400]]
        out["core.compute_invariants_us"] = (core.compute_invariants,
                                             list(zip(covs[0::2], covs[1::2])))
    return out


def cross_check(seed, tiny=False):
    """Pool of 512 rounds: two same-family pairs through the general path,
    one displaced generic pair, one numeric metric point, one pipeline
    curvature point."""
    rng = np.random.default_rng(seed)
    fields = {MTS: cv.family_metric_field(MTS), STS: cv.family_metric_field(STS)}
    rounds, points = [], []
    for i in range(2 if tiny else 512):
        family = (MTS, STS)[i % 2]
        pair_points = [random_mts(rng), random_mts(rng), random_sts(rng), random_sts(rng)]
        points.extend(pair_points)
        rounds.append([
            _general_pair(pair_points[0], pair_points[1]),
            _general_pair(pair_points[2], pair_points[3]),
            _generic_pair(rng),
            _numeric_metric_point(rng, family),
            _pipeline_point(rng, family, fields[family]),
        ])
    return Workload("cross_check", rounds, isolated=_general_isolated(points))


# --- Fock oracle workloads -----------------------------------------------


# The expm cost of a Fock unitary grows stepwise with the device parameter
# (theta or r sets the generator norm, hence the squaring count), and each
# workload is one round. So the device parameters of a round are drawn
# antithetically from one uniform u: every parameter keeps the oracle
# suite's uniform range, and every seed carries about the same expm work.
# Occupancies and phases are independent draws.


def _oracle_mts(rng, u):
    return FamilyPoint.mts(rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.5),
                           0.05 + (math.pi - 0.1) * u, rng.uniform(-math.pi, math.pi))


def _oracle_sts(rng, u):
    return FamilyPoint.sts(rng.uniform(0.02, 0.3), rng.uniform(0.02, 0.3),
                           0.4 * u, rng.uniform(-math.pi, math.pi))


def _unitary(point, d):
    p = point.params
    if point.tag == MTS:
        return fock.bs_unitary, (p.theta, p.phi, d)
    return fock.sq_unitary, (p.r, p.phi, d)


def _oracle_pair(a, b, d, bound, kind):
    """Uhlmann fidelity and overlap of one pair at truncation ``d``.

    The fidelity is checked against the closed form (same family) or the
    general path (cross family) to ``bound``; the overlap against the
    general path to 1e-6.
    """

    def run(t):
        rho_a = t("fock.family_dm", fock.family_dm, a, d)
        rho_b = t("fock.family_dm", fock.family_dm, b, d)
        f = t("fock.uhlmann_fidelity", fock.uhlmann_fidelity, rho_a, rho_b)
        overlap = t("fock.overlap_fock", fock.overlap_fock, rho_a, rho_b)
        return f, overlap, max(rho_a.trace_deficit, rho_b.trace_deficit)

    def reference():
        general = core.fidelity_two_mode(a.to_state(), b.to_state())
        f = cf.fidelity_special(a, b) if a.tag == b.tag else general.fidelity
        return f, general.overlap

    def accept(res, ref):
        return abs(res[0] - ref[0]) <= bound and abs(res[1] - ref[1]) <= 1e-6

    return Call(kind, run, reference, accept, unitaries=(_unitary(a, d), _unitary(b, d)))


def fock_same_family(seed, tiny=False):
    """One round: one MTS pair at d = 25 and one STS pair at d = 40."""
    rng = np.random.default_rng(seed)
    d_mts, d_sts = (14, 16) if tiny else (25, 40)
    u, v = rng.uniform(0.0, 1.0, 2)
    rounds = [[
        _oracle_pair(_oracle_mts(rng, u), _oracle_mts(rng, 1.0 - u), d_mts, 1e-6,
                     "oracle_mts"),
        _oracle_pair(_oracle_sts(rng, v), _oracle_sts(rng, 1.0 - v), d_sts, 1e-4,
                     "oracle_sts"),
    ]]
    return Workload("fock_same_family", rounds, fock_dims=(d_mts, d_sts),
                    probe="dense")


def fock_cross_family(seed, tiny=False):
    """One round: one MTS x STS pair at d = 40, the CLI oracle default."""
    rng = np.random.default_rng(seed)
    d = 16 if tiny else 40
    u = rng.uniform(0.0, 1.0)
    rounds = [[_oracle_pair(_oracle_mts(rng, u), _oracle_sts(rng, 1.0 - u), d, 1e-4,
                            "oracle_cross")]]
    return Workload("fock_cross_family", rounds, fock_dims=(d,), probe="dense")


# --- wide_domain probe ---------------------------------------------------


def _wide_pair(rng, family):
    """Two calls on one wide-domain pair: the general path (to_state and
    fidelity_two_mode) and the closed form, each against 60 digits."""
    if family == MTS:
        def draw():
            return FamilyPoint.mts(*rng.uniform(0.0, 1e6, 2),
                                   rng.uniform(0.05, math.pi - 0.05),
                                   rng.uniform(-math.pi, math.pi))
    else:
        def draw():
            return FamilyPoint.sts(*rng.uniform(0.0, 1e6, 2), rng.uniform(0.0, 8.0),
                                   rng.uniform(-math.pi, math.pi))
    a, b = draw(), draw()

    def general(t):
        sa = t("states.to_state", a.to_state)
        sb = t("states.to_state", b.to_state)
        return t("core.fidelity_two_mode", core.fidelity_two_mode, sa, sb).fidelity

    def closed(t):
        return t("closed_form.fidelity_special", cf.fidelity_special, a, b)

    def reference():
        return mpref.fidelity(a, b)

    def accept(f, ref):
        return _rel(f, ref) <= 1e-10

    return [Call("wide_general", general, reference, accept),
            Call("wide_closed", closed, reference, accept)], [a, b]


def _figure_curvature(rng, family):
    n1, n2 = rng.uniform(0.0, 5.0, 2)

    def run(t):
        closed = t("curvature.scalar_closed", cv.scalar_closed, family, n1, n2)
        warped = t("curvature.scalar_warped", cv.scalar_warped, family, n1, n2)
        return closed, warped

    def reference():
        return mpref.scalar_curvature(family, n1, n2)

    def accept(res, ref):
        return _rel(res[0], ref) <= 1e-12 and _rel(res[1], ref) <= 1e-9

    return Call("figure_curvature", run, reference, accept)


def wide_domain(seed, tiny=False):
    """Probe of known precision defects; not a BENCHMARK.json workload.

    Pool of 200 rounds: one MTS and one STS pair drawn from n in [0, 1e6],
    r in [0, 8], each through the general path and the closed form and
    checked against 60-digit references, plus 50 curvature points over
    the figure range [0, 5]^2 per round.
    """
    rng = np.random.default_rng(seed)
    rounds, points = [], []
    for _ in range(2 if tiny else 200):
        mts_calls, mts_points = _wide_pair(rng, MTS)
        sts_calls, sts_points = _wide_pair(rng, STS)
        points.extend(mts_points + sts_points)
        rounds.append(mts_calls + sts_calls
                      + [_figure_curvature(rng, (MTS, STS)[k % 2]) for k in range(50)])
    # wide-domain covariances can fail validation, so compute_invariants is
    # not timed in isolation here
    return Workload("wide_domain", rounds,
                    isolated=_general_isolated(points, invariants=False))


BUILDERS = {
    "closed_form_sweep": closed_form_sweep,
    "cross_check": cross_check,
    "fock_same_family": fock_same_family,
    "fock_cross_family": fock_cross_family,
    "wide_domain": wide_domain,
}
