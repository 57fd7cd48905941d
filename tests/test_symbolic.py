"""Symbolic certificate of the curvature closed forms.

The library's own formulas are evaluated on positive sympy symbols and
their float constants are turned into exact rationals, so every identity
here holds for all occupancies (n1, n2), not only at sampled points: the
Christoffel -> Ricci -> scalar chain on the metric table gives
``scalar_closed``, the warped route and the symmetric and edge sections
agree with it, the fibers have their declared constant curvature, and the
STS saddle is exact. The fields'
analytic partials are checked against the symbolic derivatives of the same
metric at seeded points.
"""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest
import sympy as sp

from gaussfisher import curvature as cv
from gaussfisher.geometry import FAMILY_METRICS
from gaussfisher.states import MTS, STS

N1, N2, X, PHI = sp.symbols("n1 n2 x phi", positive=True)
FIBER = {math.sin: sp.sin, math.sinh: sp.sinh}


def exact(expr):
    """The expression with every float constant replaced by its rational."""
    return sp.nsimplify(expr, rational=True)


def reduce(expr):
    """Canonical form in which an identically vanishing expression is 0.

    The fiber functions are written as rational functions of tan(x/2) and
    tanh(x/2), so the whole expression becomes one cancelled fraction.
    """
    return sp.cancel(sp.together(sp.sympify(expr).rewrite(sp.tan).rewrite(sp.tanh)))


def family_metric(tag):
    """Diagonal and chart of the table's 4d Bures metric
    1/4 diag(H_occ(n1), H_occ(n2), H_dev, H_dev F(x)^2)."""
    fam = FAMILY_METRICS[tag]
    symbolic = dataclasses.replace(fam, fiber=FIBER[fam.fiber])
    return [exact(h / 4) for h in symbolic.components(N1, N2, X)], (N1, N2, X, PHI)


def thermal_metric():
    return [exact(g) for g in np.diag(cv.thermal_field().metric((N1, N2)))], (N1, N2)


def fiber_metric(tag):
    return [sp.Integer(1), FIBER[FAMILY_METRICS[tag].fiber](X) ** 2], (X, PHI)


def scalar_curvature(g, q):
    """Scalar curvature of the diagonal metric diag(g) in coordinates q,
    by Christoffel symbols -> diagonal Ricci entries -> trace."""
    dim = len(q)

    # Gamma^i_jk = (d_ik d_j g_i + d_ij d_k g_i - d_jk d_i g_j) / (2 g_i)
    def christoffel(i, j, k):
        value = 0
        if i == k:
            value += sp.diff(g[i], q[j])
        if i == j:
            value += sp.diff(g[i], q[k])
        if j == k:
            value -= sp.diff(g[j], q[i])
        return value / (2 * g[i])

    gam = [[[christoffel(i, j, k) for k in range(dim)] for j in range(dim)]
           for i in range(dim)]
    total = 0
    for j in range(dim):
        # R_jj = d_i Gamma^i_jj - d_j Gamma^i_ij
        #        + Gamma^i_im Gamma^m_jj - Gamma^i_jm Gamma^m_ij
        ricci = sum(
            sp.diff(gam[i][j][j], q[i]) - sp.diff(gam[i][i][j], q[j])
            + sum(gam[i][i][m] * gam[m][j][j] - gam[i][j][m] * gam[m][i][j]
                  for m in range(dim))
            for i in range(dim)
        )
        total += reduce(ricci / g[j])
    return reduce(total)


@pytest.mark.parametrize("tag", [MTS, STS])
def test_table_curvature_is_scalar_closed(tag):
    g, q = family_metric(tag)
    r = scalar_curvature(g, q)
    assert reduce(r - exact(cv.scalar_closed(tag, N1, N2))) == 0


@pytest.mark.parametrize("tag", [MTS, STS])
def test_warped_is_scalar_closed(tag):
    warped = exact(cv.scalar_warped(tag, N1, N2))
    assert reduce(warped - exact(cv.scalar_closed(tag, N1, N2))) == 0


@pytest.mark.parametrize("tag", [MTS, STS])
def test_fiber_curvature(tag):
    r = scalar_curvature(*fiber_metric(tag))
    assert r == exact(FAMILY_METRICS[tag].fiber_curvature)


@pytest.mark.parametrize("tag,kind,on_surface", [
    pytest.param(MTS, "symmetric", (X, X), id="MTS-symmetric"),
    pytest.param(STS, "symmetric", (X, X), id="STS-symmetric"),
    pytest.param(MTS, "edge", (X, 0), id="MTS-edge"),
    pytest.param(STS, "edge", (X, 0), id="STS-edge"),
])
def test_section_is_restriction(tag, kind, on_surface):
    section = exact(cv.section_curve(tag, kind, X))
    assert reduce(section - exact(cv.scalar_closed(tag, *on_surface))) == 0


@pytest.mark.parametrize("make_field,make_metric", [
    pytest.param(partial(cv.family_metric_field, MTS), partial(family_metric, MTS), id="MTS"),
    pytest.param(partial(cv.family_metric_field, STS), partial(family_metric, STS), id="STS"),
    pytest.param(cv.thermal_field, thermal_metric, id="TS"),
    pytest.param(partial(cv.fiber_field, MTS), partial(fiber_metric, MTS), id="MTS-fiber"),
    pytest.param(partial(cv.fiber_field, STS), partial(fiber_metric, STS), id="STS-fiber"),
])
def test_field_partials_match_symbolic(make_field, make_metric, rng):
    fld, (g, q) = make_field(), make_metric()
    metric = sp.lambdify(q, sp.diag(*g), "numpy")
    partials = sp.lambdify(
        q, [sp.diag(*[sp.diff(gi, qk) for gi in g]) for qk in q], "numpy")
    for _ in range(10):
        draw = {N1: rng.uniform(0.1, 3.0), N2: rng.uniform(0.1, 3.0),
                X: rng.uniform(0.3, 2.8), PHI: rng.uniform(-2.0, 2.0)}
        x = np.array([draw[c] for c in q])
        ref_g = np.array(metric(*x), dtype=float)
        ref_dg = np.array(partials(*x), dtype=float)
        assert np.abs(fld.metric(x) - ref_g).max() <= 1e-12 * np.abs(ref_g).max()
        assert np.abs(fld.partials(x) - ref_dg).max() <= 1e-12 * np.abs(ref_dg).max()


def test_sts_saddle():
    ns = sp.sqrt(sp.Rational(23, 20)) - sp.Rational(1, 2)
    r = exact(cv.scalar_closed(STS, N1, N2))
    at_saddle = {N1: ns, N2: ns}
    for n in (N1, N2):
        assert sp.radsimp(sp.cancel(sp.diff(r, n).subs(at_saddle))) == 0
    assert sp.radsimp(sp.cancel(r.subs(at_saddle))) == sp.Rational(-143, 14)
    assert abs(cv.SADDLE_OCCUPANCY - float(ns)) <= math.ulp(float(ns))
