"""60-digit mpmath references for the figure rows and the wide-domain probe.

The fidelity reference follows the general determinant route from the
family parameters: covariance matrices by symplectic congruence, then
delta, gamma, lambda, k_plus, k_minus and F, all at 60 digits. It shares
no code with the library's float routes. The curvature reference
evaluates the closed-form rational function at 60 digits.
"""

import mpmath

from gaussfisher.states import MTS, STS

CTX = mpmath.MPContext()
CTX.dps = 60


def _rot(phi):
    c, s = CTX.cos(phi), CTX.sin(phi)
    return [[c, -s], [s, c]]


def _blocks(a, b, c, d):
    """4x4 matrix from 2x2 blocks [[a, b], [c, d]]."""
    m = CTX.matrix(4, 4)
    for blk, (r0, c0) in ((a, (0, 0)), (b, (0, 2)), (c, (2, 0)), (d, (2, 2))):
        for i in range(2):
            for j in range(2):
                m[r0 + i, c0 + j] = blk[i][j]
    return m


def family_cov(point):
    p = point.params
    b1 = CTX.mpf(p.n1) + CTX.mpf(0.5)
    b2 = CTX.mpf(p.n2) + CTX.mpf(0.5)
    base = CTX.diag([b1, b1, b2, b2])
    if point.tag == MTS:
        c, s = CTX.cos(CTX.mpf(p.theta) / 2), CTX.sin(CTX.mpf(p.theta) / 2)
        rm, rp = _rot(-CTX.mpf(p.phi)), _rot(CTX.mpf(p.phi))
        sym = _blocks([[c, 0], [0, c]], [[-s * x for x in row] for row in rm],
                      [[s * x for x in row] for row in rp], [[c, 0], [0, c]])
    elif point.tag == STS:
        ch, sh = CTX.cosh(CTX.mpf(p.r)), CTX.sinh(CTX.mpf(p.r))
        cp, sp = CTX.cos(CTX.mpf(p.phi)), CTX.sin(CTX.mpf(p.phi))
        off = [[sh * cp, sh * sp], [sh * sp, -sh * cp]]
        sym = _blocks([[ch, 0], [0, ch]], off, off, [[ch, 0], [0, ch]])
    else:
        return base
    return sym * base * sym.T


def fidelity(a, b) -> float:
    """Fidelity of two undisplaced family points at 60 digits."""
    va, vb = family_cov(a), family_cov(b)
    j = _blocks([[0, 1], [-1, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 1], [-1, 0]])
    eye = CTX.eye(4)
    delta = CTX.det(va + vb)
    gamma = 16 * CTX.det((j * va) * (j * vb) - eye / 4)
    half_j = j * CTX.mpc(0, 0.5)
    lam = 16 * CTX.re(CTX.det(va + half_j) * CTX.det(vb + half_j))
    root = CTX.sqrt(gamma) + CTX.sqrt(max(lam, 0))
    k_plus = root + CTX.sqrt(delta)
    k_minus = max(root - CTX.sqrt(delta), 0)
    return float(2 / (CTX.sqrt(k_plus) - CTX.sqrt(k_minus)) ** 2)


def scalar_curvature(tag, n1, n2) -> float:
    """Closed-form scalar curvature of the MTS or STS surface at 60 digits."""
    n1, n2 = CTX.mpf(n1), CTX.mpf(n2)
    occ = n1 * (n1 + 1) * n2 * (n2 + 1)
    if tag == MTS:
        denom = 2 * n1 * n2 + n1 + n2
        num = (n1 - n2) ** 2 - 24 * occ + 9 * denom
    elif tag == STS:
        denom = 2 * n1 * n2 + n1 + n2 + 1
        num = (n1 + n2 + 1) ** 2 - 24 * occ - 9 * denom
    else:
        raise ValueError(f"no curvature reference for family {tag!r}")
    return float(2 * num / denom**2)
