"""General two-mode Gaussian-state machinery.

States are represented by their first moments (a length-4 quadrature mean
vector) and second moments (a real symmetric 4x4 covariance matrix, vacuum
variance 1/2). Fidelity between two states is computed from three symplectic
determinant invariants (delta, gamma, lam) combined into the pair
(k_plus, k_minus), times a Gaussian factor in the mean displacement.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError, ValidationError
from .tolerances import current as current_tol

log = logging.getLogger("gaussfisher")

_COND_WARN = 1e8

# eigvalsh on the 4x4 Hermitian V + iJ/2 is backward stable: each computed
# eigenvalue is off by a small multiple of eps * ||V + iJ/2||_2. The multiple
# is taken as the matrix dimension, 4; on seeded STS states with n up to 1e6
# and r up to 8 the observed multiple stays below 1.6.
_EIG_ROUNDOFF = 4.0 * np.finfo(float).eps


def symplectic_form() -> np.ndarray:
    """The 4x4 symplectic form: block-diagonal with 2x2 blocks [[0,1],[-1,0]]."""
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((4, 4))
    out[:2, :2] = j2
    out[2:, 2:] = j2
    return out


def validate_mean(mean, *, size: int = 4) -> np.ndarray:
    mean = np.asarray(mean, dtype=float)
    if mean.shape != (size,):
        raise ValidationError(f"quadrature mean must have shape ({size},), got {mean.shape}")
    if not np.all(np.isfinite(mean)):
        raise ValidationError("quadrature mean has non-finite components")
    return mean


def validate_cov(cov, *, size: int = 4) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (size, size):
        raise ValidationError(f"covariance matrix must be {size}x{size}, got {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise ValidationError("covariance matrix has non-finite entries")
    asym = np.abs(cov - cov.T).max()
    if asym > current_tol().sym:
        raise ValidationError(f"covariance matrix not symmetric (residue {asym:.3e})")
    return 0.5 * (cov + cov.T)


@dataclass(frozen=True)
class PhysicalityReport:
    physical: bool
    min_eigenvalue: float


def check_physical(cov) -> PhysicalityReport:
    """Uncertainty-relation check: V + (i/2)J must be positive semidefinite.

    The smallest eigenvalue may undershoot zero by ``psd`` plus the
    eigensolver roundoff, which grows with the entries of V.
    """
    tol = current_tol()
    cov = validate_cov(cov)
    m = cov + 0.5j * symplectic_form()
    eigs = np.linalg.eigvalsh(m)
    # for a Hermitian matrix the spectral norm is the largest |eigenvalue|
    norm = max(abs(eigs[0]), abs(eigs[-1]))
    return PhysicalityReport(
        physical=bool(eigs[0] >= -(tol.psd + _EIG_ROUNDOFF * norm)),
        min_eigenvalue=float(eigs[0]),
    )


@dataclass(frozen=True)
class TwoModeGaussian:
    """A two-mode Gaussian state: quadrature means and covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", validate_mean(self.mean))
        object.__setattr__(self, "cov", validate_cov(self.cov))
        report = check_physical(self.cov)
        if not report.physical:
            raise ValidationError(
                f"covariance matrix is unphysical (min eigenvalue of V+iJ/2 is "
                f"{report.min_eigenvalue:.3e})"
            )


@dataclass(frozen=True)
class FidelityBreakdown:
    """Invariants and result of one two-mode fidelity evaluation."""

    delta: float
    gamma: float
    lam: float
    k_plus: float
    k_minus: float
    overlap: float
    fidelity: float


def _real_edge_det(m: np.ndarray, tol) -> float:
    """Real part of det(V + iJ/2), with residue checks.

    The determinant is real and non-negative for physical covariance
    matrices (the invariant lam >= 0); an imaginary or negative
    edge-determinant residue beyond ``invariant * (1 + |Re det|)`` raises.
    """
    det = np.linalg.det(m)
    scale = 1.0 + abs(det.real)
    if abs(det.imag) > tol.invariant * scale:
        raise NumericalConsistencyError(
            f"edge determinant has imaginary residue {det.imag:.3e}"
        )
    value = float(det.real)
    if value < 0.0:
        if value < -tol.invariant * scale:
            raise NumericalConsistencyError(
                f"edge determinant negative beyond tolerance ({value:.3e})"
            )
        value = 0.0
    return value


def compute_invariants(cov_a, cov_b) -> FidelityBreakdown:
    """Determinant invariants (delta, gamma, lam) and (k_plus, k_minus).

    delta = det(V' + V''),
    gamma = 16 det[(JV')(JV'') - I/4],
    lam   = 16 det(V' + iJ/2) det(V'' + iJ/2),
    k_pm  = sqrt(gamma) + sqrt(lam) +/- sqrt(delta).

    The exact inequalities delta >= 1, gamma >= delta, lam >= 0,
    k_minus >= 0 and k_plus - k_minus >= 2 are enforced up to a scaled
    tolerance; violations raise :class:`NumericalConsistencyError`.
    """
    tol = current_tol()
    cov_a = validate_cov(cov_a)
    cov_b = validate_cov(cov_b)
    j = symplectic_form()

    delta = float(np.linalg.det(cov_a + cov_b))
    gamma = float(16.0 * np.linalg.det((j @ cov_a) @ (j @ cov_b) - 0.25 * np.eye(4)))
    det_a = _real_edge_det(cov_a + 0.5j * j, tol)
    det_b = _real_edge_det(cov_b + 0.5j * j, tol)
    lam = 16.0 * det_a * det_b

    slack = tol.invariant
    if delta < 1.0 - slack * (1.0 + abs(delta)):
        raise NumericalConsistencyError(f"delta = {delta:.6e} < 1")
    if gamma < delta - slack * (1.0 + abs(gamma)):
        raise NumericalConsistencyError(f"gamma = {gamma:.6e} < delta = {delta:.6e}")

    sqrt_delta = np.sqrt(delta)
    k_plus = float(np.sqrt(gamma) + np.sqrt(lam) + sqrt_delta)
    k_minus = float(np.sqrt(gamma) + np.sqrt(lam) - sqrt_delta)
    k_scale = 1.0 + sqrt_delta
    if k_minus < -slack * k_scale:
        raise NumericalConsistencyError(f"k_minus = {k_minus:.6e} < 0")
    if k_minus < tol.kminus * k_scale:
        # saturated pairs sit on the branch point of the fidelity formula
        k_minus = 0.0
    if k_plus - k_minus < 2.0 - slack * k_scale:
        raise NumericalConsistencyError(
            f"k_plus - k_minus = {k_plus - k_minus:.6e} < 2"
        )
    return FidelityBreakdown(
        delta=delta, gamma=gamma, lam=lam,
        k_plus=k_plus, k_minus=k_minus,
        overlap=float("nan"), fidelity=float("nan"),
    )


def _displacement_factor(delta_v: np.ndarray, cov_sum: np.ndarray) -> float:
    """exp[-(1/2) dv^T (V'+V'')^{-1} dv], via an LU solve."""
    if not np.any(delta_v):
        return 1.0
    cond = np.linalg.cond(cov_sum)
    if cond > _COND_WARN:
        log.warning("covariance sum badly conditioned (cond=%.3e)", cond)
    try:
        x = np.linalg.solve(cov_sum, delta_v)
    except np.linalg.LinAlgError as exc:
        raise NumericalConsistencyError(
            "singular covariance sum in displacement factor"
        ) from exc
    return float(np.exp(-0.5 * delta_v @ x))


def fidelity_two_mode(state_a: TwoModeGaussian, state_b: TwoModeGaussian) -> FidelityBreakdown:
    """Fidelity of two two-mode Gaussian states, with its invariant breakdown.

    fidelity = 2 (sqrt(k_plus) - sqrt(k_minus))^-2 * displacement factor;
    overlap = Tr(rho' rho'') = delta^-1/2 * displacement factor.
    """
    inv = compute_invariants(state_a.cov, state_b.cov)
    dv = state_a.mean - state_b.mean
    disp = _displacement_factor(dv, state_a.cov + state_b.cov)
    overlap = disp / np.sqrt(inv.delta)
    root_gap = np.sqrt(inv.k_plus) - np.sqrt(inv.k_minus)
    fidelity = 2.0 / root_gap**2 * disp
    return FidelityBreakdown(
        delta=inv.delta, gamma=inv.gamma, lam=inv.lam,
        k_plus=inv.k_plus, k_minus=inv.k_minus,
        overlap=float(overlap), fidelity=float(fidelity),
    )


def fidelity_one_mode(mean_a, cov_a, mean_b, cov_b) -> float:
    """Fidelity of two one-mode Gaussian states (2x2 covariance matrices)."""
    tol = current_tol()
    cov_a = validate_cov(cov_a, size=2)
    cov_b = validate_cov(cov_b, size=2)
    mean_a = validate_mean(mean_a, size=2)
    mean_b = validate_mean(mean_b, size=2)
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for cov in (cov_a, cov_b):
        eigs = np.linalg.eigvalsh(cov + 0.5j * j2)
        if eigs[0] < -tol.psd:
            raise ValidationError(
                f"one-mode covariance matrix unphysical (min eig {eigs[0]:.3e})"
            )
    delta = float(np.linalg.det(cov_a + cov_b))
    det_a = _real_edge_det(cov_a + 0.5j * j2, tol)
    det_b = _real_edge_det(cov_b + 0.5j * j2, tol)
    lam = 4.0 * det_a * det_b
    disp = _displacement_factor(mean_a - mean_b, cov_a + cov_b)
    return float(disp / (np.sqrt(delta + lam) - np.sqrt(lam)))


def distances(fidelity: float) -> dict:
    """Bures distance and Bures angle derived from a fidelity value."""
    tol = current_tol()
    # chained so that NaN fails too
    if not 0.0 <= fidelity <= 1.0 + tol.branch:
        raise ValidationError(f"fidelity {fidelity!r} outside [0, 1]")
    f = min(float(fidelity), 1.0)
    root = np.sqrt(f)
    return {
        "bures": float(np.sqrt(2.0 - 2.0 * root)),
        "angle": float(np.arccos(root)),
    }


def classical_fidelity(p, q) -> dict:
    """Classical fidelity of two probability vectors, with its two distances.

    Returns ``f_cl`` (squared affinity), ``d_bw`` (the statistical angle
    arccos sqrt(f_cl)) and ``d_h`` (the Hellinger chordal distance).
    """
    tol = current_tol()
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValidationError("probability vectors must be 1-d and equally long")
    # written so that NaN fails too; inf fails the normalization
    if not (np.all(p >= 0.0) and np.all(q >= 0.0)):
        raise ValidationError("probabilities must be non-negative numbers")
    for name, vec in (("p", p), ("q", q)):
        if abs(vec.sum() - 1.0) > tol.prob_norm:
            raise ValidationError(f"{name} not normalized (sum {vec.sum()!r})")
    sp, sq = np.sqrt(p), np.sqrt(q)
    affinity = float((sp * sq).sum())
    f_cl = min(affinity**2, 1.0)
    # Summing (sqrt p - sqrt q)^2 directly avoids the cancellation in
    # sqrt(2 - 2 affinity) near p = q, which leaves ~1.5e-8 for equal inputs;
    # the angle follows from the chord as 2 arcsin(d_h / 2).
    d_h = float(np.sqrt(((sp - sq) ** 2).sum()))
    return {
        "f_cl": f_cl,
        "d_bw": float(2.0 * np.arcsin(min(d_h / 2.0, 1.0))),
        "d_h": d_h,
    }
