"""Fidelity, quantum Fisher information and Bures curvature for two-mode
Gaussian states of the thermal, mode-mixed thermal and squeezed thermal
families, with independent numerical oracles for every closed form."""

from .closed_form import (PairInvariants, fidelity_special, fidelity_ts,
                          pair_invariants, q_affinity)
from .core import (FidelityBreakdown, PhysicalityReport, TwoModeGaussian,
                   check_physical, classical_fidelity, compute_invariants,
                   distances, fidelity_one_mode, fidelity_two_mode,
                   symplectic_form)
from .curvature import (CurvatureReport, MetricField, SADDLE_OCCUPANCY,
                        christoffel, family_metric_field, scalar_closed,
                        scalar_curvature_pipeline, scalar_warped,
                        section_curve)
from .errors import (ChartDomainError, GaussFisherError,
                     NumericalConsistencyError, TruncationError,
                     ValidationError)
from .geometry import (MetricMatrix, QfiDiagonal, ball_volume_expansion,
                       cramer_rao, jeffreys_prior, jeffreys_prior_sts_closed,
                       numeric_metric, qfi_closed, ts_metric)
from .states import (FamilyPoint, MtsParams, StsParams, TsParams,
                     bs_symplectic, family_cov, rotation2,
                     separability_threshold, sq_symplectic, thermal_cov)

__version__ = "0.1.0"
