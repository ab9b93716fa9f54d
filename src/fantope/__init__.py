"""Sparse principal subspace estimation over the trace-k Fantope.

The estimator maximizes <S, H> - rho * ||H||_1,1 over the convex hull of
rank-k projectors, recovering the support and subspace of the leading
principal components from a (possibly noisy) symmetric matrix.  The
package bundles the splitting solver, exact Fantope projection, model
generators, recovery diagnostics, and a dual-certificate construction
that can certify a solution's support after the fact.
"""

__version__ = "0.1.0"

from .base import SupportSet, as_support
from .errors import (InvalidInput, NumericalFailure, NotConverged,
                     InfeasibleConstraint, GapCollapsed, SpsViolated,
                     DegenerateModel)
from .spectral import (SymMat, Spectrum, FantopePoint, FantopeProjectionResult,
                       as_sym, eig_sym, fantope_project, top_k_projector,
                       procrustes_align)
from .solver import (SolverConfig, KktReport, FpsSolution, UniquenessProbe,
                     soft_threshold, solve_fps, solve_fps_constrained,
                     check_kkt, uniqueness_probe)
from .diagnostics import (ConditionReport, WitnessReport, check_sps, check_lcc,
                          sign_rank_one, support_error, l11_row_bound,
                          check_recovery_conditions, check_sample_conditions,
                          frobenius_bound_check, build_witness,
                          persistence_gap, stability_check)
from .models import (ModelInstance, SampleBatch, gen_toy, gen_spiked,
                     gen_planted_clique, sample_gaussian, sample_covariance,
                     entrywise_error, save_matrix_csv, load_matrix_csv)

__all__ = [
    "__version__",
    "SupportSet", "as_support",
    "InvalidInput", "NumericalFailure", "NotConverged",
    "InfeasibleConstraint", "GapCollapsed", "SpsViolated", "DegenerateModel",
    "SymMat", "Spectrum", "FantopePoint", "FantopeProjectionResult",
    "as_sym", "eig_sym", "fantope_project", "top_k_projector",
    "procrustes_align",
    "SolverConfig", "KktReport", "FpsSolution", "UniquenessProbe",
    "soft_threshold", "solve_fps", "solve_fps_constrained",
    "check_kkt", "uniqueness_probe",
    "ConditionReport", "WitnessReport", "check_sps", "check_lcc",
    "sign_rank_one", "support_error", "l11_row_bound",
    "check_recovery_conditions", "check_sample_conditions",
    "frobenius_bound_check", "build_witness", "persistence_gap",
    "stability_check",
    "ModelInstance", "SampleBatch", "gen_toy", "gen_spiked",
    "gen_planted_clique", "sample_gaussian", "sample_covariance",
    "entrywise_error", "save_matrix_csv", "load_matrix_csv",
]
