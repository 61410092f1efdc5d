"""Deterministic compressed-sensing designs from unbalanced expander graphs.

Build d-left-regular bipartite graphs (random or code-based), turn them
into renormalized adjacency design matrices, certify the structural
conditions (expansion, RIP-1, the uncertainty-principle inequality, the
nullspace property), solve the lasso / Dantzig selector / basis pursuit,
and reproduce the associated error-prediction and variable-selection
bounds by Monte Carlo.
"""

__version__ = "0.1.0"

from .bench import (ExperimentReport, RecoveryInstance, mvse_sweep,
                    ols_oracle_comparison, oracle_factors,
                    run_dantzig_experiment, run_lasso_experiment,
                    run_recovery_experiment, search_certified_graph)
from .design import DesignMatrix
from .errors import CapacityError, SolverStatusError
from .fields import GF, find_irreducible, poly_eval, poly_mod_pow
from .graphs import (BipartiteGraph, ExpanderParams, load_graph,
                     matching_graph, neighbor_set, pv_expander,
                     random_left_regular, save_graph, suggest_pv_bounds,
                     suggest_random_params)
from .noise import (NoiseModel, Thresholds, empirical_noise_bound,
                    sample_noise, sample_noise_rows, thresholds, trial_noise)
from .solve import (DantzigSolution, LassoSolution, LinearProgram, LpResult,
                    basis_pursuit, dantzig, lasso, lp_solve, ols_on_support)
from .verify import (VerificationReport, check_expansion_exhaustive,
                     check_expansion_sampled, check_kernel_concentration,
                     check_rip1_sampled, check_up2_sampled,
                     nullspace_property_oracle, recheck_violation)

__all__ = [
    "BipartiteGraph", "CapacityError", "DantzigSolution", "DesignMatrix",
    "ExpanderParams", "ExperimentReport", "GF", "LassoSolution",
    "LinearProgram", "LpResult", "NoiseModel", "RecoveryInstance",
    "SolverStatusError", "Thresholds", "VerificationReport", "basis_pursuit",
    "check_expansion_exhaustive", "check_expansion_sampled",
    "check_kernel_concentration", "check_rip1_sampled", "check_up2_sampled",
    "dantzig", "empirical_noise_bound", "find_irreducible", "lasso",
    "load_graph", "lp_solve", "matching_graph", "mvse_sweep", "neighbor_set",
    "nullspace_property_oracle", "ols_on_support", "ols_oracle_comparison",
    "oracle_factors", "poly_eval", "poly_mod_pow", "pv_expander",
    "random_left_regular", "recheck_violation", "run_dantzig_experiment",
    "run_lasso_experiment", "run_recovery_experiment", "sample_noise",
    "sample_noise_rows", "save_graph", "search_certified_graph",
    "suggest_pv_bounds", "suggest_random_params", "thresholds", "trial_noise",
]
