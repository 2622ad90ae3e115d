"""Optimal consensus weights, convergence rates, and quantized averaging
simulation for symmetric, complete-cored, and k-cored star networks.

STAR_CONSENSUS_THREADS, when set, is the default for the OpenMP, OpenBLAS
and MKL thread counts; it is applied here, before numpy is first imported.
"""

import os

if "STAR_CONSENSUS_THREADS" in os.environ:  # must precede the numpy import
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["STAR_CONSENSUS_THREADS"])

from .topology import (
    CcsStar,
    Graph,
    KcsStar,
    SymmetricStar,
    Topology,
    TopologyError,
    build,
)
from .weights import (
    WeightAssignment,
    WeightError,
    assemble_matrix,
    best_constant_weights,
    max_degree_weights,
    metropolis_weights,
    optimal_weights,
    per_stratum_from_matrix,
    scheme_matrix,
)
from .spectral import (
    InterlacingReport,
    SpectralError,
    StratifiedBlocks,
    char_kcs,
    eig_symmetric,
    interlacing_check,
    k_max,
    slem,
    slem_closed_form,
    stratify,
    theta_root_kcs,
)
from .optimality import (
    InvarianceReport,
    OptimizeResult,
    SlacknessReport,
    TiedOptimum,
    central_weight_invariance,
    kcs_slem_curve,
    kcs_tied_optimum,
    minimize_slem,
    slackness_residuals,
)
from .simulate import (
    QuantizerSpec,
    TrialOutcome,
    TrialStats,
    derive_trial_seed,
    initial_states,
    monte_carlo,
    monte_carlo_row,
    run_trial,
)

__version__ = "0.1.0"
