"""Capacity regions and coding simulations for finite-state multiple-access
channels with conferencing encoders and delayed state information."""

from .markov import (
    DelayedStateJoint,
    MarkovChain,
    delayed_state_joint,
    n_step_matrix,
    sample_state_path,
    stationary_distribution,
)
from .pmf import (
    JOINT_VARIABLES,
    DmcChannel,
    InputPolicy,
    JointPmf,
    assemble_joint,
    conditional_mutual_information,
)
from .regions import (
    ConferencingConfig,
    RateBounds,
    RatePoint,
    SearchConfig,
    SearchResult,
    best_weighted_point,
    common_message_bounds,
    conferencing_bounds,
    inner_bound_search,
    polytope_vertices,
    search_weighted,
)
from .gaussian import (
    Allocation,
    FeasibilityError,
    FeasibilityReport,
    GaussianMacSpec,
    GaussianSolveResult,
    SolverConfig,
    TracePoint,
    feasible,
    maximize_weighted_rate,
    rate_bounds_gaussian,
    solve_weighted,
    trace_boundary,
)
from .asymptotics import (
    CorrelationProfile,
    beta_star_high_snr,
    correlation_profile_numeric,
    rho_from_beta,
    rho_star,
    rho_infinity,
    snr_critical,
    snr_critical_db,
)
from .coding import (
    Codebooks,
    DecodeResult,
    ErrorRateEstimate,
    SplitMessages,
    conferencing_error_rate,
    decode_joint_typicality,
    encode,
    estimate_error_rate,
    generate_codebooks,
    merge_messages,
    message_count,
    split_messages,
)

__version__ = "0.1.0"
