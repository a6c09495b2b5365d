"""Planar random flights: simulation, exact analytics, rate estimation.

A mover travels at constant speed and redraws its heading uniformly at the
events of a Poisson process. This package simulates such flights, evaluates
the exact position/radial densities, moments and Fisher information, and
estimates the event rate from equidistant position observations.
"""

from .analytics import (
    DensityValue,
    FisherInfo,
    bessel_i,
    bessel_i_scaled,
    bessel_limit_density,
    cramer_rao_bound,
    fisher_info,
    moment_closed_form,
    moment_quadrature,
    planar_density_ac,
    radial_density_offset,
    radial_density_origin,
)
from .errors import (
    BesselOverflowError,
    DomainError,
    EmptyCellError,
    InconsistentSampleError,
    NumericalError,
    ParameterError,
    QuadratureError,
)
from .estimators import (
    ESTIMATOR_KINDS,
    Estimate,
    IncrementSummary,
    indicator_estimate,
    modified_mle,
    poisson_mle,
    pseudo_likelihood_ratio,
    pseudo_log_likelihood,
    pseudo_mle,
    score,
    summarize_increments,
)
from .montecarlo import (
    ExperimentConfig,
    ExperimentOutcome,
    ExperimentSummary,
    ReplicationResult,
    config_from_json,
    config_to_json,
    resolve_worker_count,
    run_experiment,
    run_replication,
    summarize,
)
from .seeding import SeedSpec, replication_stream, splitmix64
from .simulate import (
    DiscreteSample,
    FlightParams,
    Trajectory,
    ground_truth_counts,
    position_at,
    sample_at_grid,
    simulate_trajectory,
    vertex_positions,
)

__version__ = "0.1.0"

__all__ = [
    "BesselOverflowError",
    "DensityValue",
    "DiscreteSample",
    "DomainError",
    "ESTIMATOR_KINDS",
    "EmptyCellError",
    "Estimate",
    "ExperimentConfig",
    "ExperimentOutcome",
    "ExperimentSummary",
    "FisherInfo",
    "FlightParams",
    "InconsistentSampleError",
    "IncrementSummary",
    "NumericalError",
    "ParameterError",
    "QuadratureError",
    "ReplicationResult",
    "SeedSpec",
    "Trajectory",
    "bessel_i",
    "bessel_i_scaled",
    "bessel_limit_density",
    "config_from_json",
    "config_to_json",
    "cramer_rao_bound",
    "fisher_info",
    "ground_truth_counts",
    "indicator_estimate",
    "modified_mle",
    "moment_closed_form",
    "moment_quadrature",
    "planar_density_ac",
    "poisson_mle",
    "position_at",
    "pseudo_likelihood_ratio",
    "pseudo_log_likelihood",
    "pseudo_mle",
    "radial_density_offset",
    "radial_density_origin",
    "replication_stream",
    "resolve_worker_count",
    "run_experiment",
    "run_replication",
    "sample_at_grid",
    "score",
    "simulate_trajectory",
    "splitmix64",
    "summarize",
    "summarize_increments",
    "vertex_positions",
]
