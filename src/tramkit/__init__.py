"""Coreset summarization for k-means with tradeoff navigation.

Library layout:

- core:      datasets, centers, weighted sets, risk evaluation
- solver:    weighted k-means++ seeding and weighted Lloyd iterations
- coreset:   sensitivity-sampling coreset construction, eta(s) bound
- tram:      the navigation loop (grow, solve, validate, stop)
- tradeoff:  empirical sweep harness and Pareto frontier extraction
- analytic:  numerical simulator of the analytic tradeoff bounds
- data:      synthetic mixtures, CSV ingestion, train/validation split
- cli:       the `tramkit` command
"""

__version__ = "0.1.0"

from .analytic import (
    AnalyticParams,
    analytic_curves,
    coreset_optimum,
    eps_est,
    eps_model,
    subsampler_optimum,
)
from .core import (
    Centers,
    Dataset,
    WeightedSet,
    empirical_risk,
    uniform_weighted,
    weighted_risk,
)
from .coreset import (
    Bicriteria,
    CoresetParams,
    EtaModel,
    bicriteria_init,
    build_coreset,
    eta_bound,
    sensitivities,
)
from .data import SyntheticSpec, gen_synthetic, load_csv, save_csv, split_validation
from .solver import SolveResult, SolverConfig, lloyd, seed_dsquared, solve
from .tradeoff import (
    Lambda,
    LambdaRecord,
    SweepGrid,
    pareto_data_time,
    pareto_risk_time,
    run_sweep,
)
from .tram import TramParams, TramTrace, run_tram, stopping_test, validation_size

__all__ = [
    "__version__",
    "AnalyticParams",
    "Bicriteria",
    "Centers",
    "CoresetParams",
    "Dataset",
    "EtaModel",
    "Lambda",
    "LambdaRecord",
    "SolveResult",
    "SolverConfig",
    "SweepGrid",
    "SyntheticSpec",
    "TramParams",
    "TramTrace",
    "WeightedSet",
    "analytic_curves",
    "bicriteria_init",
    "build_coreset",
    "coreset_optimum",
    "empirical_risk",
    "eps_est",
    "eps_model",
    "eta_bound",
    "gen_synthetic",
    "lloyd",
    "load_csv",
    "pareto_data_time",
    "pareto_risk_time",
    "run_sweep",
    "run_tram",
    "save_csv",
    "seed_dsquared",
    "sensitivities",
    "solve",
    "split_validation",
    "stopping_test",
    "subsampler_optimum",
    "uniform_weighted",
    "validation_size",
    "weighted_risk",
]
