"""Adaptive-sampling distributed SVRG on a simulated heterogeneous cluster."""

from .comm import (
    CommLedger,
    SampleHistogram,
    Topology,
    optimal_comm_sample,
    pc_sample,
    server_broadcast,
    server_gather,
)
from .harness import AllDiverged, ComparisonReport, ExperimentSpec, emit_plotdata, grid_best, run_experiment
from .optim import (
    Diverged,
    OptimizerConfig,
    RateParams,
    RateUndefined,
    RunTrace,
    run_asd_svrg,
    run_sgd,
    run_svrg,
    theoretical_rate,
)
from .problem import (
    LINEAR,
    LOGISTIC,
    LipschitzInfo,
    Shard,
    ShardedProblem,
    atomic_gradient,
    full_gradient,
    full_loss,
    generate_heterogeneous,
    lipschitz_info,
    load_csv,
    save_csv,
    shard_gradient,
)
from .sampling import (
    Categorical,
    Decomposition,
    DegenerateWeights,
    EstimationConfig,
    PerturbedPair,
    decompose_perturbed,
    estimate_shard_weight,
    gamma_inverse_bound,
    optimal_distribution,
    sample_categorical,
    subsample_size,
)

__version__ = "0.1.0"
