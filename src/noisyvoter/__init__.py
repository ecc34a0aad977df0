"""Noisy voter model on the complete graph: exact laws, diffusion limits,
Kantorovich distances, Stein machinery, and reproducible experiments."""

from .errors import CapacityError, ConfigError, DiagnosticError
from .pmf import Pmf, empirical_pmf, point_mass
from .model import (
    DENSE_LAW_CAP,
    BlockPartition,
    ModelParams,
    block_rates,
    count_rates,
    couple_by_block_counts,
    detailed_balance_gap,
    generator_residual,
    sample_stationary,
    sample_uniform_given_count,
    simulate_blocks_batch,
    simulate_count_batch,
    stationary_log_pmf,
    stationary_pmf,
    transient_law,
)
from .diffusion import (
    GaussianSpec,
    WFParams,
    asymptotic_fluctuation_sample,
    asymptotic_fluctuation_spec,
    block_density_noise,
    block_mean_ode,
    density_drift,
    density_noise,
    density_variance,
    derivative_decay_probe,
    fluctuation_cross_covariance,
    gaussian_coupling,
    gaussian_coupling_bound,
    mean_ode,
    simulate_fluctuation,
    simulate_wf,
    sum_fluctuation_variance,
    wf_semigroup,
)
from .transport import (
    pushforward_check,
    samples_to_csv,
    w1_discrete,
    w1_discrete_vs_gaussian,
    w1_matching,
    w1_sorted,
)
from .stein import (
    ExclusionResidual,
    SteinProblem,
    SteinSolution,
    exclusion_apply,
    exclusion_stein_residual,
    hypergeom_gaussian_w1,
    hypergeom_zeta_pmf,
    stein_bound_margins,
    stein_solve,
    stein_test_family,
    zeta_support,
)
from .experiments import ExperimentConfig, ResultRecord, replica_stream, run

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
