"""Noisy voter model on the complete graph: exact laws, diffusion limits,
Kantorovich distances, Stein machinery, and reproducible experiments."""

# set before the submodule imports: experiments records it in every manifest
__version__ = "0.1.0"

from .errors import CapacityError, ConfigError, DiagnosticError
from .pmf import Pmf, empirical_pmf, point_mass
from .model import (
    DENSE_LAW_CAP,
    BlockPartition,
    ModelParams,
    block_mean_ode,
    count_rates,
    couple_by_block_counts,
    density_drift,
    density_noise,
    density_variance,
    detailed_balance_gap,
    mean_ode,
    sample_uniform_given_count,
    simulate_blocks_batch,
    simulate_count_batch,
    stationary_log_pmf,
    stationary_pmf,
    transient_law,
)
from .diffusion import (
    WFMarginal,
    WFParams,
    derivative_decay_probe,
    gaussian_coupling,
    gaussian_coupling_bound,
    simulate_wf,
    wf_marginal,
    wf_semigroup,
)
from .transport import (
    pushforward_check,
    w1_discrete,
    w1_discrete_vs_gaussian,
    w1_discrete_vs_wf,
    w1_matching,
    w1_sorted,
)
from .stein import (
    ExclusionResidual,
    SteinLattice,
    SteinProblem,
    SteinSolution,
    exclusion_apply,
    exclusion_stein_residual,
    hypergeom_gaussian_w1,
    hypergeom_zeta_pmf,
    stein_bound_margins,
    stein_lattice,
    stein_solve,
    stein_test_family,
    zeta_support,
)
from .experiments import ExperimentConfig, ResultRecord, replica_stream, run

__all__ = [name for name in dir() if not name.startswith("_")]
