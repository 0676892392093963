"""Equi-energy sampler: self-interacting multi-chain MCMC with energy rings,
an exact finite-state oracle for every kernel identity behind its
convergence argument, and a statistical harness for rate and bias studies.
"""

from . import exact
from .config import (
    ExperimentConfig,
    config_from_dict,
    four_state_config,
    four_state_raw,
    load_config,
)
from .errors import ConfigurationError, DomainError, NumericalError, StabilityError
from .experiments import (
    BiasReport,
    RateReport,
    VerificationReport,
    bias_study,
    fluctuation_bound_battery,
    run_experiment,
    slln_rate_study,
    verify_suite,
)
from .kernels import (
    GaussianWalkProposal,
    KernelSet,
    NeighborProposal,
    StepInfo,
    UniformProposal,
)
from .measures import EmpiricalMeasure, StabilityMonitor, tv_distance
from .sampler import ChainEnsemble, Trace, run
from .state_space import (
    BoxSpace,
    DensityLadder,
    FiniteSpace,
    RingPartition,
    ladder_masses,
    tempered_ladder,
)

__version__ = "0.1.0"

__all__ = [
    "BiasReport",
    "BoxSpace",
    "ChainEnsemble",
    "ConfigurationError",
    "DensityLadder",
    "DomainError",
    "EmpiricalMeasure",
    "ExperimentConfig",
    "FiniteSpace",
    "GaussianWalkProposal",
    "KernelSet",
    "NeighborProposal",
    "NumericalError",
    "RateReport",
    "RingPartition",
    "StabilityError",
    "StabilityMonitor",
    "StepInfo",
    "Trace",
    "UniformProposal",
    "VerificationReport",
    "bias_study",
    "config_from_dict",
    "exact",
    "fluctuation_bound_battery",
    "four_state_config",
    "four_state_raw",
    "ladder_masses",
    "load_config",
    "run",
    "run_experiment",
    "slln_rate_study",
    "tempered_ladder",
    "tv_distance",
    "verify_suite",
]
