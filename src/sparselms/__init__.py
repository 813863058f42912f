"""Robust sparse adaptive channel estimation under impulsive noise.

Implements the sign-LMS family of adaptive filters with zero-attracting,
reweighted zero-attracting, reweighted-l1 and lp sparsity penalties, an
exact alpha-stable noise sampler, sparse FIR channel generation, and a
seeded Monte-Carlo harness that produces averaged learning curves.
"""

__version__ = "0.2.0"

from .channel import SparseChannel, generate_channel, generate_input
from .errors import ParameterError
from .filters import (AlgorithmSpec, FilterState, attractor, penalty_value,
                      step)
from .simulation import (LearningCurve, Realization, SimConfig, apply_snr,
                         derive_trial_seed, make_realization, run_experiment)
from .stable import AlphaStableParams, characteristic_function, sample

__all__ = [
    "__version__",
    "AlgorithmSpec",
    "AlphaStableParams",
    "FilterState",
    "LearningCurve",
    "ParameterError",
    "Realization",
    "SimConfig",
    "SparseChannel",
    "apply_snr",
    "attractor",
    "characteristic_function",
    "derive_trial_seed",
    "generate_channel",
    "generate_input",
    "make_realization",
    "penalty_value",
    "run_experiment",
    "sample",
    "step",
]
