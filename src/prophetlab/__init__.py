"""Simulation and exact-evaluation toolkit for repeated-sample stopping rules.

The model: each of n base reward distributions spawns k independent copies,
every copy arrives at an independent uniform time in [0, 1], and an online
rule picks at most one reward.  The benchmark is the expected maximum over a
single copy of each base distribution.
"""

from .distributions import Distribution, distribution_from_json, nth_root, product_max
from .errors import (
    ConfigError,
    InvalidInstanceError,
    InvalidParameterError,
    InvalidQuantileError,
    PolicyMismatchError,
    ProphetLabError,
)
from .exact_oracle import ExactEvaluator, p_tau_multi, p_tau_single
from .experiments import exceedance, expected_value
from .instance import (
    Instance,
    OptLaw,
    instance_from_json,
    make_instance,
    opt_law,
)
from .monte_carlo import (
    McConfig,
    estimate_exceedance,
    estimate_expected_value,
    estimate_value_and_no_stop,
)
from .policies import (
    ActivationPolicy,
    AdaptiveTwoThreshold,
    BucketStack,
    ThresholdSchedule,
    ThresholdStack,
    make_adaptive,
    make_blind_schedule,
    make_single_threshold,
    sort_nonincreasing,
)
from .results import EvalResult

from types import ModuleType as _ModuleType

# the public names, not the submodules that importing them bound
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__version__ = "0.1.0"
