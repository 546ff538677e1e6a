"""Exception types, and the integer check, shared across the library."""

import numpy as np


def is_integer(value) -> bool:
    """True for a Python or NumPy integer, False for a bool or a float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class ProphetLabError(Exception):
    """Base class for all library errors."""


class InvalidQuantileError(ProphetLabError, ValueError):
    """Quantile outside [0, 1)."""


class InvalidInstanceError(ProphetLabError, ValueError):
    """Malformed distribution or instance (bad masses, empty base, k < 1, ...)."""


class InvalidParameterError(ProphetLabError, ValueError):
    """Parameter outside its admissible range (n = 0 roots, epsilon > 1/e, ...)."""


class PolicyMismatchError(ProphetLabError, ValueError):
    """Policy was built for a different instance shape than the one supplied."""


class ConfigError(ProphetLabError, ValueError):
    """Bad CLI configuration or malformed input file."""
