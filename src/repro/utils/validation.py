"""Small argument-validation helpers used across the library.

The simulators and constructions are parameter heavy (``n``, ``rho``, ``k``,
``delta`` ...); failing early with a clear message is much friendlier than a
confusing networkx error three stack frames deeper.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Any


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError`` with ``message`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def require_positive(value: Real, name: str) -> None:
    """Raise unless ``value`` is a strictly positive real number."""
    if not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def require_finite_positive(value: Real, name: str) -> None:
    """Raise unless ``value`` is a finite, strictly positive real number.

    Horizons use this: an infinite one never stops a run that cannot
    complete, and ``nan`` slips through every ordered comparison.
    """
    require_positive(value, name)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def require_non_negative(value: Real, name: str) -> None:
    """Raise unless ``value`` is a non-negative real number."""
    if not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def require_probability(value: Real, name: str) -> None:
    """Raise unless ``value`` lies in the closed interval [0, 1]."""
    if not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if not 0 <= value <= 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def require_node_count(n: Any, minimum: int = 1, name: str = "n") -> None:
    """Raise unless ``n`` is an integer node count of at least ``minimum``."""
    if not isinstance(n, (int,)) or isinstance(n, bool):
        raise TypeError(f"{name} must be an integer, got {type(n).__name__}")
    if n < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {n}")


def require_int_in_range(value: Any, low: int, high: int, name: str) -> None:
    """Raise unless ``value`` is an integer in ``[low, high]`` (inclusive)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")


__all__ = [
    "require",
    "require_positive",
    "require_finite_positive",
    "require_non_negative",
    "require_probability",
    "require_node_count",
    "require_int_in_range",
]
