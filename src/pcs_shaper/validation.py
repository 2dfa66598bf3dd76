"""Small input-validation helpers used by the data types and the config."""
from __future__ import annotations

import math

import numpy as np

from .exceptions import ConfigError

PROB_SUM_TOL = 1e-12


def _as_float(name: str, value) -> float:
    """``value`` as a float; ConfigError, naming ``name``, if it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def check_positive(name: str, value: float, allow_zero: bool = False) -> float:
    """``value`` as a float; ConfigError unless it is finite and > 0 (>= 0
    with ``allow_zero``)."""
    value = _as_float(name, value)
    if not (math.isfinite(value) and (value >= 0 if allow_zero else value > 0)):
        raise ConfigError(f"{name} must be finite and {'>=' if allow_zero else '>'} 0, "
                          f"got {value}")
    return value


def check_integer(name: str, value, minimum: int) -> int:
    """``value`` as an int; ConfigError unless it is an integer (a numpy
    integer passes, a bool does not) and at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_in_interval(name: str, value: float, lo: float, hi: float,
                      open_lo: bool = False, open_hi: bool = False) -> float:
    value = _as_float(name, value)
    ok_lo = value > lo if open_lo else value >= lo
    ok_hi = value < hi if open_hi else value <= hi
    if not (ok_lo and ok_hi):
        raise ConfigError(f"{name} must lie in "
                          f"{'(' if open_lo else '['}{lo}, {hi}{')' if open_hi else ']'}, "
                          f"got {value}")
    return value


def check_probability_vector(p, size: int | None = None) -> np.ndarray:
    """Validate a finite vector on the probability simplex and return it as float64."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or not arr.size:
        raise ConfigError("probability vector must be 1-D and non-empty, "
                          f"got shape {arr.shape}")
    if size is not None and arr.size != size:
        raise ConfigError(f"probability vector must have length {size}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError("probability vector contains non-finite entries")
    if arr.min() < 0 or arr.max() > 1 + PROB_SUM_TOL:
        raise ConfigError("probabilities must lie in [0, 1]")
    if abs(arr.sum() - 1.0) > PROB_SUM_TOL:
        raise ConfigError(f"probabilities must sum to 1 within {PROB_SUM_TOL}, got {arr.sum()!r}")
    return arr


def check_power_of_two(name: str, value) -> int:
    """``value`` as an int; ConfigError, naming ``name``, unless it is an
    integer (as :func:`check_integer` takes it) and a power of two >= 2."""
    value = check_integer(name, value, 2)
    if value & (value - 1):
        raise ConfigError(f"{name} must be a power of two >= 2, got {value}")
    return value
