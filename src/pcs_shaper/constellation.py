"""Shaped M-PAM constellations: amplitudes, Gray labels, probability vectors,
and the flickering / symmetry constraint machinery.

The bipolar amplitude grid for a peak amplitude ``A`` is

    a_m = (2m - M - 1) * A / (M - 1),   m = 1..M,

equally spaced, symmetric about zero, with ``|a_m| <= A`` and the extremes at
exactly ``-A`` and ``+A``.  The average emitted optical power of a shaped
constellation deviates from the DC operating point by ``eta * a^T p``, which the
flicker constraint keeps within ``alpha * I_DC``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError
from .validation import check_in_interval, check_positive, check_power_of_two, \
    check_probability_vector

__all__ = [
    "PamConstellation",
    "Distribution",
    "as_probs",
    "ConstraintSet",
    "build_constellation",
    "symmetry_residual",
]

INACTIVE_FLOOR = 1e-6   # probability below which a symbol is reported unused


@dataclass(frozen=True, eq=False)
class PamConstellation:
    """Equally spaced bipolar M-PAM constellation with a binary-reflected Gray map.

    Attributes
    ----------
    order_m : modulation order M (power of two, >= 2)
    peak_a : peak amplitude A in amperes (drive-current units)
    amplitudes : the M symbol amplitudes in strictly increasing order
    gray_labels : per-symbol bit strings of length log2(M); adjacent labels
        differ in exactly one bit
    gray_codes : the labels as integers, derived from ``gray_labels``
    """

    order_m: int
    peak_a: float
    amplitudes: np.ndarray
    gray_labels: tuple[str, ...]
    gray_codes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "order_m", check_power_of_two("order_m", self.order_m))
        check_positive("peak_a", self.peak_a)
        # a read-only copy: the error-rate kernel caches pair gaps per constellation
        amps = np.array(self.amplitudes, dtype=float)
        amps.setflags(write=False)
        if amps.shape != (self.order_m,):
            raise ConfigError("amplitudes must have length order_m")
        if not np.all(np.diff(amps) > 0):
            raise ConfigError("amplitudes must be strictly increasing")
        if np.abs(amps).max() > self.peak_a * (1 + 1e-12):
            raise ConfigError("amplitudes exceed the peak amplitude")
        if len(self.gray_labels) != self.order_m:
            raise ConfigError("one Gray label per symbol required")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "gray_codes", np.array(
            [int(lbl, 2) for lbl in self.gray_labels], dtype=np.int64))

    @property
    def bits_per_symbol(self) -> int:
        return self.order_m.bit_length() - 1


def build_constellation(order_m: int, peak_a: float) -> PamConstellation:
    """Build the M-PAM constellation a_m = (2m - M - 1) A / (M - 1).

    Rejects modulation orders that are odd or not a power of two.  The Gray
    labeling is the canonical binary-reflected code, assigned in amplitude
    order so that adjacent symbols always differ in a single bit.
    """
    m = check_power_of_two("order_m", order_m)
    a = check_positive("peak_a", peak_a)
    idx = np.arange(1, m + 1)
    amplitudes = (2 * idx - m - 1) * (a / (m - 1)) if m > 2 else np.array([-a, a])
    bits = int(np.log2(m))
    labels = tuple(format(k ^ (k >> 1), f"0{bits}b") for k in range(m))
    return PamConstellation(order_m=m, peak_a=a, amplitudes=amplitudes,
                            gray_labels=labels)


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability vector on the M-simplex (the shaping design variable)."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", check_probability_vector(self.probs))

    @property
    def size(self) -> int:
        return self.probs.size

    def rendered(self) -> np.ndarray:
        """Probabilities with entries below ``INACTIVE_FLOOR`` rendered as exact zeros.

        Used for CSV / report output only; the stored vector is untouched.
        """
        out = self.probs.copy()
        out[out < INACTIVE_FLOOR] = 0.0
        return out

    @classmethod
    def uniform(cls, m: int) -> "Distribution":
        return cls(np.full(m, 1.0 / m))


def as_probs(p) -> np.ndarray:
    """The probability vector of a :class:`Distribution` or an array-like, as float."""
    return p.probs if isinstance(p, Distribution) else np.asarray(p, dtype=float)


@dataclass(frozen=True)
class ConstraintSet:
    """Reliability + illumination constraints attached to a design problem.

    mode selects either the flicker bound ``|a^T p| <= alpha * I_DC`` or the
    hard symmetry requirement ``S p = 0`` (the two are never combined: symmetry
    implies a zero flicker excursion).
    """

    pre_fec_threshold: float = 3.8e-3
    flicker_alpha: float = 0.01
    mode: str = "flicker"

    def __post_init__(self):
        check_in_interval("pre_fec_threshold", self.pre_fec_threshold, 0.0, 0.5,
                          open_lo=True, open_hi=True)
        check_positive("flicker_alpha", self.flicker_alpha, allow_zero=True)
        if self.mode not in ("flicker", "symmetric"):
            raise ConfigError(f"mode must be 'flicker' or 'symmetric', got {self.mode!r}")


def symmetry_residual(p) -> np.ndarray:
    """``p_m - p_{M-m+1}`` for m <= M/2: one residual per mirror pair, all zero
    iff the distribution is symmetric."""
    arr = as_probs(p)
    half = arr.size // 2
    return arr[:half] - arr[::-1][:half]


def signed_amplitude_mean(constellation: PamConstellation, p) -> float:
    """a^T p computed pairwise over mirror symbols.

    Folding the sum over (m, M-m+1) pairs makes the result exactly zero for a
    symmetric distribution, since mirrored amplitudes are exact negations.
    """
    arr = as_probs(p)
    a = constellation.amplitudes
    half = arr.size // 2
    return float(np.dot(a[:half], arr[:half] - arr[::-1][:half]))
