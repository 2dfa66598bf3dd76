"""Shaped M-PAM constellations: amplitudes, Gray labels, probability vectors,
and the flickering / symmetry constraint machinery.

The bipolar amplitude grid for a peak amplitude ``A`` is

    a_m = (2m - M - 1) * A / (M - 1),   m = 1..M,

equally spaced and symmetric about zero; the extremes are ``-A`` and ``+A``
to within an ulp (exactly at M = 2).  The average emitted optical power of a
shaped constellation deviates from the DC operating point by ``eta * a^T p``,
which the flicker constraint keeps within ``alpha * I_DC``.
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
    "symmetry_residual",
]

INACTIVE_FLOOR = 1e-6   # probability below which a symbol is reported unused


@dataclass(frozen=True, eq=False)
class PamConstellation:
    """``PamConstellation(M, A)``: the grid a_m = (2m - M - 1) A / (M - 1) of
    the module docstring, with a binary-reflected Gray map.

    The grid is derived, never supplied, so its mirror symmetry holds by
    construction: ``amplitudes[::-1] == -amplitudes`` bit for bit.

    Attributes
    ----------
    order_m : modulation order M (power of two, >= 2)
    peak_a : peak amplitude A in amperes (drive-current units)
    amplitudes : the M symbol amplitudes in increasing order, read-only
    gray_labels : per-symbol bit strings of length log2(M) in amplitude
        order; adjacent labels differ in exactly one bit
    gray_codes : the labels as integers
    """

    order_m: int
    peak_a: float
    amplitudes: np.ndarray = field(init=False, repr=False)
    gray_labels: tuple[str, ...] = field(init=False, repr=False)
    gray_codes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = check_power_of_two("order_m", self.order_m)
        a = check_positive("peak_a", self.peak_a)
        # read-only: the error-rate kernel caches pair gaps per constellation
        amps = (2 * np.arange(1, m + 1) - m - 1) * (a / (m - 1))
        amps.setflags(write=False)
        codes = [k ^ (k >> 1) for k in range(m)]
        labels = tuple(format(k, f"0{m.bit_length() - 1}b") for k in codes)
        object.__setattr__(self, "order_m", m)
        object.__setattr__(self, "peak_a", a)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "gray_labels", labels)
        object.__setattr__(self, "gray_codes", np.array(codes, dtype=np.int64))

    @property
    def bits_per_symbol(self) -> int:
        return self.order_m.bit_length() - 1


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


def as_probs(p, size: int | None = None) -> np.ndarray:
    """The probability vector of a :class:`Distribution` or an array-like, as
    float; ConfigError if ``size`` is given and the length is not ``size``."""
    arr = p.probs if isinstance(p, Distribution) else np.asarray(p, dtype=float)
    if size is not None and arr.size != size:
        raise ConfigError(f"probability vector must have length {size}, got {arr.size}")
    return arr


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

    Every ``PamConstellation`` grid is mirror-symmetric, so the fold over
    (m, M-m+1) pairs is a^T p, and it is exactly zero for a symmetric
    distribution.  A vector whose length is not M raises ConfigError.
    """
    residual = symmetry_residual(as_probs(p, constellation.order_m))
    return float(np.dot(constellation.amplitudes[:residual.size], residual))
