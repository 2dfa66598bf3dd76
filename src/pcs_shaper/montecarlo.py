"""Ground-truth Monte-Carlo simulation: MAP detection, empirical SER/BER, and
eavesdropper position sampling.

Symbol streams are drawn by inverse-CDF lookup (exact for a discrete
distribution); noise comes from per-chunk Philox generators keyed by
``(seed, chunk_index)``, and the chunk partition depends on the symbol count
alone, so the counts are a function of the seed and the symbol count.

MAP detection is an interval lookup.  With equal noise variance, the metric
``ln p_m - (y - r_m)^2 / (2 sigma^2)`` is, up to a term common to all
symbols, affine in ``y``, so each symbol wins one interval of ``y`` or none.
The cuts between neighbouring winners are computed once per call (O(M)), and
each sample is decided by a binary search among them; an exact tie goes to
the lower index, as an argmax over the metrics would send it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import LambertianLed, LinkBudget, LinkGeometry, NoiseParams, \
    ReceiverPd, link_budget_from_geometry
from .constellation import Distribution, PamConstellation
from .error_rate import PairwiseGeometry
from .exceptions import ConfigError

__all__ = [
    "SimConfig",
    "ErrorStats",
    "map_detect",
    "simulate_error_rates",
    "sample_eve_positions",
    "pairwise_error_mc",
]

_CHUNK = 1_000_000


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + index))


@dataclass(frozen=True)
class SimConfig:
    n_symbols: int
    seed: int
    link: LinkBudget
    constellation: PamConstellation
    distribution: Distribution

    def __post_init__(self):
        if self.n_symbols < 1:
            raise ConfigError("n_symbols must be >= 1")
        if self.distribution.size != self.constellation.order_m:
            raise ConfigError("distribution size must match the modulation order")


@dataclass
class ErrorStats:
    ser: float
    ser_stderr: float
    ber: float
    ber_stderr: float
    confusion_counts: np.ndarray = field(repr=False)
    n_symbols: int = 0


def _decision_intervals(means: np.ndarray, probs: np.ndarray,
                        sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """MAP winners in increasing order of ``y`` and the cuts between them.

    ``means`` must be non-decreasing.  Winner ``winners[i]`` takes
    ``cuts[i-1] < y <= cuts[i]``: the upper envelope of the lines
    ``ln p_m + (r_m y - r_m^2 / 2) / sigma^2``, whose neighbours j < k cross at
    ``(r_j + r_k)/2 + sigma^2 (ln p_j - ln p_k) / (r_k - r_j)``.  Zero-probability
    symbols are skipped; among equal means the most probable (then the lowest
    index) wins everywhere.
    """
    var = sigma * sigma
    winners: list[int] = []
    logs: list[float] = []
    cuts: list[float] = []
    for k in np.flatnonzero(probs > 0):
        log_k = math.log(probs[k])
        while winners:
            r_j = means[winners[-1]]
            if means[k] > r_j:
                x = 0.5 * (r_j + means[k]) + var * (logs[-1] - log_k) / (means[k] - r_j)
            else:                   # equal means: k wins everywhere or nowhere
                x = -math.inf if log_k > logs[-1] else math.inf
            if x > (cuts[-1] if cuts else -math.inf):
                break
            winners.pop()           # j's interval is empty; a tie goes to the lower index
            logs.pop()
            del cuts[-1:]
        if winners:
            if x == math.inf:
                continue            # k never beats j
            cuts.append(x)
        winners.append(int(k))
        logs.append(log_k)
    return np.array(winners, dtype=np.intp), np.array(cuts)


def map_detect(y, c: PamConstellation, p, link) -> np.ndarray | int:
    """MAP symbol decision(s): argmax_m ln p_m - (y - r_m)^2 / (2 sigma^2).

    Each symbol's decision region is one interval of ``y`` (or empty), so a
    sample is decided by ``searchsorted`` among the cuts between neighbouring
    regions, with ``side="left"``: a sample exactly on a cut goes to the lower
    index, as an argmax over the metrics sends a tie.  Zero-probability symbols
    never win.  Accepts a scalar (returns ``int``) or an array of receive
    samples.
    """
    probs = p.probs if isinstance(p, Distribution) else np.asarray(p, dtype=float)
    winners, cuts = _decision_intervals(link.composite_gain * c.amplitudes,
                                        probs, link.sigma)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    decisions = winners[np.searchsorted(cuts, y_arr, side="left")]
    return int(decisions[0]) if np.isscalar(y) else decisions


def _draw_symbols(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF symbol draw for uniforms ``u`` in [0, 1).

    The CDF is forced to 1 from the last nonzero probability on, so rounding in
    the cumulative sum can never send a zero-probability symbol.
    """
    cdf = np.cumsum(probs)
    cdf[np.flatnonzero(probs)[-1]:] = 1.0
    return np.searchsorted(cdf, u, side="right")


def _simulate_chunk(cfg: SimConfig, index: int, n: int) -> np.ndarray:
    rng = _chunk_rng(cfg.seed, index)
    probs = cfg.distribution.probs
    sent = _draw_symbols(probs, rng.random(n))
    means = cfg.link.composite_gain * cfg.constellation.amplitudes
    y = means[sent] + cfg.link.sigma * rng.standard_normal(n)
    detected = map_detect(y, cfg.constellation, probs, cfg.link)
    m = cfg.constellation.order_m
    return np.bincount(sent * m + detected, minlength=m * m).reshape(m, m)


def _stderr(mean: float, mean_sq: float, n: int) -> float:
    """Standard error of a sample mean from the first two sample moments."""
    return math.sqrt(max(mean_sq - mean * mean, 0.0) / n)


def simulate_error_rates(cfg: SimConfig) -> ErrorStats:
    """Empirical SER/BER of the MAP detector under the shaped distribution.

    A symbol sent as m and detected as k flips ``d_H(m, k)`` bits, the
    Hamming distance between their Gray labels.  Standard errors come from
    the per-symbol error indicator and the per-symbol bit-error count, so a
    symbol error that flips several bits counts as one correlated event.
    """
    n = cfg.n_symbols
    confusion = sum(_simulate_chunk(cfg, i, min(_CHUNK, n - i * _CHUNK))
                    for i in range((n + _CHUNK - 1) // _CHUNK))
    k = cfg.constellation.bits_per_symbol
    codes = cfg.constellation.gray_codes
    labels_xor = codes[:, None] ^ codes[None, :]
    d_h = sum((labels_xor >> b) & 1 for b in range(k))
    ser = int(confusion.sum() - np.trace(confusion)) / n
    bit_errors = int((confusion * d_h).sum())
    return ErrorStats(
        ser=ser,
        ser_stderr=_stderr(ser, ser, n),
        ber=bit_errors / (n * k),
        ber_stderr=_stderr(bit_errors / n, int((confusion * d_h**2).sum()) / n, n) / k,
        confusion_counts=confusion,
        n_symbols=n,
    )


def sample_eve_positions(n: int, mode: str, led: LambertianLed, pd: ReceiverPd,
                         noise: NoiseParams, optical_power: float,
                         seed: int = 0) -> list[LinkBudget]:
    """Random eavesdropper link budgets on the receiver plane inside the FoV disc.

    ``radial_uniform`` draws the nadir offset r uniformly on
    ``[0, L tan(FoV))`` - the density under which the closed-form average gain
    is exact.  ``area_uniform`` draws positions uniformly over the disc area
    instead (r ~ sqrt law), which weights large offsets more heavily.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    if mode not in ("radial_uniform", "area_uniform"):
        raise ConfigError(f"unknown sampling mode {mode!r}")
    rng = _chunk_rng(seed, 0)
    r_max = led.height * math.tan(pd.fov)
    u = rng.random(n)
    radii = r_max * (np.sqrt(u) if mode == "area_uniform" else u)
    return [
        link_budget_from_geometry(
            led, pd, noise, LinkGeometry.below_led(led, float(r)), optical_power)
        for r in radii
    ]


def pairwise_error_mc(p_m: float, p_n: float, geom: PairwiseGeometry,
                      n_samples: int, seed: int = 0) -> tuple[float, float]:
    """Direct simulation of the pairwise MAP-losing event, (estimate, stderr).

    Transmit symbol m (receive mean 0 by translation, competitor at -d), add
    noise ``n = sigma z``, and count how often ``p_m f(y|m) <= p_n f(y|n)`` -
    the event whose closed form is the erfc expression in the analysis module.
    With equal variances the event is the half-line
    ``d n <= sigma^2 ln(p_n / p_m) - d^2 / 2``, one comparison of ``z`` per
    sample.  As in the closed form, a competitor with ``p_n = 0`` never wins
    and, otherwise, a symbol with ``p_m = 0`` always loses; neither draws noise.
    """
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    if p_m < 0 or p_n < 0:
        raise ConfigError("probabilities must be nonnegative")
    if p_n == 0 or p_m == 0:
        return (0.0 if p_n == 0 else 1.0), 0.0
    sig, d = geom.sigma, geom.d
    # z-threshold of the half-line; for d < 0 the inequality flips to z >= t
    t = sig * (math.log(p_n) - math.log(p_m)) / d - d / (2.0 * sig)
    hits = 0
    for idx, lo in enumerate(range(0, n_samples, _CHUNK)):
        z = _chunk_rng(seed, idx).standard_normal(min(_CHUNK, n_samples - lo))
        hits += int(np.count_nonzero(z <= t if d > 0 else z >= t))
    est = hits / n_samples
    return est, math.sqrt(est * (1.0 - est) / n_samples)
