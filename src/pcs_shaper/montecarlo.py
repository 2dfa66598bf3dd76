"""Ground-truth Monte-Carlo simulation: MAP detection, empirical SER/BER, and
eavesdropper position sampling.

Symbol streams are drawn by inverse-CDF lookup (exact for a discrete
distribution); noise comes from per-chunk Philox generators keyed by
``(seed, chunk_index)``, and the chunk partition depends on the symbol count
alone, so the counts are a function of the seed and the symbol count.
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


def map_detect(y, c: PamConstellation, p, link) -> np.ndarray | int:
    """MAP symbol decision(s): argmax_m ln p_m - (y - r_m)^2 / (2 sigma^2).

    Zero-probability symbols never win; exact ties resolve to the lower index.
    Accepts a scalar or an array of receive samples.
    """
    probs = p.probs if isinstance(p, Distribution) else np.asarray(p, dtype=float)
    means = link.composite_gain * c.amplitudes
    scalar = np.isscalar(y)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    with np.errstate(divide="ignore"):
        logp = np.where(probs > 0, np.log(np.maximum(probs, 1e-320)), -np.inf)
    metric = logp[None, :] - (y_arr[:, None] - means[None, :]) ** 2 \
        / (2.0 * link.sigma**2)
    decisions = np.argmax(metric, axis=1)
    return int(decisions[0]) if scalar else decisions


def _simulate_chunk(cfg: SimConfig, index: int, n: int) -> np.ndarray:
    rng = _chunk_rng(cfg.seed, index)
    probs = cfg.distribution.probs
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    sent = np.searchsorted(cdf, rng.random(n), side="right")
    means = cfg.link.composite_gain * cfg.constellation.amplitudes
    y = means[sent] + cfg.link.sigma * rng.standard_normal(n)
    detected = map_detect(y, cfg.constellation, probs, cfg.link)
    m = cfg.constellation.order_m
    confusion = np.zeros((m, m), dtype=np.int64)
    np.add.at(confusion, (sent, detected), 1)
    return confusion


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
    unit-scaled noise, and count how often
    ``p_m f(y|m) <= p_n f(y|n)`` - the event whose closed form is the erfc
    expression in the analysis module.
    """
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    sig, d = geom.sigma, geom.d
    hits = 0
    done = 0
    idx = 0
    while done < n_samples:
        size = min(_CHUNK, n_samples - done)
        noise = sig * _chunk_rng(seed, idx).standard_normal(size)
        # log-likelihood-ratio event with y = r_m + noise, r_n = r_m - d
        with np.errstate(divide="ignore"):
            lhs = math.log(p_m) if p_m > 0 else -math.inf
            rhs = math.log(p_n) if p_n > 0 else -math.inf
        stat = lhs - noise**2 / (2.0 * sig**2)
        comp = rhs - (noise + d) ** 2 / (2.0 * sig**2)
        hits += int(np.count_nonzero(stat <= comp))
        done += size
        idx += 1
    est = hits / n_samples
    return est, math.sqrt(max(est * (1.0 - est), 0.0) / n_samples)
