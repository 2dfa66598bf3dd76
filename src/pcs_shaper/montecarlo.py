"""Ground-truth Monte-Carlo simulation: MAP detection, empirical SER/BER, and
eavesdropper position sampling.

Each chunk of symbols comes from its own SFC64 generator, seeded through
``SeedSequence(seed, spawn_key=(chunk_index,))``, and the chunk partition
depends on the symbol count alone, so the counts are a function of the seed
and the symbol count.  SFC64 draws normals about a quarter faster than
Philox, and the seed sequence hashes each key into an unrelated stream.  A
chunk is drawn symbol-major: first how many times each symbol is sent, one
multinomial draw over the support (the symbols of nonzero probability, so a
zero-probability symbol is never sent), then, symbol by symbol in support
order, that symbol's noise.  The counts of i.i.d. categorical draws are
multinomial and the noise does not depend on the symbol, so the confusion
counts have the law of an i.i.d. symbol stream; no per-symbol uniform, symbol
lookup or gather is needed.

MAP detection is an interval lookup.  With equal noise variance, the metric
``ln p_m - (y - r_m)^2 / (2 sigma^2)`` is, up to a term common to all
symbols, affine in ``y``, so each symbol wins one interval of ``y`` or none.
The cuts between neighbouring winners are computed once per chunk (O(M)), and
a sample's interval is the number of cuts strictly below it; an exact tie
goes to the lower index, as an argmax over the metrics would send it.

The lookup counts instead of searching: with at most M - 1 cuts, one
comparison per cut and sample, summed in bytes, costs less than a binary
search whose branches the processor cannot predict.  Noise is drawn and
detected in blocks of at most ``_BLOCK`` samples of one symbol, so that these
comparisons stay in cache.  Successive draws continue the chunk's one
stream, so the noise and the counts do not depend on the blocking.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .channel import LambertianLed, LinkBudget, NoiseParams, ReceiverPd, \
    floor_gains, noise_variance
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
_BLOCK = 1 << 14        # symbols per detection block within a chunk


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of chunk ``index`` of the stream that ``seed`` fixes."""
    if seed < 0:
        raise ConfigError(f"Monte-Carlo seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(int(seed), spawn_key=(index,))))


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


def _count_below(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of ``edges`` strictly below each ``x``.

    For sorted ``edges`` this is ``searchsorted(edges, x, "left")``, computed
    without branches: one comparison per edge and sample, summed as bytes in
    the narrowest unsigned type that holds ``edges.size``.
    """
    hits = edges[:, None] < x
    counts = hits.view(np.uint8).sum(axis=0, dtype=np.min_scalar_type(edges.size))
    return counts.astype(np.intp)


def map_detect(y, c: PamConstellation, p, link, intervals=None) -> np.ndarray | int:
    """MAP symbol decision(s): argmax_m ln p_m - (y - r_m)^2 / (2 sigma^2).

    Each symbol's decision region is one interval of ``y`` (or empty), and a
    sample's interval is the number of cuts strictly below it.  The cuts are
    strictly increasing, so this equals ``searchsorted(cuts, y, "left")``: a
    sample exactly on a cut goes to the lower index, as an argmax over the
    metrics sends a tie.  Zero-probability symbols never win.  Accepts a
    scalar (returns ``int``) or an array of receive samples.  ``intervals``,
    the ``(winners, cuts)`` of ``_decision_intervals`` for this ``p`` and
    ``link``, saves rebuilding them on every call.
    """
    if intervals is None:
        probs = p.probs if isinstance(p, Distribution) else np.asarray(p, dtype=float)
        intervals = _decision_intervals(link.composite_gain * c.amplitudes,
                                        probs, link.sigma)
    winners, cuts = intervals
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    decisions = winners[_count_below(cuts, y_arr)]
    return int(decisions[0]) if np.isscalar(y) else decisions


def _symbol_blocks(rng: np.random.Generator, probs: np.ndarray, n: int,
                   block: int = _BLOCK) -> Iterator[tuple[int, int]]:
    """Draw ``n`` symbols from ``probs`` symbol-major, as ``(symbol, size)`` blocks.

    One multinomial draw gives each symbol of the support ``flatnonzero(probs)``
    its count; the counts are then yielded in support order, in blocks of at
    most ``block``.  Each caller draws a block's noise from ``rng`` before
    asking for the next block, so the stream is the multinomial draw followed
    by the noise of every symbol in support order.
    """
    support = np.flatnonzero(probs)
    counts = rng.multinomial(n, probs[support] / probs[support].sum())
    for symbol, count in zip(support.tolist(), counts.tolist()):
        for lo in range(0, count, block):
            yield symbol, min(block, count - lo)


def _simulate_chunk(cfg: SimConfig, index: int, n: int) -> np.ndarray:
    rng = _chunk_rng(cfg.seed, index)
    probs = cfg.distribution.probs
    means = cfg.link.composite_gain * cfg.constellation.amplitudes
    m = cfg.constellation.order_m
    confusion = np.zeros((m, m), dtype=np.intp)
    intervals = _decision_intervals(means, probs, cfg.link.sigma)
    for sent, size in _symbol_blocks(rng, probs, n):
        y = means[sent] + cfg.link.sigma * rng.standard_normal(size)
        detected = map_detect(y, cfg.constellation, probs, cfg.link, intervals)
        confusion[sent] += np.bincount(detected, minlength=m)
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
    gains = floor_gains(led, pd, radii)
    sigmas = np.sqrt(noise_variance(pd, noise, gains, optical_power))
    comps = gains * pd.responsivity_gamma * led.conversion_eta
    return [LinkBudget(composite_gain=c, sigma=s)
            for c, s in zip(comps.tolist(), sigmas.tolist())]


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
    Each chunk's noise is drawn in blocks of ``_BLOCK`` from the chunk's one
    stream, so the hits are those of drawing the chunk at once.
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
        rng = _chunk_rng(seed, idx)
        n = min(_CHUNK, n_samples - lo)
        for b in range(0, n, _BLOCK):
            z = rng.standard_normal(min(_BLOCK, n - b))
            hits += int(np.count_nonzero(z <= t if d > 0 else z >= t))
    est = hits / n_samples
    return est, math.sqrt(est * (1.0 - est) / n_samples)
