"""Ground-truth Monte-Carlo simulation: MAP detection and empirical SER/BER.

The oracles that draw noise (the SER/BER simulation, ``pairwise_error_mc``
and ``capacity.entropy_mc``) draw it through one loop, ``_draws``.  Each
chunk of symbols comes from its own SFC64 generator, seeded through
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
lookup or gather is needed.  A one-symbol support draws nothing for its
multinomial, so ``pairwise_error_mc`` reads plain normals from the same loop.

MAP detection is an interval lookup.  With equal noise variance, the metric
``ln p_m - (y - r_m)^2 / (2 sigma^2)`` is, up to a term common to all
symbols, affine in ``y``, so each symbol wins one interval of ``y`` or none.
The cuts between neighbouring winners are computed once per simulation
(O(M)), and a sample's interval is the number of cuts strictly below it; an
exact tie goes to the lower index, as an argmax over the metrics would send
it.

The simulation counts instead of looking samples up.  Noise is drawn in
blocks of at most ``_BLOCK`` samples of one symbol, so that a block stays in
cache, and each block adds to its symbol's counts of samples beyond each
cut, seen from the interval of the symbol's noiseless receive value.  These
counts fall with the distance from home, so they are taken cut by cut
outward, upward and downward until one is zero; the cuts not visited add
zero.  The passes over a block are those of the intervals its noise
reaches: two when no sample leaves home, whatever M, so the cost follows the
errors rather than M.  A symbol's totals are Python ints over all its
blocks, and its confusion row is written once, after the last draw.
Successive draws continue the chunk's one stream, so the noise and the
counts do not depend on the blocking.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .constellation import Distribution, PamConstellation, as_probs
from .error_rate import PairwiseGeometry
from .exceptions import ConfigError
from .validation import check_integer, check_positive

if TYPE_CHECKING:                   # annotation only: no runtime channel import
    from .channel import LinkBudget

__all__ = [
    "SimConfig",
    "ErrorStats",
    "map_detect",
    "simulate_error_rates",
    "pairwise_error_mc",
]

_CHUNK = 1_000_000
_BLOCK = 1 << 14        # symbols per detection block within a chunk


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of chunk ``index`` of the stream that ``seed`` fixes."""
    seed = check_integer("Monte-Carlo seed", seed, 0)
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=(index,))))


def _draws(seed: int, n: int, probs: np.ndarray, block: int = _BLOCK
           ) -> Iterator[tuple[int, np.ndarray]]:
    """``n`` symbols of ``probs`` and their noise, as ``(symbol, z)`` blocks.

    Each chunk of the ``_CHUNK`` partition of ``n`` draws from its generator
    ``_chunk_rng(seed, i)``: first one multinomial draw of how many times each
    symbol of the support ``flatnonzero(probs)`` is sent, then, symbol by
    symbol in support order, blocks of at most ``block`` standard normals.
    The draws continue one stream, so they do not depend on ``block``.
    """
    support = np.flatnonzero(probs)
    weights = probs[support] / probs[support].sum()
    for index, lo in enumerate(range(0, n, _CHUNK)):
        rng = _chunk_rng(seed, index)
        counts = rng.multinomial(min(_CHUNK, n - lo), weights)
        for symbol, count in zip(support.tolist(), counts.tolist()):
            for at in range(0, count, block):
                yield symbol, rng.standard_normal(min(block, count - at))


@dataclass(frozen=True)
class SimConfig:
    n_symbols: int
    seed: int
    link: LinkBudget
    constellation: PamConstellation
    distribution: Distribution

    def __post_init__(self):
        check_integer("n_symbols", self.n_symbols, 1)
        check_integer("seed", self.seed, 0)
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

    Each symbol's decision region is one interval of ``y`` (or empty), and a
    sample's interval is the number of cuts strictly below it.  The cuts are
    strictly increasing, so this is ``searchsorted(cuts, y, "left")``: a
    sample exactly on a cut goes to the lower index, as an argmax over the
    metrics sends a tie.  Zero-probability symbols never win.  Accepts a
    scalar (returns ``int``) or an array of receive samples, all finite; a
    probability vector whose length is not M raises ConfigError.
    """
    winners, cuts = _decision_intervals(link.composite_gain * c.amplitudes,
                                        as_probs(p, c.order_m), link.sigma)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.isfinite(y_arr).all():
        raise ConfigError("receive samples must be finite")
    decisions = winners[np.searchsorted(cuts, y_arr, side="left")]
    return int(decisions[0]) if np.isscalar(y) else decisions


def _stderr(mean: float, mean_sq: float, n: int) -> float:
    """Standard error of a sample mean from the first two sample moments."""
    return math.sqrt(max(mean_sq - mean * mean, 0.0) / n)


def simulate_error_rates(cfg: SimConfig) -> ErrorStats:
    """Empirical SER/BER of the MAP detector under the shaped distribution.

    A symbol sent as m and detected as k flips ``d_H(m, k)`` bits, the
    Hamming distance between their Gray labels.  Standard errors come from
    the per-symbol error indicator and the per-symbol bit-error count, so a
    symbol error that flips several bits counts as one correlated event.

    Symbol ``s``'s blocks are counted outward from ``home[s]``, the interval
    of its noiseless receive value: ``beyond[s][j]`` totals its samples above
    ``cuts[j]`` for ``j >= home[s]`` and at or below it for ``j < home[s]``.
    Of its ``n_s`` samples, ``above[j + 1] = beyond[s][j]`` or ``n_s -
    beyond[s][j]`` are above ``cuts[j]``, and interval ``i`` holds
    ``above[i] - above[i + 1]`` (``above[0] = n_s``, the last entry 0).
    """
    n = cfg.n_symbols
    probs = cfg.distribution.probs
    sigma = cfg.link.sigma
    means = cfg.link.composite_gain * cfg.constellation.amplitudes
    m = cfg.constellation.order_m
    winners, cuts = _decision_intervals(means, probs, sigma)
    home = np.searchsorted(winners, map_detect(
        means, cfg.constellation, probs, cfg.link)).tolist()
    cuts = cuts.tolist()
    n_sent = [0] * m
    beyond = [[0] * len(cuts) for _ in range(m)]
    for sent, y in _draws(cfg.seed, n, probs):
        size = y.size
        y *= sigma
        y += means[sent]                # the bits of means[sent] + sigma * z
        start, tally = home[sent], beyond[sent]
        n_sent[sent] += size
        for j in range(start, len(cuts)):
            count = int(np.count_nonzero(y > cuts[j]))
            if not count:
                break
            tally[j] += count
        for j in range(start - 1, -1, -1):
            count = size - int(np.count_nonzero(y > cuts[j]))
            if not count:
                break
            tally[j] += count
    confusion = np.zeros((m, m), dtype=np.intp)
    for s, (n_s, tally) in enumerate(zip(n_sent, beyond)):
        above = [n_s, *(n_s - t if j < home[s] else t for j, t in enumerate(tally)), 0]
        confusion[s, winners] = np.subtract(above[:-1], above[1:])
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
    The noise is that of ``_draws`` for a one-symbol support, so the hits are
    those of drawing each chunk at once.  A probability that is negative, NaN
    or infinite raises ConfigError.
    """
    check_integer("n_samples", n_samples, 1)
    check_integer("seed", seed, 0)
    p_m = check_positive("p_m", p_m, allow_zero=True)
    p_n = check_positive("p_n", p_n, allow_zero=True)
    if p_n == 0 or p_m == 0:
        return (0.0 if p_n == 0 else 1.0), 0.0
    sig, d = geom.sigma, geom.d
    # z-threshold of the half-line; for d < 0 the inequality flips to z >= t
    t = sig * (math.log(p_n) - math.log(p_m)) / d - d / (2.0 * sig)
    hits = 0
    for _, z in _draws(seed, n_samples, np.ones(1)):
        hits += int(np.count_nonzero(z <= t if d > 0 else z >= t))
    est = hits / n_samples
    return est, math.sqrt(est * (1.0 - est) / n_samples)
