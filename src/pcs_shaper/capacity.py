"""Gaussian-mixture output entropy, channel capacity, and secrecy objectives.

The filtered receive signal is a Gaussian mixture with component means
``r_m = h*gamma*eta*a_m`` and common sigma.  Channel capacity is the mixture
differential entropy minus the noise entropy ``1/2 log2(2 pi e sigma^2)``;
secrecy capacity is the capacity gap between the legitimate and eavesdropper
links.  Everything is in bits.

One quadrature evaluates it: :class:`EntropyGrid`, a fixed composite
Gauss-Legendre table over the panels that cover the windows
``[r_m - 10 sigma, r_m + 10 sigma]`` and skip the gaps between them.  It
returns the per-component integrals ``I_m = -E_{y~N(r_m,sigma^2)}[log2 f(y)]``,
from which both the entropy ``sum_m p_m I_m`` and its gradient
``I_m - log2(e)`` follow.  The solver optimizes through it, with Bob's and
Eve's tables stacked into one ``(M, N_B + N_E)`` table for known CSI, and
:func:`mixture_entropy` reports through it, so a reported capacity is the
optimized one to the bit.  Its rows skip subnormal densities (slow on the
CPU); ``log2 f`` floors at -1022.  Its integrals run in noise-standardized
coordinates (means/sigma, unit variance) with ``log2(sigma)`` added back, so
the extreme photocurrent scales never touch the quadrature.

:func:`entropy_mc`, the sampling oracle for the grid, evaluates each sample
against its own component and the components within reach of it
(:class:`_HomeKernel`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import PamConstellation, as_probs, signed_amplitude_mean
from .exceptions import ConfigError, DegradedRegimeError
from .montecarlo import _draws, _stderr
from .validation import check_integer, check_positive, check_probability_vector

__all__ = [
    "MixtureModel",
    "mixture_entropy",
    "entropy_mc",
    "channel_capacity",
    "secrecy_capacity",
    "secrecy_lb_estimate",
    "EntropyGrid",
]

LOG2E = math.log2(math.e)
GAUSS_ENTROPY_STD = 0.5 * math.log2(2.0 * math.pi * math.e)  # unit-variance Gaussian, bits
_TAIL_SIGMAS = 10.0
_ENTROPY_BLOCK = 8192   # samples per -log2 f evaluation in entropy_mc
_EXP_FLOOR = -700.0     # least shifted exponent _log2_pdf passes to exp
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
_REACH_X = 8.5          # |x| the home-relative kernel covers; P(|N(0,1)| > 8.5) ~ 2e-17
_HOME_EXP_MAX = 64.0    # largest kept exponent the home-relative kernel evaluates
_TINY = np.finfo(float).tiny                    # least normal double, 2^-1022
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_PDF_EXP_MIN = _TINY * _SQRT_2PI    # exactly the least exp(-z^2/2) whose quotient is normal
_PDF_REACH = math.sqrt(-2.0 * math.log(1.5 * _TINY))   # |z| beyond which exp(-z^2/2) < 1.5 tiny
_P_SCALE = 2.0**64      # exact scale of p in p @ pdf: no term of a p_m >= 2^-64 is subnormal


def _finite_means(means) -> np.ndarray:
    means = np.asarray(means, dtype=float)
    if not np.isfinite(means).all():
        raise ConfigError("component means must be finite")
    return means


@dataclass(frozen=True)
class MixtureModel:
    """Received-signal mixture: component means (A), noise sigma (A), weights."""

    means: np.ndarray
    sigma: float
    weights: np.ndarray

    def __post_init__(self):
        means = _finite_means(self.means)
        w = check_probability_vector(self.weights, size=means.size)
        check_positive("sigma", self.sigma)
        if not w.max() > 0:
            raise ConfigError("at least one mixture weight must be positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_link(cls, c: PamConstellation, p, link) -> "MixtureModel":
        return cls(means=link.composite_gain * c.amplitudes, sigma=link.sigma,
                   weights=as_probs(p))


def _standardized(mm: MixtureModel) -> tuple[np.ndarray, np.ndarray]:
    active = mm.weights > 0
    return mm.means[active] / mm.sigma, mm.weights[active]


def _log2_pdf(u, mu: np.ndarray, w: np.ndarray):
    """log2 of the standardized mixture pdf, stable for far-apart components.

    A log-sum-exp over the components, shifted by each sample's largest
    exponent.  The ``M x N`` temporaries are laid out components-major, so
    every reduction runs along the contiguous sample axis, and are updated in
    place.  Shifted exponents are floored at ``_EXP_FLOOR``: ``exp`` of a
    subnormal result takes a much slower path, and ``exp(-700) ~ 1e-304``
    cannot change a sum that contains ``exp(0) = 1``.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    z = u[None, :] - mu[:, None]
    z *= z
    z *= -0.5
    z += np.log(w)[:, None]
    zmax = z.max(axis=0)
    z -= zmax
    np.maximum(z, _EXP_FLOOR, out=z)
    np.exp(z, out=z)
    lse = zmax + np.log(z.sum(axis=0))
    return (lse - 0.5 * math.log(2.0 * math.pi)) * LOG2E


class _HomeKernel:
    """``-log2 f(mu_k + x)`` of samples ``x`` drawn from their own component k.

    Relative to the home term ``w_k N(x)``, the mixture is

        f(mu_k + x) = w_k N(x) (1 + sum_{j in R_k} exp(a_j x + b_j)),

    with ``a_j = mu_j - mu_k`` and ``b_j = -a_j^2 / 2 + ln(w_j / w_k)``, so

        -log2 f = (x^2 / 2 + ln(2 pi) / 2 - ln w_k - log1p(s)) log2(e),

    where ``s`` is the sum: an outer product, an add, an ``exp`` and a row
    sum over the ``(|R_k|, n)`` block, with no per-sample max or shift.  The
    reach ``R_k``, fixed once per mixture, keeps the components with
    ``b_j + X |a_j| >= ln(2^-54 / M)`` for ``X = _REACH_X``: for ``|x| <= X``
    the dropped terms sum to under ``2^-54``, below the last bit of
    ``1 + s``.  Only the rows whose exponents can fall under ``_EXP_FLOOR``
    are floored there, as in :func:`_log2_pdf`.

    Guards keep every value within rounding of the exact one.  A sample with
    ``|x| > X`` goes through :func:`_log2_pdf` on its own, in coordinates
    centred on ``mu_k``; so does every sample of a component whose kept
    exponents can exceed ``_HOME_EXP_MAX``, where ``x^2/2 - ln w_k`` and
    ``log1p(s)`` would cancel in more than a few ulp.  Such a component has
    ``w_k < exp(X^2/2 - _HOME_EXP_MAX) w_j`` (below 1e-12 of a neighbour), so
    it is all but never sampled.  The rows are summed one by one in a fixed
    order, so a sample's value depends only on ``(k, x)``, not on the block
    it comes in.
    """

    def __init__(self, mu: np.ndarray, w: np.ndarray):
        self.w = w
        log_w = np.log(w)
        drop = math.log(2.0**-54 / mu.size)
        self._homes = []
        for k in range(mu.size):
            a = mu - mu[k]
            b = -0.5 * a * a + (log_w - log_w[k])
            top, low = b + _REACH_X * np.abs(a), b - _REACH_X * np.abs(a)
            reach = np.flatnonzero(top >= drop)
            reach = reach[reach != k]
            guarded = bool(reach.size) and top[reach].max() > _HOME_EXP_MAX
            floored = low[reach] < _EXP_FLOOR
            rows = np.concatenate([reach[floored], reach[~floored]])
            self._homes.append((a, a[rows, None], b[rows, None], int(floored.sum()),
                                _HALF_LN_2PI - log_w[k], guarded))

    def _exact(self, a: np.ndarray, x: float) -> float:
        return -_log2_pdf(x, a, self.w)[0]

    def __call__(self, k: int, x: np.ndarray, out: np.ndarray) -> None:
        """Write ``-log2 f(mu_k + x)`` into ``out``, one value per sample."""
        a_all, a, b, n_floored, c_k, guarded = self._homes[k]
        if guarded:
            out[:] = [self._exact(a_all, xi) for xi in x.tolist()]
            return
        np.multiply(x, x, out=out)
        far, near = (), x
        if out.max() > _REACH_X**2:
            far = np.flatnonzero(out > _REACH_X**2)
            near = np.clip(x, -_REACH_X, _REACH_X)  # the far values are replaced below
        s = 0.0
        if a.size:
            z = a * near
            z += b
            if n_floored:
                np.maximum(z[:n_floored], _EXP_FLOOR, out=z[:n_floored])
            np.exp(z, out=z)
            s = z[0]
            for row in z[1:]:
                s += row
            np.log1p(s, out=s)
        out *= 0.5
        out += c_k
        out -= s
        out *= LOG2E
        for i in far:
            out[i] = self._exact(a_all, float(x[i]))


def _entropy_panels(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centres and half-widths of panels at most one unit wide.

    Sorted means at most ``2 * _TAIL_SIGMAS`` apart, whose windows
    ``[mu_m - 10, mu_m + 10]`` overlap, form one cluster; each cluster's span
    ``[min - 10, max + 10]`` is cut into ``ceil(span)`` equal panels.  A gap
    between clusters is left out, so far-apart components cost O(M) panels,
    not O(span).
    """
    mu = np.sort(mu)
    centres, halves = [], []
    for cluster in np.split(mu, np.flatnonzero(np.diff(mu) > 2 * _TAIL_SIGMAS) + 1):
        lo, hi = cluster[0] - _TAIL_SIGMAS, cluster[-1] + _TAIL_SIGMAS
        n_panels = int(math.ceil(hi - lo))
        edges = np.linspace(lo, hi, n_panels + 1)
        centres.append(0.5 * (edges[:-1] + edges[1:]))
        halves.append(np.full(n_panels, 0.5 * (edges[1] - edges[0])))
    return np.concatenate(centres), np.concatenate(halves)


def mixture_entropy(mm: MixtureModel) -> float:
    """Differential entropy -integral f log2 f in bits: the :class:`EntropyGrid`
    of all of ``mm``'s components, at its weights.

    A component of zero weight adds its panels to the grid and ``0 * I_m`` to
    the entropy, so the value is, bit for bit, the entropy the solver's
    objective evaluates for the same link and weights.  The 16-point
    Gauss-Legendre rule on panels at most one sigma wide leaves a truncation
    error far below 1e-9 bits on the smooth integrand, and the tails past
    10 sigma contribute under 1e-12 bits.  The rule is fixed, with no error
    budget to meet, so no mixture raises NonConvergenceError.
    """
    return EntropyGrid(mm.means, mm.sigma).entropy(mm.weights)


def entropy_mc(mm: MixtureModel, n_samples: int, seed: int = 0) -> tuple[float, float]:
    """Sampling estimate of the mixture entropy: mean of -log2 f(y), y ~ f.

    Returns (estimate, standard error).  Serves as the independent oracle for
    the quadrature path.  The samples come from the Monte-Carlo oracles' one
    draw loop, ``montecarlo._draws``, chunk ``i`` from the keyed stream
    ``_chunk_rng(seed, i)`` and symbol-major: one multinomial draw of how many
    samples each component of nonzero weight gets, then each component's
    ``x ~ N(0, 1)`` offsets in component order, in blocks of at most
    ``_ENTROPY_BLOCK`` so that the ``(reach, block)`` temporaries stay
    cache-sized.  Every sample of a block shares its component k, so
    :class:`_HomeKernel` evaluates ``-log2 f(mu_k + x)`` relative to the home
    term ``w_k N(x)``: four passes over the block (outer product, add,
    ``exp``, row sum) and only over the components within reach of k.  A
    sample with ``|x| > 8.5`` (probability ~2e-17), or of a component whose
    kept exponents can exceed ``_HOME_EXP_MAX``, is evaluated alone by
    :func:`_log2_pdf`.  Each value is within rounding of the exact one and
    depends only on ``(k, x)``, not on the blocking.  The kernel writes each
    block into one buffer of ``_ENTROPY_BLOCK`` samples, and the block's sum
    and sum of squares (squared in place) are added to the totals at once,
    so nothing of chunk size is allocated.  ``seed`` and ``n_samples`` must
    be integers.
    """
    check_integer("n_samples", n_samples, 1)
    mu, w = _standardized(mm)
    kernel = _HomeKernel(mu, w)
    buf = np.empty(_ENTROPY_BLOCK)
    total = total_sq = 0.0
    for k, x in _draws(seed, n_samples, w, _ENTROPY_BLOCK):
        h = buf[:x.size]
        kernel(k, x, h)
        total += h.sum()
        total_sq += np.multiply(h, h, out=h).sum()
    mean = total / n_samples
    return mean + math.log2(mm.sigma), _stderr(mean, total_sq / n_samples, n_samples)


def channel_capacity(mm: MixtureModel) -> float:
    """Mutual information of the mixture channel: H(y) - H(noise), bits."""
    # the constants summed first, as in the solver's objective, so the bits agree
    return mixture_entropy(mm) + (-GAUSS_ENTROPY_STD - math.log2(mm.sigma))


def secrecy_capacity(p, bob, eve, c: PamConstellation) -> float:
    """Capacity gap H(y_B) - H(y_E) + 1/2 log2(sigma_E^2 / sigma_B^2), bits.

    Requires the eavesdropper link to be (weakly) degraded: a strictly better
    eavesdropper gain-to-noise ratio raises DegradedRegimeError.
    """
    if bob.quality < eve.quality:
        raise DegradedRegimeError(
            f"positive-secrecy regime requires bob.quality >= eve.quality "
            f"({bob.quality:.4g} < {eve.quality:.4g})")
    h_b = mixture_entropy(MixtureModel.from_link(c, p, bob))
    h_e = mixture_entropy(MixtureModel.from_link(c, p, eve))
    return h_b - h_e + math.log2(eve.sigma / bob.sigma)


def secrecy_lb_estimate(p, bob, eve_avg, c: PamConstellation) -> float:
    """Tractable secrecy lower-bound estimate against an average eavesdropper.

    Bob's exact mixture capacity minus the Gaussian max-entropy cap of the
    average eavesdropper, whose signal variance is bounded through the squared
    amplitude mean ``t = (a^T p)^2`` (Bhatia-Davis):

        C_B(p) - 1/2 log2(1 + g_E^2 (A^2 - t) / sigma_E^2),

    with ``g_E`` the average composite gain.
    """
    t = signed_amplitude_mean(c, p) ** 2
    a2 = c.peak_a**2
    cap_b = channel_capacity(MixtureModel.from_link(c, p, bob))
    # (g_E / sigma_E)^2 as in the solver's objective, so the bits agree
    snr_e = (eve_avg.composite_gain / eve_avg.sigma) ** 2 * max(a2 - t, 0.0)
    return cap_b - 0.5 * math.log2(1.0 + snr_e)


def _weighted(pdf: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``pdf * w``, with 0 wherever the product would fall below the normal range."""
    return np.multiply(pdf, w, out=np.zeros(pdf.shape), where=pdf >= 2.0 * _TINY / w)


class EntropyGrid:
    """Fixed-grid mixture entropy and per-component integrals for one link.

    Precomputes standardized component pdfs on composite 16-point
    Gauss-Legendre rules over the panels of :func:`_entropy_panels`, at most
    one noise sigma wide.  For a weight vector p it returns

        I_m = -E_{y ~ component m}[log2 f(y)]        (component_integrals)
        H(p) = sum_m p_m I_m                          (entropy)

    so one table evaluation yields the entropy objective and its gradient
    ``I - log2 e``.  Tail truncation at 10 sigma contributes < 1e-12 bits.

    No table entry is subnormal (the CPU's slow path): a row holds its
    density only over its reach, ``|y - mu_m| < _PDF_REACH`` (37.6), where it
    is normal.  ``log2 f`` is floored at -1022 bits, so a symbol whose window
    holds only underflowed f costs the floor, not the 0 bits of f = 1.

    :meth:`minus` stacks two links' pdf tables, ``(M, N_1 + N_2)``, for one
    product and one ``log2``; each link keeps its own weighted product (made
    at the first evaluation), so the values are the one-link grids' bits.
    """

    _GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
    _terms = None       # per link: its columns, weighted pdf and log2 sigma

    def __init__(self, means, sigma: float):
        mu = _finite_means(means) / check_positive("sigma", sigma)
        centres, halves = _entropy_panels(mu)
        self._y = (centres[:, None] + halves[:, None] * self._GL_NODES).ravel()
        self._w = (halves[:, None] * self._GL_WEIGHTS).ravel()
        # pdf[m, j]: standardized normal density of component m at node j, 0
        # where it is below the normal range.  If the farthest node's is well
        # inside that range, the table is one product (a slice per row costs
        # more there); else each row is built over its reach, one slice of the
        # sorted nodes.
        far = max(self._y[-1] - mu.min(), mu.max() - self._y[0])
        if math.exp(-0.5 * far**2) >= 2.0 * _PDF_EXP_MIN:
            self._pdf = np.exp(-0.5 * (self._y[None, :] - mu[:, None]) ** 2) / _SQRT_2PI
        else:
            self._pdf = np.zeros((mu.size, self._y.size))
            lo, hi = (np.searchsorted(self._y, mu + r).tolist() for r in (-_PDF_REACH, _PDF_REACH))
            for m, (a, b) in enumerate(zip(lo, hi)):
                e = np.exp(-0.5 * (self._y[a:b] - mu[m]) ** 2)
                np.divide(e, _SQRT_2PI, out=self._pdf[m, a:b], where=e >= _PDF_EXP_MIN)
        self._log_sigma = math.log2(sigma)
        self._links = [(slice(None), self._w, self._log_sigma)]

    def minus(self, other: "EntropyGrid") -> "EntropyGrid":
        """The stack of this one-link grid and ``other``, of entropy ``H - H_other``."""
        stack, n = object.__new__(EntropyGrid), self._pdf.shape[1]
        stack._pdf = np.concatenate([self._pdf, other._pdf], axis=1)
        stack._links = [(slice(0, n), self._w, self._log_sigma),
                        (slice(n, None), other._w, other._log_sigma)]
        return stack

    def component_integrals(self, p) -> list[np.ndarray]:
        """Per link, the vector I with I_m = -integral pdf_m(y) log2 f(y) dy, in bits."""
        if self._terms is None:
            self._terms = [(c, _weighted(self._pdf[:, c], w), ls) for c, w, ls in self._links]
        f = np.multiply(p, _P_SCALE) @ self._pdf
        np.maximum(f, _TINY * _P_SCALE, out=f)
        log2f = np.log2(np.multiply(f, 1.0 / _P_SCALE, out=f), out=f)
        return [log_sigma - wpdf @ log2f[c] for c, wpdf, log_sigma in self._terms]

    def entropy(self, p) -> float:
        return self.entropy_and_gradient(p)[0]

    def entropy_and_gradient(self, p) -> tuple[float, np.ndarray]:
        """H(p) and its gradient; a stack's are its first link's minus its second's."""
        (h, g), *rest = [(float(p @ c), c - LOG2E) for c in self.component_integrals(p)]
        for h_i, g_i in rest:
            h, g = h - h_i, g - g_i
        return h, g
