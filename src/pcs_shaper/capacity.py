"""Gaussian-mixture output entropy, channel capacity, and secrecy objectives.

The filtered receive signal is a Gaussian mixture with component means
``r_m = h*gamma*eta*a_m`` and common sigma.  Channel capacity is the mixture
differential entropy minus the noise entropy ``1/2 log2(2 pi e sigma^2)``;
secrecy capacity is the capacity gap between the legitimate and eavesdropper
links.  Everything is in bits.

Two evaluation paths are provided, both over the panels that cover the
windows ``[r_m - 10 sigma, r_m + 10 sigma]`` and skip the gaps between them:

* :func:`mixture_entropy` - vectorized adaptive G7-K15 Gauss-Kronrod
  quadrature to 1e-9 bits absolute, the reference implementation;
* :class:`EntropyGrid` - a fixed composite Gauss-Legendre table that also
  returns the per-component integrals
  ``I_m = -E_{y~N(r_m,sigma^2)}[log2 f(y)]``, from which both the entropy
  ``sum_m p_m I_m`` and its gradient ``I_m - log2(e)`` follow.  The solver
  uses this path; tests pin it against the adaptive one.

Internally integrals run in noise-standardized coordinates (means/sigma, unit
variance) with ``log2(sigma)`` added back, so the extreme photocurrent scales
never touch the quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import Distribution, PamConstellation, signed_amplitude_mean
from .exceptions import ConfigError, DegradedRegimeError, NonConvergenceError
from .montecarlo import _chunk_rng, _symbol_blocks
from .validation import check_probability_vector

__all__ = [
    "MixtureModel",
    "mixture_entropy",
    "entropy_mc",
    "channel_capacity",
    "secrecy_capacity",
    "secrecy_lb_estimate",
    "avg_secrecy_capacity_mc",
    "EntropyGrid",
]

LOG2E = math.log2(math.e)
GAUSS_ENTROPY_STD = 0.5 * math.log2(2.0 * math.pi * math.e)  # unit-variance Gaussian, bits
_TAIL_SIGMAS = 10.0
_QUAD_ABS_TOL = 1e-9
_QUAD_MAX_PASSES = 8    # the initial one-sigma panels, then up to 7 bisections
# QUADPACK's qk15 tables, from the end point -1 to the centre: the Kronrod
# abscissae (the 7-point Gauss nodes are every other one) and their weights.
_XGK = np.array([
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144845693013, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327])
_K15_NODES = np.concatenate([_XGK, -_XGK[-2::-1]])
_K15_WEIGHTS = np.concatenate([_WGK, _WGK[-2::-1]])
_G7_WEIGHTS = np.zeros(15)                      # zero at the Kronrod-only nodes
_G7_WEIGHTS[1::2] = np.concatenate([_WG, _WG[-2::-1]])
_ENTROPY_BLOCK = 8192   # samples per -log2 f evaluation in entropy_mc
_EXP_FLOOR = -700.0     # least shifted exponent _log2_pdf passes to exp


@dataclass(frozen=True)
class MixtureModel:
    """Received-signal mixture: component means (A), noise sigma (A), weights."""

    means: np.ndarray
    sigma: float
    weights: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        w = check_probability_vector(self.weights, size=means.size)
        if not self.sigma > 0:
            raise ConfigError("sigma must be > 0")
        if not w.max() > 0:
            raise ConfigError("at least one mixture weight must be positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_link(cls, c: PamConstellation, p, link) -> "MixtureModel":
        probs = p.probs if isinstance(p, Distribution) else np.asarray(p, dtype=float)
        return cls(means=link.composite_gain * c.amplitudes, sigma=link.sigma,
                   weights=probs)


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
    """Differential entropy -integral f log2 f in bits, to 1e-9 absolute.

    Adaptive G7-K15 Gauss-Kronrod quadrature in standardized coordinates over
    the panels of :func:`_entropy_panels`.  Each pass evaluates ``-f log2 f``
    at every node of every live panel in one call and takes ``|K15 - G7|`` as
    a panel's error; it returns once the summed error is within
    ``0.1 * _QUAD_ABS_TOL``, and otherwise accepts the panels whose error is
    within their width's share of that budget and bisects the rest.  Raises
    NonConvergenceError if ``_QUAD_MAX_PASSES`` passes do not reach the budget.
    """
    mu, w = _standardized(mm)
    centres, halves = _entropy_panels(mu)
    tol = 0.1 * _QUAD_ABS_TOL
    half_total = halves.sum()
    total = err = 0.0
    for _ in range(_QUAD_MAX_PASSES):
        lg = _log2_pdf((centres[:, None] + halves[:, None] * _K15_NODES).ravel(), mu, w)
        g = (-np.exp2(lg) * lg).reshape(centres.size, _K15_NODES.size)
        kronrod = halves * (g @ _K15_WEIGHTS)
        panel_err = np.abs(kronrod - halves * (g @ _G7_WEIGHTS))
        if err + panel_err.sum() <= tol:
            return float(total + kronrod.sum()) + math.log2(mm.sigma)
        done = panel_err <= tol * halves / half_total   # each panel's share of the budget
        total += kronrod[done].sum()
        err += panel_err[done].sum()
        centres, halves = centres[~done], 0.5 * halves[~done]
        centres = np.concatenate([centres - halves, centres + halves])
        halves = np.concatenate([halves, halves])
    raise NonConvergenceError(
        f"entropy quadrature error {err + panel_err[~done].sum():.2e} above {tol:.1e} "
        f"after {_QUAD_MAX_PASSES} passes")


def entropy_mc(mm: MixtureModel, n_samples: int, seed: int = 0,
               chunk: int = 1_000_000) -> tuple[float, float]:
    """Sampling estimate of the mixture entropy: mean of -log2 f(y), y ~ f.

    Returns (estimate, standard error).  Serves as the independent oracle for
    the quadrature path.  Samples are drawn ``chunk`` at a time, chunk ``i``
    from the Monte-Carlo oracles' keyed stream ``_chunk_rng(seed, i)`` and
    symbol-major as they draw it: one multinomial draw of how many samples
    each component of nonzero weight gets, then each component's
    ``N(mu_k, 1)`` samples in component order.  Within a chunk ``-log2 f`` is
    evaluated in blocks of at most ``_ENTROPY_BLOCK`` samples of one
    component, so the components-major ``M x _ENTROPY_BLOCK`` temporaries of
    :func:`_log2_pdf` stay cache-sized.  Each sample's value does not depend
    on the blocking, and both sums run over the whole chunk.
    Flooring the shifted exponents at ``_EXP_FLOOR`` changes terms under
    1e-304 in a sum of at least 1, far below its last bit.
    """
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    mu, w = _standardized(mm)
    total = total_sq = 0.0
    for index, lo in enumerate(range(0, n_samples, chunk)):
        rng = _chunk_rng(seed, index)
        n = min(chunk, n_samples - lo)
        h = np.empty(n)
        at = 0
        for k, size in _symbol_blocks(rng, w, n, _ENTROPY_BLOCK):
            h[at:at + size] = -_log2_pdf(mu[k] + rng.standard_normal(size), mu, w)
            at += size
        total += h.sum()
        total_sq += (h * h).sum()
    mean = total / n_samples
    var = max(total_sq / n_samples - mean**2, 0.0)
    return mean + math.log2(mm.sigma), math.sqrt(var / n_samples)


def channel_capacity(mm: MixtureModel) -> float:
    """Mutual information of the mixture channel: H(y) - H(noise), bits."""
    return mixture_entropy(mm) - GAUSS_ENTROPY_STD - math.log2(mm.sigma)


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


def secrecy_lb_estimate(p, bob, eve_avg, c: PamConstellation,
                        t: float | None = None) -> float:
    """Tractable secrecy lower-bound estimate against an average eavesdropper.

    Bob's exact mixture capacity minus the Gaussian max-entropy cap of the
    average eavesdropper, whose signal variance is bounded through the squared
    amplitude mean ``t``:

        C_B(p) - 1/2 log2(1 + g_E^2 (A^2 - t) / sigma_E^2),

    with ``g_E`` the average composite gain.  By default ``t = (a^T p)^2``; an
    explicit surrogate value of ``t`` may be supplied instead (the convex
    reformulation optimizes over it).
    """
    if t is None:
        t = signed_amplitude_mean(c, p) ** 2
    a2 = c.peak_a**2
    if t > a2 * (1.0 + 1e-12):
        raise ConfigError(f"t = {t} exceeds A^2 = {a2}")
    cap_b = channel_capacity(MixtureModel.from_link(c, p, bob))
    snr_e = eve_avg.composite_gain**2 * max(a2 - t, 0.0) / eve_avg.sigma**2
    return cap_b - 0.5 * math.log2(1.0 + snr_e)


def avg_secrecy_capacity_mc(p, bob, eve_sampler, c: PamConstellation,
                            n_samples: int) -> tuple[float, float]:
    """Monte-Carlo average of the secrecy capacity over eavesdropper positions.

    ``eve_sampler(n)`` must return ``n`` eavesdropper link budgets.  Returns
    (mean, standard error).  Evaluation/plotting aid only; the optimizer never
    calls it.
    """
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    cap_b = channel_capacity(MixtureModel.from_link(c, p, bob))
    links = eve_sampler(n_samples)
    vals = np.empty(len(links))
    for i, link in enumerate(links):
        vals[i] = cap_b - channel_capacity(MixtureModel.from_link(c, p, link))
    stderr = vals.std(ddof=1) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
    return float(vals.mean()), float(stderr)


class EntropyGrid:
    """Fixed-grid mixture entropy and per-component integrals for one link.

    Precomputes standardized component pdfs on composite 16-point
    Gauss-Legendre rules over the panels of :func:`_entropy_panels`, at most
    one noise sigma wide.  For a weight vector p it returns

        I_m = -E_{y ~ component m}[log2 f(y)]        (component_integrals)
        H(p) = sum_m p_m I_m                          (entropy)

    so one table evaluation yields the entropy objective and its gradient
    ``I - log2 e``.  Tail truncation at 10 sigma contributes < 1e-12 bits.
    """

    _GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

    def __init__(self, means, sigma: float):
        means = np.asarray(means, dtype=float)
        if not sigma > 0:
            raise ConfigError("sigma must be > 0")
        self.sigma = float(sigma)
        self.mu = means / sigma
        centres, halves = _entropy_panels(self.mu)
        self._y = (centres[:, None] + halves[:, None] * self._GL_NODES).ravel()
        self._w = (halves[:, None] * self._GL_WEIGHTS).ravel()
        # pdf[m, j]: standardized normal density of component m at node j
        self._pdf = np.exp(-0.5 * (self._y[None, :] - self.mu[:, None]) ** 2) \
            / math.sqrt(2.0 * math.pi)
        self._wpdf = self._pdf * self._w[None, :]
        self._log_sigma = math.log2(self.sigma)

    def component_integrals(self, p) -> np.ndarray:
        """Vector I with I_m = -integral pdf_m(y) log2 f(y) dy, in bits."""
        p = np.asarray(p, dtype=float)
        f = p @ self._pdf
        log2f = np.log2(f, out=np.zeros_like(f), where=f > 0)
        return self._log_sigma - self._wpdf @ log2f

    def entropy(self, p) -> float:
        p = np.asarray(p, dtype=float)
        return float(p @ self.component_integrals(p))

    def entropy_and_gradient(self, p) -> tuple[float, np.ndarray]:
        comps = self.component_integrals(p)
        p = np.asarray(p, dtype=float)
        return float(p @ comps), comps - LOG2E
