"""Closed-form error-rate analysis of MAP-detected M-PAM with shaped priors.

The probability that a transmitted symbol m loses the MAP comparison against a
competitor n at pairwise distance ``d = h*gamma*eta*(a_m - a_n)`` is

    P_{m,n} = 1/2 * erfc( (2 sigma^2 ln(p_m/p_n) + d^2) / (2 sqrt(2) sigma |d|) ).

Both bounds are the sum of ``p_m P_{m,n}`` over a set of ordered pairs: every
``n != m`` for the union upper bound on the SER, only ``|m - n| = 1`` for the
closed-form approximation.  One kernel, ``_pair_sum``, evaluates either sum,
its gradient or its Hessian (the formulas are in its docstring); the public
bounds and derivatives differ only in the pair set they pass.  Scaled by the Gray-coding
bit factor, both are concave in the probability vector, which is what the
sequential linearization in the solver relies on.

Terms weighted by p_m = 0 are defined as zero (an inactive symbol is never
transmitted), and a competitor with p_n = 0 never wins the comparison; the
kernel drops every pair with a zero probability on either side, and the
scalar ``pairwise_error_prob`` realizes the same conventions through the erfc
limits at +/- infinity.

The erfc is the standard library's ``math.erfc``, applied per element on
arrays: it is accurate to a few ulp over the whole double range, and it keeps
scipy out of the package's imports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constellation import PamConstellation, as_probs
from .exceptions import ConfigError
from .validation import check_positive

__all__ = [
    "ACTIVE_SUPPORT_FLOOR",
    "PairwiseGeometry",
    "pairwise_error_prob",
    "ser_upper_bound",
    "ber_upper_bound",
    "ser_approx",
    "ber_approx",
    "grad_ber_upper",
    "grad_ber_approx",
    "hess_ber_approx",
    "pair_term_value",
    "pair_hessian_block",
]

# Probabilities below this are outside the differentiable region of the
# gradient expressions (they contain p_n / p_m); the solver clamps here.
ACTIVE_SUPPORT_FLOOR = 1e-9

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PairwiseGeometry:
    """Signed pairwise received distance d (A) and noise sigma (A).

    ``d = +inf`` / ``-inf`` encode the missing competitors beyond the first and
    last symbol of the grid; ``nan`` is rejected.
    """

    d: float
    sigma: float

    def __post_init__(self):
        check_positive("sigma", self.sigma)
        if math.isnan(self.d):
            raise ConfigError("pairwise distance must not be nan")
        if self.d == 0.0:
            raise ConfigError("pairwise distance must be nonzero for m != n")


def _erfc(u: np.ndarray) -> np.ndarray:
    """Elementwise complementary error function of a 1-D array (``math.erfc``)."""
    return np.fromiter(map(math.erfc, u.tolist()), float, u.size)


def _erfc_arg(p_m: float, p_n: float, d: float, sigma: float) -> float:
    if p_n == 0.0:
        return math.inf
    if p_m == 0.0:
        return -math.inf
    if math.isinf(d):
        return math.inf
    return (2.0 * sigma**2 * math.log(p_m / p_n) + d * d) \
        / (2.0 * _SQRT2 * sigma * abs(d))


def pairwise_error_prob(p_m: float, p_n: float, geom: PairwiseGeometry) -> float:
    """Probability that the MAP comparison prefers symbol n over transmitted m.

    A probability that is negative, NaN or infinite raises ConfigError.
    """
    p_m = check_positive("p_m", p_m, allow_zero=True)
    p_n = check_positive("p_n", p_n, allow_zero=True)
    return 0.5 * math.erfc(_erfc_arg(p_m, p_n, geom.d, geom.sigma))


@lru_cache(maxsize=32)
def _pairs(c: PamConstellation, adjacent: bool):
    """Ordered pairs (rows, cols) of ``c``: every n != m, or only |m - n| = 1;
    and their amplitude gaps |a_m - a_n|.

    Keyed by the constellation object, whose amplitudes are read-only; the
    size bound limits how many constellations the cache keeps alive.
    """
    rows, cols = np.nonzero(~np.eye(c.order_m, dtype=bool))
    if adjacent:
        keep = np.abs(rows - cols) == 1
        rows, cols = rows[keep], cols[keep]
    gaps = np.abs(c.amplitudes[rows] - c.amplitudes[cols])
    for arr in (rows, cols, gaps):
        arr.setflags(write=False)                   # shared by every caller
    return rows, cols, gaps


def _pair_sum(c: PamConstellation, p, link, adjacent: bool, order: int):
    """SER sum over ordered pairs (m, n) of p_m P_{m,n}: its value (``order``
    0), gradient (1) or Hessian (2).

    ``rows``/``cols`` list the pairs (m, n); pairs with a zero probability on
    either side are dropped.  With ``u = u_mn`` the erfc argument above and
    ``g = sigma/sqrt(2 pi) * exp(-u^2) / |d|``,

        value = probs[rows] @ (1/2 erfc(u))
        grad  = bincount(rows, 1/2 erfc(u) - g) + bincount(cols, p_m/p_n * g):

    the direct term and the pull through ln p_m land on m, the pull through
    ln p_n lands on n.  A term's Hessian is ``p_m g (sigma^2 ln(p_m/p_n) / d^2
    - 1/2) b b^T``, ``b = e_m / p_m - e_n / p_n``.  Both orders of a pair share
    ``b b^T`` and ``p_m g``, so their log terms cancel: with ``w = -p_m g / 2``
    the Hessian is ``B^T diag(w) B``, rounding no cancellation.  The
    derivatives require an interior point.
    """
    probs = as_probs(p)
    lowest = probs.min()
    if order and lowest < ACTIVE_SUPPORT_FLOOR:
        raise ConfigError(
            f"derivatives require all probabilities >= {ACTIVE_SUPPORT_FLOOR}; "
            f"clamp the iterate first (min entry {lowest:.3e})")
    m = c.order_m
    rows, cols, gaps = _pairs(c, adjacent)
    if lowest > 0:                                  # interior: every pair is live
        logp = np.log(probs)
    else:
        live = (probs[rows] > 0) & (probs[cols] > 0)
        rows, cols, gaps = rows[live], cols[live], gaps[live]
        logp = np.log(probs, where=probs > 0, out=np.zeros(m))
    sig = link.sigma
    d = link.composite_gain * gaps
    u = (2.0 * sig**2 * (logp[rows] - logp[cols]) + d * d) / (2.0 * _SQRT2 * sig * d)
    p_rows = probs[rows]
    if order == 2:
        w = -0.5 * p_rows * sig / math.sqrt(2.0 * math.pi) * np.exp(-u * u) / d
        scaled = np.eye(m) / probs                  # row j is e_j / p_j
        b = scaled[rows] - scaled[cols]
        return (b.T * w) @ b
    q = 0.5 * _erfc(u)
    if not order:
        return float(p_rows @ q)
    g = sig / math.sqrt(2.0 * math.pi) * np.exp(-u * u) / d
    return (np.bincount(rows, q - g, minlength=m)
            + np.bincount(cols, p_rows / probs[cols] * g, minlength=m))


def ser_upper_bound(c: PamConstellation, p, link) -> float:
    """Union bound sum_m p_m sum_{n != m} P_{m,n}; may exceed 1 at low SNR."""
    return _pair_sum(c, p, link, adjacent=False, order=0)


def ber_upper_bound(c: PamConstellation, p, link) -> float:
    """Gray-coded BER upper bound: the SER union bound scaled by 1/log2(M)."""
    return ser_upper_bound(c, p, link) / c.bits_per_symbol


def ser_approx(c: PamConstellation, p, link) -> float:
    """Adjacent-competitor approximation of the SER: sum over |m - n| = 1."""
    return _pair_sum(c, p, link, adjacent=True, order=0)


def ber_approx(c: PamConstellation, p, link) -> float:
    """Approximate BER on the adjacent-error model: ser_approx / log2(M)."""
    return ser_approx(c, p, link) / c.bits_per_symbol


def grad_ber_upper(c: PamConstellation, p, link) -> np.ndarray:
    """Analytic gradient of ber_upper_bound at an interior point."""
    return _pair_sum(c, p, link, adjacent=False, order=1) / c.bits_per_symbol


def grad_ber_approx(c: PamConstellation, p, link) -> np.ndarray:
    """Analytic gradient of ber_approx (adjacent pairs only), interior points."""
    return _pair_sum(c, p, link, adjacent=True, order=1) / c.bits_per_symbol


def hess_ber_approx(c: PamConstellation, p, link) -> np.ndarray:
    """Analytic Hessian of ber_approx at an interior point: half the sum of
    ``pair_hessian_block`` over the adjacent pairs, over log2(M)."""
    return _pair_sum(c, p, link, adjacent=True, order=2) / c.bits_per_symbol


def pair_term_value(p_m: float, p_n: float, geom: PairwiseGeometry) -> float:
    """g(p_m, p_n) = p_m erfc(u_mn) + p_n erfc(u_nm), one symmetric pair term."""
    u_mn = _erfc_arg(p_m, p_n, geom.d, geom.sigma)
    u_nm = _erfc_arg(p_n, p_m, geom.d, geom.sigma)
    return p_m * math.erfc(u_mn) + p_n * math.erfc(u_nm)


def pair_hessian_block(p_m: float, p_n: float, geom: PairwiseGeometry) -> np.ndarray:
    """Closed-form 2x2 Hessian of the pair term g(p_m, p_n).

    With ``alpha = sigma / (sqrt(2) |d|)``, ``beta = |d| / (2 sqrt(2) sigma)``
    and ``theta_xy = alpha ln(p_x/p_y) + beta`` the common factor is

        Phi = 2 alpha^2 [p_m theta_mn e^(-theta_mn^2) + p_n theta_nm e^(-theta_nm^2)]
              - alpha  [p_m e^(-theta_mn^2) + p_n e^(-theta_nm^2)]

    and the block is (2 Phi / sqrt(pi)) * [[1/p_m^2, -1/(p_m p_n)],
    [-1/(p_m p_n), 1/p_n^2]], which is negative semidefinite because
    Phi = -alpha p_m e^(-theta_mn^2) <= 0.  The two lines of Phi cancel to
    that closed form (``p_n e^(-theta_nm^2) = p_m e^(-theta_mn^2)`` and
    ``theta_mn + theta_nm = 2 beta = 1 / (2 alpha)``), so it is computed as
    such: the sum loses digits where ``|ln(p_m/p_n)|`` is large.
    """
    if min(p_m, p_n) <= 0:
        raise ConfigError("Hessian block requires strictly positive probabilities")
    sig, d = geom.sigma, abs(geom.d)
    alpha = sig / (_SQRT2 * d)
    beta = d / (2.0 * _SQRT2 * sig)
    th_mn = alpha * math.log(p_m / p_n) + beta
    phi = -alpha * p_m * math.exp(-th_mn**2)
    scale = 2.0 * phi / math.sqrt(math.pi)
    return scale * np.array([[1.0 / p_m**2, -1.0 / (p_m * p_n)],
                             [-1.0 / (p_m * p_n), 1.0 / p_n**2]])
