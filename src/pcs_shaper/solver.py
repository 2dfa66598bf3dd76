"""Constrained design of the shaping distribution.

The four design problems share one skeleton: a concave objective is maximized
over the simplex intersected with linear illumination constraints and the
reliability constraint ``ber_upper(p) <= threshold``.  The reliability bound is
a *concave* function of p, so its sublevel set is non-convex; the solver
replaces it by its tangent plane at the current iterate (which majorizes the
bound, hence any surrogate-feasible point is truly feasible) and re-linearizes
until the objective stalls.  Where the objective itself is non-concave (the
average-eavesdropper bound), the offending term is minorized by its tangent in
an auxiliary variable.  Every accepted iterate is feasible and the objective
trace is non-decreasing.

The inner concave maximizations use the nonmonotone spectral projected
gradient: Barzilai-Borwein steps, backtracking along the projected direction
against the least of the last ten accepted values (Grippo-Lampariello-Lucidi),
a stop when the best value stalls, and an exact projection onto the simplex
intersected with the mirror-symmetry subspace (symmetric mode) and at most two
rows ``lo <= g @ p <= hi``: the flicker slab and the current reliability
tangent.  The projection is the sort-based simplex
projection of ``v - theta @ G`` at the rows' KKT multipliers theta.  Each
multiplier is the root of a monotone piecewise-linear function of one
variable, found by bracketed Newton steps whose slopes come from the simplex
projection's face Jacobian; the second row's search wraps the first's.  One
projector serves a whole start: each outer iteration swaps in its tangent row
and keeps the warm multipliers.  Each search starts where the last face
predicts its root: a call moves the multipliers along the last call's face by
the change of its point, and each step of the second row's search moves the
first row's multiplier along the current face.  Within an inner solve the
KKT probes, close to the iterate, keep the projector's multipliers, and the
spectral steps, often far outside the set, keep their own in a fork.  A start
only sets how many simplex projections a search takes: each search stops at
the same tolerances, so the projection does not depend on it beyond them.
No external convex-programming solver is involved.
"""
from __future__ import annotations

import copy
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .capacity import EntropyGrid, GAUSS_ENTROPY_STD
from .channel import LinkBudget
from .constellation import ConstraintSet, Distribution, PamConstellation, \
    signed_amplitude_mean, symmetry_residual
from .error_rate import ACTIVE_SUPPORT_FLOOR, ber_approx, ber_upper_bound, \
    grad_ber_approx, grad_ber_upper
from .exceptions import ConfigError, DegradedRegimeError, InfeasibleError, \
    NonConvergenceError

__all__ = [
    "VARIANTS",
    "CccpSettings",
    "DesignProblem",
    "SolveResult",
    "feasibility_report",
    "AffineFunction",
    "inner_solve",
    "linearized_ber_constraint",
    "solve",
    "project_to_simplex",
]

VARIANTS = ("known_csi", "unknown_csi", "unknown_csi_symmetric", "qos_max_eve_ber")

_FEAS_TOL = 1e-13       # projection constraint-violation target
_MAX_ROOT_STEPS = 200    # Newton/bisection steps per multiplier search
_ARMIJO = 1e-4           # sufficient-ascent fraction of the directional derivative
_MAX_BACKTRACKS = 60
_GLL_MEMORY = 10         # accepted values behind the nonmonotone reference
_STALL_REL = 1e-7        # best-value rise over _GLL_MEMORY iterations that is a stall
_MIN_STEP = 1e-17        # inf-norm displacement below which a step has collapsed
_MIN_SPECTRAL = 1e-14    # least spectral step
_INNER_MAX_ITER = 3000   # iterations per inner solve
_INNER_KKT_TOL = 1e-8    # KKT residual at which an inner solve has converged


# ---------------------------------------------------------------------------
# problem / settings / result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CccpSettings:
    """Outer-loop controls: iteration cap, relative-change tolerance, restarts."""

    max_iters: int = 50
    rel_tol: float = 1e-2
    n_starts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1 or self.n_starts < 1:
            raise ConfigError("max_iters and n_starts must be >= 1")
        if not self.rel_tol > 0:
            raise ConfigError("rel_tol must be > 0")


@dataclass(frozen=True)
class DesignProblem:
    variant: str
    constellation: PamConstellation
    bob_link: LinkBudget
    dc_bias: float
    constraints: ConstraintSet = field(default_factory=ConstraintSet)
    eve_link: LinkBudget | None = None
    eve_avg: LinkBudget | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant in ("known_csi", "qos_max_eve_ber") and self.eve_link is None:
            raise ConfigError(f"variant {self.variant!r} requires eve_link")
        if self.variant.startswith("unknown_csi") and self.eve_avg is None:
            raise ConfigError(f"variant {self.variant!r} requires eve_avg")
        if self.variant == "unknown_csi_symmetric" and self.constraints.mode != "symmetric":
            raise ConfigError("unknown_csi_symmetric requires constraints.mode='symmetric'")
        if not self.dc_bias > 0:
            raise ConfigError("dc_bias must be > 0")


@dataclass
class SolveResult:
    """The best start's design, and one ``per_start`` dict per start.

    A feasible start's dict holds ``iterations``, ``converged``,
    ``objective``, ``trace`` and ``inner_stops``: how many of its outer
    iterations' inner solves ended for each reason of ``_pg_ascent``.
    """

    p_opt: Distribution
    objective: float
    objective_trace: list[float]
    iterations: int
    converged: bool
    feasibility: dict[str, float]
    start_index: int
    per_start: list[dict] = field(default_factory=list)

    @property
    def inactive_count(self) -> int:
        return int(np.count_nonzero(self.p_opt.probs < 1e-6))


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum p = 1} (sort-based, exact)."""
    u = np.sort(v)[::-1]
    cs = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    rho = np.nonzero(u + (1.0 - cs) / j > 0)[0][-1]
    lam = (1.0 - cs[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def _symmetrize(v: np.ndarray) -> np.ndarray:
    return 0.5 * (v + v[::-1])


class _Row(NamedTuple):
    """A row ``lo <= g @ p <= hi`` and the constants of its multiplier search."""

    g: np.ndarray
    lo: float
    hi: float
    tol: float      # accepted row-value error
    unit: float     # least Newton step cap, 1 / spread (spread: the range of g)
    flat: float     # slopes above this (-1e-12 spread**2) count as flat


def _row(g: np.ndarray, lo: float, hi: float) -> _Row:
    spread = float(g.max() - g.min())
    tol = _FEAS_TOL * (1.0 + max((abs(b) for b in (lo, hi) if math.isfinite(b)),
                                 default=0.0))
    return _Row(g, lo, hi, tol, 1.0 / spread if spread > 0 else 1.0, -1e-12 * spread**2)


def _face_dot(support: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """``a @ J @ b`` for the Jacobian J of project_to_simplex on the face ``support``."""
    a_s, b_s = a[support], b[support]
    return float(a_s @ b_s - a_s.sum() * b_s.sum() / a_s.size)


def _value_range(g: np.ndarray, cut: _Row | None = None) -> tuple[float, float]:
    """Least and greatest ``g @ x`` over the simplex, or its slice by the row ``cut``.

    The extremes sit at vertices of the slice: simplex vertices inside it and
    the points where its bounding hyperplanes cross simplex edges.  An empty
    slice gives ``(inf, -inf)``.
    """
    if cut is None:
        return float(g.min()), float(g.max())
    h, lo, hi = cut.g, cut.lo, cut.hi
    vals = [g[(lo <= h) & (h <= hi)]]
    for c in (lo, hi):
        i, j = np.nonzero((h[:, None] < c) & (c < h[None, :]))
        vals.append(g[i] + (c - h[i]) / (h[j] - h[i]) * (g[j] - g[i]))
    vals = np.concatenate(vals)
    return (float(vals.min()), float(vals.max())) if vals.size else (math.inf, -math.inf)


def _multiplier(resid, t: float, row: _Row):
    """KKT multiplier of ``row`` from the warm start t.

    ``resid(t)`` returns the row value r (non-increasing, piecewise linear in
    t), its slope and the projected point.  At the returned ``(t, x)``, r = hi
    if t > 0, r = lo if t < 0, and r lies in [lo, hi] if t = 0.  Newton steps
    are capped at ``max(2|t|, row.unit)``, stop at 0 and bisect the bracket
    when they leave it; slopes above ``row.flat`` count as flat.  The start
    only decides how many steps the search takes: any t it returns meets
    these conditions within ``row.tol``.
    """
    lo, hi, tol = row.lo, row.hi, row.tol
    left, right = -math.inf, math.inf
    for _ in range(_MAX_ROOT_STEPS):
        r, slope, x = resid(t)
        want_lo, want_hi = (lo if t <= 0 else hi), (hi if t >= 0 else lo)
        if r > want_hi + tol:
            left, target = t, want_hi
        elif r < want_lo - tol:
            right, target = t, want_lo
        else:
            return t, x
        step = (r - target) / -slope if slope < row.flat else math.inf
        new = t + math.copysign(min(abs(step), max(2.0 * abs(t), row.unit)), r - target)
        if t * new < 0:
            new = 0.0
        if not left < new < right:
            new = 0.5 * (left + right)
            if not left < new < right:
                break
        t = new
    raise NonConvergenceError("projection multiplier search did not converge")


class _Projector:
    """Exact projection onto {simplex [∩ mirror subspace] ∩ ``lo <= g @ p <= hi`` rows}.

    Symmetric mode pre-symmetrizes the point and the rows (the simplex is
    invariant under index reversal).  The point is ``x = P(v - theta @ G)``,
    P the simplex projection, at the rows' KKT multipliers theta.  On one
    face of P the binding rows' multipliers are affine in v and in each
    other, with the face Gram matrix ``K = G J G^T`` (J: P's Jacobian there)
    as coefficients.  Two warm starts follow from it:

    * each call moves the binding rows' multipliers by ``K^-1 G J (v - v')``
      from the last call's ``v'``, on that call's face;
    * row 1's search wraps row 0's, its slope the Schur complement of K, and
      each of its steps from t to t' moves row 0's multiplier by
      ``-(k01 / k00) (t' - t)`` before row 0's search starts.

    Multipliers stay warm across calls and row swaps (a swap drops the last
    face): a call at which they are still optimal costs one simplex
    projection.  A caller whose points lie elsewhere keeps its own
    multipliers and last point in a :meth:`fork`.  The starts only set the
    cost: the projection is unique, and every search ends at the same
    tolerances.
    """

    def __init__(self, rows=(), symmetric: bool = False):
        self.symmetric = symmetric
        self.rows, self.theta = [], []
        self.last = None    # (v, support of its projection) of the last call
        for k, (g, lo, hi) in enumerate(rows):
            self.set_row(k, g, lo, hi)

    def set_row(self, k: int, g: np.ndarray, lo: float, hi: float) -> None:
        """Install row k (k == len(rows) appends); a replaced row keeps its multiplier."""
        if k >= 2:
            raise ConfigError("the projection takes at most two constraint rows")
        g = _symmetrize(g) if self.symmetric else np.asarray(g, dtype=float)
        if k == len(self.rows):
            self.rows.append(None)
            self.theta.append(0.0)
        self.rows[k] = _row(g, float(lo), float(hi))
        self.g = np.array([row.g for row in self.rows])
        self.last = None        # the last face says nothing about a new row
        for i, row in enumerate(self.rows):
            least, most = _value_range(row.g, self.rows[0] if i else None)
            if max(row.lo, least) > min(row.hi, most):
                raise InfeasibleError("constraint set is empty")

    def fork(self) -> "_Projector":
        """A projector onto the same set whose multipliers start at these and
        then move on their own; valid until the next ``set_row``."""
        twin = copy.copy(self)
        twin.theta = list(self.theta)
        return twin

    def _gram(self, support: np.ndarray) -> np.ndarray:
        """``G J G^T`` for the Jacobian J of P on the face ``support``."""
        g_s = self.g.compress(support, axis=1)
        sums = g_s.sum(axis=1)
        return g_s @ g_s.T - sums[:, None] * (sums / g_s.shape[1])

    def _predict(self, v: np.ndarray) -> None:
        """Move the binding rows' multipliers to where the last call's face puts v's.

        A multiplier the move would carry across 0 starts at 0, as in
        :func:`_multiplier`.  On a face where a binding row is flat, or where
        two binding rows are so close to dependent that ``det K`` is under
        1e-2 of ``k00 k11``, a move would be mostly rounding, and the
        multipliers stay where they are.
        """
        binding = [i for i, t in enumerate(self.theta) if t != 0.0]
        if not binding:
            return
        w, support = self.last
        d = (v - w)[support]
        b = self.g.compress(support, axis=1) @ (d - d.mean())    # G J (v - w)
        k = self._gram(support)
        if not all(k[i, i] > -self.rows[i].flat for i in binding):
            return
        if len(binding) == 1:
            moves = {binding[0]: b[binding[0]] / k[binding[0], binding[0]]}
        else:
            det = k[0, 0] * k[1, 1] - k[0, 1] ** 2
            if not det > 1e-2 * k[0, 0] * k[1, 1]:
                return
            moves = {0: (k[1, 1] * b[0] - k[0, 1] * b[1]) / det,
                     1: (k[0, 0] * b[1] - k[0, 1] * b[0]) / det}
        for i, move in moves.items():
            t = self.theta[i] + move
            self.theta[i] = t if t * self.theta[i] > 0 else 0.0

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = _symmetrize(v) if self.symmetric else np.asarray(v, dtype=float)
        if not self.rows:
            return project_to_simplex(v)
        if self.last is not None:
            self._predict(v)
        g0 = self.rows[0].g

        def row0(w):
            def resid(t):
                x = project_to_simplex(w - t * g0)
                return float(g0 @ x), -_face_dot(x > 0, g0, g0), x
            self.theta[0], x = _multiplier(resid, self.theta[0], self.rows[0])
            return x

        if len(self.rows) == 1:
            x = row0(v)
        else:
            g1 = self.rows[1].g
            face = None         # (t, d theta[0] / dt) on the last evaluation's face

            def resid(t):
                nonlocal face
                if face is not None:
                    self.theta[0] += face[1] * (t - face[0])
                x = row0(v - t * g1)
                k = self._gram(x > 0)
                slope, face = k[1, 1], (t, 0.0)
                if self.theta[0] != 0.0 and k[0, 0] > 0:
                    # row 0 held at its bound: theta[0] = const - (k01 / k00) t
                    slope -= k[0, 1] ** 2 / k[0, 0]
                    face = (t, -k[0, 1] / k[0, 0])
                return float(g1 @ x), -slope, x
            self.theta[1], x = _multiplier(resid, self.theta[1], self.rows[1])
        self.last = v, x > 0
        return x


# ---------------------------------------------------------------------------
# inner concave maximization
# ---------------------------------------------------------------------------

def _kkt_residual(p: np.ndarray, g: np.ndarray, project) -> float:
    """Inf-norm displacement of the projected step along the normalized gradient.

    Zero exactly at a stationary point; the gradient is capped to unit inf-norm
    so the probe point stays near the feasible set.
    """
    probe = g / max(np.abs(g).max(), 1.0)
    return float(np.abs(p - project(p + probe)).max())


def _pg_ascent(value_and_grad, project, x0: np.ndarray, max_iter: int,
               kkt_tol: float) -> tuple[np.ndarray, float, str]:
    """Nonmonotone spectral projected-gradient ascent (Birgin-Martinez-Raydan).

    Each iteration projects one spectral step, ``d = P(p + lam g) - p``, and
    backtracks along the segment ``p + alpha d``, which is feasible by
    convexity, until the value clears the least of the last ``_GLL_MEMORY``
    accepted values by the Armijo margin (the Grippo-Lampariello-Lucidi
    reference).  A direction with no ascent is retried once at the longest
    step.  Returns the best point evaluated, its value and why the loop
    stopped: ``"kkt"`` when the KKT residual at that point is within
    ``kkt_tol``, else ``"stalled"`` (the best value rose by at most
    ``_STALL_REL`` relative over the last ``_GLL_MEMORY`` accepted
    iterations), ``"no_ascent"`` (no ascent direction, or the backtrack
    collapsed) or ``"iter_cap"``.

    The KKT probes, within a unit step of the iterate, go through
    ``project`` itself; the spectral steps, up to a few simplex diameters
    away, go through a fork of it made after the first probe.  Each stream
    then starts its projections from its own multipliers, and ``project`` is
    left at those of the last probe, next to the point returned.
    """
    p = project(np.asarray(x0, dtype=float))
    f, g = value_and_grad(p)
    best, tested = (p, f, g), None
    recent = deque([f], maxlen=_GLL_MEMORY)
    best_history = deque([f], maxlen=_GLL_MEMORY + 1)

    def kkt_at_best() -> bool:
        """The KKT test at the best point, made once per best point."""
        nonlocal tested
        if tested is best:
            return False
        tested = best
        return _kkt_residual(best[0], best[2], project) <= kkt_tol

    def stop(reason: str):
        return best[0], best[1], "kkt" if kkt_at_best() else reason

    lam = 1.0 / max(np.abs(g).max(), 1.0)
    step = None
    for _ in range(max_iter):
        if kkt_at_best():
            return best[0], best[1], "kkt"
        if step is None:            # the first step starts from the first probe's multipliers
            step = project.fork()
        # a displacement of a few simplex diameters reaches every face; a
        # short step can drown in the projection's rounding, so retry long
        cap = 4.0 / max(np.abs(g).max(), 1e-12)
        for lam in (min(lam, cap), cap):
            d = step(p + lam * g) - p
            gd = float(g @ d)
            if gd > 0 and np.abs(d).max() >= _MIN_STEP:
                break
        else:
            return stop("no_ascent")
        floor = min(recent)
        alpha = 1.0
        for _ in range(_MAX_BACKTRACKS):
            cand = p + alpha * d
            fc, gc = value_and_grad(cand)
            # ties move the best point too: on the plateau that rounding
            # leaves near the optimum they give the newest point the KKT test
            if fc >= best[1]:
                best = (cand, fc, gc)
            if fc >= floor + _ARMIJO * alpha * gd:
                break
            # safeguarded maximizer of the quadratic through f, gd and fc
            curv = fc - f - alpha * gd
            alpha = min(max(-0.5 * alpha * alpha * gd / curv, 0.1 * alpha), 0.5 * alpha) \
                if curv < 0 else 0.5 * alpha
            if alpha * np.abs(d).max() < _MIN_STEP:
                return stop("no_ascent")
        else:
            return stop("no_ascent")
        s = alpha * d
        sy = float(s @ (gc - g))
        # spectral (Barzilai-Borwein) step; concave: s.y <= 0
        lam = max((s @ s) / -sy, _MIN_SPECTRAL) if sy < 0 else 2.0 * alpha * lam
        p, f, g = cand, fc, gc
        recent.append(f)
        best_history.append(best[1])
        if len(best_history) > _GLL_MEMORY \
                and best[1] - best_history[0] <= _STALL_REL * abs(best[1]):
            return stop("stalled")
    return stop("iter_cap")


def inner_solve(objective, n: int, rows=(), symmetric: bool = False,
                x0: np.ndarray | None = None, kkt_tol: float = _INNER_KKT_TOL,
                max_iter: int = _INNER_MAX_ITER) -> Distribution:
    """Maximize a concave objective over the constrained simplex.

    ``objective(p)`` must return ``(value, gradient)``; ``rows`` holds at most
    two constraints ``(g, lo, hi)`` meaning ``lo <= g @ p <= hi`` (``lo`` may
    be ``-inf``), and ``symmetric`` adds the mirror-symmetry subspace.
    Raises InfeasibleError when the constraint set is empty and
    NonConvergenceError when the KKT residual (unit-step projected-gradient
    mapping) cannot be driven below ``kkt_tol``.
    """
    project = _Projector(rows, symmetric)
    start = np.full(n, 1.0 / n) if x0 is None else np.asarray(x0, dtype=float)
    p, _, reason = _pg_ascent(objective, project, start, max_iter, kkt_tol)
    if reason != "kkt":
        raise NonConvergenceError(
            f"inner solve stopped ({reason}) above the KKT tolerance {kkt_tol}")
    return Distribution(project_to_simplex(p))


@dataclass(frozen=True)
class AffineFunction:
    """f(p) = offset + coef . p"""

    coef: np.ndarray
    offset: float

    def __call__(self, p) -> float:
        arr = p.probs if isinstance(p, Distribution) else np.asarray(p, dtype=float)
        return self.offset + float(self.coef @ arr)


def linearized_ber_constraint(p_k, link: LinkBudget,
                              c: PamConstellation) -> AffineFunction:
    """Tangent plane of the concave BER upper bound at the interior point p_k.

    Majorizes the bound everywhere, so enforcing ``tangent(p) <= threshold``
    guarantees the true constraint.
    """
    probs = p_k.probs if isinstance(p_k, Distribution) else np.asarray(p_k, dtype=float)
    grad = grad_ber_upper(c, probs, link)
    value = ber_upper_bound(c, probs, link)
    return AffineFunction(coef=grad, offset=value - float(grad @ probs))


# ---------------------------------------------------------------------------
# CCCP driver
# ---------------------------------------------------------------------------

def _start_points(m: int, settings: CccpSettings) -> list[np.ndarray]:
    points = [np.full(m, 1.0 / m)]
    for i in range(1, settings.n_starts):
        rng = np.random.Generator(np.random.Philox(key=(int(settings.seed) << 64) + i))
        points.append(rng.dirichlet(np.ones(m)))
    return points


class _Objective:
    """Per-variant objective closures over precomputed entropy tables."""

    def __init__(self, problem: DesignProblem):
        self.problem = problem
        c = problem.constellation
        self.c = c
        self.grid_b = EntropyGrid(problem.bob_link.composite_gain * c.amplitudes,
                                  problem.bob_link.sigma)
        v = problem.variant
        if v == "known_csi":
            self.grid_e = EntropyGrid(problem.eve_link.composite_gain * c.amplitudes,
                                      problem.eve_link.sigma)
            self.const = math.log2(problem.eve_link.sigma / problem.bob_link.sigma)
        elif v.startswith("unknown_csi"):
            eve = problem.eve_avg
            self.snr_scale = (eve.composite_gain / eve.sigma) ** 2
            self.cap_b_const = -GAUSS_ENTROPY_STD - math.log2(problem.bob_link.sigma)

    def clamp(self, p: np.ndarray) -> np.ndarray:
        return np.maximum(p, ACTIVE_SUPPORT_FLOOR)

    # -- true (reported) objectives -------------------------------------
    def true_value(self, p: np.ndarray) -> float:
        v = self.problem.variant
        if v == "known_csi":
            hb, _ = self.grid_b.entropy_and_gradient(p)
            he, _ = self.grid_e.entropy_and_gradient(p)
            return hb - he + self.const
        if v == "qos_max_eve_ber":
            return ber_approx(self.c, p, self.problem.eve_link)
        t = signed_amplitude_mean(self.c, p) ** 2
        cap_b = self.grid_b.entropy(p) + self.cap_b_const
        return cap_b - 0.5 * math.log2(
            1.0 + self.snr_scale * max(self.c.peak_a**2 - t, 0.0))

    # -- surrogate (value, grad) closures for the inner solver ----------
    def surrogate(self, p_k: np.ndarray):
        v = self.problem.variant
        if v == "known_csi":
            def fg(p):
                hb, gb = self.grid_b.entropy_and_gradient(p)
                he, ge = self.grid_e.entropy_and_gradient(p)
                return hb - he + self.const, gb - ge
            return fg
        if v == "qos_max_eve_ber":
            def fg(p):
                # p_m erfc(u_mn) depends on p only through p_m and ln(p_m/p_n),
                # so the bound is homogeneous of degree 1 in p and, by Euler's
                # theorem, equals q @ grad: one kernel call gives both
                q = self.clamp(p)
                g = grad_ber_approx(self.c, q, self.problem.eve_link)
                return float(q @ g), g
            return fg
        # unknown_csi: minorize the (convex, increasing) -1/2 log2(1+c(A^2-t))
        # term at t_k and push t to its linear minorant -s_k^2 + 2 s_k a.p.
        # The symmetric variant's iterates are exactly mirror-symmetric, so
        # there s_k is exactly 0 and the minorant is the constant term.
        a = self.c.amplitudes
        s_k = signed_amplitude_mean(self.c, p_k)
        t_k = s_k**2
        gap = 1.0 + self.snr_scale * max(self.c.peak_a**2 - t_k, 0.0)
        lam = self.snr_scale / (2.0 * math.log(2.0) * gap)
        eve_at_tk = -0.5 * math.log2(gap)

        def fg(p):
            h, g = self.grid_b.entropy_and_gradient(p)
            t_lin = -t_k + 2.0 * s_k * float(a @ p)
            val = h + self.cap_b_const + eve_at_tk + lam * (t_lin - t_k)
            return val, g + lam * 2.0 * s_k * a
        return fg


def _restore_feasibility(obj: _Objective, project: _Projector,
                         p: np.ndarray) -> np.ndarray | None:
    """Drive ber_upper below the threshold by minimizing its tangent plane.

    Each round minimizes the majorizing linearization over the illumination
    constraints, which cannot increase the true bound.  Returns None when the
    bound stops improving while still above the threshold.
    """
    problem = obj.problem
    thr = problem.constraints.pre_fec_threshold
    ber = ber_upper_bound(obj.c, obj.clamp(p), problem.bob_link)
    for _ in range(100):
        if ber <= thr:
            return p
        grad = grad_ber_upper(obj.c, obj.clamp(p), problem.bob_link)

        def fg(x, grad=grad):
            return -float(grad @ x), -grad
        p_new, _, _ = _pg_ascent(fg, project, p, _INNER_MAX_ITER, _INNER_KKT_TOL)
        ber_new = ber_upper_bound(obj.c, obj.clamp(p_new), problem.bob_link)
        if ber_new >= ber * (1.0 - 1e-12):
            return None
        p, ber = p_new, ber_new
    return p if ber <= thr else None


def _run_single_start(obj: _Objective, start: np.ndarray, start_index: int,
                      settings: CccpSettings):
    problem = obj.problem
    thr = problem.constraints.pre_fec_threshold
    symmetric = problem.constraints.mode == "symmetric"
    bound = problem.constraints.flicker_alpha * problem.dc_bias
    slab = [] if symmetric else [(obj.c.amplitudes, -bound, bound)]
    project = _Projector(slab, symmetric)
    p = project(start)
    p = _restore_feasibility(obj, project, p)
    if p is None:
        return None
    trace = [obj.true_value(p)]
    inner_stops = Counter()
    converged = False
    iterations = settings.max_iters
    for k in range(1, settings.max_iters + 1):
        tangent = linearized_ber_constraint(obj.clamp(p), problem.bob_link, obj.c)
        margin = 1e-13 * (1.0 + thr)
        project.set_row(len(slab), tangent.coef, -math.inf,
                        thr - margin - tangent.offset)
        fg = obj.surrogate(p)
        p_new, _, reason = _pg_ascent(fg, project, p, _INNER_MAX_ITER, _INNER_KKT_TOL)
        inner_stops[reason] += 1
        trace.append(obj.true_value(p_new))
        p = p_new
        denom = max(abs(trace[-2]), 1e-12)
        if abs(trace[-1] - trace[-2]) / denom <= settings.rel_tol:
            converged = True
            iterations = k
            break
    return p, trace, iterations, converged, start_index, dict(inner_stops)


def feasibility_report(problem: DesignProblem, p: np.ndarray) -> dict[str, float]:
    """The BER bound of the design ``p`` and its constraint margins: BER and
    flicker or symmetry."""
    c = problem.constellation
    ber = ber_upper_bound(c, p, problem.bob_link)
    report = {
        "ber_upper": ber,
        "ber_upper_excess": ber - problem.constraints.pre_fec_threshold,
        "simplex_sum_error": abs(float(p.sum()) - 1.0),
        "min_prob": float(p.min()),
    }
    if problem.constraints.mode == "symmetric":
        report["symmetry_residual_max"] = float(np.abs(symmetry_residual(p)).max())
        report["amplitude_mean"] = signed_amplitude_mean(c, p)
    else:
        bound = problem.constraints.flicker_alpha * problem.dc_bias
        report["flicker_excess"] = abs(signed_amplitude_mean(c, p)) - bound
    return report


def solve(problem: DesignProblem, settings: CccpSettings | None = None) -> SolveResult:
    """Design the distribution for ``problem.variant`` by multi-start CCCP.

    Raises DegradedRegimeError when a known-CSI eavesdropper is at least as
    good as Bob, and InfeasibleError when no start reaches the reliability
    constraint.
    """
    settings = settings or CccpSettings()
    if problem.variant == "known_csi" \
            and problem.bob_link.quality <= problem.eve_link.quality:
        raise DegradedRegimeError(
            "known-CSI design requires bob quality > eve quality")
    obj = _Objective(problem)
    best = None
    per_start = []
    for idx, start in enumerate(_start_points(problem.constellation.order_m, settings)):
        outcome = _run_single_start(obj, start, idx, settings)
        if outcome is None:
            per_start.append({"start_index": idx, "feasible": False})
            continue
        p, trace, iterations, converged, start_index, inner_stops = outcome
        per_start.append({"start_index": idx, "feasible": True,
                          "iterations": iterations, "converged": converged,
                          "objective": trace[-1], "trace": trace,
                          "inner_stops": inner_stops})
        if best is None or trace[-1] > best[1][-1]:
            best = (p, trace, iterations, converged, start_index)
    if best is None:
        raise InfeasibleError(
            "no starting point reaches the reliability constraint; "
            "the design is infeasible at this operating point")
    p, trace, iterations, converged, start_index = best
    return SolveResult(
        p_opt=Distribution(p),
        objective=trace[-1],
        objective_trace=trace,
        iterations=iterations,
        converged=converged,
        feasibility=feasibility_report(problem, p),
        start_index=start_index,
        per_start=per_start,
    )
