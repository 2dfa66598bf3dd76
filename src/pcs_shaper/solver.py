"""Constrained design of the shaping distribution.

The four design problems share one skeleton: a concave objective is maximized
over the simplex intersected with linear illumination constraints and the
reliability constraint ``ber_upper(p) <= threshold``.  The reliability bound is
a *concave* function of p, so its sublevel set is non-convex; the solver
replaces it by its tangent plane at the current iterate (which majorizes the
bound, hence any surrogate-feasible point is truly feasible) and re-linearizes
until the objective changes by at most ``rel_tol`` relative.  Where the
objective itself is non-concave (the average-eavesdropper bound), the
offending term is minorized by its tangent in an auxiliary variable.  Every
accepted iterate is feasible and the objective trace is non-decreasing.

The loop also stops at the CCCP fixed point: when the surrogate does not
depend on the linearization point (every variant but flicker-mode unknown
CSI) and the tangent row is slack at the inner solve's point.  That point
then maximizes the surrogate over the convex relaxation, up to the inner
tolerance, and the next subproblem would return it again.  At powers where
the reliability constraint is slack a start therefore takes one outer
iteration.

The inner concave maximizations use the nonmonotone spectral projected
gradient: Barzilai-Borwein steps, backtracking along the projected direction
against the least of the last ten accepted values (Grippo-Lampariello-Lucidi),
a stop when the best value stalls, and an exact projection onto the simplex
intersected with the mirror-symmetry subspace (symmetric mode) and at most two
rows ``lo <= g @ p <= hi``: the flicker slab and the current reliability
tangent.  On a guessed face (support and binding rows) the projection is one
closed-form solve with an at most 2x2 Gram matrix; a call guesses the last
call's face and moves by the primal-dual active-set rule, or walks the dual
where that rule cycles.  One projector serves a whole start: each outer
iteration swaps in its tangent row and keeps the warm multipliers, and the
spectral steps and the few KKT probes that they cannot rule out share it.
No external convex-programming solver is involved.
"""
from __future__ import annotations

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
    "inner_solve",
    "linearized_ber_constraint",
    "solve",
    "project_to_simplex",
]

VARIANTS = ("known_csi", "unknown_csi", "unknown_csi_symmetric", "qos_max_eve_ber")

_FEAS_TOL = 1e-13       # projection constraint-violation target
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
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")


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
    ``objective``, ``trace``, ``inner_stops`` (how many of its outer
    iterations' inner solves ended for each reason of ``_pg_ascent``) and
    ``outer_stop``, why its outer loop ended: ``"fixed_point"`` (the tangent
    row is slack and the surrogate does not move with the linearization
    point), ``"rel_tol"`` (the objective changed by at most ``rel_tol``
    relative) or ``"max_iters"``.  ``converged`` is False only for the last.
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
    """A row ``lo <= g @ p <= hi``."""

    g: np.ndarray
    lo: float
    hi: float
    tol: float      # accepted row-value error


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


class _Projector:
    """Exact projection onto {simplex [∩ mirror subspace] ∩ ``lo <= g @ p <= hi`` rows}.

    Symmetric mode pre-symmetrizes the point and the rows (the simplex is
    invariant under index reversal).  The projection of v is
    ``x = max(v - theta @ G + lambda, 0)`` at the rows' KKT multipliers theta.
    On a face (the support S of x and the binding rows, each at the side of
    its theta's sign) theta and x are one closed-form solve, :meth:`_solve`.
    A call guesses the last call's face (a cold call takes S from the simplex
    projection at the warm theta) and accepts it when ``y = v - theta @ G +
    lambda`` is positive exactly on S, each binding theta has its side's sign
    and each free row holds.  Otherwise the primal-dual active-set rule
    (Hintermüller, Ito & Kunisch, SIAM J. Optim. 13, 2002) gives the next
    face: S where y > 0, the rows whose theta has the right sign and the
    violated rows.  On a repeated or singular face, or after 2M + 4 faces,
    the call walks the dual from the warm theta instead: each step moves
    theta toward the top of the dual's quadratic model on the face, up to the
    first breakpoint (an index entering or leaving S, a theta reaching 0).
    """

    def __init__(self, rows=(), symmetric: bool = False):
        self.symmetric = symmetric
        self.rows, self.theta = [], np.zeros(0)
        self.last = None    # (face, sides) of the last call
        for k, (g, lo, hi) in enumerate(rows):
            self.set_row(k, g, lo, hi)

    def set_row(self, k: int, g: np.ndarray, lo: float, hi: float) -> None:
        """Install row k (k == len(rows) appends); a replaced row keeps its multiplier."""
        if k >= 2:
            raise ConfigError("the projection takes at most two constraint rows")
        g = _symmetrize(g) if self.symmetric else np.asarray(g, dtype=float)
        if k == len(self.rows):
            self.rows.append(None)
            self.theta = np.append(self.theta, 0.0)
        lo, hi = float(lo), float(hi)
        bound = max((abs(b) for b in (lo, hi) if math.isfinite(b)), default=0.0)
        self.rows[k] = _Row(g, lo, hi, _FEAS_TOL * (1.0 + bound))
        self.g = np.array([row.g for row in self.rows])
        # Gram entries at or below 1e-12 max|g|**2 are rounding
        self.flat = [1e-12 * float(np.abs(row.g).max()) ** 2 for row in self.rows]
        self.last = None        # the last face says nothing about a new row
        for i, row in enumerate(self.rows):
            least, most = _value_range(row.g, self.rows[0] if i else None)
            if max(row.lo, least) > min(row.hi, most):
                raise InfeasibleError("constraint set is empty")

    def _gram(self, support: np.ndarray):
        """The face ``support``: its 0/1 mask, size and sign (-1 on it), the rows
        centred on it (``G J``, 0 off it), ``K = G J G^T`` and their means on it."""
        mask = support.astype(float)
        n = np.count_nonzero(support)
        mean = self.g @ mask / n
        g_c = (self.g - mean[:, None]) * mask
        return support, mask, n, 1.0 - 2.0 * mask, g_c, (g_c @ g_c.T).tolist(), mean.tolist()

    def _solve(self, v, face, sides):
        """The face solve: ``c_B = G_B (J v_S + 1/|S|) - b_B``, ``theta_B =
        K_BB^-1 c_B`` (None when K_BB is singular and c_B outside its range),
        ``y = v - theta @ G + lambda``."""
        _, mask, n, _, g_c, k, mean = face
        c, theta, flat = [0.0] * len(sides), np.zeros(len(sides)), self.flat
        bound = [i for i, s in enumerate(sides) if s]
        if bound:
            c = [r + m - (row.hi if s > 0 else row.lo) if s else 0.0
                 for r, m, s, row in zip((g_c @ v).tolist(), mean, sides, self.rows)]
            if len(bound) == 1:
                i = bound[0]
                if not k[i][i] > flat[i]:
                    return c, None, None
                theta[i] = c[i] / k[i][i]
            else:
                (k00, k01), (_, k11) = k
                det = k00 * k11 - k01 * k01
                regular = det > 1e-12 * k00 * k11
                # rows parallel on the face bind on one hyperplane when c lies in
                # K's range; theta is then the least-norm solution K c / trace(K)^2
                if not (k00 > flat[0] and k11 > flat[1] and (regular or abs(
                        k00 * c[1] - k01 * c[0]) <= 1e-12 * k00 * max(map(abs, c)))):
                    return c, None, None
                theta[:] = ((k11 * c[0] - k01 * c[1]) / det, (k00 * c[1] - k01 * c[0]) / det) \
                    if regular else np.array(k) @ c / (k00 + k11) ** 2
        y = v - theta @ self.g
        return c, theta, y + (1.0 - y @ mask) / n

    def _cold(self, v, theta):
        """The face of the simplex projection at theta and the rows' sides there."""
        x = project_to_simplex(v - theta @ self.g)
        return self._gram(x > 0), self._sides(x, theta)

    def _sides(self, x, theta, sides=None):
        """Next sides: a binding row (default: theta != 0) keeps its side while
        theta has its sign; a free row takes the side of the bound x violates."""
        if sides is None:
            sides = tuple(int(t > 0) - int(t < 0) for t in theta.tolist())
        r = (self.g @ x).tolist() if not all(sides) else None
        return tuple((s if t * s > 0 else 0) if s else
                     1 if r[i] > row.hi + row.tol else -1 if r[i] < row.lo - row.tol else 0
                     for i, (t, s, row) in enumerate(zip(theta.tolist(), sides, self.rows)))

    def _flat_ascent(self, k: np.ndarray, rho: np.ndarray, sides) -> np.ndarray:
        """On a singular face, rho's part (on the rows with a side) along K's null
        space, where the dual's model rises without bound, else the step to its top."""
        d = np.where(np.array(sides) != 0, rho, 0.0)
        if np.count_nonzero(sides) < 2 or not k.trace() > max(self.flat):
            return d
        u = k[np.argmax(k.diagonal())]
        u = u / math.hypot(*u)          # K = trace(K) u u^T
        along = u[0] * d[1] - u[1] * d[0]     # along the null vector (-u1, u0)
        if abs(along) > 1e-12 * np.abs(d).max():
            return np.array([-u[1], u[0]]) * along
        return u * (u @ d) / k.trace()

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = _symmetrize(v) if self.symmetric else np.asarray(v, dtype=float)
        if not self.rows:
            return project_to_simplex(v)
        face, sides = self.last or self._cold(v, self.theta)
        eps = 1e-15 * (1.0 + np.abs(v).max())      # rounding in y
        seen, walk = set(), None    # walk: None, then () or the direction a pivot keeps
        for step in range(40 * v.size + 100):      # random walks took up to 82 steps
            c, new, y = self._solve(v, face, sides)
            support, mask, n, sign = face[:4]
            if new is not None:
                x = np.maximum(y * mask, 0.0)
                hold = self._sides(x, new, sides)
                if hold == sides and (y * sign).max() <= eps:
                    self.theta, self.last = new, (face, sides)
                    return x
            if walk is None:
                seen.add((support.tobytes(), sides))
                if new is not None and step < 2 * v.size + 4:
                    support = y > eps * sign
                    if (support.tobytes(), hold) not in seen:
                        face = self._gram(support) if (support ^ face[0]).any() else face
                        sides = hold
                        continue
                theta, walk = self.theta, ()
                face, sides = self._cold(v, theta)
                continue
            # walk: from theta toward the top of the dual's quadratic model on
            # this face (a free row the model would carry below 0 stays at
            # 0), up to the first breakpoint
            k = np.array(face[5])
            rho = np.array(c) - k @ theta
            d, moving = walk, sides
            while not len(d):
                _, new, _ = self._solve(v, face, moving)
                d = new - theta if new is not None else self._flat_ascent(k, rho, moving)
                kept = tuple(0 if t == 0.0 and s * di < 0 else s
                             for t, s, di in zip(theta.tolist(), moving, d.tolist()))
                d, moving = (d, moving) if kept == moving else ((), kept)
            curv = d @ k @ d
            top = (d @ rho) / curv if curv > np.dot(self.flat, d * d) else math.inf
            y = v - theta @ self.g
            y += (1.0 - y @ mask) / n
            dg = d @ self.g
            rate = dg @ mask / n - dg           # dy / d(step)
            rate[np.abs(rate) <= 1e-12 * np.abs(dg).max()] = 0.0     # rounding
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                flip = np.where(np.where(support, rate < 0, rate > 0),
                                np.maximum(-y / rate, 0.0), math.inf)
                cross = np.where(theta * d < 0, -theta / d, math.inf)
            alpha = min(top, flip.min(), cross.min())
            if not math.isfinite(alpha):
                raise NonConvergenceError("the projection's dual is unbounded")
            theta = np.where(cross <= alpha, 0.0, theta + alpha * d)
            walk = d if alpha == 0.0 else ()    # a pivot in place keeps its direction
            face = self._gram(support ^ (flip <= alpha))
            y = v - theta @ self.g
            x = np.maximum((y + (1.0 - y @ face[1]) / face[2]) * face[1], 0.0)
            sides = self._sides(x, theta)
        raise NonConvergenceError("the projection did not settle on a face")


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

    Each iteration projects its spectral step first and probes KKT at the
    best point only where the step cannot rule KKT out: ``|P(p + t g) - p|_2``
    rises and ``|P(p + t g) - p|_2 / t`` falls in t (Calamai & Moré, Math.
    Programming 39, 1987, Lemma 2.2), so the probe at the iterate, of step
    ``t0 = 1 / max(|g|_inf, 1)``, fails where ``min(1, t0 / lam) |d|_2 /
    sqrt(M)`` exceeds ``2 kkt_tol``.  The probes and steps share ``project``.
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
    for _ in range(max_iter):
        # a displacement of a few simplex diameters reaches every face; a
        # short step can drown in the projection's rounding, so retry long
        g_max = float(np.abs(g).max())
        cap = 4.0 / max(g_max, 1e-12)
        for lam in (min(lam, cap), cap):
            d = project(p + lam * g) - p
            gd = float(g @ d)
            if gd > 0 and np.abs(d).max() >= _MIN_STEP:
                break
        else:
            return stop("no_ascent")
        # the step's lower bound on the probe's residual is tight up to
        # rounding, so it rules the probe out only with a factor 2 to spare
        if best[0] is p and min(1.0, 1.0 / (max(g_max, 1.0) * lam)) \
                * math.sqrt(float(d @ d) / d.size) > 2.0 * kkt_tol:
            tested = best
        elif kkt_at_best():
            return best[0], best[1], "kkt"
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


def linearized_ber_constraint(p_k, link: LinkBudget,
                              c: PamConstellation) -> np.ndarray:
    """Coefficient row ``g`` of the concave BER upper bound's tangent at p_k.

    The tangent majorizes the bound everywhere, so enforcing ``g @ p <=
    threshold`` guarantees the true constraint.  Each term p_m P_mn depends on
    p only through p_m and ln(p_m/p_n), so the bound is homogeneous of degree 1
    and, by Euler's theorem, equals ``g @ p_k``: the tangent passes through the
    origin and has no offset.
    """
    return grad_ber_upper(c, p_k, link)


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


def _run_single_start(obj: _Objective, start: np.ndarray, settings: CccpSettings):
    """One start's CCCP loop: its last design and its ``per_start`` fields, or
    None when the start cannot reach the reliability constraint."""
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
    # only the flicker-mode unknown-CSI surrogate moves with its linearization
    # point (s_k is exactly 0 in symmetric mode)
    fixed_surrogate = problem.variant != "unknown_csi" or symmetric
    trace = [obj.true_value(p)]
    inner_stops = Counter()
    stop = "max_iters"
    for k in range(1, settings.max_iters + 1):
        tangent = linearized_ber_constraint(obj.clamp(p), problem.bob_link, obj.c)
        margin = 1e-13 * (1.0 + thr)
        project.set_row(len(slab), tangent, -math.inf, thr - margin)
        fg = obj.surrogate(p)
        p, f, reason = _pg_ascent(fg, project, p, _INNER_MAX_ITER, _INNER_KKT_TOL)
        inner_stops[reason] += 1
        # the known-CSI surrogate is the objective itself
        trace.append(f if problem.variant == "known_csi" else obj.true_value(p))
        row = project.rows[-1]
        if fixed_surrogate and row.g @ p < row.hi - row.tol:
            stop = "fixed_point"
            break
        if abs(trace[-1] - trace[-2]) / max(abs(trace[-2]), 1e-12) <= settings.rel_tol:
            stop = "rel_tol"
            break
    return p, {"iterations": k, "converged": stop != "max_iters", "outer_stop": stop,
               "objective": trace[-1], "trace": trace, "inner_stops": dict(inner_stops)}


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
        outcome = _run_single_start(obj, start, settings)
        if outcome is None:
            per_start.append({"start_index": idx, "feasible": False})
            continue
        p, record = outcome
        per_start.append({"start_index": idx, "feasible": True, **record})
        if best is None or record["objective"] > best[1]["objective"]:
            best = (p, record, idx)
    if best is None:
        raise InfeasibleError(
            "no starting point reaches the reliability constraint; "
            "the design is infeasible at this operating point")
    p, record, start_index = best
    return SolveResult(
        p_opt=Distribution(p),
        objective=record["objective"],
        objective_trace=record["trace"],
        iterations=record["iterations"],
        converged=record["converged"],
        feasibility=feasibility_report(problem, p),
        start_index=start_index,
        per_start=per_start,
    )
