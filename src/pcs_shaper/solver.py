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
tangent.  The projection returns a feasible point as it is and solves any
other on guessed faces (support and binding rows), each one closed-form solve
with an at most 2x2 Gram matrix; the point alone decides the answer, save
where the two rows are parallel on a face.  One projector serves a whole
start: each outer iteration swaps in its tangent row, which the last inner
solution meets (Euler's theorem), so that point is its own projection; the
spectral steps and the few KKT probes that they cannot rule out share it.
No external convex-programming solver runs.

The QoS objective has an exact O(M) Hessian, ``error_rate.hess_ber_approx``,
so its inner solves also take projected Newton steps on a face the spectral
steps settle on, and end at KKT where first-order steps crawl to the stall
stop.  The entropies' Hessians are dense, O(M^2 N) to build, and indefinite
in known CSI's ``H_b - H_e``, so those objectives take spectral steps only.
"""
from __future__ import annotations

import math
import numbers
from collections import Counter, deque
from dataclasses import dataclass, field
from operator import le, mul
from typing import NamedTuple

import numpy as np

from .capacity import EntropyGrid, GAUSS_ENTROPY_STD
from .channel import LinkBudget
from .constellation import INACTIVE_FLOOR, ConstraintSet, Distribution, PamConstellation, \
    signed_amplitude_mean, symmetry_residual
from .error_rate import ACTIVE_SUPPORT_FLOOR, ber_approx, ber_upper_bound, \
    grad_ber_approx, grad_ber_upper, hess_ber_approx
from .exceptions import ConfigError, DegradedRegimeError, InfeasibleError, \
    NonConvergenceError
from .validation import check_integer, check_positive

__all__ = [
    "VARIANTS",
    "CccpSettings",
    "DesignProblem",
    "SolveResult",
    "feasibility_report",
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
        check_integer("max_iters", self.max_iters, 1)
        check_integer("n_starts", self.n_starts, 1)
        if isinstance(self.rel_tol, bool) or not isinstance(self.rel_tol, numbers.Real):
            raise ConfigError(f"rel_tol must be a real number, got {self.rel_tol!r}")
        check_positive("rel_tol", self.rel_tol)
        if check_integer("seed", self.seed, 0) >= 2**64:
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
        check_positive("dc_bias", self.dc_bias)


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
        return int(np.count_nonzero(self.p_opt.probs < INACTIVE_FLOOR))


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum p = 1} (sort-based, exact)."""
    u = np.sort(v)[::-1]
    cs = np.cumsum(u)
    if not math.isfinite(cs[-1]):       # the sum is finite exactly when every entry is
        raise NonConvergenceError("the point to project is not finite")
    rho = np.nonzero(u + (1.0 - cs) / np.arange(1, v.size + 1) > 0)[0][-1]
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
    invariant under index reversal).  Every call returns a feasible v (on the
    simplex up to eps, each row within its tolerance) as it is, keeping its
    face guess; a cold call (no last face) guesses v's support, rows free.
    Else the projection is ``x = max(v - theta @ G + lambda, 0)`` at the
    rows' KKT multipliers theta; on a face (the support S of x and the
    binding rows, each at the side of its theta's sign) theta and x are one
    closed-form solve, :meth:`_solve`.  A cold call takes its first face from
    v's simplex projection, a warm call the last call's face.  A face passes
    when ``y = v - theta @ G + lambda`` is at least -eps on S and at most eps
    off it (eps is y's rounding), each binding theta has its side's sign (0
    frees the row) and each free row holds.  A passing face is tried again
    without the indices of S whose y is within eps of 0 and, where the point
    of the face with every row free meets each bound row, with every row
    free; that face is taken if it passes too.  Otherwise the primal-dual
    active-set rule (Hintermüller, Ito & Kunisch, SIAM J. Optim. 13, 2002)
    gives the next face: S where y > 0, the rows whose theta has the right
    sign and the violated rows.  On a repeated or singular face, or after
    2M + 4 faces, the call walks the dual from theta = 0 on v's simplex
    projection's face: each step moves theta toward the top of the dual's
    quadratic model on the face, up to the first breakpoint (an index
    entering or leaving S, a theta reaching 0).  The face guess is the only
    state kept between calls, and :meth:`set_row` keeps it too (its support
    and sides on the new rows, an appended row free): it decides how fast x
    is found, not x, save on a face where the two rows are parallel.
    """

    def __init__(self, rows=(), symmetric: bool = False):
        self.symmetric = symmetric
        self.rows, self.last = [], None    # last: (face, sides) of the last call
        for k, (g, lo, hi) in enumerate(rows):
            self.set_row(k, g, lo, hi)

    def set_row(self, k: int, g: np.ndarray, lo: float, hi: float) -> None:
        """Install row k (k == len(rows) appends)."""
        if k > min(len(self.rows), 1):
            raise ConfigError("the projection takes at most two constraint rows, in order")
        g = _symmetrize(g) if self.symmetric else np.asarray(g, dtype=float)
        lo, hi = float(lo), float(hi)
        bound = max((abs(b) for b in (lo, hi) if math.isfinite(b)), default=0.0)
        self.rows[k:k + 1] = [_Row(g, lo, hi, _FEAS_TOL * (1.0 + bound))]
        self.g = np.array([row.g for row in self.rows])
        self.tols = [row.tol for row in self.rows]
        # Gram entries at or below 1e-12 max|g|**2 are rounding
        self.flat = [1e-12 * float(np.abs(row.g).max()) ** 2 for row in self.rows]
        if self.last:           # the last face's support and sides, an appended row free
            (support, *_), sides = self.last
            self.last = self._gram(support), (sides + (0,))[:len(self.rows)]
        for i, row in enumerate(self.rows[k:], k):      # rows below k are unchanged
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
        y = v - theta @ self.g if bound else v
        return c, theta, y + (1.0 - y @ mask) / n

    def _cold(self, v):
        """The face of the simplex projection of v and the rows' sides there."""
        x = project_to_simplex(v)
        return self._gram(x > 0), self._sides(x, np.zeros(len(self.rows)))

    def _sides(self, x, theta, sides=None):
        """Next sides: a binding row (default: theta != 0) keeps its side while
        theta has its sign; a free row takes the side of the bound x violates."""
        theta = theta.tolist()
        if sides is None:
            sides = [(t > 0) - (t < 0) for t in theta]
        r = (self.g @ x).tolist() if not all(sides) else None
        out = []
        for i, row in enumerate(self.rows):
            s = sides[i]
            out.append((s if theta[i] * s > 0 else 0) if s else
                       1 if r[i] > row.hi + row.tol else -1 if r[i] < row.lo - row.tol else 0)
        return tuple(out)

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
        total = sum(values := v.tolist())      # finite exactly when every entry is
        if not math.isfinite(total):
            raise NonConvergenceError("the point to project is not finite")
        eps = 1e-15 * (1.0 + max(map(abs, values)))      # rounding in y
        free = (0,) * len(self.rows)
        if abs(total - 1.0) <= eps and min(values) >= 0.0 \
                and self._sides(v, np.zeros(len(free))) == free:
            # a feasible point is its own projection; a warm call keeps its guess
            self.last = self.last or (self._gram(v > eps), free)
            return v
        cold = None if self.last else self._cold(v)     # a walk starts there too
        face, sides = self.last or cold
        seen, walk, accepted = set(), None, None    # walk: None, then () or a pivot's direction
        for step in range(40 * v.size + 100):      # random walks took up to 82 steps
            c, new, y = self._solve(v, face, sides)
            support, mask, n, sign = face[:4]
            if new is not None:
                x = np.maximum(y * mask, 0.0)
                hold = self._sides(x, new, sides)
                if hold == sides and max((y * sign).tolist()) <= eps:
                    # a tie: try the face without the indices whose y is within
                    # eps of 0, with the bound rows free where the free face's
                    # point meets them; this face is the answer if that fails
                    tight = accepted is None and np.count_nonzero(y > eps) < n
                    loose = accepted is None and any(sides) and all(
                        map(le, map(mul, sides, c), self.tols))
                    accepted = ((face, sides), x)
                    if tight or loose:
                        face = self._gram(y > eps) if tight else face
                        sides = free if loose else sides
                        continue
            if accepted is not None:
                self.last, x = accepted
                return x
            if walk is None:
                seen.add((support.tobytes(), sides))
                if new is not None and step < 2 * v.size + 4:
                    support = y > eps * sign
                    if (support.tobytes(), hold) not in seen:
                        face = self._gram(support) if (support ^ face[0]).any() else face
                        sides = hold
                        continue
                theta, walk = np.zeros(len(free)), ()
                face, sides = cold or self._cold(v)
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
    """Inf-norm displacement of the projected step along the gradient, capped to unit
    inf-norm so the probe stays near the set; zero exactly at a stationary point."""
    probe = g / max(np.abs(g).max(), 1.0)
    return float(np.abs(p - project(p + probe)).max())


def _newton_step(hessian, p: np.ndarray, g: np.ndarray, project, last) -> np.ndarray | None:
    """The Newton step on the projector's face ``last``, which holds the sum
    and each binding row and is 0 off the support S: ``[H_SS A^T; A 0] [d;
    mu] = [-g_S; 0]``.  None for fewer than two free directions (on one, the
    spectral step is the secant step), for more runs of adjacent support
    symbols than rows in A (for adjacent-pair terms homogeneous of degree 1,
    as in the QoS bound, p on each run spans a null direction of H), for a
    singular system and for a step not finite or longer than 1 (inf-norm)."""
    (support, _, n, *_), sides = last
    k = 1 + sum(map(abs, sides))
    if n - k < 2 or int(support[0]) + np.count_nonzero(support[1:] > support[:-1]) > k:
        return None
    a = np.array([np.ones(n)] + [row.g[support] for row, s in zip(project.rows, sides) if s])
    system = np.zeros((n + k, n + k))
    system[:n, :n] = hessian(p)[np.ix_(support, support)]
    system[n:, :n], system[:n, n:] = a, a.T
    try:
        step = np.linalg.solve(system, np.concatenate([-g[support], np.zeros(k)]))[:n]
    except np.linalg.LinAlgError:
        return None
    if not (np.isfinite(step).all() and np.abs(step).max() <= 1.0):
        return None
    d = np.zeros(g.size)
    d[support] = step
    return d


def _pg_ascent(value_and_grad, project, x0: np.ndarray, max_iter: int,
               kkt_tol: float, hessian=None) -> tuple[np.ndarray, float, str]:
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

    Given ``hessian(p)``, the objective's exact Hessian, an iteration whose
    spectral step lands on the face (support, by identity, and binding rows)
    that the projector gave the two steps before first tries the projected
    Newton step on it (Bertsekas, SIAM J. Control Optim. 20, 1982),
    :func:`_newton_step` from p, where p is at least ``ACTIVE_SUPPORT_FLOOR``
    on the support.  It is taken if it clears the Armijo test against f(p)
    and moves the best point and the GLL and stall memories, not the spectral
    step.  Else the spectral step is taken, and Newton waits for the face to
    move; a face whose Newton step is None is not tried again.
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

    lam = 1.0 / max(max(map(abs, g.tolist())), 1.0)
    # the last spectral step's face and for how many steps before it the
    # projector held it; whether Newton failed on it; the faces whose Newton
    # step came out None
    last, held, failed, singular = None, 0, False, set()
    for _ in range(max_iter):
        # a displacement of a few simplex diameters reaches every face; a
        # short step can drown in the projection's rounding, so retry long
        g_max = max(map(abs, g.tolist()))
        cap = 4.0 / max(g_max, 1e-12)
        for lam in (min(lam, cap), cap):
            d = project(p + lam * g) - p
            gd = float(g @ d)
            if gd > 0 and (d_max := max(map(abs, d.tolist()))) >= _MIN_STEP:
                break
        else:
            return stop("no_ascent")
        if hessian is not None:
            prev, last = last, project.last
            same = prev is not None and last[0] is prev[0] and last[1] == prev[1]
            held, failed = held + 1 if same else 0, failed and same
        # the step's lower bound on the probe's residual is tight up to
        # rounding, so it rules the probe out only with a factor 2 to spare
        if best[0] is p and min(1.0, 1.0 / (max(g_max, 1.0) * lam)) \
                * math.sqrt(float(d @ d) / d.size) > 2.0 * kkt_tol:
            tested = best
        elif kkt_at_best():
            return best[0], best[1], "kkt"
        newton = False
        if held >= 2 and not failed:
            face = (last[0][0].tobytes(), last[1])
            if face not in singular and p[last[0][0]].min() >= ACTIVE_SUPPORT_FLOOR:
                step = _newton_step(hessian, p, g, project, last)
                if step is None:
                    singular.add(face)
                else:
                    cand = project(p + step)
                    fc, gc = value_and_grad(cand)
                    if fc >= best[1]:
                        best = (cand, fc, gc)
                    rise = float(g @ (cand - p))
                    newton = rise > 0 and fc >= f + _ARMIJO * rise
            failed = not newton
        if not newton:
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
                alpha = min(max(-0.5 * alpha * alpha * gd / curv, 0.1 * alpha),
                            0.5 * alpha) if curv < 0 else 0.5 * alpha
                if alpha * d_max < _MIN_STEP:
                    return stop("no_ascent")
            else:
                return stop("no_ascent")
            s = alpha * d
            sy = float(s @ (gc - g))
            # spectral (Barzilai-Borwein) step; concave: s.y <= 0.  A subnormal
            # s.y overflows the float quotient to inf, which the next cap bounds
            lam = max(float(s @ s) / -sy, _MIN_SPECTRAL) if sy < 0 else 2.0 * alpha * lam
        p, f, g = cand, fc, gc
        recent.append(f)
        best_history.append(best[1])
        if len(best_history) > _GLL_MEMORY \
                and best[1] - best_history[0] <= _STALL_REL * abs(best[1]):
            return stop("stalled")
    return stop("iter_cap")


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
    """Per-variant objective closures over precomputed entropy tables; for known
    CSI, Bob's and Eve's stacked by :meth:`EntropyGrid.minus` into one."""

    def __init__(self, problem: DesignProblem):
        self.problem = problem
        self.c = c = problem.constellation
        v = problem.variant
        # the inner solver's exact Hessian: O(M) and tridiagonal for QoS; the
        # entropies' are dense and indefinite in known CSI, so they have none
        self.hessian = (lambda p: hess_ber_approx(c, self.clamp(p), problem.eve_link)) \
            if v == "qos_max_eve_ber" else None
        if v != "qos_max_eve_ber":      # QoS reads only Eve's BER kernels
            self.grid = EntropyGrid(problem.bob_link.composite_gain * c.amplitudes,
                                    problem.bob_link.sigma)
        if v == "known_csi":
            self.grid = self.grid.minus(EntropyGrid(
                problem.eve_link.composite_gain * c.amplitudes, problem.eve_link.sigma))
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
            return self.grid.entropy(p) + self.const
        if v == "qos_max_eve_ber":
            return ber_approx(self.c, p, self.problem.eve_link)
        t = signed_amplitude_mean(self.c, p) ** 2
        cap_b = self.grid.entropy(p) + self.cap_b_const
        return cap_b - 0.5 * math.log2(
            1.0 + self.snr_scale * max(self.c.peak_a**2 - t, 0.0))

    # -- surrogate (value, grad) closures for the inner solver ----------
    def surrogate(self, p_k: np.ndarray):
        v = self.problem.variant
        if v == "known_csi":
            def fg(p):
                h, g = self.grid.entropy_and_gradient(p)
                return h + self.const, g
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
            h, g = self.grid.entropy_and_gradient(p)
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
    p = _restore_feasibility(obj, project, project(start))
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
        project.set_row(len(slab), tangent, -math.inf, thr - 1e-13 * (1.0 + thr))
        fg = obj.surrogate(p)
        p, f, reason = _pg_ascent(fg, project, p, _INNER_MAX_ITER, _INNER_KKT_TOL,
                                  hessian=obj.hessian)
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
    best, per_start = None, []
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
