"""Inner solver and the four design procedures."""
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linprog

from pcs_shaper.capacity import EntropyGrid, secrecy_capacity, secrecy_lb_estimate
from pcs_shaper.channel import LinkBudget
from pcs_shaper.cli import default_paper_config, resolve_point
from pcs_shaper.constellation import ConstraintSet, \
    build_constellation, signed_amplitude_mean, symmetry_residual
from pcs_shaper.error_rate import ACTIVE_SUPPORT_FLOOR, ber_approx, ber_upper_bound, \
    grad_ber_approx
from pcs_shaper.exceptions import ConfigError, DegradedRegimeError, InfeasibleError, \
    NonConvergenceError
from pcs_shaper.solver import (
    _FEAS_TOL,
    CccpSettings,
    DesignProblem,
    _Objective,
    _Projector,
    _kkt_residual,
    _pg_ascent,
    _run_single_start,
    _start_points,
    feasibility_report,
    inner_solve,
    linearized_ber_constraint,
    project_to_simplex,
    solve,
)

from conftest import dirichlet_interior, links_at_dbm


# ---------------------------------------------------------------------------
# independent QP oracle: enumerate KKT systems over all active-set guesses
# ---------------------------------------------------------------------------

def qp_oracle_max(q_mat, c_vec, a_ub=None, b_ub=None):
    """Maximize 1/2 x^T Q x + c^T x over the simplex with optional halfspaces.

    Exhaustively enumerates which bounds x_i = 0 and which inequalities are
    active, solves each equality-constrained KKT system, and keeps the best
    feasible point with the right multiplier signs.  Exact for n <= 6.
    """
    n = c_vec.size
    k = 0 if a_ub is None else a_ub.shape[0]
    best_val, best_x = -np.inf, None
    for zero_set in itertools.chain.from_iterable(
            itertools.combinations(range(n), r) for r in range(n)):
        free = [i for i in range(n) if i not in zero_set]
        for act in itertools.chain.from_iterable(
                itertools.combinations(range(k), r) for r in range(k + 1)):
            rows = [np.ones(n)]
            rhs = [1.0]
            for i in zero_set:
                e = np.zeros(n)
                e[i] = 1.0
                rows.append(e)
                rhs.append(0.0)
            for j in act:
                rows.append(a_ub[j])
                rhs.append(b_ub[j])
            a_eq = np.vstack(rows)
            m = a_eq.shape[0]
            kkt = np.zeros((n + m, n + m))
            kkt[:n, :n] = q_mat
            kkt[:n, n:] = a_eq.T
            kkt[n:, :n] = a_eq
            rhs_full = np.concatenate([-c_vec, rhs])
            try:
                sol = np.linalg.solve(kkt, rhs_full)
            except np.linalg.LinAlgError:
                continue
            x = sol[:n]
            # a numerically singular system can return a point off its own face
            if np.any(x < -1e-9) or np.abs(a_eq @ x - rhs).max() > 1e-9:
                continue
            if a_ub is not None and np.any(a_ub @ x - b_ub > 1e-9):
                continue
            # the optimum solves the KKT system of its own active set, so the
            # feasible candidate with the highest objective is the optimum
            val = 0.5 * x @ q_mat @ x + c_vec @ x
            if val > best_val:
                best_val, best_x = val, np.maximum(x, 0.0)
    return best_val, best_x


def test_max_entropy_over_simplex_is_uniform():
    def fg(p):
        q = np.maximum(p, 1e-300)
        return float(-(q * np.log(q)).sum()), -(np.log(q) + 1.0)

    out = inner_solve(fg, 8)
    assert np.abs(out.probs - 1.0 / 8).max() < 1e-8


def test_projection_identity():
    q = np.array([0.1, 0.25, 0.4, 0.25])

    def fg(p):
        return -float((p - q) @ (p - q)), -2.0 * (p - q)

    out = inner_solve(fg, 4)
    assert np.abs(out.probs - q).max() < 1e-8


def test_concave_quadratic_matches_active_set_oracle():
    rng = np.random.default_rng(103)
    for trial in range(10):
        w = rng.standard_normal((4, 4))
        q_mat = -(w @ w.T) - 0.5 * np.eye(4)
        c_vec = rng.standard_normal(4)
        g_row = rng.standard_normal(4)
        b_val = float(g_row @ rng.dirichlet(np.ones(4)))   # guaranteed feasible
        a_ub = g_row[None, :]
        b_ub = np.array([b_val])

        def fg(p):
            return float(0.5 * p @ q_mat @ p + c_vec @ p), q_mat @ p + c_vec

        got = inner_solve(fg, 4, [(g_row, -math.inf, b_val)])
        val = fg(got.probs)[0]
        want_val, want_x = qp_oracle_max(q_mat, c_vec, a_ub, b_ub)
        assert val == pytest.approx(want_val, abs=1e-5)
        assert np.abs(got.probs - want_x).max() < 1e-4


def test_inner_solve_signals_infeasible():
    a = np.array([1.0, 1.0, 1.0, 1.0])
    with pytest.raises(InfeasibleError):
        inner_solve(lambda p: (0.0, np.zeros(4)), 4, [(a, -math.inf, 0.5)])


def test_inner_solve_symmetric_subspace():
    target = np.array([0.4, 0.1, 0.2, 0.3])

    def fg(p):
        return -float((p - target) @ (p - target)), -2.0 * (p - target)

    out = inner_solve(fg, 4, symmetric=True)
    assert np.abs(symmetry_residual(out.probs)).max() < 1e-12
    sym_target = 0.5 * (target + target[::-1])
    assert np.abs(out.probs - sym_target).max() < 1e-8


def test_pg_ascent_returns_the_value_of_the_point_it_returns():
    # the gradient points uphill while every move lowers the value, so each
    # backtrack fails until the step collapses
    x0 = np.full(4, 0.25)
    uphill = np.array([1.0, -1.0, 0.5, -0.5])

    def fg(p):
        return -float(np.abs(p - x0).sum()), uphill

    p, f, *_ = _pg_ascent(fg, _Projector(), x0, 5, 1e-8)
    assert f == fg(p)[0]
    assert f >= fg(x0)[0]


def test_spectral_step_survives_a_subnormal_curvature():
    # f = p0 - k p1^2 / 2 with k = 1e-308: the step to the vertex [1, 0]
    # changes the gradient by a subnormal amount, so s.y is subnormal and
    # s.s / -s.y overflows; the next iteration caps the infinite step
    k = 1e-308

    def fg(p):
        return float(p[0] - 0.5 * k * p[1] ** 2), np.array([1.0, -k * p[1]])

    p, f, reason = _pg_ascent(fg, _Projector(), np.full(2, 0.5), 10, 1e-8)
    assert p.tolist() == [1.0, 0.0] and f == 1.0 and reason == "kkt"


@st.composite
def _concave_quadratics(draw):
    """(Q, c, row): a strongly concave quadratic and a feasible ``g @ p <= hi``."""
    m = draw(st.integers(2, 8))
    w = np.array([draw(_vectors(m, 1.0)) for _ in range(m)])
    g = draw(_vectors(m, 1.0))
    assume(np.ptp(g) > 0.1)
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
    inside = np.array(weights) / sum(weights)
    return -(w @ w.T) - 0.5 * np.eye(m), draw(_vectors(m, 2.0)), \
        (g, -math.inf, float(g @ inside))


@settings(max_examples=60)
@given(_concave_quadratics())
def test_pg_ascent_returns_the_best_value_and_the_optimum_at_kkt(instance):
    q_mat, c_vec, row = instance
    seen = []

    def fg(p):
        seen.append(float(0.5 * p @ q_mat @ p + c_vec @ p))
        return seen[-1], q_mat @ p + c_vec

    m = c_vec.size
    p, f, reason = _pg_ascent(fg, _Projector([row]), np.full(m, 1.0 / m), 3000, 1e-10)
    assert f == max(seen)
    if reason == "kkt":
        _, want = qp_oracle_max(q_mat, c_vec, row[0][None, :], np.array([row[2]]))
        assert np.abs(p - want).max() < 1e-6


@settings(max_examples=60)
@given(_concave_quadratics())
def test_pg_ascent_with_the_hessian_stops_at_kkt_at_least_as_often(instance):
    # Newton steps on a settled face land on the face's optimum; they may end
    # a solve at KKT that first-order steps leave stalled, never the reverse
    q_mat, c_vec, row = instance

    def fg(p):
        return float(0.5 * p @ q_mat @ p + c_vec @ p), q_mat @ p + c_vec

    m = c_vec.size
    x0 = np.full(m, 1.0 / m)
    _, f_plain, plain = _pg_ascent(fg, _Projector([row]), x0, 3000, 1e-10)
    p, f, reason = _pg_ascent(fg, _Projector([row]), x0, 3000, 1e-10,
                              hessian=lambda p: q_mat)
    assert reason == "kkt" or plain != "kkt"
    assert f >= f_plain - 1e-9 * max(1.0, abs(f_plain))
    if reason == "kkt":
        _, want = qp_oracle_max(q_mat, c_vec, row[0][None, :], np.array([row[2]]))
        assert np.abs(p - want).max() < 1e-6


# ---------------------------------------------------------------------------
# the exact projector against the exhaustive oracle
# ---------------------------------------------------------------------------

def _vectors(m, bound):
    return st.lists(st.floats(-bound, bound), min_size=m, max_size=m).map(np.array)


@st.composite
def _projection_instances(draw, max_m, symmetric):
    """(v, rows): a point and the projector's rows ``(g, lo, hi)``.

    Without symmetry a flicker-like slab comes first and a one-sided row
    second; with symmetry there is the one-sided row alone, as in the design
    loop.  Bounds are drawn freely, so some sets are empty.
    """
    m = draw(st.integers(2, max_m))
    v = draw(_vectors(m, 2.0))
    rows = []
    if not symmetric:
        centre = draw(st.floats(-0.5, 0.5))
        half = draw(st.floats(1e-3, 0.5))
        rows.append((draw(_vectors(m, 1.0)), centre - half, centre + half))
    rows.append((draw(_vectors(m, 1.0)), -math.inf, draw(st.floats(-1.0, 1.0))))
    return v, rows


def _halfspaces(m, rows, symmetric):
    """The rows, and the mirror as opposite pairs, as ``a_ub @ x <= b_ub``."""
    a_ub, b_ub = [], []
    for g, lo, hi in rows:
        a_ub.append(g)
        b_ub.append(hi)
        if math.isfinite(lo):
            a_ub.append(-g)
            b_ub.append(-lo)
    for i in range(m // 2 if symmetric else 0):
        e = np.zeros(m)
        e[i], e[m - 1 - i] = 1.0, -1.0
        a_ub += [e, -e]
        b_ub += [0.0, 0.0]
    return np.array(a_ub), np.array(b_ub)


def _feasibility_margin(m, rows, symmetric):
    """Largest s by which some (symmetric) simplex point clears every row bound."""
    a_ub, b_ub = _halfspaces(m, rows, False)
    a_eq = [np.append(np.ones(m), 0.0)]
    for i in range(m // 2 if symmetric else 0):
        e = np.zeros(m + 1)
        e[i], e[m - 1 - i] = 1.0, -1.0
        a_eq.append(e)
    res = linprog(np.append(np.zeros(m), -1.0),
                  A_ub=np.hstack([a_ub, np.ones((len(b_ub), 1))]), b_ub=b_ub,
                  A_eq=np.array(a_eq), b_eq=np.eye(len(a_eq))[0],
                  bounds=[(0.0, None)] * m + [(None, 1.0)])
    assert res.status == 0
    return -res.fun


def _check_projection_against_oracle(v, rows, symmetric):
    m = v.size
    # a set within 1e-7 of becoming empty is decided by rounding
    assume(abs(_feasibility_margin(m, rows, symmetric)) > 1e-7)
    _, want = qp_oracle_max(-np.eye(m), v, *_halfspaces(m, rows, symmetric))
    if want is None:
        with pytest.raises(InfeasibleError):
            _Projector(rows, symmetric)(v)
        return
    got = _Projector(rows, symmetric)(v)
    assert np.abs(got - want).max() < 1e-6


@settings(max_examples=60)
@given(_projection_instances(max_m=8, symmetric=False))
def test_projector_matches_oracle_with_slab_and_row(instance):
    _check_projection_against_oracle(*instance, symmetric=False)


@settings(max_examples=30)
@given(_projection_instances(max_m=6, symmetric=True))
def test_projector_matches_oracle_in_symmetric_mode(instance):
    _check_projection_against_oracle(*instance, symmetric=True)


def test_projector_warm_hit_makes_no_simplex_projection(monkeypatch):
    rng = np.random.default_rng(132)
    v = rng.standard_normal(8)
    a = np.linspace(-1.0, 1.0, 8)
    project = _Projector([(a, -0.05, 0.05), (rng.standard_normal(8), -math.inf, -0.2)])
    first = project(v)
    assert all(s != 0 for s in project.last[1])      # both rows bind
    calls = []
    monkeypatch.setattr("pcs_shaper.solver.project_to_simplex",
                        lambda w: calls.append(1) or project_to_simplex(w))
    # a repeated point is solved on the last call's face
    assert np.array_equal(project(v), first)
    assert len(calls) == 0
    # a row swap keeps the face guess, so the next call starts warm on it
    guess = project.last[1]
    project.set_row(1, rng.standard_normal(8), -math.inf, 0.1)
    assert project.last[1] == guess
    project(v)
    assert len(calls) == 0


def _passes_exit(v, rows, symmetric):
    """The projector's exit test: v (symmetrized in symmetric mode) is on the
    simplex up to the rounding eps and meets every row within its tolerance."""
    if symmetric:
        v = 0.5 * (v + v[::-1])
    g = np.array([0.5 * (g + g[::-1]) if symmetric else g for g, _, _ in rows])
    values = v.tolist()
    eps = 1e-15 * (1.0 + max(map(abs, values)))
    tols = [_FEAS_TOL * (1.0 + max((abs(b) for b in (lo, hi) if math.isfinite(b)),
                                   default=0.0)) for _, lo, hi in rows]
    return abs(sum(values) - 1.0) <= eps and min(values) >= 0.0 and all(
        lo - tol <= r <= hi + tol for r, (_, lo, hi), tol in zip((g @ v).tolist(), rows, tols))


@st.composite
def _projection_sequences(draw, scales=(0.1, 1.0, 10.0), symmetric=False):
    """(rows, swap, points, others): a slab and a tangent row around a common
    interior point, the tangent that replaces it at ``points[swap]``, and two
    point sequences with some points far outside the set.  Symmetric mode has
    the tangent row alone, around a mirror-symmetric point, as in the design
    loop."""
    m = draw(st.integers(4 if symmetric else 2, 16))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
    inside = np.array(weights) / sum(weights)
    if symmetric:
        inside = 0.5 * (inside + inside[::-1])

    def row(two_sided):
        g = draw(_vectors(m, 1.0))
        assume(np.ptp(0.5 * (g + g[::-1]) if symmetric else g) > 0.1)
        gap = draw(st.floats(1e-3, 0.5))
        return (g, float(g @ inside) - gap, float(g @ inside) + gap) if two_sided \
            else (g, -math.inf, float(g @ inside) + gap)

    def points(n):
        return [draw(_vectors(m, 1.0)) * draw(st.sampled_from(scales))
                for _ in range(n)]

    n = draw(st.integers(5, 8))
    rows = [row(False)] if symmetric else [row(True), row(False)]
    return rows, draw(st.integers(1, n - 1)), row(False), points(n), points(n)


@settings(max_examples=60)
@given(_projection_sequences())
def test_warm_multipliers_never_change_the_projection(instance):
    rows, swap, new_row, points, others = instance
    warm, elsewhere = _Projector(rows), _Projector(rows)
    current = list(rows)
    for i, (v, other) in enumerate(zip(points, others)):
        if i == swap:
            for project in (warm, elsewhere):
                project.set_row(1, *new_row)
            current[1] = new_row
        elsewhere(other)
        got = warm(v)
        for x in (_Projector(current)(v), elsewhere(v)):
            assert np.abs(got - x).max() <= 1e-12
        assert got.min() >= 0.0 and abs(got.sum() - 1.0) <= 1e-12
        for g, lo, hi in current:
            tol = _FEAS_TOL * (1.0 + max(abs(b) for b in (lo, hi) if math.isfinite(b)))
            assert lo - tol <= g @ got <= hi + tol


@settings(max_examples=150)
@given(st.one_of(_projection_sequences().map(lambda i: (i, False)),
                 _projection_sequences().map(lambda i: ((i[0][1:], *i[1:]), False)),
                 _projection_sequences(symmetric=True).map(lambda i: (i, True))))
# a tie: y = v + lambda is 0 on index 2 within rounding, so the faces with and
# without it both pass; the last call's face {0, 1} is tried first and a
# fresh projector's simplex projection gives {0, 1, 2}
@example(((([np.linspace(-1.0, 1.0, 4), -0.9, 0.9], [np.arange(1.0, 5.0) / 10, -math.inf, 0.5]),
           1, (np.arange(4.0, 0.0, -1.0) / 10, -math.inf, 0.5),
           [np.array([0.9, 0.5, 0.2, 0.0])] * 3, [np.array([0.9, 0.5, -0.5, -0.5])] * 3), False))
# from the swap on, the slab's upper side and the tangent are one hyperplane:
# the warm projector binds the slab alone, a fresh one both rows
@example(((([np.eye(6)[5], -0.4, 0.5], [np.eye(6)[5], -math.inf, 0.6]),
           1, (np.eye(6)[5], -math.inf, 0.5),
           [np.eye(6)[5] * 100.0] * 2 + [np.eye(6)[5] * 3.0],
           [np.eye(6)[5] * 100.0] * 2 + [np.eye(6)[5] * 3.0]), False))
# a re-projected fresh answer that the exit does not take (its sum is off 1 by
# 3.6e-15): its free face's point meets both rows within their tolerance, so
# the rows bound (the warm guess) and free (a fresh projector's) both pass
@example((([(np.eye(3)[2], 0.1375, 0.2625), (np.eye(3)[2], -math.inf, 0.7)],
           1, (np.array([0.5, 1.0, 1.0]), -math.inf, 0.9916666666666667),
           [np.zeros(3)] * 6 + [np.array([0.0, 10.0, 0.0])], [np.zeros(3)] * 7), False))
def test_warm_projector_returns_a_fresh_ones_bits(case):
    # the accepted face is decided by v alone, so a projector that has seen
    # other points and rows returns a new one's bits.  Where the two rows are
    # parallel on the face and both meet their bounds, either may bind
    (rows, swap, new_row, points, others), symmetric = case
    warm, current = _Projector(rows, symmetric), list(rows)
    for i, (v, other) in enumerate(zip(points, others)):
        if i == swap:
            warm.set_row(len(rows) - 1, *new_row)
            current[-1] = new_row
        warm(other)
        fresh = _Projector(current, symmetric)
        got, want = warm(v), fresh(v)
        if _passes_exit(v, current, symmetric):
            # returned as it is; the warm projector keeps its last face
            assert np.array_equal(got, want)
            continue
        (face, sides), (fresh_face, fresh_sides) = warm.last, fresh.last
        assert np.array_equal(face[0], fresh_face[0])
        if sides != fresh_sides:
            (k00, k01), (_, k11) = face[5]
            assert k00 * k11 - k01 ** 2 <= 1e-12 * k00 * k11
            assert np.abs(got - want).max() <= 1e-15 * (1.0 + np.abs(v).max())
        else:
            assert np.array_equal(got, want)
        assert np.array_equal(warm(want), _Projector(current, symmetric)(want))


@settings(max_examples=150)
@given(st.one_of(_projection_sequences().map(lambda i: (i, False)),
                 _projection_sequences().map(lambda i: ((i[0][1:], *i[1:]), False)),
                 _projection_sequences(symmetric=True).map(lambda i: (i, True))))
def test_warm_projector_returns_a_feasible_point_as_it_is(case):
    # a fresh answer meets its binding rows within their tolerance, where the
    # faces with the row bound and free both pass: after any history of points
    # and row swaps, the exit takes it as it is and the guess stays
    (rows, swap, new_row, points, others), symmetric = case
    warm, current = _Projector(rows, symmetric), list(rows)
    for i, (v, other) in enumerate(zip(points, others)):
        if i == swap:
            warm.set_row(len(rows) - 1, *new_row)
            current[-1] = new_row
        warm(other)
        for x in (v, _Projector(current, symmetric)(v)):
            x = 0.5 * (x + x[::-1]) if symmetric else x
            if _passes_exit(x, current, symmetric):
                guess = warm.last
                assert np.array_equal(warm(x), x) and warm.last is guess


@settings(max_examples=200)
@given(st.one_of(_projection_sequences(scales=(100.0, 1000.0)).map(lambda i: (i, False)),
                 _projection_sequences(scales=(100.0, 1000.0), symmetric=True)
                 .map(lambda i: (i, True))))
def test_projector_never_raises_far_outside_the_set(case):
    (rows, swap, new_row, points, others), symmetric = case
    warm, elsewhere = _Projector(rows, symmetric), _Projector(rows, symmetric)
    current = list(rows)
    for i, (v, other) in enumerate(zip(points, others)):
        if i == swap:
            for project in (warm, elsewhere):
                project.set_row(len(rows) - 1, *new_row)
            current[-1] = new_row
        elsewhere(other)
        got = warm(v)
        # the face solve centres v on the support: entries of size |v| cancel
        # to entries of x below 1, so x and each row value carry a rounding
        # of about M eps |v|, which the tolerances scale with
        scale = 1.0 + np.abs(v).max()
        for x in (_Projector(current, symmetric)(v), elsewhere(v)):
            assert np.abs(got - x).max() <= 1e-13 * scale
        assert got.min() >= 0.0 and abs(got.sum() - 1.0) <= 1e-13 * scale
        for g, lo, hi in current:
            if symmetric:
                g = 0.5 * (g + g[::-1])
            tol = _FEAS_TOL * (1.0 + max(abs(b) for b in (lo, hi) if math.isfinite(b)))
            assert lo - tol * scale <= g @ got <= hi + tol * scale


@settings(max_examples=200)
@given(st.one_of(_projection_sequences().map(lambda i: (i, False)),
                 _projection_sequences(symmetric=True).map(lambda i: (i, True))),
       st.floats(-4.0, 3.0), st.floats(-6.0, 3.0))
def test_spectral_step_bounds_the_kkt_residual_from_below(case, g_scale, lam_scale):
    # |P(p + t g) - p|_2 is nondecreasing in t and |P(p + t g) - p|_2 / t
    # nonincreasing (Calamai & More, Math. Programming 39, 1987, Lemma 2.2),
    # so the step at lam bounds the probe's inf-norm residual, at t0 = 1 /
    # max(|g|_inf, 1), from below.  The bound is tight at M = 2 (and in
    # symmetric mode at M = 4): over 40,000 random instances of these kinds
    # with a residual above 1e-12 the ratio reached 1 + 4e-11, which is why
    # _pg_ascent skips a probe only where the bound exceeds twice the KKT
    # tolerance.
    (rows, _, _, points, others), symmetric = case
    project = _Projector(rows, symmetric)
    p = project(points[0])
    g, lam = others[0] * 10.0 ** g_scale, 10.0 ** lam_scale
    d = project(p + lam * g) - p
    t0 = 1.0 / max(np.abs(g).max(), 1.0)
    bound = min(1.0, t0 / lam) * np.linalg.norm(d) / math.sqrt(p.size)
    residual = _kkt_residual(p, g, _Projector(rows, symmetric))
    assert bound <= residual * (1.0 + 1e-9) + 1e-15


@pytest.mark.parametrize("tangent, expected", [
    # the tangent coincides with the slab's upper side: one hyperplane, two rows
    ((np.eye(6)[5], -math.inf, 0.5), [0.1] * 5 + [0.5]),
    # the same, up to entries of 1e-308 that overflow the dual walk's ratios
    ((np.eye(6)[5] + 1e-308, -math.inf, 0.5), [0.1] * 5 + [0.5]),
    ((np.eye(6)[5] + 2.2e-308 * np.eye(6)[1], -math.inf, 0.3), [0.14] * 5 + [0.3]),
])
def test_projector_takes_a_tangent_parallel_to_the_slab(tangent, expected):
    project = _Projector([(np.eye(6)[5], -0.4, 0.5), tangent])
    # the rounding scales with |v|, as in test_projector_never_raises_far_outside_the_set
    assert np.abs(project(np.eye(6)[5] * 100.0) - expected).max() <= 1e-13 * 101.0


def test_qos_solve_stays_within_a_projection_budget(receiver, noise_params,
                                                    monkeypatch):
    # the paper-config QoS design at 25 dBm: a projector that started every
    # multiplier search at the last root made 3538 simplex projections.  The
    # spectral steps and the KKT probes that they do not rule out share one
    # projector's multipliers and last face
    prob, *_ = _problem("qos_max_eve_ber", 25.0, receiver, noise_params)
    calls = []
    monkeypatch.setattr("pcs_shaper.solver.project_to_simplex",
                        lambda w: calls.append(1) or project_to_simplex(w))
    solve(prob, CccpSettings(n_starts=2, seed=2024))
    assert len(calls) <= 2800


def test_binding_power_solves_stay_within_a_face_solve_budget(monkeypatch):
    # the paper sweep's 2-start known-CSI solves where the BER tangent binds.
    # A projector whose cold calls started from the replaced row's multiplier
    # and walked the dual from there made 1516 face solves and 101 simplex
    # projections here; feasible first points and walks from the simplex
    # projection made 1100 and 10
    calls = {"face": 0, "simplex": 0}
    face_solve = _Projector._solve
    monkeypatch.setattr(_Projector, "_solve", lambda self, *a: calls.__setitem__(
        "face", calls["face"] + 1) or face_solve(self, *a))
    monkeypatch.setattr("pcs_shaper.solver.project_to_simplex", lambda w: calls.__setitem__(
        "simplex", calls["simplex"] + 1) or project_to_simplex(w))
    cfg = default_paper_config()
    for power in range(20, 27):
        solve(resolve_point(cfg, float(power)).problem, CccpSettings(n_starts=2, seed=2024))
    assert calls["face"] <= 1.1 * 1100
    assert calls["simplex"] <= 1.1 * 10


def test_qos_solve_probes_kkt_only_where_the_step_cannot_rule_it_out(
        receiver, noise_params, monkeypatch):
    # the same design made 162 KKT probes when it probed at every iteration
    prob, *_ = _problem("qos_max_eve_ber", 25.0, receiver, noise_params)
    calls = []
    monkeypatch.setattr("pcs_shaper.solver._kkt_residual",
                        lambda *args: calls.append(1) or _kkt_residual(*args))
    solve(prob, CccpSettings(n_starts=2, seed=2024))
    assert len(calls) <= 60


def test_projector_rejects_a_third_row():
    g = np.ones(4)
    with pytest.raises(ConfigError):
        _Projector([(g, -1.0, 1.0)] * 3)


def test_linearized_ber_constraint_properties(receiver, noise_params):
    rng = np.random.default_rng(107)
    led, bob, _, _, _ = links_at_dbm(25.0, receiver, noise_params)
    c = build_constellation(8, led.peak_amplitude)
    p0 = dirichlet_interior(rng, 8, floor=0.01)
    g = linearized_ber_constraint(p0, bob, c)
    assert float(g @ p0) == pytest.approx(ber_upper_bound(c, p0, bob), rel=1e-12)
    for _ in range(25):
        p = rng.dirichlet(np.ones(8))
        assert float(g @ p) >= ber_upper_bound(c, p, bob) - 1e-12
    h = 1e-6
    for i in range(3):
        up, dn = p0.copy(), p0.copy()
        up[i] += h
        dn[i] -= h
        num = (ber_upper_bound(c, up, bob) - ber_upper_bound(c, dn, bob)) / (2 * h)
        assert g[i] == pytest.approx(num, rel=1e-5, abs=1e-10)


@settings(max_examples=100)
@given(m=st.sampled_from([8, 16]), power_dbm=st.floats(18.0, 36.0),
       raw=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                    min_size=16, max_size=16))
def test_ber_tangent_passes_through_the_origin(receiver, noise_params, m,
                                               power_dbm, raw):
    """The bounds are homogeneous of degree 1 (Euler: f(q) = grad f(q) @ q) on
    both pair sets, so the tangent at a clamped point needs no offset."""
    led, bob, _, _, _ = links_at_dbm(power_dbm, receiver, noise_params)
    c = build_constellation(m, led.peak_amplitude)
    p = np.array(raw[:m])
    assume(p.sum() > 0.0)
    q = np.maximum(p / p.sum(), ACTIVE_SUPPORT_FLOOR)
    g = linearized_ber_constraint(q, bob, c)
    assert float(g @ q) == pytest.approx(ber_upper_bound(c, q, bob), rel=1e-12, abs=1e-300)
    assert float(q @ grad_ber_approx(c, q, bob)) == pytest.approx(
        ber_approx(c, q, bob), rel=1e-12, abs=1e-300)


def _problem(variant, power_dbm, receiver, noise_params, mode="flicker", m=8,
             threshold=3.8e-3, alpha=0.01):
    led, bob, eve, eve_avg, _ = links_at_dbm(power_dbm, receiver, noise_params)
    c = build_constellation(m, led.peak_amplitude)
    known = variant in ("known_csi", "qos_max_eve_ber")
    return DesignProblem(
        variant=variant, constellation=c, bob_link=bob, dc_bias=led.dc_bias,
        constraints=ConstraintSet(pre_fec_threshold=threshold,
                                  flicker_alpha=alpha, mode=mode),
        eve_link=eve if known else None,
        eve_avg=None if known else eve_avg), led, bob, eve, eve_avg


def test_qos_solve_builds_no_entropy_grid(receiver, noise_params, monkeypatch):
    builds = []
    build = EntropyGrid.__init__
    monkeypatch.setattr(EntropyGrid, "__init__",
                        lambda self, *a: builds.append(a) or build(self, *a))
    prob = _problem("qos_max_eve_ber", 26.0, receiver, noise_params)[0]
    res = solve(prob, CccpSettings(n_starts=2, seed=0))
    assert builds == []
    # the design with Newton steps on settled faces; first-order steps alone
    # reached 0x1.b59942fc8f933p-4 (0.10683561483981378), 7e-12 lower
    want = ["0x0.0p+0", "0x1.cda803a1e471bp-3", "0x0.0p+0", "0x1.252dc27bb7a10p-2",
            "0x1.2846b74711a7ep-2", "0x0.0p+0", "0x1.97cb557f55e08p-4",
            "0x1.9712bc31bc188p-4"]
    assert res.p_opt.probs.tolist() == [float.fromhex(h) for h in want]
    assert res.objective == float.fromhex("0x1.b59942fc9d2bdp-4")
    solve(_problem("known_csi", 26.0, receiver, noise_params)[0],
          CccpSettings(n_starts=1, seed=0))
    assert len(builds) == 2                 # the known-CSI solve builds both links'


def test_feasibility_report_carries_the_ber_bound(receiver, noise_params):
    prob = _problem("known_csi", 26.0, receiver, noise_params)[0]
    p = dirichlet_interior(np.random.default_rng(3), 8)
    report = feasibility_report(prob, p)
    assert report["ber_upper"] == ber_upper_bound(prob.constellation, p, prob.bob_link)
    assert report["ber_upper_excess"] == report["ber_upper"] - 3.8e-3


def test_known_csi_unconstrained_reduction(receiver, noise_params):
    # huge alpha and a threshold near 1/2 make every constraint slack
    prob, led, bob, eve, _ = _problem("known_csi", 30.0, receiver, noise_params,
                                      threshold=0.499, alpha=1e6)
    res = solve(prob, CccpSettings(n_starts=2, seed=0))
    gb = EntropyGrid(bob.composite_gain * prob.constellation.amplitudes, bob.sigma)
    ge = EntropyGrid(eve.composite_gain * prob.constellation.amplitudes, eve.sigma)
    const = math.log2(eve.sigma / bob.sigma)

    def fg(p):
        hb, gradb = gb.entropy_and_gradient(p)
        he, grade = ge.entropy_and_gradient(p)
        return hb - he + const, gradb - grade

    free = inner_solve(fg, 8)
    assert res.objective == pytest.approx(fg(free.probs)[0], abs=1e-4)


@pytest.mark.parametrize("m", [8, 16])
def test_reported_known_csi_secrecy_is_the_objective(receiver, noise_params, m):
    # the CSV's secrecy_bits evaluates the entropy grid the solver optimized,
    # so the reported capacity is the optimized one to the bit
    for power in (20.0, 24.0, 28.0, 32.0, 35.0):
        prob, _, bob, eve, _ = _problem("known_csi", power, receiver, noise_params, m=m)
        res = solve(prob, CccpSettings(n_starts=2, seed=2024))
        assert secrecy_capacity(res.p_opt.probs, bob, eve, prob.constellation) \
            == res.objective, f"M={m} at {power} dBm"


@pytest.mark.parametrize("variant, mode", [("unknown_csi", "flicker"),
                                           ("unknown_csi_symmetric", "symmetric")])
def test_reported_unknown_csi_bound_is_the_objective(receiver, noise_params, variant, mode):
    for power in (22.0, 26.0, 30.0, 34.0):
        prob, _, bob, _, eve_avg = _problem(variant, power, receiver, noise_params, mode=mode)
        res = solve(prob, CccpSettings(n_starts=2, seed=2024))
        assert secrecy_lb_estimate(res.p_opt.probs, bob, eve_avg, prob.constellation) \
            == res.objective, f"{variant} at {power} dBm"


def test_traces_monotone_and_feasible(receiver, noise_params):
    for variant, mode in (("known_csi", "flicker"), ("unknown_csi", "flicker"),
                          ("unknown_csi_symmetric", "symmetric"),
                          ("qos_max_eve_ber", "flicker")):
        for power in (22.0, 28.0):
            prob, led, bob, _, _ = _problem(variant, power, receiver,
                                            noise_params, mode=mode)
            res = solve(prob, CccpSettings(n_starts=4, seed=2))
            trace = res.objective_trace
            assert all(b >= a - 1e-8 for a, b in zip(trace, trace[1:])), \
                f"{variant}@{power}: non-monotone trace {trace}"
            assert ber_upper_bound(prob.constellation, res.p_opt.probs, bob) \
                <= 3.8e-3 + 1e-8
            assert res.feasibility["simplex_sum_error"] < 1e-6
            assert res.iterations <= 50


def test_qos_inner_solves_stay_within_an_evaluation_budget(receiver, noise_params,
                                                         monkeypatch):
    # the monotone Armijo line search took 901 evaluations here; without its
    # stall stop the nonmonotone one takes 10,260, creeping along a face
    prob, *_ = _problem("qos_max_eve_ber", 22.0, receiver, noise_params)
    evals = []
    surrogate = _Objective.surrogate

    def counted(self, p_k):
        fg = surrogate(self, p_k)
        return lambda p: evals.append(1) or fg(p)

    monkeypatch.setattr(_Objective, "surrogate", counted)
    res = solve(prob, CccpSettings(n_starts=4, seed=2))
    assert len(evals) <= 600
    for rec in res.per_start:
        if rec["feasible"]:
            assert set(rec["inner_stops"]) <= {"kkt", "stalled", "no_ascent", "iter_cap"}
            assert sum(rec["inner_stops"].values()) == rec["iterations"]


def _paper_qos_problem(m, power):
    base = default_paper_config()
    cfg = replace(base, modulation_order=m, variant="qos_max_eve_ber")
    return resolve_point(cfg, power).problem


@pytest.mark.parametrize("m, power", [(8, 30.0), (8, 32.0), (8, 35.0),
                                      (16, 32.0), (16, 35.0)])
def test_qos_inner_solves_end_at_kkt_where_the_ber_row_is_slack(m, power):
    # first-order steps alone stalled short of KKT in 19 of these 20 solves;
    # Newton steps on the settled face end every one at KKT
    res = solve(_paper_qos_problem(m, power), CccpSettings(n_starts=4, seed=2024))
    for rec in res.per_start:
        assert rec["feasible"] and set(rec["inner_stops"]) == {"kkt"}, rec


def test_slack_qos_solves_stay_within_an_evaluation_budget(monkeypatch):
    # the Newton trigger compares the spectral steps' faces by identity; these
    # solves take 36 + 33 + 37 + 49 + 61 = 216 evaluations, and a projector
    # whose feasible exit reset a warm face guess took 298
    evals = []
    surrogate = _Objective.surrogate

    def counted(self, p_k):
        fg = surrogate(self, p_k)
        return lambda p: evals.append(1) or fg(p)

    monkeypatch.setattr(_Objective, "surrogate", counted)
    for m, power in [(8, 30.0), (8, 32.0), (8, 35.0), (16, 32.0), (16, 35.0)]:
        solve(_paper_qos_problem(m, power), CccpSettings(n_starts=4, seed=2024))
    assert len(evals) <= 1.1 * 216


def test_wrapped_qos_surrogate_gives_the_same_design(monkeypatch):
    # a tracer wraps every closure surrogate() returns; the Hessian reaches
    # the inner solver by its own argument, so Newton steps still run
    prob = _paper_qos_problem(16, 35.0)
    settings_ = CccpSettings(n_starts=4, seed=2024)
    plain = solve(prob, settings_)
    surrogate = _Objective.surrogate
    calls = []

    def wrapped(self, p_k):
        fg = surrogate(self, p_k)

        def counted(p):
            calls.append(1)
            return fg(p)
        return counted

    monkeypatch.setattr(_Objective, "surrogate", wrapped)
    traced = solve(prob, settings_)
    assert calls
    assert traced.p_opt.probs.tobytes() == plain.p_opt.probs.tobytes()
    assert traced.objective == plain.objective
    assert traced.per_start == plain.per_start
    assert all(set(rec["inner_stops"]) == {"kkt"} for rec in traced.per_start)


def test_paper_qos_design_at_m16_23_dbm_raises_no_overflow_warning():
    # a subnormal s.y in the spectral step once warned here (overflow in the
    # step's quotient), which the suite turns into an error
    res = solve(_paper_qos_problem(16, 23.0), CccpSettings(n_starts=4, seed=2024))
    assert res.feasibility["ber_upper_excess"] <= 1e-8


def _next_subproblem_rise(obj, p):
    """How much one more inner solve, on the subproblem linearized at the
    design ``p`` (the next outer iteration's), raises the surrogate from p."""
    prob = obj.problem
    bound = prob.constraints.flicker_alpha * prob.dc_bias
    tangent = linearized_ber_constraint(obj.clamp(p), prob.bob_link, prob.constellation)
    project = _Projector([(prob.constellation.amplitudes, -bound, bound),
                          (tangent, -math.inf, prob.constraints.pre_fec_threshold)])
    fg = obj.surrogate(p)
    f0, _ = fg(p)
    _, f, _ = _pg_ascent(fg, project, p, 3000, 1e-8)
    return (f - f0) / abs(f0)


@pytest.mark.parametrize("variant", ["known_csi", "qos_max_eve_ber"])
def test_slack_point_stops_at_the_cccp_fixed_point(receiver, noise_params, variant):
    # at 32 dBm the BER tangent row is slack at the first inner solve's point,
    # so that point maximizes the surrogate and a second solve returns it again
    prob, *_ = _problem(variant, 32.0, receiver, noise_params)
    settings = CccpSettings(n_starts=4, seed=2024)
    res = solve(prob, settings)
    obj = _Objective(prob)
    for rec, start in zip(res.per_start, _start_points(8, settings), strict=True):
        assert rec["feasible"]
        assert rec["outer_stop"] == "fixed_point" and rec["iterations"] == 1
        assert rec["converged"] and len(rec["trace"]) == 2
        p, again = _run_single_start(obj, start, settings)
        assert again["objective"] == rec["objective"]
        assert _next_subproblem_rise(obj, p) < 1e-8


def test_flicker_unknown_csi_never_stops_at_the_fixed_point(receiver, noise_params):
    # its surrogate's minorant moves with the linearization point
    for power in (25.0, 32.0):
        prob, *_ = _problem("unknown_csi", power, receiver, noise_params)
        res = solve(prob, CccpSettings(n_starts=4, seed=2024))
        stops = {rec["outer_stop"] for rec in res.per_start if rec["feasible"]}
        assert stops and "fixed_point" not in stops, (power, stops)


def test_known_csi_trace_is_the_true_objective_of_each_design(receiver, noise_params,
                                                             monkeypatch):
    # the trace takes the inner solve's value, which for known CSI is the
    # objective itself; it must equal a fresh evaluation bit for bit
    prob, *_ = _problem("known_csi", 25.0, receiver, noise_params)
    surrogates, designs = [], []
    surrogate = _Objective.surrogate

    def tagged(self, p_k):
        surrogates.append(surrogate(self, p_k))
        return surrogates[-1]

    def recorded(value_and_grad, *args, **kwargs):
        out = _pg_ascent(value_and_grad, *args, **kwargs)
        if any(value_and_grad is fg for fg in surrogates):   # not a restoration
            designs.append(out[0])
        return out

    monkeypatch.setattr(_Objective, "surrogate", tagged)
    monkeypatch.setattr("pcs_shaper.solver._pg_ascent", recorded)
    res = solve(prob, CccpSettings(n_starts=4, seed=2))
    trace = [v for rec in res.per_start if rec["feasible"] for v in rec["trace"][1:]]
    assert len(trace) == len(designs) > 4
    obj = _Objective(prob)
    assert trace == [obj.true_value(p) for p in designs]


def test_multi_start_determinism(receiver, noise_params):
    prob, *_ = _problem("known_csi", 24.0, receiver, noise_params)
    s = CccpSettings(n_starts=6, seed=42)
    r1 = solve(prob, s)
    r2 = solve(prob, s)
    assert np.array_equal(r1.p_opt.probs, r2.p_opt.probs)
    assert r1.objective_trace == r2.objective_trace
    assert r1.start_index == r2.start_index
    assert r1.iterations == r2.iterations


def test_symmetric_solution_is_exactly_symmetric(receiver, noise_params):
    for power in (23.0, 29.0):
        prob, led, _, _, _ = _problem("unknown_csi_symmetric", power, receiver,
                                      noise_params, mode="symmetric")
        res = solve(prob, CccpSettings(n_starts=4, seed=1))
        assert np.abs(symmetry_residual(res.p_opt.probs)).max() <= 1e-9
        assert abs(signed_amplitude_mean(prob.constellation, res.p_opt.probs)) \
            <= 1e-9


def test_symmetric_large_noise_prefers_extreme_mass(receiver, noise_params):
    # when sigma >> peak amplitude and the reliability constraint is slack,
    # the output-entropy gain is first-order in the signal variance, so the
    # optimum concentrates mass on the extreme mirror pair rather than
    # spreading uniformly
    c = build_constellation(8, 1.0)
    bob = LinkBudget(composite_gain=1.0, sigma=25.0)
    eve_avg = LinkBudget(composite_gain=0.1, sigma=25.0)
    prob = DesignProblem(variant="unknown_csi_symmetric", constellation=c,
                         bob_link=bob, dc_bias=1.0,
                         constraints=ConstraintSet(pre_fec_threshold=0.499,
                                                   mode="symmetric"),
                         eve_avg=eve_avg)
    res = solve(prob, CccpSettings(n_starts=4, seed=3))
    p = res.p_opt.probs
    assert p[0] + p[-1] > 0.9
    grid = EntropyGrid(bob.composite_gain * c.amplitudes, bob.sigma)
    assert grid.entropy(p) >= grid.entropy(np.ones(8) / 8)


def test_unknown_with_symmetric_mode_matches_solve_symmetric(receiver, noise_params):
    prob_u, *_ = _problem("unknown_csi", 27.0, receiver, noise_params,
                          mode="symmetric")
    prob_s, *_ = _problem("unknown_csi_symmetric", 27.0, receiver, noise_params,
                          mode="symmetric")
    res_u = solve(prob_u, CccpSettings(n_starts=4, seed=5))
    res_s = solve(prob_s, CccpSettings(n_starts=4, seed=5))
    assert res_u.objective == pytest.approx(res_s.objective, abs=1e-5)
    assert np.abs(res_u.p_opt.probs - res_s.p_opt.probs).max() < 1e-4


def test_unknown_objective_consistent_with_t_at_bound(receiver, noise_params):
    from pcs_shaper.capacity import secrecy_lb_estimate
    prob, led, bob, _, eve_avg = _problem("unknown_csi", 25.0, receiver,
                                          noise_params)
    res = solve(prob, CccpSettings(n_starts=4, seed=7))
    t_opt = signed_amplitude_mean(prob.constellation, res.p_opt.probs) ** 2
    want = secrecy_lb_estimate(res.p_opt.probs, bob, eve_avg, prob.constellation)
    assert res.objective == pytest.approx(want, abs=1e-6)
    assert t_opt <= prob.constellation.peak_a**2 + 1e-9


def test_qos_sanity_path(receiver, noise_params):
    # eavesdropper link identical to the legitimate one, threshold wide open
    led, bob, _, _, _ = links_at_dbm(26.0, receiver, noise_params)
    c = build_constellation(8, led.peak_amplitude)
    prob = DesignProblem(variant="qos_max_eve_ber", constellation=c,
                         bob_link=bob, dc_bias=led.dc_bias,
                         constraints=ConstraintSet(pre_fec_threshold=0.499),
                         eve_link=bob)
    res = solve(prob, CccpSettings(n_starts=2, seed=11))
    assert 0.0 < res.objective <= 1.0
    assert res.feasibility["flicker_excess"] <= 1e-12


def test_degraded_regime_guard(receiver, noise_params):
    led, bob, eve, _, _ = links_at_dbm(28.0, receiver, noise_params)
    c = build_constellation(8, led.peak_amplitude)
    prob = DesignProblem(variant="known_csi", constellation=c, bob_link=eve,
                         dc_bias=led.dc_bias, constraints=ConstraintSet(),
                         eve_link=bob)
    with pytest.raises(DegradedRegimeError):
        solve(prob, CccpSettings(n_starts=1, seed=0))


def test_infeasible_design_at_very_low_power(receiver, noise_params):
    prob, *_ = _problem("known_csi", 12.0, receiver, noise_params)
    with pytest.raises(InfeasibleError):
        solve(prob, CccpSettings(n_starts=3, seed=0))


def test_problem_validation(receiver, noise_params):
    led, bob, eve, eve_avg, _ = links_at_dbm(26.0, receiver, noise_params)
    c = build_constellation(8, led.peak_amplitude)
    with pytest.raises(ConfigError):
        DesignProblem(variant="known_csi", constellation=c, bob_link=bob,
                      dc_bias=led.dc_bias)          # missing eve_link
    with pytest.raises(ConfigError):
        DesignProblem(variant="unknown_csi", constellation=c, bob_link=bob,
                      dc_bias=led.dc_bias)          # missing eve_avg
    with pytest.raises(ConfigError):
        DesignProblem(variant="unknown_csi_symmetric", constellation=c,
                      bob_link=bob, dc_bias=led.dc_bias, eve_avg=eve_avg,
                      constraints=ConstraintSet(mode="flicker"))
    with pytest.raises(ConfigError):
        DesignProblem(variant="nope", constellation=c, bob_link=bob,
                      dc_bias=led.dc_bias, eve_link=eve)
    with pytest.raises(ConfigError):                # an infinite bias passed
        DesignProblem(variant="known_csi", constellation=c, bob_link=bob,
                      dc_bias=math.inf, eve_link=eve)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_settings_reject_a_seed_outside_the_start_key_range(seed):
    with pytest.raises(ConfigError):
        CccpSettings(seed=seed)


@pytest.mark.parametrize("bad", [dict(seed=1.5), dict(seed=True), dict(n_starts=True),
                                 dict(n_starts=2.5), dict(max_iters=2.5)])
def test_settings_reject_non_integer_seeds_and_counts(bad):
    # unchecked, int() would key seed 1's starts for 1.5 and True, range()
    # would run one start for True and raise a raw TypeError for 2.5
    with pytest.raises(ConfigError, match="integer"):
        CccpSettings(**bad)
    numpy_ints = CccpSettings(max_iters=np.int32(5), n_starts=np.int64(3),
                              seed=np.uint64(7))
    assert np.array_equal(_start_points(4, numpy_ints),
                          _start_points(4, CccpSettings(max_iters=5, n_starts=3, seed=7)))


@pytest.mark.parametrize("rel_tol", [math.inf, math.nan, True, "1e-2", 0.0, -1e-2, None])
def test_settings_reject_a_rel_tol_that_is_not_a_finite_positive_real(rel_tol):
    # unchecked, inf stopped every start at its first test and a string
    # raised a raw TypeError
    with pytest.raises(ConfigError, match="rel_tol"):
        CccpSettings(rel_tol=rel_tol)


def test_settings_take_a_numpy_float_rel_tol():
    assert CccpSettings(rel_tol=np.float64(1e-3)).rel_tol == 1e-3
    assert CccpSettings(rel_tol=np.float32(0.5)).rel_tol == 0.5


def test_largest_seed_keys_every_start():
    starts = _start_points(4, CccpSettings(n_starts=3, seed=2**64 - 1))
    assert len(starts) == 3


def test_restoration_from_infeasible_uniform_start(receiver, noise_params):
    # at 22 dBm uniform signaling violates the reliability constraint, so the
    # first (uniform) start must pass through the restoration phase
    prob, led, bob, _, _ = _problem("known_csi", 22.0, receiver, noise_params)
    res = solve(prob, CccpSettings(n_starts=1, seed=0))
    assert ber_upper_bound(prob.constellation, res.p_opt.probs, bob) <= 3.8e-3 + 1e-8
    assert res.per_start[0]["feasible"]


def test_project_to_simplex_basics():
    rng = np.random.default_rng(113)
    for _ in range(50):
        v = rng.standard_normal(8) * rng.uniform(0.1, 10.0)
        x = project_to_simplex(v)
        assert x.min() >= 0.0
        assert x.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(project_to_simplex(np.ones(4) / 4), np.ones(4) / 4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", [0, 3])
@pytest.mark.parametrize("rows, symmetric", [
    (None, False), (0, False), (0, True), (1, False), (1, True), (2, False)])
def test_projection_of_a_non_finite_point_is_a_numerical_failure(bad, index, rows, symmetric):
    # a NaN gradient inside a solve must end it as NonConvergenceError (exit
    # code 5), not as an IndexError or a point built from a NaN or infinity;
    # rows=None is project_to_simplex itself
    v = np.full(8, 0.1)
    v[index] = bad
    slab, tangent = (np.linspace(-1.0, 1.0, 8), -0.1, 0.1), (np.arange(8.0), -math.inf, 3.5)
    project = project_to_simplex if rows is None else \
        _Projector([slab, tangent][2 - rows:], symmetric)
    with pytest.raises(NonConvergenceError):
        project(v)


def test_sixteen_pam_secrecy_gain_at_high_power(receiver, noise_params):
    # doubling the modulation order at 30 dBm still yields a shaping gain,
    # smaller than the 8-PAM one (~3.1% vs ~4.7%)
    prob, led, bob, eve, _ = _problem("known_csi", 30.0, receiver, noise_params,
                                      m=16)
    res = solve(prob, CccpSettings(n_starts=4, seed=1))
    p_uni = np.ones(16) / 16
    gb = EntropyGrid(bob.composite_gain * prob.constellation.amplitudes, bob.sigma)
    ge = EntropyGrid(eve.composite_gain * prob.constellation.amplitudes, eve.sigma)
    cs_uni = gb.entropy(p_uni) - ge.entropy(p_uni) + math.log2(eve.sigma / bob.sigma)
    gain_pct = (res.objective / cs_uni - 1.0) * 100.0
    assert 1.6 <= gain_pct <= 4.6
