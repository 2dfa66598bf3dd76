"""Error-rate analysis: pairwise closed form, bounds, gradients, concavity."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erfc

from pcs_shaper.channel import LinkBudget
from pcs_shaper.constellation import Distribution, PamConstellation, build_constellation
from pcs_shaper.error_rate import (
    ACTIVE_SUPPORT_FLOOR,
    PairwiseGeometry,
    ber_approx,
    ber_upper_bound,
    grad_ber_approx,
    grad_ber_upper,
    hess_ber_approx,
    pair_hessian_block,
    pair_term_value,
    pairwise_error_prob,
    ser_approx,
    ser_upper_bound,
    _erfc,
)
from pcs_shaper.exceptions import ConfigError
from pcs_shaper.montecarlo import SimConfig, pairwise_error_mc, simulate_error_rates

from conftest import dirichlet_interior


def random_link(rng) -> LinkBudget:
    return LinkBudget(composite_gain=float(rng.uniform(0.3, 3.0)),
                      sigma=float(rng.uniform(0.2, 1.5)))


def test_pairwise_equal_priors_cancels_log_term():
    geom = PairwiseGeometry(d=2.0 * math.sqrt(2.0), sigma=1.0)
    assert pairwise_error_prob(0.3, 0.3, geom) == pytest.approx(
        0.5 * erfc(1.0), rel=1e-15)


def test_pairwise_inactive_competitor_never_wins():
    geom = PairwiseGeometry(d=1.0, sigma=1.0)
    assert pairwise_error_prob(0.4, 0.0, geom) == 0.0
    assert pairwise_error_prob(0.0, 0.4, geom) == 1.0


def test_pairwise_rejects_nan_distance_and_keeps_infinite_ones():
    with pytest.raises(ConfigError):
        PairwiseGeometry(d=math.nan, sigma=1.0)
    for d in (math.inf, -math.inf):         # a missing competitor never wins
        geom = PairwiseGeometry(d=d, sigma=1.0)
        assert pairwise_error_prob(0.3, 0.7, geom) == 0.0
        assert pairwise_error_mc(0.3, 0.7, geom, 1000, seed=2) == (0.0, 0.0)


# erfc(u) rounded to double from a 50-digit evaluation
ERFC_REFERENCE = [
    (-5.5, 1.9999999999999927), (-1.0, 1.8427007929497148),
    (0.3, 0.6713732405408726), (1.0, 0.15729920705028513),
    (2.5, 0.0004069520174449589), (4.0, 1.541725790028002e-08),
    (6.25, 9.672204131876253e-19), (10.0, 2.088487583762545e-45),
    (17.0, 1.0212280150942608e-127), (26.0, 5.663192408856143e-296),
]


def test_erfc_matches_high_precision_values():
    u, want = np.array(ERFC_REFERENCE).T
    np.testing.assert_allclose(_erfc(u), want, rtol=2e-15, atol=0.0)
    assert _erfc(np.array([np.inf, -np.inf])).tolist() == [0.0, 2.0]


@given(st.lists(st.floats(-6.0, 27.0), min_size=1, max_size=64))
def test_erfc_matches_scipy(us):
    u = np.array(us)
    # rtol: scipy's own erfc is off by up to 6e-14 relative beyond u = 10 (the
    # 50-digit values above hold this one to 2e-15); atol: below the normal
    # range (1e-300) a tail value has no relative precision, and scipy flushes
    # it to zero
    np.testing.assert_allclose(_erfc(u), erfc(u), rtol=1e-13, atol=1e-300)


def test_pairwise_matches_event_simulation():
    rng = np.random.default_rng(17)
    for _ in range(6):
        w = rng.dirichlet([1.0, 1.0])
        geom = PairwiseGeometry(d=float(rng.uniform(0.5, 4.0)),
                                sigma=float(rng.uniform(0.5, 2.0)))
        exact = pairwise_error_prob(w[0], w[1], geom)
        est, se = pairwise_error_mc(w[0], w[1], geom, 1_000_000,
                                    seed=int(rng.integers(2**31)))
        assert abs(est - exact) <= 4.0 * max(se, 1e-6)


def test_binary_bound_is_the_exact_antipodal_error_rate():
    c = build_constellation(2, 1.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.5)
    p = np.array([0.5, 0.5])
    d = link.composite_gain * 2.0
    exact = 0.5 * erfc(d / (2.0 * math.sqrt(2.0) * link.sigma))
    assert ser_upper_bound(c, p, link) == pytest.approx(exact, rel=1e-14)
    assert ber_upper_bound(c, p, link) == pytest.approx(exact, rel=1e-14)
    sim = simulate_error_rates(SimConfig(n_symbols=400_000, seed=3, link=link,
                                         constellation=c,
                                         distribution=Distribution(p)))
    assert abs(sim.ser - exact) <= 4.0 * sim.ser_stderr


def test_single_active_symbol_has_zero_bound():
    c = build_constellation(4, 2.0)
    link = LinkBudget(composite_gain=1.0, sigma=1.0)
    p = np.array([0.0, 1.0, 0.0, 0.0])
    assert ser_upper_bound(c, p, link) == 0.0
    assert ser_approx(c, p, link) == 0.0


def test_bound_within_ten_percent_of_simulation_at_high_amplitude():
    rng = np.random.default_rng(23)
    link = LinkBudget(composite_gain=1.0, sigma=1.0)
    c = build_constellation(4, 9.0)
    for _ in range(3):
        p = dirichlet_interior(rng, 4, floor=0.05)
        sim = simulate_error_rates(SimConfig(n_symbols=2_000_000,
                                             seed=int(rng.integers(2**31)),
                                             link=link, constellation=c,
                                             distribution=Distribution(p)))
        ub = ser_upper_bound(c, p, link)
        assert sim.ser <= ub + 4.0 * sim.ser_stderr
        assert ub <= 1.1 * max(sim.ser, 1e-12) + 4.0 * sim.ser_stderr


def test_ber_monotone_decreasing_in_peak_amplitude():
    link = LinkBudget(composite_gain=1.0, sigma=1.0)
    p = np.ones(8) / 8
    vals = [ber_upper_bound(build_constellation(8, a), p, link)
            for a in np.linspace(1.0, 12.0, 12)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_approx_equals_bound_for_binary():
    c = build_constellation(2, 1.5)
    link = LinkBudget(composite_gain=1.0, sigma=0.7)
    p = np.array([0.3, 0.7])
    assert ser_approx(c, p, link) == pytest.approx(
        ser_upper_bound(c, p, link), rel=1e-14)


def test_approx_never_exceeds_bound():
    rng = np.random.default_rng(31)
    for m in (4, 8):
        c = build_constellation(m, 3.0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(m))
            link = random_link(rng)
            assert ser_approx(c, p, link) <= ser_upper_bound(c, p, link) + 1e-12


def test_ber_scalings():
    rng = np.random.default_rng(37)
    c = build_constellation(8, 4.0)
    p = dirichlet_interior(rng, 8)
    link = random_link(rng)
    assert ber_upper_bound(c, p, link) == pytest.approx(
        ser_upper_bound(c, p, link) / 3.0, rel=1e-14)
    assert ber_approx(c, p, link) == pytest.approx(
        ser_approx(c, p, link) / 3.0, rel=1e-14)


def _fd_gradient(fun, p, h=1e-6):
    g = np.zeros_like(p)
    for i in range(p.size):
        up, dn = p.copy(), p.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (fun(up) - fun(dn)) / (2.0 * h)
    return g


@pytest.mark.parametrize("m", [4, 8])
def test_gradient_matches_finite_differences(m):
    rng = np.random.default_rng(41 + m)
    c = build_constellation(m, 3.0)
    for _ in range(20):
        link = random_link(rng)
        p = dirichlet_interior(rng, m, floor=0.02)
        analytic = grad_ber_upper(c, p, link)
        numeric = _fd_gradient(lambda q: ber_upper_bound(c, q, link), p)
        assert np.abs(analytic - numeric).max() \
            <= 1e-5 * max(np.abs(analytic).max(), 1e-12)


def test_gradient_symmetric_pairs_at_uniform():
    c = build_constellation(8, 3.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.8)
    g = grad_ber_upper(c, np.ones(8) / 8, link)
    assert np.allclose(g, g[::-1], rtol=1e-12)


def test_directional_derivative_consistency():
    rng = np.random.default_rng(43)
    c = build_constellation(8, 3.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.7)
    p = dirichlet_interior(rng, 8, floor=0.05)
    g = grad_ber_upper(c, p, link)
    h = 1e-6
    for _ in range(5):
        m, n = rng.choice(8, size=2, replace=False)
        d = np.zeros(8)
        d[m], d[n] = 1.0, -1.0
        slope = (ber_upper_bound(c, p + h * d, link)
                 - ber_upper_bound(c, p - h * d, link)) / (2.0 * h)
        assert slope == pytest.approx(float(g @ d), rel=2e-5, abs=1e-10)


def test_gradient_rejects_boundary_points():
    c = build_constellation(4, 2.0)
    link = LinkBudget(composite_gain=1.0, sigma=1.0)
    with pytest.raises(ConfigError):
        grad_ber_upper(c, np.array([0.5, 0.5, 0.0, 0.0]), link)


@pytest.mark.parametrize("kernel", [ser_upper_bound, ser_approx, ber_upper_bound, ber_approx,
                                    grad_ber_upper, grad_ber_approx, hess_ber_approx])
@pytest.mark.parametrize("size", [3, 5, 8])
def test_kernels_reject_a_vector_whose_length_is_not_m(kernel, size):
    # the pair lists index only the first M entries, so a longer vector would lose the rest
    c = build_constellation(4, 2.0)
    link = LinkBudget(composite_gain=1.0, sigma=1.0)
    with pytest.raises(ConfigError, match="length 4"):
        kernel(c, np.full(size, 1.0 / size), link)


def test_approx_gradient_matches_finite_differences():
    rng = np.random.default_rng(47)
    c = build_constellation(8, 3.0)
    cases = [(c, random_link(rng), dirichlet_interior(rng, 8, floor=0.02))
             for _ in range(10)]
    unequal = PamConstellation(order_m=4, peak_a=1.0,
                               amplitudes=np.array([-1.0, -0.6, 0.1, 1.0]),
                               gray_labels=build_constellation(4, 1.0).gray_labels)
    cases.append((unequal, LinkBudget(composite_gain=1.0, sigma=0.3),
                  np.array([0.2, 0.3, 0.35, 0.15])))
    for c, link, p in cases:
        analytic = grad_ber_approx(c, p, link)
        numeric = _fd_gradient(lambda q: ber_approx(c, q, link), p)
        assert np.abs(analytic - numeric).max() \
            <= 1e-5 * max(np.abs(analytic).max(), 1e-12)


@pytest.mark.parametrize("fun", [ber_upper_bound, ber_approx])
def test_midpoint_concavity(fun):
    rng = np.random.default_rng(53)
    for _ in range(200):
        m = int(rng.choice([4, 8]))
        c = build_constellation(m, float(rng.uniform(0.5, 8.0)))
        link = random_link(rng)
        p1 = dirichlet_interior(rng, m)
        p2 = dirichlet_interior(rng, m)
        mid = fun(c, 0.5 * (p1 + p2), link)
        assert mid >= 0.5 * fun(c, p1, link) + 0.5 * fun(c, p2, link) - 1e-12


def test_pair_hessian_closed_form():
    rng = np.random.default_rng(59)
    for _ in range(20):
        geom = PairwiseGeometry(d=float(rng.uniform(0.3, 4.0)),
                                sigma=float(rng.uniform(0.3, 2.0)))
        p_m, p_n = rng.uniform(0.1, 0.9, size=2)
        block = pair_hessian_block(p_m, p_n, geom)
        # negative semidefinite on random directions
        for _ in range(100):
            z = rng.standard_normal(2)
            assert z @ block @ z <= 1e-12
        # matches a central finite-difference Hessian
        h = 1e-5
        fd = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                pts = []
                for si in (1, -1):
                    for sj in (1, -1):
                        q = np.array([p_m, p_n], dtype=float)
                        q[i] += si * h
                        q[j] += sj * h
                        pts.append(si * sj * pair_term_value(q[0], q[1], geom))
                fd[i, j] = sum(pts) / (4.0 * h * h)
        assert np.abs(block - fd).max() <= 1e-4 * max(np.abs(block).max(), 1e-10)


@st.composite
def _interior_instances(draw):
    """M-PAM, a probability vector with every entry at least 1e-3, a link."""
    m = draw(st.sampled_from([2, 4, 8, 16]))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
    total = weights.sum()
    probs = np.full(m, 1.0 / m) if total == 0.0 else weights / total
    probs = (1.0 - m * 1e-3) * probs + 1e-3
    link = LinkBudget(composite_gain=draw(st.floats(0.1, 3.0)),
                      sigma=draw(st.floats(0.05, 2.0)))
    return build_constellation(m, 1.0), probs / probs.sum(), link


@settings(max_examples=100)
@given(_interior_instances())
# Phi's two-line form cancels to 1/111 of its terms' size here (kappa = 111)
@example((build_constellation(2, 1.0), np.array([0.001, 0.999]),
          LinkBudget(composite_gain=0.125, sigma=1.0)))
# e^(-u^2) underflows: the Hessian's entries are subnormal, 6e-318 to 1e-314
@example((build_constellation(2, 1.0), np.array([0.001, 0.999]),
          LinkBudget(composite_gain=0.12890625, sigma=1.4375)))
@example((build_constellation(2, 1.0), np.array([0.001, 0.999]),
          LinkBudget(composite_gain=0.1, sigma=1.109375)))
# low SNR: the gradient's third derivative is large against h
@example((build_constellation(16, 1.0), np.full(16, 1.0 / 16),
          LinkBudget(composite_gain=0.125, sigma=2.0)))
def test_approx_hessian_is_the_pair_block_sum_and_the_gradients_derivative(instance):
    c, p, link = instance
    m = c.order_m
    hess = hess_ber_approx(c, p, link)
    scale = np.abs(hess).max()
    # where e^(-u^2) underflows the pair weights are subnormal, rounded to the
    # least subnormal (5e-324) and not relative to their size; the Hessian
    # scales them by up to 1/p_min^2
    under = 8.0 * np.nextafter(0.0, 1.0) / p.min() ** 2
    assert np.abs(hess - hess.T).max() <= 1e-14 * scale + under
    # each unordered neighbour pair's term is half its pair_hessian_block.
    # The block takes Phi in closed form, so neither side cancels and the
    # bound holds flat, also where kappa = 1 + sigma^2 |ln(p_m/p_n)| / d^2,
    # the size of the cancelling terms of Phi's two-line form, is large
    blocks = np.zeros((m, m))
    for k in range(m - 1):
        d = link.composite_gain * (c.amplitudes[k + 1] - c.amplitudes[k])
        blocks[k:k + 2, k:k + 2] += pair_hessian_block(p[k], p[k + 1],
                                                       PairwiseGeometry(d, link.sigma))
    want = 0.5 * blocks / c.bits_per_symbol
    assert np.abs(hess - want).max() <= 1e-12 * np.abs(want).max() + under
    # fourth-order central differences of the gradient (the second-order
    # ones are off by 2.4e-5 of the scale at the low-SNR example above);
    # rounding in the gradient's O(1) entries bounds their accuracy where the
    # Hessian is tiny
    h = 1e-4 * p.min()

    def diff(e, k):
        return grad_ber_approx(c, p + k * h * e, link) - grad_ber_approx(c, p - k * h * e, link)
    fd = np.array([(8.0 * diff(e, 1) - diff(e, 2)) / (12.0 * h) for e in np.eye(m)])
    grad = grad_ber_approx(c, p, link)
    assert np.abs(hess - fd).max() <= 1e-5 * scale + 1e-10 * np.abs(grad).max() / h
    # the bound is homogeneous of degree 1, so (Euler) H p = 0
    assert np.abs(hess @ p).max() <= 1e-12 * scale + under


def test_approx_hessian_rejects_boundary_points():
    c = build_constellation(4, 1.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.5)
    with pytest.raises(ConfigError):
        hess_ber_approx(c, np.array([0.5, 0.5, 0.0, 0.0]), link)


def test_first_order_expansion_majorizes():
    rng = np.random.default_rng(61)
    c = build_constellation(8, 3.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.9)
    for _ in range(50):
        p0 = dirichlet_interior(rng, 8, floor=0.01)
        p = dirichlet_interior(rng, 8)
        tangent = ber_upper_bound(c, p0, link) \
            + grad_ber_upper(c, p0, link) @ (p - p0)
        assert ber_upper_bound(c, p, link) <= tangent + 1e-12


@st.composite
def _bound_instances(draw):
    """M-PAM with equal or unequal spacing, probabilities that may be zero."""
    m = draw(st.sampled_from([2, 4, 8, 16]))
    grid = build_constellation(m, 1.0)
    c = grid
    if draw(st.booleans()):
        gaps = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m - 1,
                                      max_size=m - 1)))
        steps = np.concatenate([[0.0], np.cumsum(gaps)])
        amps = np.clip(2.0 * steps / steps[-1] - 1.0, -1.0, 1.0)
        c = PamConstellation(order_m=m, peak_a=1.0, amplitudes=amps,
                             gray_labels=grid.gray_labels)
    probs = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                                   min_size=m, max_size=m)))
    if probs.sum() == 0.0:
        probs[draw(st.integers(0, m - 1))] = 1.0
    link = LinkBudget(composite_gain=draw(st.floats(0.1, 3.0)),
                      sigma=draw(st.floats(0.05, 2.0)))
    return c, probs / probs.sum(), link


def _scalar_pair_sum(c, p, link, adjacent):
    """sum_m p_m sum_n P_{m,n} from the scalar closed form, one pair at a time."""
    a = c.amplitudes
    return sum(p[m] * pairwise_error_prob(
                   p[m], p[n], PairwiseGeometry(link.composite_gain * (a[m] - a[n]),
                                                link.sigma))
               for m in range(c.order_m) for n in range(c.order_m)
               if n != m and (abs(m - n) == 1 or not adjacent))


@settings(max_examples=200)
@given(_bound_instances())
def test_bounds_equal_the_scalar_pairwise_sums(instance):
    c, p, link = instance
    # abs: an erfc tail below the normal range (1e-300) has no relative precision
    assert ser_upper_bound(c, p, link) == pytest.approx(
        _scalar_pair_sum(c, p, link, adjacent=False), rel=1e-12, abs=1e-300)
    assert ser_approx(c, p, link) == pytest.approx(
        _scalar_pair_sum(c, p, link, adjacent=True), rel=1e-12, abs=1e-300)


@settings(max_examples=200)
@given(_bound_instances())
def test_bounds_equal_their_euler_sums(instance):
    """Both bounds are homogeneous of degree 1 in p, so each equals q @ grad."""
    c, p, link = instance
    q = np.maximum(p, ACTIVE_SUPPORT_FLOOR)
    for value, grad in ((ber_upper_bound, grad_ber_upper), (ber_approx, grad_ber_approx)):
        assert float(q @ grad(c, q, link)) == pytest.approx(
            value(c, q, link), rel=1e-12, abs=1e-300)
