"""Mixture entropy, capacities, secrecy objectives, and their Monte-Carlo oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from pcs_shaper import capacity
from pcs_shaper.capacity import (
    _ENTROPY_BLOCK,
    EntropyGrid,
    MixtureModel,
    _log2_pdf,
    _standardized,
    avg_secrecy_capacity_mc,
    channel_capacity,
    entropy_mc,
    mixture_entropy,
    secrecy_capacity,
    secrecy_lb_estimate,
)
from pcs_shaper.channel import LinkBudget
from pcs_shaper.constellation import build_constellation
from pcs_shaper.exceptions import ConfigError, DegradedRegimeError, NonConvergenceError

from conftest import dirichlet_interior, links_at_dbm

# frozen after the first quadrature evaluation; cross-checked below by sampling
CS_UNIFORM_8PAM_30DBM_GOLDEN = 1.6354734688730665


def gaussian_entropy_bits(sigma: float) -> float:
    return 0.5 * math.log2(2.0 * math.pi * math.e * sigma**2)


def test_single_component_is_pure_gaussian():
    mm = MixtureModel(means=np.array([0.3, 1.0]), sigma=0.05,
                      weights=np.array([0.0, 1.0]))
    assert mixture_entropy(mm) == pytest.approx(gaussian_entropy_bits(0.05), abs=1e-9)


def test_two_far_components_add_one_bit():
    mm = MixtureModel(means=np.array([-1.0, 1.0]), sigma=0.01,
                      weights=np.array([0.5, 0.5]))
    want = gaussian_entropy_bits(0.01) + 1.0
    assert mixture_entropy(mm) == pytest.approx(want, abs=1e-6)


def quad_mixture_entropy(mm: MixtureModel) -> float:
    """Reference: scipy's adaptive quadrature over [min mu - 10, max mu + 10]."""
    mu, w = _standardized(mm)

    def integrand(u):
        lg = _log2_pdf(u, mu, w)[0]
        return -(2.0 ** lg) * lg

    points = [float(x) for x in np.unique(mu)] if mu.size <= 50 else None
    val, err = quad(integrand, mu.min() - 10.0, mu.max() + 10.0, points=points,
                    limit=max(200, 4 * mu.size), epsabs=1e-10, epsrel=1e-11)
    assert err <= 1e-9
    return val + math.log2(mm.sigma)


@st.composite
def _mixtures(draw):
    m = draw(st.integers(1, 16))
    sigma = 10.0 ** draw(st.floats(-7.0, 1.0))
    span = draw(st.floats(0.0, 300.0))
    mu = draw(st.floats(-1e3, 1e3)) + span * np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
    copies = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    for i in range(1, m):
        if copies[i]:
            mu[i] = mu[i - 1]                       # duplicated mean
    weights = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                                     min_size=m, max_size=m)))
    if weights.sum() == 0.0:
        weights[draw(st.integers(0, m - 1))] = 1.0
    return MixtureModel(means=mu * sigma, sigma=sigma, weights=weights / weights.sum())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_mixtures())
def test_entropy_matches_scipy_quadrature(mm):
    assert mixture_entropy(mm) == pytest.approx(quad_mixture_entropy(mm), abs=1e-9)


def test_components_a_million_sigma_apart_add_one_bit(monkeypatch):
    sizes = []

    def recording(u, mu, w):
        sizes.append(np.size(u))
        return _log2_pdf(u, mu, w)

    monkeypatch.setattr(capacity, "_log2_pdf", recording)
    mm = MixtureModel(means=np.array([0.0, 1e6 * 0.3]), sigma=0.3,
                      weights=np.array([0.5, 0.5]))
    assert mixture_entropy(mm) == pytest.approx(gaussian_entropy_bits(0.3) + 1.0, abs=1e-9)
    assert max(sizes) < 10_000                      # the 1e6-sigma gap gets no panels


def test_entropy_quadrature_raises_when_the_budget_is_unreachable(monkeypatch):
    monkeypatch.setattr(capacity, "_QUAD_ABS_TOL", 0.0)
    mm = MixtureModel(means=np.array([-0.4, 0.5]), sigma=0.2,
                      weights=np.array([0.3, 0.7]))
    with pytest.raises(NonConvergenceError):
        mixture_entropy(mm)


def test_entropy_matches_sampling_oracle_on_random_mixtures():
    rng = np.random.default_rng(67)
    for i in range(20):
        m = int(rng.choice([2, 4, 8]))
        sigma = float(rng.uniform(0.05, 2.0))
        means = np.sort(rng.uniform(-4.0, 4.0, size=m))
        w = rng.dirichlet(np.ones(m))
        mm = MixtureModel(means=means, sigma=sigma, weights=w)
        h_quad = mixture_entropy(mm)
        h_mc, se = entropy_mc(mm, 10_000_000, seed=1000 + i)
        assert abs(h_quad - h_mc) <= 3.0 * se


def test_entropy_mc_blocking_is_bit_identical_to_unblocked_evaluation():
    mm = MixtureModel(means=np.array([-1.0, -0.2, 0.0, 0.7, 1.5]), sigma=0.4,
                      weights=np.array([0.3, 0.1, 0.0, 0.25, 0.35]))
    chunk = 3 * _ENTROPY_BLOCK + 11                 # several blocks, the last partial
    n_samples = 2 * chunk + 5                       # three chunks, the last partial
    mu, w = _standardized(mm)
    rng = np.random.default_rng(19)
    total = total_sq = 0.0
    for lo in range(0, n_samples, chunk):
        n = min(chunk, n_samples - lo)
        u = mu[rng.choice(mu.size, size=n, p=w)] + rng.standard_normal(n)
        h = -_log2_pdf(u, mu, w)
        total += h.sum()
        total_sq += (h * h).sum()
    mean = total / n_samples
    want = (mean + math.log2(mm.sigma),
            math.sqrt(max(total_sq / n_samples - mean**2, 0.0) / n_samples))
    assert entropy_mc(mm, n_samples, seed=19, chunk=chunk) == want


def test_grid_agrees_with_adaptive_quadrature():
    rng = np.random.default_rng(71)
    for _ in range(20):
        m = int(rng.choice([4, 8]))
        sigma = float(rng.uniform(1e-7, 2.0))
        means = np.sort(rng.uniform(-3.0, 3.0, size=m)) * sigma * rng.uniform(1, 40)
        w = rng.dirichlet(np.ones(m))
        mm = MixtureModel(means=means, sigma=sigma, weights=w)
        grid = EntropyGrid(means, sigma)
        assert grid.entropy(w) == pytest.approx(mixture_entropy(mm), abs=1e-9)


def test_grid_gradient_matches_finite_differences():
    rng = np.random.default_rng(73)
    means = np.array([-1.0, -0.2, 0.4, 1.3])
    grid = EntropyGrid(means, 0.3)
    p = dirichlet_interior(rng, 4, floor=0.05)
    _, g = grid.entropy_and_gradient(p)
    h = 1e-6
    for i in range(4):
        up, dn = p.copy(), p.copy()
        up[i] += h
        dn[i] -= h
        num = (grid.entropy(up) - grid.entropy(dn)) / (2 * h)
        assert g[i] == pytest.approx(num, rel=1e-5, abs=1e-8)


def test_capacity_zero_for_single_symbol(receiver, noise_params):
    _, bob, _, _, _ = links_at_dbm(30.0, receiver, noise_params)
    c = build_constellation(8, 2.0)
    w = np.zeros(8)
    w[2] = 1.0
    mm = MixtureModel.from_link(c, w, bob)
    assert channel_capacity(mm) == pytest.approx(0.0, abs=1e-9)


def test_capacity_saturates_at_log2_m_when_noiseless():
    c = build_constellation(8, 1.0)
    link = LinkBudget(composite_gain=1.0, sigma=1e-4)
    mm = MixtureModel.from_link(c, np.ones(8) / 8, link)
    assert channel_capacity(mm) == pytest.approx(3.0, abs=1e-6)


def test_capacity_bounds_hold_on_random_inputs(receiver, noise_params):
    rng = np.random.default_rng(79)
    _, bob, _, _, _ = links_at_dbm(26.0, receiver, noise_params)
    c = build_constellation(8, 0.9)
    for _ in range(10):
        w = rng.dirichlet(np.ones(8))
        cap = channel_capacity(MixtureModel.from_link(c, w, bob))
        assert -1e-9 <= cap <= 3.0 + 1e-9


def test_secrecy_zero_when_links_identical(receiver, noise_params):
    _, bob, _, _, _ = links_at_dbm(28.0, receiver, noise_params)
    c = build_constellation(8, 1.44)
    p = np.ones(8) / 8
    assert secrecy_capacity(p, bob, bob, c) == pytest.approx(0.0, abs=1e-9)


def test_secrecy_zero_for_single_active_symbol(receiver, noise_params):
    _, bob, eve, _, _ = links_at_dbm(28.0, receiver, noise_params)
    c = build_constellation(8, 1.44)
    w = np.zeros(8)
    w[5] = 1.0
    assert secrecy_capacity(w, bob, eve, c) == pytest.approx(0.0, abs=1e-9)


def test_secrecy_uniform_golden_and_sampling_cross_check(receiver, noise_params):
    led, bob, eve, _, _ = links_at_dbm(30.0, receiver, noise_params, ratio=10.0)
    c = build_constellation(8, led.peak_amplitude)
    p = np.ones(8) / 8
    cs = secrecy_capacity(p, bob, eve, c)
    assert cs == pytest.approx(CS_UNIFORM_8PAM_30DBM_GOLDEN, abs=1e-9)
    # independent route: sampled entropies on both links
    hb, se_b = entropy_mc(MixtureModel.from_link(c, p, bob), 4_000_000, seed=5)
    he, se_e = entropy_mc(MixtureModel.from_link(c, p, eve), 4_000_000, seed=6)
    cs_mc = hb - he + math.log2(eve.sigma / bob.sigma)
    assert abs(cs - cs_mc) <= 3.0 * math.hypot(se_b, se_e)


def test_secrecy_rejects_reversed_degradedness(receiver, noise_params):
    _, bob, eve, _, _ = links_at_dbm(30.0, receiver, noise_params)
    c = build_constellation(8, 1.0)
    with pytest.raises(DegradedRegimeError):
        secrecy_capacity(np.ones(8) / 8, eve, bob, c)


def test_output_entropy_midpoint_concavity(receiver, noise_params):
    rng = np.random.default_rng(83)
    _, bob, _, _, _ = links_at_dbm(25.0, receiver, noise_params)
    c = build_constellation(8, 0.72)
    grid = EntropyGrid(bob.composite_gain * c.amplitudes, bob.sigma)
    for _ in range(500):
        p1 = rng.dirichlet(np.ones(8))
        p2 = rng.dirichlet(np.ones(8))
        mid = grid.entropy(0.5 * (p1 + p2))
        assert mid >= 0.5 * grid.entropy(p1) + 0.5 * grid.entropy(p2) - 1e-12


def test_secrecy_capacity_midpoint_concavity(receiver, noise_params):
    rng = np.random.default_rng(89)
    led, bob, eve, _, _ = links_at_dbm(27.0, receiver, noise_params, ratio=10.0)
    c = build_constellation(8, led.peak_amplitude)
    gb = EntropyGrid(bob.composite_gain * c.amplitudes, bob.sigma)
    ge = EntropyGrid(eve.composite_gain * c.amplitudes, eve.sigma)

    def cs(p):
        return gb.entropy(p) - ge.entropy(p) + math.log2(eve.sigma / bob.sigma)

    for _ in range(500):
        p1 = rng.dirichlet(np.ones(8))
        p2 = rng.dirichlet(np.ones(8))
        assert cs(0.5 * (p1 + p2)) >= 0.5 * cs(p1) + 0.5 * cs(p2) - 1e-12


def test_lb_estimate_symmetric_distribution(receiver, noise_params):
    led, bob, _, eve_avg, _ = links_at_dbm(28.0, receiver, noise_params)
    c = build_constellation(8, led.peak_amplitude)
    p = np.ones(8) / 8
    got = secrecy_lb_estimate(p, bob, eve_avg, c)
    cap_b = channel_capacity(MixtureModel.from_link(c, p, bob))
    eve_term = 0.5 * math.log2(
        1.0 + (eve_avg.composite_gain * c.peak_a / eve_avg.sigma) ** 2)
    assert got == pytest.approx(cap_b - eve_term, abs=1e-9)


def test_lb_estimate_at_full_t_is_bob_capacity(receiver, noise_params):
    led, bob, _, eve_avg, _ = links_at_dbm(28.0, receiver, noise_params)
    c = build_constellation(8, led.peak_amplitude)
    p = np.ones(8) / 8
    got = secrecy_lb_estimate(p, bob, eve_avg, c, t=c.peak_a**2)
    assert got == pytest.approx(
        channel_capacity(MixtureModel.from_link(c, p, bob)), abs=1e-9)


def test_lb_estimate_rejects_oversized_t(receiver, noise_params):
    led, bob, _, eve_avg, _ = links_at_dbm(28.0, receiver, noise_params)
    c = build_constellation(8, led.peak_amplitude)
    with pytest.raises(ConfigError):
        secrecy_lb_estimate(np.ones(8) / 8, bob, eve_avg, c, t=2 * c.peak_a**2)


def test_lb_estimate_is_a_lower_bound(receiver, noise_params):
    rng = np.random.default_rng(97)
    led, bob, _, eve_avg, _ = links_at_dbm(27.0, receiver, noise_params)
    c = build_constellation(8, led.peak_amplitude)
    for _ in range(20):
        p = rng.dirichlet(np.ones(8))
        lb = secrecy_lb_estimate(p, bob, eve_avg, c)
        exact = secrecy_capacity(p, bob, eve_avg, c)
        assert lb <= exact + 1e-9


def test_bhatia_davis_variance_bound():
    rng = np.random.default_rng(101)
    c = build_constellation(8, 2.2)
    a = c.amplitudes
    for _ in range(1000):
        p = rng.dirichlet(np.ones(8))
        gain = float(rng.uniform(0.1, 5.0))
        var = gain**2 * (p @ a**2 - (p @ a) ** 2)
        bound = gain**2 * (c.peak_a**2 - (p @ a) ** 2)
        assert var <= bound + 1e-12


def test_avg_secrecy_degenerate_sampler(receiver, noise_params):
    led, bob, eve, _, _ = links_at_dbm(30.0, receiver, noise_params, ratio=10.0)
    c = build_constellation(8, led.peak_amplitude)
    p = np.ones(8) / 8
    mean, se = avg_secrecy_capacity_mc(p, bob, lambda n: [eve] * n, c, 4)
    assert se == 0.0
    assert mean == pytest.approx(secrecy_capacity(p, bob, eve, c), abs=1e-9)


def test_avg_secrecy_dominates_bound_under_shared_positions(receiver, noise_params):
    from pcs_shaper.montecarlo import sample_eve_positions
    led, bob, _, _, power = links_at_dbm(27.0, receiver, noise_params)
    c = build_constellation(8, led.peak_amplitude)
    p = np.ones(8) / 8
    links = sample_eve_positions(64, "radial_uniform", led, receiver,
                                 noise_params, power, seed=9)
    mean, se = avg_secrecy_capacity_mc(p, bob, lambda n: links[:n], c, 64)
    cap_b = channel_capacity(MixtureModel.from_link(c, p, bob))
    # per-position Gaussian cap on the eavesdropper mutual information
    lb_vals = [cap_b - 0.5 * math.log2(
        1.0 + (lk.composite_gain * c.peak_a / lk.sigma) ** 2) for lk in links]
    assert mean >= np.mean(lb_vals) - 1e-9


def test_avg_secrecy_stderr_scaling(receiver, noise_params):
    from pcs_shaper.montecarlo import sample_eve_positions
    led, bob, _, _, power = links_at_dbm(27.0, receiver, noise_params)
    c = build_constellation(4, led.peak_amplitude)
    p = np.ones(4) / 4
    links = sample_eve_positions(1024, "radial_uniform", led, receiver,
                                 noise_params, power, seed=4)
    _, se_small = avg_secrecy_capacity_mc(p, bob, lambda n: links[:n], c, 64)
    _, se_large = avg_secrecy_capacity_mc(p, bob, lambda n: links[:n], c, 1024)
    assert se_large < se_small
    assert se_large == pytest.approx(se_small / 4.0, rel=0.6)
