"""Mixture entropy, capacities, secrecy objectives, and their Monte-Carlo oracles."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from pcs_shaper import capacity, montecarlo
from pcs_shaper.capacity import (
    _ENTROPY_BLOCK,
    _REACH_X,
    EntropyGrid,
    MixtureModel,
    _HomeKernel,
    _entropy_panels,
    _log2_pdf,
    _standardized,
    channel_capacity,
    entropy_mc,
    mixture_entropy,
    secrecy_capacity,
    secrecy_lb_estimate,
)
from pcs_shaper.channel import LinkBudget
from pcs_shaper.constellation import build_constellation
from pcs_shaper.exceptions import ConfigError, DegradedRegimeError, NonConvergenceError
from pcs_shaper.montecarlo import _chunk_rng

from conftest import dirichlet_interior, links_at_dbm
from oracles import avg_secrecy_capacity_mc, sample_eve_positions

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


@settings(max_examples=100)
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


def _row_log2_pdf(u, mu, w):
    """``_log2_pdf`` laid out samples-major (N x M), reduced along the last axis."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    z = -0.5 * (u[:, None] - mu[None, :]) ** 2 + np.log(w)[None, :]
    zmax = z.max(axis=1)
    lse = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    return (lse - 0.5 * math.log(2.0 * math.pi)) * capacity.LOG2E


@st.composite
def _standardized_mixtures(draw):
    """(samples, means, weights): weights down to 1e-300, means up to 1e6 apart."""
    m = draw(st.integers(1, 16))
    scale = draw(st.sampled_from([1.0, 30.0, 1e6]))
    mu = scale * np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m)))
    w = 10.0 ** -np.array(draw(st.lists(st.floats(0.0, 300.0), min_size=m, max_size=m)))
    w /= w.sum()
    near = mu[draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=40))]
    offsets = draw(st.lists(st.floats(-40.0, 40.0), min_size=near.size,
                            max_size=near.size))
    far = np.array(draw(st.lists(st.floats(-1e7, 1e7), max_size=10)))
    return np.concatenate([near + np.array(offsets), far]), mu, w


@settings(max_examples=200)
@given(_standardized_mixtures())
@example((np.array([0.0, 5.0, -1e7]), np.array([0.0]), np.array([1.0])))
@example((np.array([0.0, 5e5, 1e6, 2e6]), np.array([0.0, 1e6]), np.array([1.0, 1e-300])))
def test_log2_pdf_matches_row_layout(case):
    u, mu, w = case
    got = _log2_pdf(u, mu, w)
    want = _row_log2_pdf(u, mu, w)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


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


def test_entropy_mc_blocking_is_bit_identical_to_unblocked_evaluation(monkeypatch):
    mm = MixtureModel(means=np.array([-1.0, -0.2, 0.0, 0.7, 1.5]), sigma=0.4,
                      weights=np.array([0.3, 0.1, 0.0, 0.25, 0.35]))
    chunk = 3 * _ENTROPY_BLOCK + 11                 # several blocks, the last partial
    n_samples = 2 * chunk + 5                       # three chunks, the last partial
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    mu, w = _standardized(mm)
    kernel = _HomeKernel(mu, w)
    total = total_sq = 0.0
    for chunk_index, lo in enumerate(range(0, n_samples, chunk)):
        rng = _chunk_rng(19, chunk_index)
        n = min(chunk, n_samples - lo)
        counts = rng.multinomial(n, w / w.sum())
        x = rng.standard_normal(n)
        h = np.empty(n)
        ends = np.cumsum(counts)
        for k, (start, end) in enumerate(zip(ends - counts, ends)):
            if end > start:                         # each component's samples at once
                kernel(k, x[start:end], h[start:end])
            # summed over the blocks _draws yields: the run cut into pieces
            for lo_b in range(start, end, _ENTROPY_BLOCK):
                block = h[lo_b:min(lo_b + _ENTROPY_BLOCK, end)]
                total += block.sum()
                total_sq += (block * block).sum()
    mean = total / n_samples
    want = (mean + math.log2(mm.sigma),
            math.sqrt(max(total_sq / n_samples - mean**2, 0.0) / n_samples))
    assert entropy_mc(mm, n_samples, seed=19) == want


@pytest.mark.parametrize("m", [8, 16])
def test_entropy_mc_memory_is_block_sized_whatever_the_sample_count(m):
    # every component within reach of every other: the largest temporaries.
    # A 1M-sample chunk of float64 is 8 MB, a block of the reach 1 MB at M=16.
    mm = MixtureModel(means=np.linspace(-1.0, 1.0, m), sigma=0.3,
                      weights=np.random.default_rng(m).dirichlet(np.ones(m)))
    entropy_mc(mm, 1000)                            # first-call allocations
    peaks = []
    for n_samples in (1_000_000, 3_000_000):
        tracemalloc.start()
        try:
            entropy_mc(mm, n_samples, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 2_000_000
    assert peaks[1] - peaks[0] < 64 * 1024          # no array grows with the chunks


def test_home_kernel_values_do_not_depend_on_the_blocking():
    # Eleven neighbours one sigma apart sum more than eight rows, where a
    # one-sample column sum would round in another order.  Component 3 weighs
    # 1e-200 beside heavy neighbours, so all of its samples take the guard;
    # about 1 % of the samples lie beyond the kernel's reach.
    w = np.ones(13)
    w[3] = 1e-200
    mu = np.append(np.linspace(-5.5, 5.5, 12), 40.0)
    kernel = _HomeKernel(mu, w / w.sum())
    x = 3.0 * np.random.default_rng(5).standard_normal(3000)
    assert np.count_nonzero(np.abs(x) > _REACH_X) > 0
    cuts = [*range(60), 61, 64, 1000, 2999, 3000]   # many one-sample blocks
    for k in range(mu.size):
        whole, pieces = np.empty_like(x), np.empty_like(x)
        kernel(k, x, whole)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            kernel(k, x[lo:hi], pieces[lo:hi])
        assert np.array_equal(whole, pieces)


def _long_double_neg_log2_pdf(k, x, mu, w):
    """``-log2 f(mu_k + x)`` by a log-sum-exp in ``np.longdouble``."""
    ld = np.longdouble
    a = (mu - mu[k]).astype(ld)
    z = -0.5 * (x.astype(ld)[None, :] - a[:, None]) ** 2 + np.log(w.astype(ld))[:, None]
    zmax = z.max(axis=0)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=0))
    return (0.5 * np.log(2 * np.pi * ld(1)) - lse) / np.log(ld(2))


@st.composite
def _home_samples(draw):
    """(k, x, means, weights): gaps from 0 to 60 sigma, weights down to 1e-300,
    samples of component k inside and beyond the kernel's reach."""
    m = draw(st.integers(1, 16))
    spread = draw(st.sampled_from([0.5, 3.0, 10.0, 60.0]))
    mu = spread * np.cumsum(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
    w = 10.0 ** -np.array(draw(st.lists(st.floats(0.0, 300.0), min_size=m, max_size=m)))
    w /= w.sum()
    near = draw(st.lists(st.floats(-_REACH_X - 2.0, _REACH_X + 2.0), min_size=1,
                         max_size=40))
    far = draw(st.lists(st.floats(-1e3, 1e3), max_size=3))
    return draw(st.integers(0, m - 1)), np.array(near + far), mu, w


@settings(max_examples=300)
@given(_home_samples())
@example((0, np.array([0.5, 9.0, -20.0, 1e3]), np.array([0.0, 3.0]),
          np.array([0.5, 0.5])))                            # samples beyond the reach
@example((0, np.array([0.0, 4.0, 8.0, 8.5]), np.array([0.0, 8.0]),
          np.array([1e-300, 1.0])))                         # light home, heavy neighbour
@example((0, np.array([0.0, 1.5, -8.0, 12.0]), np.array([2.0]),
          np.array([1.0])))                                 # one component, empty reach
def test_home_kernel_matches_long_double_log_sum_exp(case):
    k, x, mu, w = case
    got = np.empty_like(x)
    _HomeKernel(mu, w)(k, x, got)
    want = _long_double_neg_log2_pdf(k, x, mu, w)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("bad", [dict(seed=1.5), dict(seed=True), dict(n_samples=1000.5),
                                 dict(n_samples=True)])
def test_entropy_mc_rejects_non_integer_seeds_and_counts(bad):
    mm = MixtureModel(means=np.array([0.0, 1.0]), sigma=0.5, weights=np.array([0.5, 0.5]))
    with pytest.raises(ConfigError, match="integer"):
        entropy_mc(mm, **{"n_samples": 1000, **bad})
    # numpy integers are integers
    assert entropy_mc(mm, np.int64(1000), seed=np.int64(1)) == entropy_mc(mm, 1000, seed=1)


@pytest.mark.parametrize("build", [
    lambda means, sigma: MixtureModel(means, sigma, np.full(len(means), 1.0 / len(means))),
    EntropyGrid,
], ids=["mixture", "grid"])
@pytest.mark.parametrize("means, sigma, match", [
    ([0.0, 1.0], math.inf, "sigma"),
    ([0.0, math.nan], 0.5, "finite"),
    ([math.inf, 1.0], 0.5, "finite"),
    ([0.0, -math.inf], 0.5, "finite"),
], ids=["sigma-inf", "mean-nan", "mean-inf", "mean-minus-inf"])
def test_entropy_inputs_must_be_finite(build, means, sigma, match):
    # an infinite sigma gave an infinite entropy; a non-finite mean failed
    # inside the panel layout with a ValueError
    with pytest.raises(ConfigError, match=match):
        build(np.array(means), sigma)


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


@st.composite
def _spread_means(draw):
    m = draw(st.integers(1, 16))
    span = draw(st.floats(0.0, 200.0))
    return draw(st.floats(-1e3, 1e3)) + span * np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))


@settings(max_examples=300)
@given(_spread_means())
def test_entropy_panels_tile_the_windows_and_skip_the_gaps(mu):
    centres, halves = _entropy_panels(mu)
    order = np.argsort(centres)
    lo, hi = (centres - halves)[order], (centres + halves)[order]
    tol = 1e-9
    assert np.all(hi - lo <= 1.0 + tol)
    assert np.all(hi[:-1] <= lo[1:] + tol)                  # no overlap
    for m in mu:                                            # each window is covered
        hit = (hi > m - 10.0) & (lo < m + 10.0)
        assert lo[hit][0] <= m - 10.0 + tol and hi[hit][-1] >= m + 10.0 - tol
        assert np.all(lo[hit][1:] <= hi[hit][:-1] + tol)
    assert np.abs(centres[:, None] - mu[None, :]).min(axis=1).max() <= 10.5
    clusters = 1 + np.count_nonzero(np.diff(np.sort(mu)) > 20.0)
    assert centres.size <= math.ceil(mu.max() - mu.min() + 20.0) + clusters - 1


def test_grid_skips_the_gaps_between_far_apart_windows(receiver, noise_params):
    # M=8 at 35 dBm: neighbouring means about 34 sigma apart
    led, bob, *_ = links_at_dbm(35.0, receiver, noise_params)
    c = build_constellation(8, led.peak_amplitude)
    means = bob.composite_gain * c.amplitudes
    grid = EntropyGrid(means, bob.sigma)
    assert grid._y.size <= 2560
    w = np.full(8, 1.0 / 8)
    assert grid.entropy(w) == pytest.approx(
        mixture_entropy(MixtureModel(means=means, sigma=bob.sigma, weights=w)), abs=1e-9)


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


@st.composite
def _stack_instances(draw):
    """(M, power in dBm, p): the paper links, p with zero entries."""
    m = draw(st.sampled_from([2, 4, 8, 16]))
    power = draw(st.floats(18.0, 36.0))
    w = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                               min_size=m, max_size=m)))
    if not w.any():
        w[draw(st.integers(0, m - 1))] = 1.0
    return m, power, w / w.sum()


@settings(max_examples=60)
@given(case=_stack_instances())
@example(case=(2, 30.0, np.array([1.0, 0.0])))   # Bob's f is 0 at far nodes, Eve's is not
def test_stacked_grid_has_the_bits_of_two_grids(case, receiver, noise_params):
    m, power, p = case
    led, bob, eve, _, _ = links_at_dbm(power, receiver, noise_params)
    a = build_constellation(m, led.peak_amplitude).amplitudes
    gb = EntropyGrid(bob.composite_gain * a, bob.sigma)
    ge = EntropyGrid(eve.composite_gain * a, eve.sigma)
    hb, grad_b = gb.entropy_and_gradient(p)
    he, grad_e = ge.entropy_and_gradient(p)
    h, grad = gb.minus(ge).entropy_and_gradient(p)
    assert h == hb - he
    assert grad.tolist() == (grad_b - grad_e).tolist()


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
    mean, se = avg_secrecy_capacity_mc(p, bob, [eve] * 4, c)
    assert se == 0.0
    assert mean == pytest.approx(secrecy_capacity(p, bob, eve, c), abs=1e-9)
    with pytest.raises(ConfigError):
        avg_secrecy_capacity_mc(p, bob, [], c)
    with pytest.raises(ConfigError):       # one link cannot estimate a spread
        avg_secrecy_capacity_mc(p, bob, [eve], c)


def test_avg_secrecy_dominates_bound_under_shared_positions(receiver, noise_params):
    led, bob, _, _, power = links_at_dbm(27.0, receiver, noise_params)
    c = build_constellation(8, led.peak_amplitude)
    p = np.ones(8) / 8
    links = list(map(LinkBudget, *sample_eve_positions(64, led, receiver, noise_params,
                                                       power, seed=9)))
    mean, se = avg_secrecy_capacity_mc(p, bob, links, c)
    cap_b = channel_capacity(MixtureModel.from_link(c, p, bob))
    # per-position Gaussian cap on the eavesdropper mutual information
    lb_vals = [cap_b - 0.5 * math.log2(
        1.0 + (lk.composite_gain * c.peak_a / lk.sigma) ** 2) for lk in links]
    assert mean >= np.mean(lb_vals) - 1e-9


def test_avg_secrecy_stderr_scaling(receiver, noise_params):
    led, bob, _, _, power = links_at_dbm(27.0, receiver, noise_params)
    c = build_constellation(4, led.peak_amplitude)
    p = np.ones(4) / 4
    links = list(map(LinkBudget, *sample_eve_positions(1024, led, receiver, noise_params,
                                                       power, seed=4)))
    _, se_small = avg_secrecy_capacity_mc(p, bob, links[:64], c)
    _, se_large = avg_secrecy_capacity_mc(p, bob, links, c)
    assert se_large < se_small
    assert se_large == pytest.approx(se_small / 4.0, rel=0.6)
