"""MAP-detector simulation, position sampling, reproducibility."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfc

from pcs_shaper.channel import LinkBudget, LinkGeometry, channel_gain, \
    link_budget_from_geometry
from pcs_shaper.constellation import Distribution, build_constellation
from pcs_shaper.error_rate import PairwiseGeometry, pairwise_error_prob, \
    ser_approx, ser_upper_bound
from pcs_shaper.exceptions import ConfigError
from pcs_shaper.montecarlo import (
    _BLOCK,
    _CHUNK,
    SimConfig,
    _chunk_rng,
    _decision_intervals,
    map_detect,
    pairwise_error_mc,
    sample_eve_positions,
    simulate_error_rates,
)

from conftest import dirichlet_interior, led_at_dbm


def test_map_detect_uniform_reduces_to_nearest_neighbor():
    c = build_constellation(8, 1.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.1)
    rng = np.random.default_rng(5)
    y = rng.uniform(-1.3, 1.3, size=2000)
    got = map_detect(y, c, np.ones(8) / 8, link)
    nearest = np.argmin(np.abs(y[:, None] - c.amplitudes[None, :]), axis=1)
    assert np.array_equal(got, nearest)


def test_map_detect_degenerate_prior_always_wins():
    c = build_constellation(4, 1.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.3)
    p = np.array([0.0, 0.0, 1.0, 0.0])
    y = np.linspace(-2.0, 2.0, 101)
    assert np.all(map_detect(y, c, p, link) == 2)


def test_map_decisions_satisfy_the_posterior_inequality():
    rng = np.random.default_rng(7)
    c = build_constellation(8, 2.0)
    link = LinkBudget(composite_gain=0.8, sigma=0.5)
    p = dirichlet_interior(rng, 8, floor=0.01)
    means = link.composite_gain * c.amplitudes
    y = rng.uniform(means.min() - 1.0, means.max() + 1.0, size=500)
    picks = map_detect(y, c, p, link)
    metric = np.log(p)[None, :] - (y[:, None] - means[None, :]) ** 2 \
        / (2.0 * link.sigma**2)
    for i, m in enumerate(picks):
        assert np.all(metric[i, m] >= metric[i] - 1e-12)


def _argmax_metrics(y, means, probs, sigma):
    """Brute-force MAP metrics ln p_m - (y - r_m)^2 / (2 sigma^2), one row per sample."""
    with np.errstate(divide="ignore"):
        logp = np.where(probs > 0, np.log(np.maximum(probs, 1e-320)), -np.inf)
    return logp[None, :] - (y[:, None] - means[None, :]) ** 2 / (2.0 * sigma**2)


@st.composite
def _detection_instances(draw):
    m = draw(st.sampled_from([2, 4, 8, 16]))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                            min_size=m, max_size=m))
    probs = np.array(weights)
    if probs.sum() == 0.0:
        probs[draw(st.integers(0, m - 1))] = 1.0
    gain = draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
    sigma = draw(st.floats(1e-3, 10.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return m, probs / probs.sum(), gain, sigma, seed


@settings(max_examples=200)
@given(_detection_instances())
def test_map_detect_matches_brute_force_argmax(instance):
    m, probs, gain, sigma, seed = instance
    c = build_constellation(m, 1.0)
    link = LinkBudget(composite_gain=gain, sigma=sigma)
    means = gain * c.amplitudes
    _, cuts = _decision_intervals(means, probs, sigma)
    span = gain + sigma
    rng = np.random.default_rng(seed)
    y = np.concatenate([
        rng.uniform(-3.0 * span, 3.0 * span, size=400),
        cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf),
        means, [-1e6 * span, -1e3 * span, 1e3 * span, 1e6 * span]])
    metric = _argmax_metrics(y, means, probs, sigma)
    want = np.argmax(metric, axis=1)
    got = map_detect(y, c, probs, link)
    second, first = np.sort(metric, axis=1)[:, -2:].T
    with np.errstate(invalid="ignore"):
        clear = (second == -np.inf) | (
            first - second > 1e-12 * np.maximum(np.abs(first), np.abs(second)))
    assert np.array_equal(got[clear], want[clear])
    assert probs[got].min() > 0
    scalar = map_detect(float(y[0]), c, probs, link)
    assert type(scalar) is int and scalar == got[0]


def test_map_detect_zero_gain_picks_most_probable_lowest_index():
    c = build_constellation(4, 1.0)
    link = LinkBudget(composite_gain=0.0, sigma=0.5)
    y = np.linspace(-3.0, 3.0, 61)
    assert np.all(map_detect(y, c, np.array([0.1, 0.4, 0.1, 0.4]), link) == 1)
    assert np.all(map_detect(y, c, np.array([0.0, 0.2, 0.8, 0.0]), link) == 2)


def test_map_detect_exact_tie_goes_to_lower_index():
    c = build_constellation(2, 1.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.5)
    # equal priors, means -1 and 1: y = 0 ties, and argmax takes index 0
    assert map_detect(0.0, c, np.array([0.5, 0.5]), link) == 0
    assert map_detect(np.nextafter(0.0, 1.0), c, np.array([0.5, 0.5]), link) == 1


def _symbol_major_draw(cfg, rng, n):
    """Sent symbols and receive samples of one chunk, whole: the multinomial
    counts over the support, then every symbol's noise in support order."""
    probs = cfg.distribution.probs
    means = cfg.link.composite_gain * cfg.constellation.amplitudes
    support = np.flatnonzero(probs)
    counts = rng.multinomial(n, probs[support] / probs[support].sum())
    sent = np.repeat(support, counts)
    return sent, means[sent] + cfg.link.sigma * rng.standard_normal(n)


def _reference_confusion(cfg):
    """Confusion counts from the argmax detector and np.add.at, chunk by chunk."""
    m = cfg.constellation.order_m
    probs = cfg.distribution.probs
    means = cfg.link.composite_gain * cfg.constellation.amplitudes
    confusion = np.zeros((m, m), dtype=np.int64)
    for index, lo in enumerate(range(0, cfg.n_symbols, _CHUNK)):
        n = min(_CHUNK, cfg.n_symbols - lo)
        sent, y = _symbol_major_draw(cfg, _chunk_rng(cfg.seed, index), n)
        detected = np.argmax(_argmax_metrics(y, means, probs, cfg.link.sigma), axis=1)
        np.add.at(confusion, (sent, detected), 1)
    return confusion


def _iid_confusion(cfg):
    """Confusion counts of an i.i.d. symbol stream: a uniform per symbol, an
    inverse-CDF lookup, then a normal per symbol, and the argmax detector."""
    m = cfg.constellation.order_m
    probs = cfg.distribution.probs
    means = cfg.link.composite_gain * cfg.constellation.amplitudes
    confusion = np.zeros((m, m), dtype=np.int64)
    for index, lo in enumerate(range(0, cfg.n_symbols, _CHUNK)):
        n = min(_CHUNK, cfg.n_symbols - lo)
        rng = _chunk_rng(cfg.seed, index)
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        sent = np.searchsorted(cdf, rng.random(n), side="right")
        y = means[sent] + cfg.link.sigma * rng.standard_normal(n)
        detected = np.argmax(_argmax_metrics(y, means, probs, cfg.link.sigma), axis=1)
        np.add.at(confusion, (sent, detected), 1)
    return confusion


def test_confusion_counts_match_argmax_reference_bit_for_bit():
    c = build_constellation(8, 1.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.12)
    p = Distribution(np.array([0.05, 0.2, 0.0, 0.25, 0.1, 0.0, 0.3, 0.1]))
    cfg = SimConfig(n_symbols=_CHUNK + 7, seed=31, link=link, constellation=c,
                    distribution=p)
    stats = simulate_error_rates(cfg)
    assert stats.ser > 0.01
    assert np.array_equal(stats.confusion_counts, _reference_confusion(cfg))


def _unblocked_chunk(cfg, index, n):
    """One chunk as one whole symbol-major draw and one ``searchsorted`` detection."""
    m = cfg.constellation.order_m
    probs = cfg.distribution.probs
    means = cfg.link.composite_gain * cfg.constellation.amplitudes
    sent, y = _symbol_major_draw(cfg, _chunk_rng(cfg.seed, index), n)
    winners, cuts = _decision_intervals(means, probs, cfg.link.sigma)
    detected = winners[np.searchsorted(cuts, y, side="left")]
    return np.bincount(sent * m + detected, minlength=m * m).reshape(m, m)


def _block_test_distributions(m):
    rng = np.random.default_rng(m)
    holes = rng.dirichlet(np.ones(m))
    holes[m // 2] = holes[-1] = 0.0             # a zero in the middle and at the tail
    early_one = np.zeros(m)
    early_one[:m // 2] = 1.0 / (m // 2)
    early_one[-1] = 1e-17
    # the cumulative sum reaches 1.0 before the last nonzero entry
    assert np.cumsum(early_one)[-2] == 1.0
    return [rng.dirichlet(np.ones(m)), holes / holes.sum(), early_one]


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_blocked_simulation_is_bit_identical_to_unblocked_chunks(m):
    c = build_constellation(m, 1.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.7 / m)
    for k, probs in enumerate(_block_test_distributions(m)):
        for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, _CHUNK + 7):
            cfg = SimConfig(n_symbols=n, seed=97 + k, link=link, constellation=c,
                            distribution=Distribution(probs))
            want = sum(_unblocked_chunk(cfg, i, min(_CHUNK, n - lo))
                       for i, lo in enumerate(range(0, n, _CHUNK)))
            got = simulate_error_rates(cfg).confusion_counts
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (m, k, n)


@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_zero_probability_symbols_are_never_sent_nor_detected(m):
    c = build_constellation(m, 1.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.7 / m)
    for k, probs in enumerate(_block_test_distributions(m)):
        zero = probs == 0.0
        for n in (_BLOCK - 1, _BLOCK + 1, _CHUNK + 7):
            confusion = simulate_error_rates(SimConfig(
                n_symbols=n, seed=53 + k, link=link, constellation=c,
                distribution=Distribution(probs))).confusion_counts
            assert not confusion[zero].any(), (m, k, n)
            assert not confusion[:, zero].any(), (m, k, n)
            assert confusion.sum() == n


def test_symbol_major_draw_has_the_law_of_iid_draws():
    c = build_constellation(8, 1.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.15)
    p = Distribution(np.array([0.05, 0.2, 0.0, 0.25, 0.1, 0.0, 0.3, 0.1]))
    n = 1_000_000
    cfg = SimConfig(n_symbols=n, seed=61, link=link, constellation=c, distribution=p)
    got = simulate_error_rates(cfg).confusion_counts
    iid = _iid_confusion(SimConfig(n_symbols=n, seed=62, link=link, constellation=c,
                                   distribution=p))
    assert np.trace(got) < n - 10_000             # the off-diagonal cells are exercised
    pooled = (got + iid) / (2.0 * n)
    combined_se = np.sqrt(2.0 * n * pooled * (1.0 - pooled))
    assert np.all(np.abs(got - iid) <= 4.0 * combined_se)


def test_simulation_noiseless_limit():
    c = build_constellation(8, 1.0)
    link = LinkBudget(composite_gain=1.0, sigma=1e-12)
    stats = simulate_error_rates(SimConfig(
        n_symbols=50_000, seed=1, link=link, constellation=c,
        distribution=Distribution.uniform(8)))
    assert stats.ser == 0.0 and stats.ber == 0.0


def test_binary_uniform_matches_antipodal_closed_form():
    c = build_constellation(2, 1.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.6)
    stats = simulate_error_rates(SimConfig(
        n_symbols=2_000_000, seed=2, link=link, constellation=c,
        distribution=Distribution.uniform(2)))
    exact = 0.5 * erfc(2.0 * link.composite_gain
                       / (2.0 * math.sqrt(2.0) * link.sigma))
    assert abs(stats.ser - exact) <= 4.0 * stats.ser_stderr
    assert abs(stats.ber - exact) <= 4.0 * stats.ber_stderr


def test_shaped_simulation_respects_bound_and_approximation():
    rng = np.random.default_rng(11)
    c = build_constellation(8, 6.0)
    link = LinkBudget(composite_gain=1.0, sigma=1.0)
    p = Distribution(dirichlet_interior(rng, 8, floor=0.02))
    stats = simulate_error_rates(SimConfig(
        n_symbols=1_000_000, seed=3, link=link, constellation=c, distribution=p))
    ub = ser_upper_bound(c, p, link)
    ap = ser_approx(c, p, link)
    assert stats.ser <= ub + 4.0 * stats.ser_stderr
    assert abs(stats.ser - ap) <= 0.15 * ap + 4.0 * stats.ser_stderr


def test_symbol_frequencies_match_distribution():
    rng = np.random.default_rng(13)
    c = build_constellation(8, 2.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.4)
    p = Distribution(rng.dirichlet(np.ones(8)))
    n = 500_000
    stats = simulate_error_rates(SimConfig(
        n_symbols=n, seed=4, link=link, constellation=c, distribution=p))
    sent_counts = stats.confusion_counts.sum(axis=1)
    assert sent_counts.sum() == n
    for m in range(8):
        se = math.sqrt(max(p.probs[m] * (1 - p.probs[m]), 1e-12) / n)
        assert abs(sent_counts[m] / n - p.probs[m]) <= 4.0 * se


def test_confusion_off_diagonal_respects_pairwise_terms():
    rng = np.random.default_rng(17)
    c = build_constellation(4, 4.0)
    link = LinkBudget(composite_gain=1.0, sigma=1.0)
    p = Distribution(dirichlet_interior(rng, 4, floor=0.05))
    n = 1_000_000
    stats = simulate_error_rates(SimConfig(
        n_symbols=n, seed=5, link=link, constellation=c, distribution=p))
    for m in range(4):
        for k in range(4):
            if m == k:
                continue
            geom = PairwiseGeometry(
                d=link.composite_gain * (c.amplitudes[m] - c.amplitudes[k]),
                sigma=link.sigma)
            bound = p.probs[m] * pairwise_error_prob(p.probs[m], p.probs[k], geom)
            freq = stats.confusion_counts[m, k] / n
            se = math.sqrt(max(bound * (1 - bound), 1e-12) / n)
            assert freq <= bound + 4.0 * se


def test_simulation_reproducibility():
    c = build_constellation(8, 2.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.5)
    cfg = SimConfig(n_symbols=2_300_000, seed=99, link=link, constellation=c,
                    distribution=Distribution.uniform(8))
    a = simulate_error_rates(cfg)
    b = simulate_error_rates(cfg)
    assert np.array_equal(a.confusion_counts, b.confusion_counts)
    assert a.ber == b.ber and a.ser == b.ser


def test_chunk_streams_are_keyed_by_seed_and_index():
    draws = {(seed, index): _chunk_rng(seed, index).standard_normal(64)
             for seed in (0, 1, 2**40) for index in (0, 1, 7)}
    for (seed, index), z in draws.items():
        assert np.array_equal(_chunk_rng(seed, index).standard_normal(64), z)
    assert len({z.tobytes() for z in draws.values()}) == len(draws)
    with pytest.raises(ConfigError):
        _chunk_rng(-1, 0)


def test_ber_stderr_counts_both_bits_of_a_two_bit_error():
    # only symbols 0 and 2 (Gray labels 00 and 11) are sent, so every symbol
    # error flips both bits: the bit errors are the symbol errors counted twice
    c = build_constellation(4, 1.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.5)
    stats = simulate_error_rates(SimConfig(
        n_symbols=200_000, seed=6, link=link, constellation=c,
        distribution=Distribution(np.array([0.5, 0.0, 0.5, 0.0]))))
    assert stats.ser > 0.01
    assert stats.ber == stats.ser
    assert stats.ber_stderr == stats.ser_stderr


def test_nadir_gain_matches_prefactor(receiver):
    led = led_at_dbm(30.0)
    geom = LinkGeometry.below_led(led, 0.0)
    xi = receiver.area * (led.lambert_order + 1.0) / (2.0 * math.pi) \
        * receiver.filter_gain \
        * receiver.refractive_index**2 / math.sin(receiver.fov) ** 2
    assert channel_gain(led, receiver, geom) == pytest.approx(
        xi / led.height**2, rel=1e-12)


def test_radial_uniform_mean_gain_matches_closed_form(receiver, noise_params):
    from pcs_shaper.channel import average_eve_gain
    led = led_at_dbm(27.0)
    power = 10.0 ** ((27.0 - 30.0) / 10.0)
    n = 1_000_000
    links = sample_eve_positions(n, "radial_uniform", led, receiver,
                                 noise_params, power, seed=21)
    gains = np.array([lk.composite_gain for lk in links]) / (0.54 * 0.44)
    want = average_eve_gain(led, receiver)
    se = gains.std(ddof=1) / math.sqrt(n)
    assert abs(gains.mean() - want) <= 3.0 * se


def test_area_uniform_mean_differs_from_radial(receiver, noise_params):
    led = led_at_dbm(27.0)
    power = 10.0 ** ((27.0 - 30.0) / 10.0)
    rad = sample_eve_positions(50_000, "radial_uniform", led, receiver,
                               noise_params, power, seed=22)
    area = sample_eve_positions(50_000, "area_uniform", led, receiver,
                                noise_params, power, seed=22)
    mean_rad = np.mean([lk.composite_gain for lk in rad])
    mean_area = np.mean([lk.composite_gain for lk in area])
    # area weighting favors large offsets, hence a clearly smaller mean gain
    assert mean_area < 0.8 * mean_rad


@pytest.mark.parametrize("mode", ["radial_uniform", "area_uniform"])
def test_sampled_links_match_the_per_position_link_budget(receiver, noise_params, mode):
    led = led_at_dbm(24.0)
    power = 10.0 ** ((24.0 - 30.0) / 10.0)
    links = sample_eve_positions(20_000, mode, led, receiver, noise_params,
                                 power, seed=23)
    u = _chunk_rng(23, 0).random(len(links))
    radii = led.height * math.tan(receiver.fov) * (np.sqrt(u) if mode == "area_uniform" else u)
    for r, link in zip(radii, links):
        want = link_budget_from_geometry(led, receiver, noise_params,
                                         LinkGeometry.below_led(led, float(r)), power)
        assert link.composite_gain == pytest.approx(want.composite_gain, rel=1e-15, abs=0.0)
        assert link.sigma == pytest.approx(want.sigma, rel=1e-15, abs=0.0)


def test_sampler_validation(receiver, noise_params):
    led = led_at_dbm(27.0)
    with pytest.raises(ConfigError):
        sample_eve_positions(0, "radial_uniform", led, receiver, noise_params, 0.5)
    with pytest.raises(ConfigError):
        sample_eve_positions(5, "diagonal", led, receiver, noise_params, 0.5)


def test_pairwise_mc_agrees_with_closed_form():
    geom = PairwiseGeometry(d=2.0, sigma=1.0)
    exact = pairwise_error_prob(0.25, 0.75, geom)
    est, se = pairwise_error_mc(0.25, 0.75, geom, 2_000_000, seed=8)
    assert abs(est - exact) <= 4.0 * se


def _two_likelihood_hits(p_m, p_n, geom, n_samples, seed):
    """Reference: both log-likelihoods per sample on the same keyed streams."""
    sig, d = geom.sigma, geom.d
    hits = 0
    for idx, lo in enumerate(range(0, n_samples, _CHUNK)):
        noise = sig * _chunk_rng(seed, idx).standard_normal(min(_CHUNK, n_samples - lo))
        stat = math.log(p_m) - noise**2 / (2.0 * sig**2)
        comp = math.log(p_n) - (noise + d) ** 2 / (2.0 * sig**2)
        hits += int(np.count_nonzero(stat <= comp))
    return hits


@pytest.mark.parametrize("sigma", [1e-6, 0.3, 20.0])
@pytest.mark.parametrize("d_over_sigma", [1.5, -0.7])
def test_pairwise_mc_counts_match_two_likelihood_event(sigma, d_over_sigma):
    geom = PairwiseGeometry(d=d_over_sigma * sigma, sigma=sigma)
    n = _CHUNK + 7                                  # two chunks, the last partial
    for seed, (p_m, p_n) in enumerate([(0.25, 0.75), (0.6, 0.4), (1e-3, 0.5)]):
        est, se = pairwise_error_mc(p_m, p_n, geom, n, seed=seed)
        hits = _two_likelihood_hits(p_m, p_n, geom, n, seed)
        assert est == hits / n
        assert se == math.sqrt(est * (1.0 - est) / n)


def test_pairwise_mc_zero_probabilities_follow_closed_form():
    geom = PairwiseGeometry(d=-0.8, sigma=0.5)
    for p_m, p_n in [(0.0, 0.0), (0.4, 0.0), (0.0, 0.4)]:
        want = pairwise_error_prob(p_m, p_n, geom)
        assert pairwise_error_mc(p_m, p_n, geom, 1000, seed=3) == (want, 0.0)
    with pytest.raises(ConfigError):
        pairwise_error_mc(-0.1, 0.4, geom, 1000)


def test_sim_config_validation():
    c = build_constellation(4, 1.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.5)
    with pytest.raises(ConfigError):
        SimConfig(n_symbols=0, seed=1, link=link, constellation=c,
                  distribution=Distribution.uniform(4))
    with pytest.raises(ConfigError):
        SimConfig(n_symbols=10, seed=1, link=link, constellation=c,
                  distribution=Distribution.uniform(8))
