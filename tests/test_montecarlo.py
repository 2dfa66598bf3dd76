"""MAP-detector simulation, position sampling, reproducibility."""
import math

import numpy as np
import pytest
from scipy.special import erfc

from pcs_shaper.channel import LinkBudget, LinkGeometry, channel_gain
from pcs_shaper.constellation import Distribution, build_constellation
from pcs_shaper.error_rate import PairwiseGeometry, pairwise_error_prob, \
    ser_approx, ser_upper_bound
from pcs_shaper.exceptions import ConfigError
from pcs_shaper.montecarlo import (
    SimConfig,
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


def test_sim_config_validation():
    c = build_constellation(4, 1.0)
    link = LinkBudget(composite_gain=1.0, sigma=0.5)
    with pytest.raises(ConfigError):
        SimConfig(n_symbols=0, seed=1, link=link, constellation=c,
                  distribution=Distribution.uniform(4))
    with pytest.raises(ConfigError):
        SimConfig(n_symbols=10, seed=1, link=link, constellation=c,
                  distribution=Distribution.uniform(8))
