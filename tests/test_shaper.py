"""Estimator facade: parameter plumbing, fit attributes, predict/sample."""
import numpy as np
import pytest

from pcs_shaper.exceptions import ConfigError
from pcs_shaper.montecarlo import map_detect
from pcs_shaper.shaper import PcsShaper

from conftest import links_at_dbm


def test_get_set_params_round_trip():
    est = PcsShaper(modulation_order=4, n_starts=5, seed=9)
    params = est.get_params()
    assert params["modulation_order"] == 4
    assert params["n_starts"] == 5
    clone = PcsShaper(**params)
    assert clone.get_params() == params
    est.set_params(rel_tol=1e-3, variant="qos_max_eve_ber")
    assert est.rel_tol == 1e-3
    with pytest.raises(ConfigError):
        est.set_params(warp_factor=9)


def test_unfitted_estimator_refuses_to_predict():
    with pytest.raises(ConfigError):
        PcsShaper().predict(np.zeros(3))


def test_fit_known_csi_and_predict(receiver, noise_params):
    led, bob, eve, _, _ = links_at_dbm(30.0, receiver, noise_params, ratio=10.0)
    est = PcsShaper(modulation_order=8, variant="known_csi", n_starts=4, seed=3)
    out = est.fit(bob, eve, dc_bias=led.dc_bias)
    assert out is est
    assert est.probabilities_.shape == (8,)
    assert est.result_.converged
    assert est.score() == pytest.approx(est.result_.objective)
    rng = np.random.default_rng(0)
    y = rng.uniform(-1e-5, 1e-5, size=200)
    want = map_detect(y, est.constellation_, est.probabilities_, bob)
    assert np.array_equal(est.predict(y), want)


def test_fit_unknown_csi_with_average_link(receiver, noise_params):
    led, bob, _, eve_avg, _ = links_at_dbm(27.0, receiver, noise_params)
    est = PcsShaper(modulation_order=8, variant="unknown_csi_symmetric",
                    mode="symmetric", n_starts=3, seed=1)
    est.fit(bob, eve_avg, dc_bias=led.dc_bias)
    p = est.probabilities_
    assert np.allclose(p, p[::-1], atol=1e-9)


def test_sample_frequencies_track_fitted_distribution(receiver, noise_params):
    led, bob, eve, _, _ = links_at_dbm(30.0, receiver, noise_params)
    est = PcsShaper(modulation_order=8, n_starts=3, seed=5)
    est.fit(bob, eve, dc_bias=led.dc_bias)
    n = 200_000
    draws = est.sample(n, seed=11)
    freq = np.bincount(draws, minlength=8) / n
    se = np.sqrt(np.maximum(est.probabilities_ * (1 - est.probabilities_), 1e-12) / n)
    assert np.all(np.abs(freq - est.probabilities_) <= 4.0 * se + 1e-12)


def test_fit_rejects_unknown_variant(receiver, noise_params):
    led, bob, eve, _, _ = links_at_dbm(30.0, receiver, noise_params)
    est = PcsShaper(variant="telepathy")
    with pytest.raises(ConfigError):
        est.fit(bob, eve, dc_bias=led.dc_bias)


def test_sample_never_draws_an_inactive_symbol(monkeypatch):
    class LastUniform:
        def random(self, n):
            return np.full(n, np.nextafter(1.0, 0.0))

    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: LastUniform())
    est = PcsShaper(modulation_order=16)
    est.result_ = None
    est.probabilities_ = np.array([0.1] * 10 + [0.0] * 6)
    assert np.array_equal(est.sample(3), [9, 9, 9])
