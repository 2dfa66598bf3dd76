"""Constellation construction, Gray labels, flicker and symmetry machinery."""
import math

import numpy as np
import pytest

from pcs_shaper.constellation import (
    ConstraintSet,
    Distribution,
    build_constellation,
    flicker_violation,
    signed_amplitude_mean,
    symmetry_matrix,
    symmetry_residual,
)
from pcs_shaper.exceptions import ConfigError

from conftest import led_at_dbm


def test_binary_endpoints():
    c = build_constellation(2, 1.0)
    assert np.array_equal(c.amplitudes, [-1.0, 1.0])
    assert c.gray_labels == ("0", "1")


def test_four_pam_grid():
    c = build_constellation(4, 3.0)
    assert np.allclose(c.amplitudes, [-3.0, -1.0, 1.0, 3.0], rtol=0, atol=0)


def test_eight_pam_grid():
    c = build_constellation(8, 1.0)
    want = np.array([-1, -5 / 7, -3 / 7, -1 / 7, 1 / 7, 3 / 7, 5 / 7, 1.0])
    assert np.allclose(c.amplitudes, want, rtol=1e-15)


@pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
def test_amplitude_invariants(m):
    c = build_constellation(m, 2.5)
    assert c.amplitudes.sum() == pytest.approx(0.0, abs=1e-12)
    assert np.abs(c.amplitudes).max() == 2.5
    assert np.all(np.diff(c.amplitudes) > 0)
    # mirrored amplitudes are exact negations (bitwise)
    assert np.array_equal(c.amplitudes, -c.amplitudes[::-1])


@pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
def test_gray_labels_adjacent_single_bit(m):
    c = build_constellation(m, 1.0)
    bits = int(math.log2(m))
    assert all(len(lbl) == bits for lbl in c.gray_labels)
    assert len(set(c.gray_labels)) == m
    for a, b in zip(c.gray_codes, c.gray_codes[1:]):
        assert bin(a ^ b).count("1") == 1


@pytest.mark.parametrize("m", [1, 3, 6, 12, 0])
def test_rejects_non_power_of_two(m):
    with pytest.raises(ConfigError):
        build_constellation(m, 1.0)


def test_flicker_uniform_is_slack():
    led = led_at_dbm(30.0)
    c = build_constellation(8, led.peak_amplitude)
    p = Distribution.uniform(8)
    assert flicker_violation(c, p, led, 0.01) == pytest.approx(
        -0.01 * led.dc_bias, abs=1e-18)


def test_flicker_symmetric_is_exactly_slack():
    rng = np.random.default_rng(3)
    led = led_at_dbm(27.0)
    c = build_constellation(8, led.peak_amplitude)
    for _ in range(50):
        half = rng.dirichlet(np.ones(4)) / 2.0
        p = np.concatenate([half, half[::-1]])
        assert signed_amplitude_mean(c, p) == 0.0
        assert flicker_violation(c, p, led, 0.01) == -0.01 * led.dc_bias


def test_flicker_peak_symbol_violates():
    led = led_at_dbm(30.0)
    c = build_constellation(8, 1.0)
    p = np.zeros(8)
    p[-1] = 1.0
    assert flicker_violation(c, p, led, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_symmetry_matrix_structure():
    s = symmetry_matrix(8)
    assert s.shape == (4, 8)
    for i in range(4):
        row = s[i]
        assert row[i] == 1.0 and row[7 - i] == -1.0
        assert np.count_nonzero(row) == 2


def test_symmetry_residual_examples():
    assert np.allclose(symmetry_residual(np.ones(8) / 8), 0.0, atol=0)
    assert np.allclose(symmetry_residual([0.4, 0.1, 0.1, 0.4]), [0.0, 0.0], atol=0)
    got = symmetry_residual([0.5, 0.1, 0.1, 0.3])
    assert got == pytest.approx([0.2, 0.0], abs=1e-15)


def test_symmetry_matrix_agrees_with_residual():
    rng = np.random.default_rng(11)
    s = symmetry_matrix(8)
    for _ in range(20):
        p = rng.dirichlet(np.ones(8))
        assert np.allclose(s @ p, symmetry_residual(p), atol=1e-16)


def test_symmetric_implies_flicker_free():
    rng = np.random.default_rng(4)
    led = led_at_dbm(25.0)
    c = build_constellation(16, led.peak_amplitude)
    for _ in range(100):
        half = rng.dirichlet(np.ones(8)) / 2.0
        p = np.concatenate([half, half[::-1]])
        assert np.abs(symmetry_residual(p)).max() == 0.0
        assert flicker_violation(c, p, led, 0.0) <= 0.0


def test_distribution_validation():
    Distribution(np.ones(8) / 8)
    with pytest.raises(ConfigError):
        Distribution(np.array([0.6, 0.6]))
    with pytest.raises(ConfigError):
        Distribution(np.array([1.2, -0.2]))
    with pytest.raises(ConfigError):
        Distribution(np.array([[0.5, 0.5]]))


def test_distribution_rendering_floor():
    p = Distribution(np.array([0.5, 1e-7, 0.4999999, 0.0]))
    rendered = p.rendered()
    assert rendered[1] == 0.0 and rendered[3] == 0.0
    assert p.probs[1] == 1e-7          # stored vector untouched


def test_constraint_set_validation():
    ConstraintSet()
    with pytest.raises(ConfigError):
        ConstraintSet(pre_fec_threshold=0.6)
    with pytest.raises(ConfigError):
        ConstraintSet(mode="both")
    with pytest.raises(ConfigError):
        ConstraintSet(flicker_alpha=-0.1)
