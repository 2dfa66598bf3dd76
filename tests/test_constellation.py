"""Constellation construction, Gray labels, flicker and symmetry machinery."""
import math

import numpy as np
import pytest

from pcs_shaper.channel import LinkBudget
from pcs_shaper.constellation import (
    ConstraintSet,
    Distribution,
    PamConstellation,
    signed_amplitude_mean,
    symmetry_residual,
)
from pcs_shaper.exceptions import ConfigError
from pcs_shaper.montecarlo import map_detect
from pcs_shaper.solver import DesignProblem, feasibility_report
from pcs_shaper.validation import check_power_of_two

from conftest import led_at_dbm


def flicker_excess(c, p, led, alpha: float) -> float:
    """The design report's flicker margin ``|a^T p| - alpha * I_DC`` (feasible iff <= 0)."""
    link = LinkBudget(composite_gain=1.0, sigma=1.0)
    problem = DesignProblem("qos_max_eve_ber", c, link, led.dc_bias,
                            ConstraintSet(flicker_alpha=alpha), eve_link=link)
    return feasibility_report(problem, np.asarray(p, dtype=float))["flicker_excess"]


def test_binary_endpoints():
    c = PamConstellation(2, 1.0)
    assert np.array_equal(c.amplitudes, [-1.0, 1.0])
    assert c.gray_labels == ("0", "1")
    for peak in np.exp(np.random.default_rng(2).uniform(-12.0, 12.0, size=200)):
        assert PamConstellation(2, peak).amplitudes.tolist() == [-peak, peak]


def test_four_pam_grid():
    c = PamConstellation(4, 3.0)
    assert np.allclose(c.amplitudes, [-3.0, -1.0, 1.0, 3.0], rtol=0, atol=0)


def test_eight_pam_grid():
    c = PamConstellation(8, 1.0)
    want = np.array([-1, -5 / 7, -3 / 7, -1 / 7, 1 / 7, 3 / 7, 5 / 7, 1.0])
    assert np.allclose(c.amplitudes, want, rtol=1e-15)


@pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
def test_amplitude_invariants(m):
    c = PamConstellation(m, 2.5)
    assert c.amplitudes.sum() == pytest.approx(0.0, abs=1e-12)
    assert np.abs(c.amplitudes).max() == 2.5
    assert np.all(np.diff(c.amplitudes) > 0)
    # mirrored amplitudes are exact negations (bitwise)
    assert np.array_equal(c.amplitudes, -c.amplitudes[::-1])


@pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
def test_gray_labels_adjacent_single_bit(m):
    c = PamConstellation(m, 1.0)
    bits = int(math.log2(m))
    assert all(len(lbl) == bits for lbl in c.gray_labels)
    assert len(set(c.gray_labels)) == m
    for a, b in zip(c.gray_codes, c.gray_codes[1:]):
        assert bin(a ^ b).count("1") == 1


@pytest.mark.parametrize("m", [1, 3, 6, 12, 0])
def test_rejects_non_power_of_two(m):
    with pytest.raises(ConfigError):
        PamConstellation(m, 1.0)


@pytest.mark.parametrize("m", [8.7, 8.0, "8", True, None])
def test_rejects_non_integer_modulation_orders(m):
    # a float or a string is not truncated to a neighbouring order
    with pytest.raises(ConfigError, match="order_m must be an integer"):
        PamConstellation(m, 1.0)
    with pytest.raises(ConfigError, match="^m must be an integer"):
        check_power_of_two("m", m)


def test_power_of_two_accepts_numpy_integers():
    assert check_power_of_two("m", np.int64(16)) == 16
    assert PamConstellation(np.int32(4), 1.0).order_m == 4


def test_gray_codes_come_from_the_labels():
    c = PamConstellation(8, 1.0)
    assert [format(k, "03b") for k in c.gray_codes] == list(c.gray_labels)
    # the grid and its labels are derived, never supplied
    for derived in ({"amplitudes": [-1.0, 1.0]}, {"gray_labels": ("0", "1")},
                    {"gray_codes": np.array([1, 0])}):
        with pytest.raises(TypeError):
            PamConstellation(2, 1.0, **derived)


@pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
def test_every_grid_is_mirror_symmetric_so_the_fold_is_the_mean(m):
    rng = np.random.default_rng(m)
    for peak in np.exp(rng.uniform(-12.0, 12.0, size=40)):
        c = PamConstellation(m, peak)
        a = c.amplitudes
        assert np.array_equal(a[::-1], -a)
        # (M - 1) * (A / (M - 1)) rounds twice, so the ends may miss A by an ulp
        assert abs(a[-1] - peak) <= np.spacing(peak)
        assert not a.flags.writeable
        for p in rng.dirichlet(np.full(m, 0.3), size=5):
            assert abs(signed_amplitude_mean(c, p) - a @ p) <= 1e-13 * peak


def test_flicker_uniform_is_slack():
    led = led_at_dbm(30.0)
    c = PamConstellation(8, led.peak_amplitude)
    p = Distribution.uniform(8).probs
    assert flicker_excess(c, p, led, 0.01) == pytest.approx(
        -0.01 * led.dc_bias, abs=1e-18)


def test_flicker_symmetric_is_exactly_slack():
    rng = np.random.default_rng(3)
    led = led_at_dbm(27.0)
    c = PamConstellation(8, led.peak_amplitude)
    for _ in range(50):
        half = rng.dirichlet(np.ones(4)) / 2.0
        p = np.concatenate([half, half[::-1]])
        assert signed_amplitude_mean(c, p) == 0.0
        assert flicker_excess(c, p, led, 0.01) == -0.01 * led.dc_bias


def test_flicker_peak_symbol_violates():
    led = led_at_dbm(30.0)
    c = PamConstellation(8, 1.0)
    p = np.zeros(8)
    p[-1] = 1.0
    assert flicker_excess(c, p, led, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_symmetry_residual_examples():
    assert np.allclose(symmetry_residual(np.ones(8) / 8), 0.0, atol=0)
    assert np.allclose(symmetry_residual([0.4, 0.1, 0.1, 0.4]), [0.0, 0.0], atol=0)
    got = symmetry_residual([0.5, 0.1, 0.1, 0.3])
    assert got == pytest.approx([0.2, 0.0], abs=1e-15)


def test_symmetric_implies_flicker_free():
    rng = np.random.default_rng(4)
    led = led_at_dbm(25.0)
    c = PamConstellation(16, led.peak_amplitude)
    for _ in range(100):
        half = rng.dirichlet(np.ones(8)) / 2.0
        p = np.concatenate([half, half[::-1]])
        assert np.abs(symmetry_residual(p)).max() == 0.0
        assert flicker_excess(c, p, led, 0.0) <= 0.0


def test_probability_vector_of_the_wrong_length_is_a_config_error():
    # the mirror fold would pair the ends of a length-5 vector without error,
    # and the MAP lookup would index past the constellation
    c = PamConstellation(4, 1.0)
    p = [0.1, 0.2, 0.3, 0.2, 0.2]
    with pytest.raises(ConfigError, match="length 4, got 5"):
        signed_amplitude_mean(c, p)
    with pytest.raises(ConfigError, match="length 4, got 5"):
        map_detect(0.0, c, p, LinkBudget(composite_gain=1.0, sigma=0.3))


def test_distribution_validation():
    Distribution(np.ones(8) / 8)
    with pytest.raises(ConfigError):
        Distribution(np.array([0.6, 0.6]))
    with pytest.raises(ConfigError):
        Distribution(np.array([1.2, -0.2]))
    with pytest.raises(ConfigError):
        Distribution(np.array([[0.5, 0.5]]))


@pytest.mark.parametrize("empty", [[], np.zeros(0), np.zeros((0, 3))])
def test_empty_distribution_is_a_config_error(empty):
    with pytest.raises(ConfigError, match="non-empty"):
        Distribution(empty)


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
