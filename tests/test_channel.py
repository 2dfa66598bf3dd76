"""Channel-model checks: Lambertian gain, noise budget, 2F1, average Eve gain."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import hyp2f1 as scipy_hyp2f1

from pcs_shaper.channel import (
    LambertianLed,
    LinkBudget,
    LinkGeometry,
    NoiseParams,
    ReceiverPd,
    average_eve_gain,
    channel_gain,
    hyp2f1,
    link_budget_from_geometry,
)
from pcs_shaper.capacity import MixtureModel
from pcs_shaper.constellation import ConstraintSet, build_constellation
from pcs_shaper.exceptions import ConfigError
from pcs_shaper.solver import DesignProblem

from conftest import led_at_dbm, links_at_dbm
from oracles import average_eve_gain_quadrature

# independently evaluated with the section-VI setup (receiver at nadir, 3 m)
H_NADIR_GOLDEN = 9.011944388602973e-06
NOISE_VAR_25DBM_GOLDEN = 1.614770269870214e-14


def led_for_order(l_order: float, dc_bias: float = 1.0) -> LambertianLed:
    semi_angle = math.acos(2.0 ** (-1.0 / l_order))
    return LambertianLed(semi_angle_half_power=semi_angle, conversion_eta=0.44,
                         height=3.0, dc_bias=dc_bias)


def test_lambert_order_is_one_at_60_degrees():
    led = led_at_dbm(30.0)
    assert led.lambert_order == pytest.approx(1.0, abs=1e-12)


def test_gain_is_zero_outside_fov(receiver):
    led = led_at_dbm(30.0)
    geom = LinkGeometry(distance=3.0, irradiance_angle=math.radians(75.0),
                        incidence_angle=math.radians(75.0))
    assert channel_gain(led, receiver, geom) == 0.0


def test_gain_at_nadir_matches_independent_evaluation(receiver):
    led = led_at_dbm(30.0)
    geom = LinkGeometry.below_led(led, 0.0)
    got = channel_gain(led, receiver, geom)
    # longhand: (A_r/d^2) * (l+1)/(2 pi) * T * kappa^2/sin^2(FoV) * cos(0)
    by_hand = (1e-4 / 9.0) * (2.0 / (2.0 * math.pi)) * 1.0 \
        * (1.5**2 / math.sin(math.radians(70.0)) ** 2) * 1.0
    assert got == pytest.approx(by_hand, rel=1e-14)
    assert got == pytest.approx(H_NADIR_GOLDEN, rel=1e-14)


def test_gain_monotone_in_distance_and_incidence(receiver):
    led = led_at_dbm(30.0)
    gains_d = [channel_gain(led, receiver, LinkGeometry(distance=d))
               for d in np.linspace(1.0, 10.0, 25)]
    assert all(b <= a for a, b in zip(gains_d, gains_d[1:]))
    angles = np.linspace(0.0, math.radians(69.9), 25)
    gains_a = [channel_gain(led, receiver,
                            LinkGeometry(distance=3.0, irradiance_angle=t,
                                         incidence_angle=t))
               for t in angles]
    assert all(b <= a for a, b in zip(gains_a, gains_a[1:]))


def test_noise_thermal_only_when_dark(receiver):
    from pcs_shaper.channel import noise_variance
    dark = NoiseParams(bandwidth=20e6, ambient_photocurrent=0.0,
                       preamp_density=5e-12)
    assert noise_variance(receiver, dark, gain=0.0, optical_power=0.0) \
        == pytest.approx(20e6 * (5e-12) ** 2, rel=1e-15)


def test_noise_variance_golden_at_25_dbm(receiver, noise_params):
    from pcs_shaper.channel import noise_variance
    led = led_at_dbm(25.0)
    geom = LinkGeometry.below_led(led, 0.0)
    var = noise_variance(receiver, noise_params, channel_gain(led, receiver, geom),
                         10.0 ** ((25.0 - 30.0) / 10.0))
    assert var == pytest.approx(NOISE_VAR_25DBM_GOLDEN, rel=1e-14)


def test_noise_variance_linear_in_bandwidth(receiver, noise_params):
    from pcs_shaper.channel import noise_variance
    double = NoiseParams(bandwidth=2 * noise_params.bandwidth,
                         ambient_photocurrent=noise_params.ambient_photocurrent,
                         preamp_density=noise_params.preamp_density)
    v1 = noise_variance(receiver, noise_params, 1e-5, 0.5)
    v2 = noise_variance(receiver, double, 1e-5, 0.5)
    assert v2 == pytest.approx(2 * v1, rel=1e-15)


def test_noise_variance_affine_in_power_with_positive_slope(receiver, noise_params):
    from pcs_shaper.channel import noise_variance
    powers = np.linspace(0.0, 2.0, 8)
    vals = np.array([noise_variance(receiver, noise_params, 1e-5, p) for p in powers])
    slopes = np.diff(vals) / np.diff(powers)
    assert np.all(slopes > 0)
    assert np.allclose(slopes, slopes[0], rtol=1e-12)


def test_noise_variance_rejects_negative_power(receiver, noise_params):
    from pcs_shaper.channel import noise_variance
    with pytest.raises(ConfigError):
        noise_variance(receiver, noise_params, 1e-5, -0.1)


def test_hyp2f1_at_zero_is_one():
    assert hyp2f1(0.5, 2.0, 1.5, 0.0) == 1.0


@pytest.mark.parametrize("deg", [30.0, 45.0, 70.0])
def test_hyp2f1_unit_order_closed_form(deg):
    psi = math.radians(deg)
    got = hyp2f1(0.5, 2.0, 1.5, -math.tan(psi) ** 2)
    want = (math.sin(2.0 * psi) + 2.0 * psi) / (4.0 * math.tan(psi))
    assert got == pytest.approx(want, rel=1e-12)


def test_hyp2f1_matches_euler_integral_oracle():
    # 2F1(a,b;c;z) = Gamma(c)/(Gamma(a)Gamma(c-a)) * I with the integral taken
    # over the a-slot (series is a<->b symmetric); substituting t = u^2 removes
    # the endpoint singularity for a = 1/2, c = 3/2:
    #   2F1(1/2, b; 3/2; z) = int_0^1 (1 - z u^2)^(-b) du
    rng = np.random.default_rng(5)
    for _ in range(25):
        b = float(rng.uniform(0.3, 6.0))
        z = -float(rng.uniform(0.0, 40.0))
        oracle, err = quad(lambda u: (1.0 - z * u * u) ** (-b), 0.0, 1.0,
                           epsabs=1e-14, epsrel=1e-13)
        assert hyp2f1(0.5, b, 1.5, z) == pytest.approx(oracle, rel=1e-10)


@given(st.floats(0.3, 6.0), st.floats(-40.0, 0.0))
def test_hyp2f1_matches_scipy(b, z):
    assert hyp2f1(0.5, b, 1.5, z) == pytest.approx(scipy_hyp2f1(0.5, b, 1.5, z),
                                                   rel=1e-12)


def test_hyp2f1_rejects_arguments_where_the_rule_loses_digits():
    # for b < 1 the integrand grows without bound towards pi/2; at z = -1e5
    # the fixed rule is off by 2e-7 relative (b = 0.3) instead of raising
    for b, z in [(0.3, -1e5), (0.5, -1e5), (0.999, -40.5)]:
        with pytest.raises(ConfigError):
            hyp2f1(0.5, b, 1.5, z)
    assert hyp2f1(0.5, 0.3, 1.5, -40.0) == pytest.approx(
        scipy_hyp2f1(0.5, 0.3, 1.5, -40.0), rel=1e-12)
    assert hyp2f1(0.5, 1.0, 1.5, -1e5) == pytest.approx(
        scipy_hyp2f1(0.5, 1.0, 1.5, -1e5), rel=1e-12)


@pytest.mark.parametrize("l_order", [0.5, 1.0, 1.7, 3.0, 10.0])
def test_hyp2f1_matches_scipy_on_eve_gain_arguments(l_order):
    b = (l_order + 3.0) / 2.0
    for deg in np.linspace(60.0, 89.9, 61):
        z = -math.tan(math.radians(deg)) ** 2
        assert hyp2f1(0.5, b, 1.5, z) == pytest.approx(scipy_hyp2f1(0.5, b, 1.5, z),
                                                       rel=1e-12)


def test_hyp2f1_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        hyp2f1(0.5, 2.0, -1.0, -0.5)
    with pytest.raises(ConfigError):
        hyp2f1(0.5, 2.0, 1.5, 0.5)
    with pytest.raises(ConfigError):
        hyp2f1(1.0, 2.0, 1.5, -1.0)


@pytest.mark.parametrize("b, z", [(math.nan, -1.0), (2.0, math.nan), (math.inf, -1.0),
                                  (-math.inf, -1.0), (2.0, -math.inf), (0.5, math.nan)])
def test_hyp2f1_rejects_non_finite_arguments(b, z):
    # every comparison with a NaN is False, so no domain test would catch it
    with pytest.raises(ConfigError, match="finite"):
        hyp2f1(0.5, b, 1.5, z)


def test_average_eve_gain_unit_order_closed_form(receiver):
    led = led_for_order(1.0)
    psi = receiver.fov
    xi = 1e-4 * 2.0 / (2.0 * math.pi) * (1.5**2 / math.sin(psi) ** 2)
    want = xi * (math.sin(2 * psi) + 2 * psi) / (4.0 * led.height**2 * math.tan(psi))
    assert average_eve_gain(led, receiver) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("order", [1.0, 2.0, 5.0])
def test_average_eve_gain_matches_radial_integral(receiver, order):
    led = led_for_order(order)
    closed = average_eve_gain(led, receiver)
    direct = average_eve_gain_quadrature(led, receiver)
    assert closed == pytest.approx(direct, rel=1e-8)


def test_average_eve_gain_narrow_fov_limit():
    led = led_for_order(1.0)
    pd = ReceiverPd(area=1e-4, responsivity_gamma=0.54, fov=1e-5,
                    refractive_index=1.5)
    xi = 1e-4 * 2.0 / (2.0 * math.pi) * (1.5**2 / math.sin(pd.fov) ** 2)
    assert average_eve_gain(led, pd) == pytest.approx(xi / led.height**2, rel=1e-8)


def test_eve_link_quality_ratio(receiver, noise_params):
    _, bob, eve, _, _ = links_at_dbm(28.0, receiver, noise_params, ratio=10.0)
    assert bob.quality / eve.quality == pytest.approx(10.0, rel=1e-12)


def test_link_budget_from_geometry_consistency(receiver, noise_params):
    from pcs_shaper.channel import noise_variance
    led = led_at_dbm(30.0)
    geom = LinkGeometry.below_led(led, 1.5)
    lb = link_budget_from_geometry(led, receiver, noise_params, geom, 1.0)
    h = channel_gain(led, receiver, geom)
    assert lb.composite_gain == pytest.approx(h * 0.54 * 0.44, rel=1e-15)
    assert lb.sigma**2 == pytest.approx(
        noise_variance(receiver, noise_params, h, 1.0), rel=1e-15)


def test_type_validation():
    with pytest.raises(ConfigError):
        LambertianLed(semi_angle_half_power=0.0, conversion_eta=0.44,
                      height=3.0, dc_bias=1.0)
    with pytest.raises(ConfigError):
        LambertianLed(semi_angle_half_power=1.0, conversion_eta=0.44,
                      height=3.0, dc_bias=2.0, i_max=1.0)
    with pytest.raises(ConfigError):
        LinkGeometry(distance=0.0)
    with pytest.raises(ConfigError):
        ReceiverPd(area=1e-4, responsivity_gamma=0.54, fov=math.pi)


# every field that check_positive takes with allow_zero=True
_ZERO_ALLOWED = {
    "composite_gain": lambda v: LinkBudget(composite_gain=v, sigma=1.0),
    "flicker_alpha": lambda v: ConstraintSet(flicker_alpha=v),
    "ambient_photocurrent": lambda v: NoiseParams(
        bandwidth=20e6, ambient_photocurrent=v, preamp_density=5e-12),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(_ZERO_ALLOWED))
def test_zero_allowed_fields_reject_non_finite_values(field, value):
    _ZERO_ALLOWED[field](0.0)
    with pytest.raises(ConfigError):
        _ZERO_ALLOWED[field](value)


# a field that check_positive converts, of each data type that validates through it
_NUMERIC = {
    "sigma": lambda v: MixtureModel(means=np.array([0.0, 1.0]), sigma=v,
                                    weights=np.array([0.5, 0.5])),
    "composite_gain": lambda v: LinkBudget(composite_gain=v, sigma=1.0),
    "bandwidth": lambda v: NoiseParams(bandwidth=v, ambient_photocurrent=0.0,
                                       preamp_density=5e-12),
    "distance": lambda v: LinkGeometry(distance=v),
    "dc_bias": lambda v: DesignProblem(
        variant="known_csi", constellation=build_constellation(4, 1.0),
        bob_link=LinkBudget(composite_gain=1.0, sigma=1.0), dc_bias=v,
        eve_link=LinkBudget(composite_gain=0.5, sigma=1.0)),
}


@pytest.mark.parametrize("value", ["abc", None, 1j])
@pytest.mark.parametrize("field", sorted(_NUMERIC))
def test_numeric_fields_reject_non_numbers_with_a_config_error(field, value):
    _NUMERIC[field](1.0)
    with pytest.raises(ConfigError, match=f"{field} must be a number"):
        _NUMERIC[field](value)


@pytest.mark.parametrize("field, value", [("dc_bias", "abc"), ("i_min", "x"),
                                          ("i_max", None)])
def test_led_drive_range_rejects_non_numbers_with_a_config_error(field, value):
    kwargs = dict(semi_angle_half_power=math.pi / 3, conversion_eta=0.44, height=3.0,
                  dc_bias=1.0)
    LambertianLed(**kwargs)
    with pytest.raises(ConfigError, match=f"{field} must be a number"):
        LambertianLed(**{**kwargs, field: value})


def test_positive_fields_reject_infinity():
    with pytest.raises(ConfigError):
        LinkBudget(composite_gain=1.0, sigma=math.inf)
