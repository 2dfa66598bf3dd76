"""Shared fixtures: the standard indoor downlink setup used across the suite."""
import math

import numpy as np
import pytest
from hypothesis import settings

from pcs_shaper.channel import (
    LambertianLed,
    LinkGeometry,
    NoiseParams,
    ReceiverPd,
    average_eve_link,
    eve_link_from_quality_ratio,
    link_budget_from_geometry,
)

# Every property test is reproducible and independent of earlier runs: a fixed
# example sequence, no example database, and no per-example deadline.
settings.register_profile("pcs_shaper", deadline=None, derandomize=True, database=None)
settings.load_profile("pcs_shaper")


@pytest.fixture(scope="session")
def receiver():
    return ReceiverPd(area=1e-4, responsivity_gamma=0.54, fov=math.radians(70.0),
                      filter_gain=1.0, refractive_index=1.5)


@pytest.fixture(scope="session")
def noise_params():
    return NoiseParams(bandwidth=20e6, ambient_photocurrent=10.93,
                       preamp_density=5e-12)


def led_at_dbm(power_dbm: float) -> LambertianLed:
    power = 10.0 ** ((power_dbm - 30.0) / 10.0)
    return LambertianLed(semi_angle_half_power=math.radians(60.0),
                         conversion_eta=0.44, height=3.0,
                         dc_bias=power / 0.44, i_min=0.0)


def links_at_dbm(power_dbm: float, receiver, noise_params, ratio: float = 10.0):
    """(led, bob, eve, eve_avg, power_watt) for one operating point."""
    power = 10.0 ** ((power_dbm - 30.0) / 10.0)
    led = led_at_dbm(power_dbm)
    bob = link_budget_from_geometry(led, receiver, noise_params,
                                    LinkGeometry.below_led(led, 0.0), power)
    eve = eve_link_from_quality_ratio(bob, ratio, led, receiver, noise_params, power)
    eve_avg = average_eve_link(led, receiver, noise_params, power)
    return led, bob, eve, eve_avg, power


def dirichlet_interior(rng: np.random.Generator, m: int, floor: float = 1e-3) -> np.ndarray:
    """Random simplex point bounded away from the boundary."""
    p = rng.dirichlet(np.ones(m))
    p = (1.0 - m * floor) * p + floor
    return p / p.sum()
