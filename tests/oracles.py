"""Eavesdropper-position oracles: independent checks on the closed-form
average gain and on the average-eavesdropper secrecy bound.

The package models an eavesdropper of unknown position only through
``channel.average_eve_gain``; these sample or integrate over the positions
directly.  Tests import them as ``from oracles import ...``.
"""
import itertools
import math

import numpy as np
from scipy.integrate import quad

from pcs_shaper.capacity import MixtureModel, channel_capacity
from pcs_shaper.channel import _eve_gain_prefactor, noise_variance
from pcs_shaper.exceptions import ConfigError, NonConvergenceError
from pcs_shaper.montecarlo import _chunk_rng
from pcs_shaper.validation import check_integer


def average_eve_gain_quadrature(led, pd) -> float:
    """Direct numerical evaluation of the radial-average integral: scipy's
    adaptive ``quad`` against :func:`channel.average_eve_gain`'s 2F1."""
    l_order = led.lambert_order
    big_l = led.height
    r_max = big_l * math.tan(pd.fov)
    xi = _eve_gain_prefactor(led, pd)

    def integrand(r):
        return (big_l**2 + r**2) ** (-(l_order + 3.0) / 2.0)

    val, err = quad(integrand, 0.0, r_max, epsabs=0.0, epsrel=1e-12, limit=200)
    if err > 1e-9 * abs(val):
        raise NonConvergenceError("radial-average gain quadrature did not converge")
    return xi * big_l**l_order / math.tan(pd.fov) * val


def sample_eve_positions(n: int, led, pd, noise, optical_power: float,
                         seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Composite gains and noise sigmas of ``n`` eavesdroppers on the floor
    plane, their nadir offsets r uniform on ``[0, L tan(FoV))``: the density
    under which the closed-form average gain is exact.

    Each gain is ``channel_gain`` at ``LinkGeometry.below_led(led, r)``, as
    ``link_budget_from_geometry`` scales it.  The angles and distances come
    from ``math``, as in ``below_led``: numpy's ``arctan2`` and ``hypot``
    differ from them in the last bit, and the cosines multiply an angle's
    rounding by up to ``tan(FoV)``.  As ``r < L tan(FoV)``, every position
    lies inside the field of view.
    """
    check_integer("n", n, 1)
    radii = (led.height * math.tan(pd.fov) * _chunk_rng(seed, 0).random(n)).tolist()
    ang = np.fromiter(map(math.atan2, radii, itertools.repeat(led.height)), float, n)
    distance = np.fromiter(map(math.hypot, itertools.repeat(led.height), radii), float, n)
    cos_ang = np.cos(ang)
    l_order = led.lambert_order
    radiant = (l_order + 1.0) / (2.0 * math.pi) * cos_ang ** l_order
    gains = (pd.area / distance**2) * radiant * pd.filter_gain \
        * pd.concentrator_gain(0.0) * cos_ang
    sigmas = np.sqrt(noise_variance(pd, noise, gains, optical_power))
    return gains * pd.responsivity_gamma * led.conversion_eta, sigmas


def avg_secrecy_capacity_mc(p, bob, eve_links, c) -> tuple[float, float]:
    """Mean and standard error of the secrecy capacity over ``eve_links``, the
    eavesdropper link budgets of sampled positions, at least two."""
    if len(eve_links) < 2:
        raise ConfigError("a standard error needs at least two eavesdropper links")
    cap_b = channel_capacity(MixtureModel.from_link(c, p, bob))
    vals = np.array([cap_b - channel_capacity(MixtureModel.from_link(c, p, link))
                     for link in eve_links])
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))
