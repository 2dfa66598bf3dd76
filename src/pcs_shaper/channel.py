"""Line-of-sight visible-light channel model.

Covers the Lambertian LED emission pattern, the photodiode front end with an
optical concentrator, the receiver noise budget, and the spatially averaged
eavesdropper gain expressed through the Gauss hypergeometric function
2F1(1/2, b; 3/2; z), the one case the model needs, evaluated as a fixed
Gauss-Legendre integral.

All angles are radians internally; the CLI converts from the degrees quoted in
typical link budgets.  A link is summarized by its composite small-signal gain
``h * gamma * eta`` (drive-current amplitude to received photocurrent) and the
noise standard deviation ``sigma``, both in amperes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .exceptions import ConfigError
from .validation import _as_float, check_in_interval, check_positive

__all__ = [
    "LambertianLed",
    "ReceiverPd",
    "LinkGeometry",
    "NoiseParams",
    "LinkBudget",
    "channel_gain",
    "noise_variance",
    "hyp2f1",
    "average_eve_gain",
    "link_budget_from_geometry",
    "eve_link_from_quality_ratio",
    "average_eve_link",
]

ELEMENTARY_CHARGE = 1.602176634e-19  # coulombs


@dataclass(frozen=True)
class LambertianLed:
    """LED transmitter: Lambertian beam plus the dynamic linear drive range.

    The Lambertian order is ``l = -ln 2 / ln cos(semi_angle_half_power)``; a
    60 degree semi-angle gives l = 1.  The usable bipolar symbol swing around
    the bias is ``min(i_max - dc_bias, dc_bias - i_min)``.
    """

    semi_angle_half_power: float   # radians
    conversion_eta: float          # W/A electro-optical conversion
    height: float                  # meters above the receiver plane
    dc_bias: float                 # amperes
    i_min: float = 0.0
    i_max: float = math.inf

    def __post_init__(self):
        check_in_interval("semi_angle_half_power", self.semi_angle_half_power,
                          0.0, math.pi / 2, open_lo=True, open_hi=True)
        check_positive("conversion_eta", self.conversion_eta)
        check_positive("height", self.height)
        check_in_interval("dc_bias", self.dc_bias, _as_float("i_min", self.i_min),
                          _as_float("i_max", self.i_max))

    @property
    def lambert_order(self) -> float:
        return -math.log(2.0) / math.log(math.cos(self.semi_angle_half_power))

    @property
    def peak_amplitude(self) -> float:
        """Largest symbol amplitude that keeps the drive current in its linear range."""
        return min(self.i_max - self.dc_bias, self.dc_bias - self.i_min)


@dataclass(frozen=True)
class ReceiverPd:
    """Photodiode with optical filter and idealized concentrator."""

    area: float                    # m^2
    responsivity_gamma: float      # A/W
    fov: float                     # radians, field-of-view half angle
    filter_gain: float = 1.0
    refractive_index: float = 1.5

    def __post_init__(self):
        check_positive("area", self.area)
        check_positive("responsivity_gamma", self.responsivity_gamma)
        check_in_interval("fov", self.fov, 0.0, math.pi / 2, open_lo=True, open_hi=True)
        check_positive("filter_gain", self.filter_gain)
        check_positive("refractive_index", self.refractive_index)

    def concentrator_gain(self, incidence_angle: float) -> float:
        """kappa^2 / sin^2(FoV) inside the field of view, zero outside."""
        if 0.0 <= incidence_angle <= self.fov:
            return self.refractive_index**2 / math.sin(self.fov) ** 2
        return 0.0


@dataclass(frozen=True)
class LinkGeometry:
    distance: float                # meters
    irradiance_angle: float = 0.0  # radians, at the LED
    incidence_angle: float = 0.0   # radians, at the PD

    def __post_init__(self):
        check_positive("distance", self.distance)
        check_in_interval("irradiance_angle", self.irradiance_angle, 0.0, math.pi / 2)
        check_in_interval("incidence_angle", self.incidence_angle, 0.0, math.pi / 2)

    @classmethod
    def below_led(cls, led: LambertianLed, radial_offset: float = 0.0) -> "LinkGeometry":
        """Geometry for a receiver on the floor plane, ``radial_offset`` m off nadir."""
        d = math.hypot(led.height, radial_offset)
        ang = math.atan2(radial_offset, led.height)
        return cls(distance=d, irradiance_angle=ang, incidence_angle=ang)


@dataclass(frozen=True)
class NoiseParams:
    """Receiver noise budget: shot, ambient-light, and pre-amplifier terms."""

    bandwidth: float                    # Hz
    ambient_photocurrent: float         # A/(m^2 sr)
    preamp_density: float               # A/sqrt(Hz)

    def __post_init__(self):
        for name in ("bandwidth", "preamp_density"):
            check_positive(name, getattr(self, name))
        # zero ambient light is a legitimate dark-room operating point
        check_positive("ambient_photocurrent", self.ambient_photocurrent,
                       allow_zero=True)


@dataclass(frozen=True)
class LinkBudget:
    """Composite amplitude gain h*gamma*eta (A/A) and noise sigma (A)."""

    composite_gain: float
    sigma: float

    def __post_init__(self):
        check_positive("composite_gain", self.composite_gain, allow_zero=True)
        check_positive("sigma", self.sigma)

    @property
    def quality(self) -> float:
        """Gain-to-noise ratio; the degradedness comparison between receivers."""
        return self.composite_gain / self.sigma


def channel_gain(led: LambertianLed, pd: ReceiverPd, geom: LinkGeometry) -> float:
    """DC gain of the LoS optical channel.

    Returns ``(A_r / d^2) * L(phi) * T * g(psi) * cos(psi)`` with the Lambertian
    radiant intensity ``L(phi) = (l+1)/(2 pi) * cos^l(phi)``.  Outside the PD
    field of view the gain is exactly zero (a valid value, not an error).
    """
    if geom.incidence_angle > pd.fov:
        return 0.0
    l_order = led.lambert_order
    radiant = (l_order + 1.0) / (2.0 * math.pi) * math.cos(geom.irradiance_angle) ** l_order
    return (pd.area / geom.distance**2) * radiant * pd.filter_gain \
        * pd.concentrator_gain(geom.incidence_angle) * math.cos(geom.incidence_angle)


def noise_variance(pd: ReceiverPd, noise: NoiseParams, gain: float,
                   optical_power: float) -> float:
    """Total receiver noise variance in A^2 (elementwise for an array of gains).

    ``B * (2 e gamma h P_t + 4 pi e gamma A_r chi (1 - cos FoV) + i_amp^2)``:
    signal shot noise, ambient-light shot noise over the concentrator's
    acceptance cone, and the pre-amplifier contribution.
    """
    if optical_power < 0:
        raise ConfigError(f"optical_power must be >= 0, got {optical_power}")
    e = ELEMENTARY_CHARGE
    g = pd.responsivity_gamma
    shot = 2.0 * e * g * gain * optical_power
    ambient = 4.0 * math.pi * e * g * pd.area * noise.ambient_photocurrent \
        * (1.0 - math.cos(pd.fov))
    return noise.bandwidth * (shot + ambient + noise.preamp_density**2)


@cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """96-node Gauss-Legendre nodes and weights on [-1, 1].

    Built on first use: the eigen-solve behind the rule takes about 8 ms (a
    2-core x86 VM), which only the unknown-CSI designs need, so importing the
    package does not pay it.
    """
    return leggauss(96)


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(1/2, b; 3/2; z) on the z <= 0 branch.

    With ``x = sqrt(-z)``, substituting ``x u = tan(theta)`` in Euler's integral
    ``int_0^1 (1 + x^2 u^2)^(-b) du`` gives

        2F1(1/2, b; 3/2; -x^2) = (1/x) int_0^atan(x) cos^(2b-2)(theta) dtheta,

    which a fixed 96-node Gauss-Legendre rule evaluates.  On the package's
    arguments, ``b = (l + 3)/2`` and ``z = -tan^2(FoV)``, it is accurate to
    about 1e-14 relative up to a FoV of 89.9 degrees and 1e-10 closer to 90.

    The domain is ``z <= 0`` for ``b >= 1`` and ``-40 <= z <= 0`` for
    ``b < 1``, where it agrees with the series to about 1e-12 relative.  For
    ``b < 1`` the integrand grows without bound towards pi/2, and beyond
    ``z = -40`` the fixed rule loses digits (2e-7 relative at ``b = 0.3``,
    ``z = -1e5``), so such arguments raise ConfigError, as do a non-finite
    ``b`` or ``z`` and any other ``(a, c)``.
    """
    if (a, c) != (0.5, 1.5):
        raise ConfigError(f"only 2F1(1/2, b; 3/2; z) is supported, got a={a}, c={c}")
    if not (math.isfinite(b) and math.isfinite(z)):
        raise ConfigError(f"b and z must be finite, got b={b}, z={z}")
    if z > 0:
        raise ConfigError(f"only the z <= 0 branch is supported, got z={z}")
    if b < 1.0 and z < -40.0:
        raise ConfigError(f"for b < 1 only z >= -40 is supported, got b={b}, z={z}")
    if z == 0:
        return 1.0
    x = math.sqrt(-z)
    half = 0.5 * math.atan(x)
    nodes, weights = _legendre_rule()
    return half * float(weights @ np.cos(half * (nodes + 1.0)) ** (2.0 * b - 2.0)) / x


def _eve_gain_prefactor(led: LambertianLed, pd: ReceiverPd) -> float:
    """Xi = A_r (l+1) T g / (2 pi), the angle-independent part of the gain."""
    return pd.area * (led.lambert_order + 1.0) / (2.0 * math.pi) \
        * pd.filter_gain * pd.concentrator_gain(0.0)


def average_eve_gain(led: LambertianLed, pd: ReceiverPd) -> float:
    """Average channel gain of a receiver at radially uniform distance from nadir.

    Within the field of view the gain at radial offset r is
    ``Xi * L^(l+1) * (L^2 + r^2)^(-(l+3)/2)``; averaging r uniformly over
    ``[0, L tan(FoV)]`` gives ``Xi * L^(-2) * 2F1(1/2, (l+3)/2; 3/2, -tan^2(FoV))``.
    """
    check_in_interval("fov", pd.fov, 0.0, math.pi / 2, open_lo=True, open_hi=True)
    l_order = led.lambert_order
    f21 = hyp2f1(0.5, (l_order + 3.0) / 2.0, 1.5, -math.tan(pd.fov) ** 2)
    return _eve_gain_prefactor(led, pd) / led.height**2 * f21


def link_budget_from_geometry(led: LambertianLed, pd: ReceiverPd, noise: NoiseParams,
                              geom: LinkGeometry, optical_power: float) -> LinkBudget:
    """Assemble the composite gain and noise sigma for one receiver position."""
    h = channel_gain(led, pd, geom)
    var = noise_variance(pd, noise, h, optical_power)
    comp = h * pd.responsivity_gamma * led.conversion_eta
    return LinkBudget(composite_gain=comp, sigma=math.sqrt(var))


def eve_link_from_quality_ratio(bob: LinkBudget, ratio: float, led: LambertianLed,
                                pd: ReceiverPd, noise: NoiseParams,
                                optical_power: float) -> LinkBudget:
    """Eavesdropper link whose gain-to-noise ratio is ``bob.quality / ratio``.

    Because the shot-noise term depends on the unknown gain h_E, the defining
    relation ``h / sigma(h) = q`` is a quadratic in h; we take its positive root.
    """
    check_positive("ratio", ratio)
    gamma_eta = pd.responsivity_gamma * led.conversion_eta
    q_target = bob.quality / ratio / gamma_eta     # target h / sigma ratio
    # sigma^2(h) = b_lin h + const: the shot term and the gain-free terms
    b_lin = noise.bandwidth * 2.0 * ELEMENTARY_CHARGE * pd.responsivity_gamma * optical_power
    const = noise_variance(pd, noise, 0.0, optical_power)
    h = (q_target**2 * b_lin
         + math.sqrt(q_target**4 * b_lin**2 + 4.0 * q_target**2 * const)) / 2.0
    sigma = math.sqrt(noise_variance(pd, noise, h, optical_power))
    return LinkBudget(composite_gain=h * gamma_eta, sigma=sigma)


def average_eve_link(led: LambertianLed, pd: ReceiverPd, noise: NoiseParams,
                     optical_power: float) -> LinkBudget:
    """Average-Eve summary (h_bar * gamma * eta, sigma_bar) for unknown-CSI designs.

    sigma_bar is the noise sigma evaluated at the average gain, not an average
    of per-position sigmas.
    """
    h_bar = average_eve_gain(led, pd)
    var = noise_variance(pd, noise, h_bar, optical_power)
    comp = h_bar * pd.responsivity_gamma * led.conversion_eta
    return LinkBudget(composite_gain=comp, sigma=math.sqrt(var))
