"""Probabilistic constellation shaping for secure M-PAM visible-light links.

Library layout:

* :mod:`pcs_shaper.channel` - Lambertian LoS gains, noise budget, average
  eavesdropper gain (Gauss 2F1)
* :mod:`pcs_shaper.constellation` - shaped M-PAM grids, Gray labels,
  flicker / symmetry constraints
* :mod:`pcs_shaper.error_rate` - closed-form SER/BER bounds, approximations,
  gradients
* :mod:`pcs_shaper.capacity` - Gaussian-mixture entropy, channel and secrecy
  capacity, average-eavesdropper bounds
* :mod:`pcs_shaper.solver` - constrained concave maximization and the four
  sequential-linearization design procedures
* :mod:`pcs_shaper.montecarlo` - MAP-detector simulation and the pairwise
  event oracle
* :mod:`pcs_shaper.cli` - JSON-config experiment harness (``pcs-shaper``)
"""
from .channel import (
    LambertianLed,
    LinkBudget,
    LinkGeometry,
    NoiseParams,
    ReceiverPd,
    average_eve_gain,
    average_eve_link,
    channel_gain,
    eve_link_from_quality_ratio,
    hyp2f1,
    link_budget_from_geometry,
    noise_variance,
)
from .capacity import (
    MixtureModel,
    channel_capacity,
    mixture_entropy,
    secrecy_capacity,
    secrecy_lb_estimate,
)
from .constellation import (
    ConstraintSet,
    Distribution,
    PamConstellation,
    symmetry_residual,
)
from .error_rate import (
    PairwiseGeometry,
    ber_approx,
    ber_upper_bound,
    grad_ber_upper,
    pairwise_error_prob,
    ser_approx,
    ser_upper_bound,
)
from .exceptions import (
    ConfigError,
    DegradedRegimeError,
    InfeasibleError,
    NonConvergenceError,
    PcsShaperError,
)
from .montecarlo import ErrorStats, SimConfig, map_detect, simulate_error_rates
from .solver import (
    CccpSettings,
    DesignProblem,
    SolveResult,
    linearized_ber_constraint,
    solve,
)

__version__ = "0.1.0"
