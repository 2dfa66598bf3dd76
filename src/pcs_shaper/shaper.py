"""Estimator-style facade over the shaping designer.

``PcsShaper`` follows the scikit-learn conventions (constructor stores plain
hyperparameters, ``fit`` computes trailing-underscore attributes,
``get_params`` / ``set_params`` expose the configuration) so the designer can
be cloned, grid-swept, and composed with the wider ecosystem without importing
it anywhere here.  After fitting, ``predict`` runs MAP symbol detection on
received samples and ``sample`` draws shaped symbol indices.
"""
from __future__ import annotations

import inspect

import numpy as np

from .channel import LinkBudget
from .constellation import ConstraintSet, build_constellation
from .exceptions import ConfigError
from .montecarlo import _draw_symbols, map_detect
from .solver import CccpSettings, DesignProblem, SolveResult, solve

__all__ = ["PcsShaper"]


class PcsShaper:
    """Designs a shaped M-PAM distribution for one operating point.

    Parameters mirror the solver settings; see :mod:`pcs_shaper.solver`.
    """

    def __init__(self, modulation_order: int = 8, variant: str = "known_csi",
                 mode: str = "flicker", flicker_alpha: float = 0.01,
                 pre_fec_threshold: float = 3.8e-3, n_starts: int = 32,
                 max_iters: int = 50, rel_tol: float = 1e-2, seed: int = 0):
        self.modulation_order = modulation_order
        self.variant = variant
        self.mode = mode
        self.flicker_alpha = flicker_alpha
        self.pre_fec_threshold = pre_fec_threshold
        self.n_starts = n_starts
        self.max_iters = max_iters
        self.rel_tol = rel_tol
        self.seed = seed

    # -- sklearn-style parameter plumbing --------------------------------
    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "PcsShaper":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ConfigError(f"unknown parameter {key!r} for PcsShaper")
            setattr(self, key, value)
        return self

    # -- fitting ----------------------------------------------------------
    def fit(self, bob: LinkBudget, eve: LinkBudget, dc_bias: float,
            peak_amplitude: float | None = None) -> "PcsShaper":
        """Solve the configured design problem for the given links.

        ``eve`` is the known eavesdropper link for the known-CSI and QoS
        variants, or the average-eavesdropper summary for the unknown-CSI
        ones.  ``peak_amplitude`` defaults to ``dc_bias`` (symmetric drive
        range).
        """
        a = dc_bias if peak_amplitude is None else peak_amplitude
        constellation = build_constellation(self.modulation_order, a)
        constraints = ConstraintSet(pre_fec_threshold=self.pre_fec_threshold,
                                    flicker_alpha=self.flicker_alpha,
                                    mode=self.mode)
        known_side = self.variant in ("known_csi", "qos_max_eve_ber")
        problem = DesignProblem(
            variant=self.variant,
            constellation=constellation,
            bob_link=bob,
            dc_bias=dc_bias,
            constraints=constraints,
            eve_link=eve if known_side else None,
            eve_avg=None if known_side else eve,
        )
        settings = CccpSettings(max_iters=self.max_iters, rel_tol=self.rel_tol,
                                n_starts=self.n_starts, seed=self.seed)
        result: SolveResult = solve(problem, settings)
        self.constellation_ = constellation
        self.bob_link_ = bob
        self.result_ = result
        self.probabilities_ = result.p_opt.probs
        self.objective_ = result.objective
        return self

    def _check_fitted(self):
        if not hasattr(self, "result_"):
            raise ConfigError("this PcsShaper instance is not fitted yet")

    # -- post-fit helpers ---------------------------------------------------
    def predict(self, y) -> np.ndarray | int:
        """MAP-detect received photocurrent samples on the fitted design."""
        self._check_fitted()
        return map_detect(y, self.constellation_, self.probabilities_, self.bob_link_)

    def sample(self, n: int, seed: int = 0) -> np.ndarray:
        """Draw n shaped symbol indices (inverse-CDF, never an inactive symbol)."""
        self._check_fitted()
        return _draw_symbols(self.probabilities_, np.random.default_rng(seed).random(n))

    def score(self) -> float:
        """Final design objective (variant-dependent units)."""
        self._check_fitted()
        return float(self.objective_)
