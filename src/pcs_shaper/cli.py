"""Configuration-driven experiment harness.

``pcs-shaper run config.json`` executes one scenario from a JSON document and
writes CSV artifacts whose first line carries the fully resolved configuration
as a comment for provenance.  ``pcs-shaper paper-config`` emits the default
simulation setup; ``pcs-shaper validate`` runs the quick oracle cross-checks.
``ExperimentConfig`` checks and resolves a config once, when it is built:
every key a section leaves out takes its paper value.

Exit codes: 0 success, 2 configuration error (a malformed config exits here
before anything runs), 3 infeasible design, 4 validation mismatch (or any
other package error), 5 a numerical procedure did not converge, 6 the
eavesdropper link is not degraded (no positive-secrecy regime).

Powers are quoted in dBm of average emitted optical power; at each grid point
the DC bias is ``P / eta`` and the peak symbol amplitude defaults to the
symmetric drive range around that bias.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .capacity import secrecy_capacity, secrecy_lb_estimate
from .channel import LambertianLed, LinkBudget, LinkGeometry, NoiseParams, \
    ReceiverPd, average_eve_link, eve_link_from_quality_ratio, hyp2f1, \
    link_budget_from_geometry
from .constellation import ConstraintSet, Distribution, build_constellation
from .error_rate import PairwiseGeometry, ber_approx, pairwise_error_prob, \
    ser_approx, ser_upper_bound
from .exceptions import ConfigError, DegradedRegimeError, InfeasibleError, \
    NonConvergenceError, PcsShaperError
from .montecarlo import SimConfig, pairwise_error_mc, simulate_error_rates
from .solver import CccpSettings, DesignProblem, feasibility_report, solve
from .validation import check_power_of_two

SCENARIOS = ("design_known", "design_unknown", "design_qos", "sweep_power",
             "convergence_trace")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 4
EXIT_NONCONVERGENCE = 5
EXIT_DEGRADED = 6
# each package error's exit code and stderr prefix; the first type that
# matches wins, so the base class comes last
_ERRORS = ((InfeasibleError, EXIT_INFEASIBLE, "infeasible design"),
           (ConfigError, EXIT_CONFIG, "config error"),
           (NonConvergenceError, EXIT_NONCONVERGENCE, "no convergence"),
           (DegradedRegimeError, EXIT_DEGRADED, "eavesdropper not degraded"),
           (PcsShaperError, EXIT_VALIDATION, "error"))


# The paper's simulation setup: every section's keys and their values.  A
# config section is merged over its entry here; ``eve`` has no entry, since
# an eavesdropper is placed either by a quality ratio or by a position.
_PAPER = {
    "led": {"semi_angle_half_power_deg": 60.0, "conversion_eta": 0.44,
            "height": 3.0, "i_min": 0.0, "i_max": None},
    "receiver": {"area": 1e-4, "responsivity_gamma": 0.54, "fov_deg": 70.0,
                 "filter_gain": 1.0, "refractive_index": 1.5},
    "noise": {"bandwidth": 20e6, "ambient_photocurrent": 10.93,
              "preamp_density": 5e-12},
    "bob": {"radial_offset": 0.0},
    "constraints": {"pre_fec_threshold": 3.8e-3, "flicker_alpha": 0.01,
                    "mode": "flicker"},
    "solver": {"max_iters": 50, "rel_tol": 1e-2, "n_starts": 32, "seed": 2024},
    "montecarlo": {"n_symbols": 200_000, "seed": 7},
}
_EVE_KEYS = ("quality_ratio", "radial_offset")
# the variant each design scenario solves; the others keep the configured one
_SCENARIO_VARIANT = {"design_known": "known_csi", "design_unknown": "unknown_csi",
                     "design_qos": "qos_max_eve_ber"}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _fits(value, paper) -> bool:
    """Whether ``value`` has the type of the paper value it replaces: a string,
    an int, null or a number (``led.i_max``), else a finite number."""
    if isinstance(paper, str):
        return isinstance(value, str)
    if isinstance(paper, int):
        return isinstance(value, int) and not isinstance(value, bool)
    return (paper is None and value is None) or _is_number(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, complete and checked once it is built.

    However it is made (``from_dict``, ``dataclasses.replace`` or the
    constructor), every section holds its ``_PAPER`` values under the given
    ones, ``variant`` is the variant the scenario solves, and ``power_dbm`` is
    a list of floats.  A malformed value, a section value whose type is not
    that of its ``_PAPER`` value, or an unknown key is a ConfigError.
    """

    scenario: str = "sweep_power"
    modulation_order: int = 8
    variant: str = "known_csi"
    led: dict = field(default_factory=dict)
    receiver: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)
    bob: dict = field(default_factory=dict)
    eve: dict = field(default_factory=dict)
    constraints: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    montecarlo: dict = field(default_factory=dict)
    power_dbm: list = field(default_factory=list)
    peak_amplitude: float | None = None
    output: str = "results.csv"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, "
                              f"got {self.scenario!r}")
        for name in (*_PAPER, "eve"):
            given = getattr(self, name)
            if not isinstance(given, dict):
                raise ConfigError(f"{name} must be an object, got {given!r}")
            extra = set(given) - set(_PAPER.get(name, _EVE_KEYS))
            if extra:
                raise ConfigError(f"unknown {name} keys: {sorted(extra)}")
            object.__setattr__(self, name, {**_PAPER.get(name, {}), **given})
            for key, value in given.items():
                paper = _PAPER.get(name, {}).get(key, 0.0)     # eve keys are numbers
                if not _fits(value, paper):
                    raise ConfigError(f"{name}.{key} must have the type of "
                                      f"{paper!r}, got {value!r}")
        if all(k in self.eve for k in _EVE_KEYS):
            raise ConfigError(f"eve takes one of {_EVE_KEYS}, not both")
        CccpSettings(**self.solver)     # rejects out-of-range solver values
        if self.montecarlo["seed"] < 0 or self.montecarlo["n_symbols"] < 1:
            raise ConfigError("montecarlo needs seed >= 0 and n_symbols >= 1, "
                              f"got {self.montecarlo}")

        variant = _SCENARIO_VARIANT.get(self.scenario, self.variant)
        if variant == "unknown_csi" and self.constraints["mode"] == "symmetric":
            variant = "unknown_csi_symmetric"
        object.__setattr__(self, "variant", variant)

        check_power_of_two("modulation_order", self.modulation_order)
        powers = self.power_dbm
        if not (isinstance(powers, list) and powers and all(map(_is_number, powers))):
            raise ConfigError("power_dbm must be a non-empty list of finite "
                              f"numbers, got {powers!r}")
        object.__setattr__(self, "power_dbm", [float(x) for x in powers])
        peak = self.peak_amplitude
        if peak is not None and not (_is_number(peak) and peak > 0):
            raise ConfigError(f"peak_amplitude must be null or > 0, got {peak!r}")
        if not (isinstance(self.output, str) and self.output):
            raise ConfigError(f"output must be a non-empty file name, got {self.output!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        extra = set(data) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)


def default_paper_config() -> ExperimentConfig:
    """Default experiment: the standard indoor downlink simulation setup."""
    return ExperimentConfig(eve={"quality_ratio": 10.0},
                            power_dbm=[float(x) for x in range(20, 36)],
                            output="sweep_power.csv")


# ---------------------------------------------------------------------------
# resolution of one operating point
# ---------------------------------------------------------------------------

@dataclass
class OperatingPoint:
    power_dbm: float
    problem: DesignProblem


def resolve_point(cfg: ExperimentConfig, power_dbm: float) -> OperatingPoint:
    """Assemble constellation, links, and a design problem for one grid power."""
    power_watt = 10.0 ** ((power_dbm - 30.0) / 10.0)
    led_cfg = cfg.led
    eta = led_cfg["conversion_eta"]
    led = LambertianLed(
        semi_angle_half_power=math.radians(led_cfg["semi_angle_half_power_deg"]),
        conversion_eta=eta,
        height=led_cfg["height"],
        dc_bias=power_watt / eta,
        i_min=led_cfg["i_min"],
        i_max=math.inf if led_cfg["i_max"] is None else led_cfg["i_max"],
    )
    r = cfg.receiver
    pd = ReceiverPd(area=r["area"], responsivity_gamma=r["responsivity_gamma"],
                    fov=math.radians(r["fov_deg"]), filter_gain=r["filter_gain"],
                    refractive_index=r["refractive_index"])
    noise = NoiseParams(**cfg.noise)
    bob_geom = LinkGeometry.below_led(led, cfg.bob["radial_offset"])
    bob = link_budget_from_geometry(led, pd, noise, bob_geom, power_watt)

    peak = cfg.peak_amplitude if cfg.peak_amplitude is not None else led.peak_amplitude
    constellation = build_constellation(cfg.modulation_order, peak)

    eve_link = eve_avg = None
    eve = cfg.eve
    if cfg.variant.startswith("unknown_csi"):
        eve_avg = average_eve_link(led, pd, noise, power_watt)
    elif "quality_ratio" in eve:
        eve_link = eve_link_from_quality_ratio(bob, eve["quality_ratio"],
                                               led, pd, noise, power_watt)
    elif "radial_offset" in eve:
        geom = LinkGeometry.below_led(led, eve["radial_offset"])
        eve_link = link_budget_from_geometry(led, pd, noise, geom, power_watt)
    else:
        raise ConfigError("eve must specify quality_ratio or radial_offset "
                          "for known-CSI designs")

    problem = DesignProblem(variant=cfg.variant, constellation=constellation,
                            bob_link=bob, dc_bias=led.dc_bias,
                            constraints=ConstraintSet(**cfg.constraints),
                            eve_link=eve_link, eve_avg=eve_avg)
    return OperatingPoint(power_dbm=power_dbm, problem=problem)


def _solved(cfg: ExperimentConfig):
    """(point, result) for each grid power, in order: the solving scenarios' loop."""
    settings = CccpSettings(**cfg.solver)
    for power in cfg.power_dbm:
        point = resolve_point(cfg, power)
        yield point, solve(point.problem, settings)


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------

def _write_csv(path: Path, cfg: ExperimentConfig, header: list[str],
               rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("# config: " + json.dumps(cfg.to_dict(), sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _secrecy_metric(point: OperatingPoint, p) -> float:
    prob = point.problem
    if prob.variant.startswith("unknown_csi"):
        return secrecy_lb_estimate(p, prob.bob_link, prob.eve_avg,
                                   prob.constellation)
    return secrecy_capacity(p, prob.bob_link, prob.eve_link, prob.constellation)


def _bob_mc_ber(cfg: ExperimentConfig, point: OperatingPoint, p: Distribution,
                row: int) -> float:
    """Simulated BER of CSV row ``row``, on a stream keyed by the config's
    seed and the row, so that no two rows share their Monte-Carlo errors."""
    mc = cfg.montecarlo
    seed = np.random.SeedSequence(mc["seed"], spawn_key=(row,)).generate_state(1, np.uint64)
    return simulate_error_rates(SimConfig(
        n_symbols=mc["n_symbols"], seed=int(seed[0]), link=point.problem.bob_link,
        constellation=point.problem.constellation, distribution=p)).ber


def _sweep_row(cfg: ExperimentConfig, point: OperatingPoint, scheme: str,
               p: Distribution, row: int) -> list:
    """CSV row ``row``; the BER bound and feasibility come from one report."""
    report = feasibility_report(point.problem, p.probs)
    if "symmetry_residual_max" in report:
        feasible = report["symmetry_residual_max"] < 1e-9
    else:
        feasible = report["flicker_excess"] <= 1e-12
    return [point.power_dbm, scheme, _secrecy_metric(point, p), report["ber_upper"],
            _bob_mc_ber(cfg, point, p, row), report["ber_upper_excess"] <= 1e-8 and feasible]


def _run_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    uniform = Distribution.uniform(cfg.modulation_order)
    rows = []
    for point, result in _solved(cfg):
        for scheme, p in (("uniform", uniform), ("pcs", result.p_opt)):
            rows.append(_sweep_row(cfg, point, scheme, p, len(rows)))
    _write_csv(out_dir / cfg.output, cfg,
               ["power_dbm", "scheme", "secrecy_bits", "ber_analytic",
                "ber_montecarlo", "feasible"], rows)
    print(f"sweep_power: wrote {len(rows)} rows to {out_dir / cfg.output}")
    for row in rows:
        print("  " + " ".join(_fmt(x) for x in row))
    return EXIT_OK


def _run_design(cfg: ExperimentConfig, out_dir: Path) -> int:
    rows = []
    for point, result in _solved(cfg):
        rendered = result.p_opt.rendered()
        amps = point.problem.constellation.amplitudes
        for m in range(cfg.modulation_order):
            rows.append([point.power_dbm, m + 1, amps[m], rendered[m]])
        extra = ""
        if cfg.scenario == "design_qos":
            eve_ber = ber_approx(point.problem.constellation, result.p_opt,
                                 point.problem.eve_link)
            extra = f" eve_ber_approx={eve_ber:.4g}"
        print(f"{cfg.scenario} @ {point.power_dbm} dBm: objective={result.objective:.6g} "
              f"iterations={result.iterations} converged={result.converged} "
              f"inactive={result.inactive_count}{extra}")
    _write_csv(out_dir / cfg.output, cfg,
               ["power_dbm", "symbol_index", "amplitude", "probability"], rows)
    print(f"{cfg.scenario}: wrote {len(rows)} rows to {out_dir / cfg.output}")
    return EXIT_OK


def _run_convergence(cfg: ExperimentConfig, out_dir: Path) -> int:
    rows = []
    for point, result in _solved(cfg):
        iter_counts = []
        for rec in result.per_start:
            if not rec["feasible"]:
                continue
            rows.append([point.power_dbm, rec["start_index"], rec["iterations"],
                         rec["converged"], rec["objective"]])
            iter_counts.append(rec["iterations"])
        if iter_counts:
            print(f"convergence_trace @ {point.power_dbm} dBm: mean iterations "
                  f"{np.mean(iter_counts):.2f} over {len(iter_counts)} starts")
    _write_csv(out_dir / cfg.output, cfg,
               ["power_dbm", "start_index", "iterations", "converged",
                "objective"], rows)
    return EXIT_OK


def _run_validate() -> int:
    """Quick oracle cross-checks; nonzero exit on any mismatch."""
    rng = np.random.default_rng(202406)
    checks: list[tuple[str, bool]] = []

    # closed-form pairwise probability vs direct event simulation
    ok = True
    for _ in range(5):
        w = rng.dirichlet([1.0, 1.0])
        geom = PairwiseGeometry(d=float(rng.uniform(0.8, 4.0)), sigma=1.0)
        exact = pairwise_error_prob(w[0], w[1], geom)
        est, se = pairwise_error_mc(w[0], w[1], geom, 400_000,
                                    seed=int(rng.integers(2**31)))
        ok &= abs(est - exact) <= 4.0 * max(se, 1e-6)
    checks.append(("pairwise closed form vs simulation", ok))

    # bound ordering on random 8-PAM configurations
    ok = True
    c8 = build_constellation(8, 4.0)
    for _ in range(4):
        p = Distribution(rng.dirichlet(np.ones(8)))
        link = LinkBudget(composite_gain=1.0, sigma=float(rng.uniform(0.3, 1.2)))
        ub = ser_upper_bound(c8, p, link)
        ap = ser_approx(c8, p, link)
        sim = simulate_error_rates(SimConfig(n_symbols=200_000,
                                             seed=int(rng.integers(2**31)),
                                             link=link, constellation=c8,
                                             distribution=p))
        ok &= ap <= ub + 1e-12
        ok &= sim.ser <= ub + 4.0 * sim.ser_stderr
    checks.append(("SER approximation <= union bound, simulation <= bound", ok))

    # hypergeometric reduction at unit Lambertian order
    ok = True
    for deg in (30.0, 45.0, 70.0):
        psi = math.radians(deg)
        lhs = hyp2f1(0.5, 2.0, 1.5, -math.tan(psi) ** 2)
        rhs = (math.sin(2 * psi) + 2 * psi) / (4 * math.tan(psi))
        ok &= abs(lhs - rhs) <= 1e-10 * abs(rhs)
    checks.append(("2F1 closed-form reduction", ok))

    failed = [name for name, good in checks if not good]
    for name, good in checks:
        print(f"{'PASS' if good else 'FAIL'}  {name}")
    if failed:
        print(f"validation FAILED: {len(failed)} of {len(checks)} checks")
        return EXIT_VALIDATION
    print(f"validation passed: {len(checks)} checks")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(config_path: str, out_dir: str = ".", seed: int | None = None,
        starts: int | None = None) -> int:
    """Execute the scenario in ``config_path``; returns the process exit code."""
    try:
        with open(config_path) as fh:
            data = json.load(fh)
        cfg = ExperimentConfig.from_dict(data)
        if seed is not None:
            cfg = replace(cfg, solver={**cfg.solver, "seed": seed})
        if starts is not None:
            cfg = replace(cfg, solver={**cfg.solver, "n_starts": starts})
        out = Path(out_dir)
    except (OSError, json.JSONDecodeError, ConfigError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    runners = {"sweep_power": _run_sweep, "convergence_trace": _run_convergence}
    try:
        return runners.get(cfg.scenario, _run_design)(cfg, out)
    except PcsShaperError as exc:
        code, prefix = next((code, prefix) for kind, code, prefix in _ERRORS
                            if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pcs-shaper",
                                     description="Shaped M-PAM security designer")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--starts", type=int, default=None)

    sub.add_parser("validate", help="run the quick oracle cross-checks")

    sub.add_parser("paper-config", help="print the default experiment config")

    args = parser.parse_args(argv)
    if args.command == "paper-config":
        print(json.dumps(default_paper_config().to_dict(), indent=2))
        return EXIT_OK
    if args.command == "validate":
        return _run_validate()
    return run(args.config, out_dir=args.out, seed=args.seed, starts=args.starts)


if __name__ == "__main__":
    sys.exit(main())
