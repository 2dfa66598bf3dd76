"""Configuration-driven experiment harness.

``pcs-shaper run config.json`` executes one scenario from a JSON document and
writes CSV artifacts whose first line carries the fully resolved configuration
as a comment for provenance.  ``pcs-shaper paper-config`` emits the default
simulation setup; ``pcs-shaper validate`` runs the quick oracle cross-checks.

Exit codes: 0 success, 2 configuration error, 3 infeasible design,
4 validation mismatch (or any other package error), 5 a numerical procedure
did not converge, 6 the eavesdropper link is not degraded (no positive-secrecy
regime).

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
from .error_rate import PairwiseGeometry, ber_approx, ber_upper_bound, \
    pairwise_error_prob, ser_approx, ser_upper_bound
from .exceptions import ConfigError, DegradedRegimeError, InfeasibleError, \
    NonConvergenceError, PcsShaperError
from .montecarlo import SimConfig, pairwise_error_mc, simulate_error_rates
from .solver import CccpSettings, DesignProblem, solve

SCENARIOS = ("design_known", "design_unknown", "design_qos", "sweep_power",
             "validate_ber", "convergence_trace")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 4
EXIT_NONCONVERGENCE = 5
EXIT_DEGRADED = 6


@dataclass(frozen=True)
class ExperimentConfig:
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

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)


def default_paper_config() -> ExperimentConfig:
    """Default experiment: the standard indoor downlink simulation setup."""
    return ExperimentConfig(
        scenario="sweep_power",
        modulation_order=8,
        variant="known_csi",
        led={"semi_angle_half_power_deg": 60.0, "conversion_eta": 0.44,
             "height": 3.0, "i_min": 0.0, "i_max": None},
        receiver={"area": 1e-4, "responsivity_gamma": 0.54, "fov_deg": 70.0,
                  "filter_gain": 1.0, "refractive_index": 1.5},
        noise={"bandwidth": 20e6, "ambient_photocurrent": 10.93,
               "preamp_density": 5e-12},
        bob={"radial_offset": 0.0},
        eve={"quality_ratio": 10.0},
        constraints={"pre_fec_threshold": 3.8e-3, "flicker_alpha": 0.01,
                     "mode": "flicker"},
        solver={"max_iters": 50, "rel_tol": 1e-2, "n_starts": 32, "seed": 2024,
                "p_floor": 1e-9},
        montecarlo={"n_symbols": 200_000, "seed": 7},
        power_dbm=[float(x) for x in range(20, 36)],
        output="sweep_power.csv",
    )


# ---------------------------------------------------------------------------
# resolution of one operating point
# ---------------------------------------------------------------------------

@dataclass
class OperatingPoint:
    power_dbm: float
    power_watt: float
    led: LambertianLed
    pd: ReceiverPd
    noise: NoiseParams
    problem: DesignProblem
    uniform: Distribution


def _build_pd(cfg: ExperimentConfig) -> ReceiverPd:
    r = cfg.receiver
    return ReceiverPd(area=r.get("area", 1e-4),
                      responsivity_gamma=r.get("responsivity_gamma", 0.54),
                      fov=math.radians(r.get("fov_deg", 70.0)),
                      filter_gain=r.get("filter_gain", 1.0),
                      refractive_index=r.get("refractive_index", 1.5))


def _build_noise(cfg: ExperimentConfig) -> NoiseParams:
    n = cfg.noise
    return NoiseParams(bandwidth=n.get("bandwidth", 20e6),
                       ambient_photocurrent=n.get("ambient_photocurrent", 10.93),
                       preamp_density=n.get("preamp_density", 5e-12))


def _resolve_variant(cfg: ExperimentConfig) -> str:
    variant = cfg.variant
    mode = cfg.constraints.get("mode", "flicker")
    if cfg.scenario == "design_known":
        variant = "known_csi"
    elif cfg.scenario == "design_qos":
        variant = "qos_max_eve_ber"
    elif cfg.scenario == "design_unknown":
        variant = "unknown_csi_symmetric" if mode == "symmetric" else "unknown_csi"
    if variant == "unknown_csi" and mode == "symmetric":
        variant = "unknown_csi_symmetric"
    return variant


def resolve_point(cfg: ExperimentConfig, power_dbm: float) -> OperatingPoint:
    """Assemble constellation, links, and a design problem for one grid power."""
    power_watt = 10.0 ** ((power_dbm - 30.0) / 10.0)
    led_cfg = cfg.led
    eta = led_cfg.get("conversion_eta", 0.44)
    i_max = led_cfg.get("i_max")
    led = LambertianLed(
        semi_angle_half_power=math.radians(led_cfg.get("semi_angle_half_power_deg", 60.0)),
        conversion_eta=eta,
        height=led_cfg.get("height", 3.0),
        dc_bias=power_watt / eta,
        i_min=led_cfg.get("i_min", 0.0),
        i_max=math.inf if i_max is None else i_max,
    )
    pd = _build_pd(cfg)
    noise = _build_noise(cfg)
    bob_geom = LinkGeometry.below_led(led, cfg.bob.get("radial_offset", 0.0))
    bob = link_budget_from_geometry(led, pd, noise, bob_geom, power_watt)

    peak = cfg.peak_amplitude if cfg.peak_amplitude is not None else led.peak_amplitude
    constellation = build_constellation(cfg.modulation_order, peak)
    constraints = ConstraintSet(
        pre_fec_threshold=cfg.constraints.get("pre_fec_threshold", 3.8e-3),
        flicker_alpha=cfg.constraints.get("flicker_alpha", 0.01),
        mode=cfg.constraints.get("mode", "flicker"),
    )
    variant = _resolve_variant(cfg)

    eve_link = None
    eve_avg = None
    if variant.startswith("unknown_csi"):
        eve_avg = average_eve_link(led, pd, noise, power_watt)
    elif "quality_ratio" in cfg.eve:
        eve_link = eve_link_from_quality_ratio(bob, cfg.eve["quality_ratio"],
                                               led, pd, noise, power_watt)
    elif "radial_offset" in cfg.eve:
        geom = LinkGeometry.below_led(led, cfg.eve["radial_offset"])
        eve_link = link_budget_from_geometry(led, pd, noise, geom, power_watt)
    else:
        raise ConfigError("eve must specify quality_ratio or radial_offset "
                          "for known-CSI designs")

    problem = DesignProblem(variant=variant, constellation=constellation,
                            bob_link=bob, dc_bias=led.dc_bias,
                            constraints=constraints, eve_link=eve_link,
                            eve_avg=eve_avg)
    uniform = Distribution.uniform(cfg.modulation_order)
    return OperatingPoint(power_dbm=power_dbm, power_watt=power_watt, led=led,
                          pd=pd, noise=noise, problem=problem, uniform=uniform)


def _settings(cfg: ExperimentConfig) -> CccpSettings:
    s = cfg.solver
    return CccpSettings(max_iters=s.get("max_iters", 50),
                        rel_tol=s.get("rel_tol", 1e-2),
                        n_starts=s.get("n_starts", 32),
                        seed=s.get("seed", 0),
                        p_floor=s.get("p_floor", 1e-9))


def _powers(cfg: ExperimentConfig) -> list[float]:
    grid = cfg.power_dbm
    if isinstance(grid, dict):
        start, stop = grid["start"], grid["stop"]
        step = grid.get("step", 1.0)
        n = int(round((stop - start) / step))
        return [start + i * step for i in range(n + 1)]
    if not grid:
        raise ConfigError("power_dbm grid is empty")
    return [float(x) for x in grid]


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


def _bob_mc_ber(cfg: ExperimentConfig, point: OperatingPoint, p: Distribution) -> float:
    mc = cfg.montecarlo
    sim = simulate_error_rates(SimConfig(
        n_symbols=mc.get("n_symbols", 200_000), seed=mc.get("seed", 7),
        link=point.problem.bob_link, constellation=point.problem.constellation,
        distribution=p))
    return sim.ber


def _point_feasible(point: OperatingPoint, p) -> bool:
    prob = point.problem
    arr = p.probs if isinstance(p, Distribution) else np.asarray(p)
    ber = ber_upper_bound(prob.constellation, arr, prob.bob_link)
    if ber > prob.constraints.pre_fec_threshold + 1e-8:
        return False
    mean = float(prob.constellation.amplitudes @ arr)
    if prob.constraints.mode == "symmetric":
        return bool(np.abs(arr[:arr.size // 2] - arr[::-1][:arr.size // 2]).max() < 1e-9)
    return abs(mean) <= prob.constraints.flicker_alpha * prob.dc_bias + 1e-12


def _run_sweep(cfg: ExperimentConfig, out_dir: Path) -> int:
    settings = _settings(cfg)
    powers = _powers(cfg)

    def one(power: float):
        point = resolve_point(cfg, power)
        uniform_row = [power, "uniform",
                       _secrecy_metric(point, point.uniform),
                       ber_upper_bound(point.problem.constellation,
                                       point.uniform, point.problem.bob_link),
                       _bob_mc_ber(cfg, point, point.uniform),
                       _point_feasible(point, point.uniform)]
        result = solve(point.problem, settings)
        pcs_row = [power, "pcs",
                   _secrecy_metric(point, result.p_opt),
                   ber_upper_bound(point.problem.constellation,
                                   result.p_opt, point.problem.bob_link),
                   _bob_mc_ber(cfg, point, result.p_opt),
                   _point_feasible(point, result.p_opt)]
        return [uniform_row, pcs_row]

    rows = [row for p in powers for row in one(p)]
    _write_csv(out_dir / cfg.output, cfg,
               ["power_dbm", "scheme", "secrecy_bits", "ber_analytic",
                "ber_montecarlo", "feasible"], rows)
    print(f"sweep_power: wrote {len(rows)} rows to {out_dir / cfg.output}")
    for row in rows:
        print("  " + " ".join(_fmt(x) for x in row))
    return EXIT_OK


def _run_design(cfg: ExperimentConfig, out_dir: Path) -> int:
    settings = _settings(cfg)
    powers = _powers(cfg)
    rows = []
    for power in powers:
        point = resolve_point(cfg, power)
        result = solve(point.problem, settings)
        rendered = result.p_opt.rendered()
        amps = point.problem.constellation.amplitudes
        for m in range(cfg.modulation_order):
            rows.append([power, m + 1, amps[m], rendered[m]])
        extra = ""
        if cfg.scenario == "design_qos":
            eve_ber = ber_approx(point.problem.constellation, result.p_opt,
                                 point.problem.eve_link)
            extra = f" eve_ber_approx={eve_ber:.4g}"
        print(f"{cfg.scenario} @ {power} dBm: objective={result.objective:.6g} "
              f"iterations={result.iterations} converged={result.converged} "
              f"inactive={result.inactive_count}{extra}")
    _write_csv(out_dir / cfg.output, cfg,
               ["power_dbm", "symbol_index", "amplitude", "probability"], rows)
    print(f"{cfg.scenario}: wrote {len(rows)} rows to {out_dir / cfg.output}")
    return EXIT_OK


def _run_convergence(cfg: ExperimentConfig, out_dir: Path) -> int:
    settings = _settings(cfg)
    powers = _powers(cfg)
    rows = []
    for power in powers:
        point = resolve_point(cfg, power)
        result = solve(point.problem, settings)
        iter_counts = []
        for rec in result.per_start:
            if not rec["feasible"]:
                continue
            rows.append([power, rec["start_index"], rec["iterations"],
                         rec["converged"], rec["objective"]])
            iter_counts.append(rec["iterations"])
        if iter_counts:
            print(f"convergence_trace @ {power} dBm: mean iterations "
                  f"{np.mean(iter_counts):.2f} over {len(iter_counts)} starts")
    _write_csv(out_dir / cfg.output, cfg,
               ["power_dbm", "start_index", "iterations", "converged",
                "objective"], rows)
    return EXIT_OK


def _run_validate(cfg: ExperimentConfig | None, out_dir: Path) -> int:
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

    try:
        if cfg.scenario == "sweep_power":
            return _run_sweep(cfg, out)
        if cfg.scenario in ("design_known", "design_unknown", "design_qos"):
            return _run_design(cfg, out)
        if cfg.scenario == "convergence_trace":
            return _run_convergence(cfg, out)
        if cfg.scenario == "validate_ber":
            return _run_validate(cfg, out)
    except InfeasibleError as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except DegradedRegimeError as exc:
        print(f"eavesdropper not degraded: {exc}", file=sys.stderr)
        return EXIT_DEGRADED
    except PcsShaperError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    raise AssertionError("unreachable scenario")


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
        return _run_validate(None, Path("."))
    return run(args.config, out_dir=args.out, seed=args.seed, starts=args.starts)


if __name__ == "__main__":
    sys.exit(main())
