"""The four benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the benchmark seed when it is
constructed (that is the set-up the benchmark times) and then runs one fixed
*round* of operations per call to :meth:`run_round`.  An operation is one
solve or one oracle call; every operation is checked after the timed phase.

The solver's start points never depend on the benchmark seed: every solve
uses ``CccpSettings(seed=2024)``, the paper config's seed.  One random start
costs anywhere from 0.2 s to 69 s at 24 dBm depending on the draw, so
seeding the starts would measure the draw instead of the code.  On the
design workloads the seed fixes the order of the solves; on ``sweep_paper``
and ``oracle_mc`` it also seeds every Monte-Carlo stream and, on
``oracle_mc``, the shaped distributions and mixtures.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from calibrate import Sampling, kernel_s, slowdown
from pcs_shaper import capacity, cli, montecarlo, solver
from pcs_shaper.constellation import Distribution, signed_amplitude_mean
from pcs_shaper.error_rate import PairwiseGeometry, ber_upper_bound, \
    pairwise_error_prob, ser_upper_bound

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

SOLVER_SEED = 2024
VARIANTS = (("known_csi", "flicker"), ("unknown_csi", "flicker"),
            ("unknown_csi_symmetric", "symmetric"), ("qos_max_eve_ber", "flicker"))
# (modulation order, powers in dBm) and starts per solve
ACTIVE_POINTS, ACTIVE_STARTS = ((8, (25.0,)),), 2
SLACK_POINTS, SLACK_STARTS = ((8, (30.0, 32.0, 35.0)), (16, (32.0, 35.0))), 4
SWEEP_STARTS, SWEEP_SYMBOLS = 2, 200_000
ORACLE_SIM_POINTS, ORACLE_SYMBOLS = ((8, (22.0, 26.0)), (16, (28.0, 32.0))), 1_000_000
ORACLE_ENTROPY_POINTS, ORACLE_SAMPLES = ((8, 24.0), (16, 30.0)), 1_000_000

MONOTONE_TOL = 1e-8      # objective traces, as in acceptance criterion 6
BER_TOL = 1e-8           # the acceptance tests' slack on the BER constraint
SIMPLEX_TOL = 1e-9
ORACLE_SE = 4.0          # `pcs-shaper validate` uses 4 standard errors
ENTROPY_SE = 5.0


@dataclass
class Outcome:
    """One timed operation: its key, wall time and output (or the exception).

    ``calib`` is the time of the reference kernel runs right before, during
    and right after the operation, and ``slowdown`` their mean over the
    kernel's reference time (see ``calibrate``); ``seconds`` excludes the
    runs during the operation.  ``started`` and ``ended`` are the
    ``perf_counter`` readings before the first and after the last kernel run.
    """

    key: str
    seconds: float
    value: object
    calib: float = math.nan
    slowdown: float = math.nan
    started: float = math.nan
    ended: float = math.nan


@dataclass
class SolveOutput:
    problem: solver.DesignProblem
    result: solver.SolveResult
    row: dict | None = None      # the sweep CSV's shaped row, when there is one


def problem_key(variant: str, m: int, power: float, n_starts: int) -> str:
    return f"{variant}/M{m}/{power:g}dBm/s{n_starts}"


def paper_point(variant: str, mode: str, m: int, power: float):
    """The paper config's operating point for one variant, order and power."""
    base = cli.default_paper_config()
    cfg = replace(base, modulation_order=m, variant=variant,
                  constraints={**base.constraints, "mode": mode})
    return cli.resolve_point(cfg, power)


def design_problems(points, n_starts: int):
    """(key, variant, mode, m, power, n_starts) for every variant at every point."""
    return [(problem_key(v, m, p, n_starts), v, mode, m, p, n_starts)
            for m, powers in points for p in powers for v, mode in VARIANTS]


def sweep_problems():
    cfg = cli.default_paper_config()
    return [(problem_key(cfg.variant, cfg.modulation_order, float(p), SWEEP_STARTS),
             cfg.variant, cfg.constraints["mode"], cfg.modulation_order, float(p),
             SWEEP_STARTS) for p in cfg.power_dbm]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["problems"]


def start_records(result: solver.SolveResult) -> list[tuple[bool, bool, list]]:
    """(feasible, converged, objective trace) per start.

    The one place that reads ``SolveResult.per_start``.
    """
    return [(bool(r["feasible"]), bool(r.get("converged", False)),
             list(r.get("trace", ()))) for r in result.per_start]


def _timed(key: str, fn, array_pass: bool = False) -> Outcome:
    started = perf_counter()
    before = kernel_s(array_pass)
    with Sampling(array_pass) as during:
        t0 = perf_counter()
        try:
            value = fn()
        except Exception as exc:  # a raising operation is a failed operation
            value = exc
        seconds = perf_counter() - t0 - during.spent_s
    after = kernel_s(array_pass)
    return Outcome(key, seconds, value, before + during.spent_s + after,
                   slowdown(before, after, during, array_pass), started, perf_counter())


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_solve(out: SolveOutput, ref: dict | None) -> list[str]:
    """Constraints recomputed from p_opt, monotone traces, reference objective."""
    prob, res = out.problem, out.result
    c, cons = prob.constellation, prob.constraints
    p = res.p_opt.probs
    bad = []
    if p.min() < -SIMPLEX_TOL or abs(float(p.sum()) - 1.0) > SIMPLEX_TOL:
        bad.append(f"p_opt off the simplex (min {p.min():.3g}, sum {p.sum():.12g})")
    ber = ber_upper_bound(c, p, prob.bob_link)
    if not ber <= cons.pre_fec_threshold + BER_TOL:
        bad.append(f"BER bound {ber:.6g} above threshold {cons.pre_fec_threshold}")
    if cons.mode == "symmetric":
        asym = float(np.abs(p - p[::-1]).max())
        if asym > SIMPLEX_TOL:
            bad.append(f"p_opt not symmetric (max residual {asym:.3g})")
    else:
        limit = cons.flicker_alpha * prob.dc_bias
        mean = abs(signed_amplitude_mean(c, p))
        if mean > limit * (1.0 + 1e-9) + 1e-12:
            bad.append(f"amplitude mean {mean:.6g} outside flicker slab {limit:.6g}")
    traces = [res.objective_trace] + [t for ok, _, t in start_records(res) if ok]
    for trace in traces:
        if any(b < a - MONOTONE_TOL for a, b in zip(trace, trace[1:])):
            bad.append("objective trace decreases")
            break
    if ref is None:
        bad.append("no reference objective recorded for this problem")
    elif res.objective < ref["objective"] - ref["tolerance"]:
        bad.append(f"objective {res.objective:.8g} below reference "
                   f"{ref['objective']:.8g} - {ref['tolerance']:.3g}")
    if out.row is not None and out.row["feasible"] != "true":
        bad.append("sweep row marked infeasible")
    return bad


def checked(outcome: Outcome, check_fn) -> list[str]:
    """``check_fn(output)``, or the exception the operation raised."""
    if isinstance(outcome.value, Exception):
        return [f"raised {type(outcome.value).__name__}: {outcome.value}"]
    return check_fn(outcome.value)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class SolveWorkload:
    """Checks shared by the workloads whose operations are solves."""

    reference: dict

    def check(self, outcome: Outcome) -> list[str]:
        return checked(outcome, lambda v: check_solve(v, self.reference.get(outcome.key)))

    def extras(self, outcomes: list[Outcome]) -> dict:
        return {}


class DesignWorkload(SolveWorkload):
    """``solver.solve`` on a fixed set of design problems, in seeded order."""

    points: tuple
    n_starts: int

    def __init__(self, seed: int, scratch: Path):
        self.reference = load_reference()
        self.ops = []
        for key, v, mode, m, p, n in design_problems(self.points, self.n_starts):
            problem = paper_point(v, mode, m, p).problem
            self.ops.append((key, problem, solver.CccpSettings(n_starts=n, seed=SOLVER_SEED)))
        random.Random(seed).shuffle(self.ops)

    def run_round(self) -> list[Outcome]:
        outcomes = []
        for key, problem, settings in self.ops:
            o = _timed(key, lambda: solver.solve(problem, settings))
            if not isinstance(o.value, Exception):
                o.value = SolveOutput(problem, o.value)
            outcomes.append(o)
        return outcomes


class DesignActive(DesignWorkload):
    points, n_starts = ACTIVE_POINTS, ACTIVE_STARTS


class DesignSlack(DesignWorkload):
    points, n_starts = SLACK_POINTS, SLACK_STARTS


class SweepPaper(SolveWorkload):
    """``cli.run`` on the paper config's ``sweep_power`` scenario."""

    def __init__(self, seed: int, scratch: Path):
        self.reference = load_reference()
        self.keys = [k for k, *_ in sweep_problems()]
        cfg = cli.default_paper_config()
        cfg = replace(cfg, solver={**cfg.solver, "n_starts": SWEEP_STARTS,
                                   "seed": SOLVER_SEED},
                      montecarlo={"n_symbols": SWEEP_SYMBOLS, "seed": seed})
        self.threshold = cfg.constraints["pre_fec_threshold"]
        self.out_dir = scratch / f"sweep-{seed}"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.out_dir / "config.json"
        self.config_path.write_text(json.dumps(cfg.to_dict()))
        self.csv_path = self.out_dir / cfg.output

    def run_round(self) -> list[Outcome]:
        """One sweep; the solves inside it are the timed operations."""
        captured = []
        original = cli.solve

        def probe(problem, settings=None):
            o = _timed("", lambda: original(problem, settings))
            captured.append((o, problem))
            if isinstance(o.value, Exception):
                raise o.value
            return o.value

        if self.csv_path.exists():
            self.csv_path.unlink()
        cli.solve = probe
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(str(self.config_path), out_dir=str(self.out_dir))
        finally:
            cli.solve = original
        rows = self._shaped_rows() if code == 0 else {}
        outcomes = []
        for i, key in enumerate(self.keys):
            if i >= len(captured):
                outcomes.append(Outcome(key, math.nan, RuntimeError(
                    f"sweep exited with code {code} before this solve")))
                continue
            o, problem = captured[i]
            if not isinstance(o.value, Exception):
                row = rows.get(key)
                o.value = (SolveOutput(problem, o.value, row) if row is not None
                           else RuntimeError(f"no shaped CSV row (exit code {code})"))
            o.key = key
            outcomes.append(o)
        return outcomes

    def _shaped_rows(self) -> dict:
        with open(self.csv_path) as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        rows = [r for r in csv.DictReader(lines) if r["scheme"] == "pcs"]
        cfg = cli.default_paper_config()
        return {problem_key(cfg.variant, cfg.modulation_order,
                            float(r["power_dbm"]), SWEEP_STARTS): r for r in rows}

    def extras(self, outcomes: list[Outcome]) -> dict:
        """Largest Monte-Carlo BER of a shaped design over the threshold."""
        ratios = [float(o.value.row["ber_montecarlo"]) / self.threshold
                  for o in outcomes if isinstance(o.value, SolveOutput)]
        return {"ber_mc_ratio_max": max(ratios)} if ratios else {}


class OracleMc:
    """The Monte-Carlo and entropy oracles, with no solver."""

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        self.ops = {}       # key -> (kind, argument), in run order
        for m, powers in ORACLE_SIM_POINTS:
            for p in powers:
                prob = paper_point("known_csi", "flicker", m, p).problem
                shaped = Distribution(rng.dirichlet(np.ones(m)))
                for name, dist in (("uniform", Distribution.uniform(m)),
                                   ("dirichlet", shaped)):
                    cfg = montecarlo.SimConfig(
                        n_symbols=ORACLE_SYMBOLS, seed=int(rng.integers(2**31)),
                        link=prob.bob_link, constellation=prob.constellation,
                        distribution=dist)
                    self.ops[f"sim/M{m}/{p:g}dBm/{name}"] = ("sim", cfg)
        for m, p in ORACLE_ENTROPY_POINTS:
            prob = paper_point("known_csi", "flicker", m, p).problem
            mm = capacity.MixtureModel.from_link(
                prob.constellation, rng.dirichlet(np.ones(m)), prob.bob_link)
            self.ops[f"quad/M{m}/{p:g}dBm"] = ("quad", mm)
            self.ops[f"entropy_mc/M{m}/{p:g}dBm"] = ("entropy_mc",
                                                    (mm, int(rng.integers(2**31))))
        for i in range(2):
            w = rng.dirichlet([1.0, 1.0])
            geom = PairwiseGeometry(d=float(rng.uniform(0.8, 4.0)), sigma=1.0)
            self.ops[f"pairwise/{i}"] = ("pairwise", (float(w[0]), float(w[1]), geom,
                                                      int(rng.integers(2**31))))

    def _call(self, kind, arg):
        if kind == "sim":
            return montecarlo.simulate_error_rates(arg)
        if kind == "quad":
            return capacity.mixture_entropy(arg)
        if kind == "entropy_mc":
            mm, seed = arg
            return capacity.entropy_mc(mm, ORACLE_SAMPLES, seed=seed)
        p_m, p_n, geom, seed = arg
        return montecarlo.pairwise_error_mc(p_m, p_n, geom, ORACLE_SAMPLES, seed=seed)

    def run_round(self) -> list[Outcome]:
        return [_timed(key, lambda: self._call(kind, arg), array_pass=True)
                for key, (kind, arg) in self.ops.items()]

    def check(self, outcome: Outcome) -> list[str]:
        kind, arg = self.ops[outcome.key]
        return checked(outcome, lambda v: self._check_value(kind, arg, v))

    @staticmethod
    def _check_value(kind, arg, v) -> list[str]:
        if kind == "sim":
            bound = ser_upper_bound(arg.constellation, arg.distribution, arg.link)
            if not v.ser <= bound + ORACLE_SE * v.ser_stderr:
                return [f"SER {v.ser:.6g} above union bound {bound:.6g} "
                        f"+ {ORACLE_SE:g} SE ({v.ser_stderr:.3g})"]
            return []
        if kind in ("quad", "entropy_mc"):
            mm = arg if kind == "quad" else arg[0]
            exact = v if kind == "quad" else capacity.mixture_entropy(mm)
            est, se = v if kind == "entropy_mc" else capacity.entropy_mc(
                mm, ORACLE_SAMPLES // 10, seed=1)
            if not abs(est - exact) <= ENTROPY_SE * se:
                return [f"entropy_mc {est:.8g} vs quadrature {exact:.8g}: "
                        f"more than {ENTROPY_SE:g} SE ({se:.3g}) apart"]
            return []
        p_m, p_n, geom, _ = arg
        est, se = v
        exact = pairwise_error_prob(p_m, p_n, geom)
        if not abs(est - exact) <= ORACLE_SE * max(se, 1e-6):
            return [f"pairwise MC {est:.6g} vs closed form {exact:.6g}"]
        return []

    def extras(self, outcomes: list[Outcome]) -> dict:
        """Symbols per second through simulate_error_rates, from per-op medians."""
        times = {}
        for o in outcomes:
            if o.key.startswith("sim/"):
                times.setdefault(o.key, []).append(o.seconds)
        total = sum(statistics.median(t) for t in times.values())
        return {"mc_msym_per_s": len(times) * ORACLE_SYMBOLS / total / 1e6}


WORKLOADS = {
    "sweep_paper": SweepPaper,
    "design_active": DesignActive,
    "design_slack": DesignSlack,
    "oracle_mc": OracleMc,
}
