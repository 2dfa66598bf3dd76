#!/usr/bin/env python3
"""Benchmark of pcs_shaper, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep_paper, design_active, design_slack, oracle_mc (see
NOTES.md).  The package is imported from ``src/`` of the checkout; nothing
needs building.  BLAS is pinned to one thread and every solve runs serially.

A run sets the workload up, times five more set-ups in fresh processes,
then repeats the workload's fixed round of operations while another round
fits in ``--seconds``, always running at least one.  Every operation's
output is checked after the timed phase.

Every operation is timed between runs of a fixed reference kernel
(``calibrate.py``), and its time is reported relative to the kernel's, in
seconds at the kernel's reference speed, because the shared host's speed
drifts by tens of percent over minutes.  ``--trace 0`` prints the end-to-end
metrics: ``setup_s`` (median of the five set-ups, at the import kernel's
reference speed),
``round_ref_s`` (the round's time), ``op_ref_s_p50`` / ``op_ref_s_p90`` (over
the workload's operations, of each operation's median time), and
``peak_rss_mb``; the raw wall times are in the report line.  ``--trace 1``
checks that every layer seam records calls on a tiny problem, then
alternates untraced rounds with rounds where the seams are traced, and
prints the per-layer metrics, per traced round, with the tracing overhead.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.  Spans and a full report go to
``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5        # fresh-process set-ups behind setup_s
SELF_TEST_STARTS = 2
NOISE_NOTE = ("Timings on a shared 2-core VM: 8 s sweeps ranged 7.4-11.7 s with "
              "CPU time equal to wall time, so the spread comes from the VM; "
              "round and operation times are divided by the slowdown a reference "
              "kernel measures around each operation (calibrate.py). "
              "Count metrics repeat exactly and are the steady evidence.")
EXIT_NO_PACKAGE, EXIT_SEAM = 2, 3


# ---------------------------------------------------------------------------
# set-up and provenance
# ---------------------------------------------------------------------------

def import_package():
    """Import pcs_shaper from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import pcs_shaper
    except ImportError as exc:
        print(f"cannot import pcs_shaper from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_NO_PACKAGE) from exc
    if not Path(pcs_shaper.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"pcs_shaper was imported from {pcs_shaper.__file__}, "
                         f"not from {SRC}")
    return pcs_shaper


def set_up(workload: str, seed: int):
    """Import the package, build the workload's inputs; returns (workload, s)."""
    t0 = perf_counter()
    import_package()
    import workloads
    wl = workloads.WORKLOADS[workload](seed, OUT)
    return wl, perf_counter() - t0


def timed_setups(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """``SETUP_REPEATS`` set-ups in fresh processes, each between import kernels.

    Returns the set-up times and the import kernel times, one more than the
    set-ups.  A set-up's slowdown is the mean of the kernels on its sides.
    """
    from calibrate import import_kernel_s
    setups, kernels = [], [import_kernel_s()]
    for _ in range(SETUP_REPEATS):
        setups.append(setup_in_fresh_process(workload, seed))
        kernels.append(import_kernel_s())
    return setups, kernels


def setup_in_fresh_process(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def git_sha() -> str | None:
    """HEAD's commit read from .git directly; None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance() -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "pcs_shaper").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "noise": NOISE_NOTE,
    }


# ---------------------------------------------------------------------------
# timed phases
# ---------------------------------------------------------------------------

def timed_round(wl) -> tuple[float, list, float, float]:
    """One round: (wall time, outcomes, start, end), times from ``perf_counter``."""
    t0 = perf_counter()
    outcomes = wl.run_round()
    t1 = perf_counter()
    return t1 - t0, outcomes, t0, t1


def run_phase(wl, seconds: float) -> list[tuple]:
    """Repeat the workload's round while another fits in ``seconds``.

    Runs at least one round; returns ``timed_round``'s tuple per round.
    """
    rounds = []
    start = perf_counter()
    while not rounds or (perf_counter() - start
                         + statistics.median(r[0] for r in rounds) <= seconds):
        rounds.append(timed_round(wl))
    return rounds


def run_alternating(wl, seconds: float, tracer) -> dict:
    """Alternate untraced and traced rounds while another fits in ``seconds``.

    Alternating keeps drift in the machine's speed out of the tracing
    overhead.  Runs at least one round of each; returns ``timed_round``'s
    tuple per round, keyed by whether the round was traced.
    """
    rounds = {False: [], True: []}
    start = perf_counter()
    traced = False
    while not rounds[True] or (perf_counter() - start + statistics.median(
            r[0] for r in rounds[False] + rounds[True]) <= seconds):
        if traced:
            with tracer.installed(), tracer.span("round", round_id=len(rounds[True])):
                rounds[True].append(timed_round(wl))
        else:
            rounds[False].append(timed_round(wl))
        traced = not traced
    return rounds


def flat(rounds) -> list:
    return [o for r in rounds for o in r[1]]


def work_s(wall: float, outcomes) -> float:
    """A round's wall time without the reference kernel runs inside it."""
    return wall - sum(o.calib for o in outcomes)


def reference_times(rounds) -> tuple[float, dict]:
    """Round time and per-operation median times at the reference speed.

    Each operation's time is divided by the machine's slowdown measured
    around it.  So is the time between it and the operation before (the
    sweep's reporting, the loop itself), whose nearest kernel runs are the
    operation's; the time after the last operation is divided by that
    operation's slowdown.  The round time is the sum of the per-operation
    medians and the median of the rest.
    """
    per_op, rests = {}, []
    for _, outcomes, start, end in rounds:
        outcomes = [o for o in outcomes if math.isfinite(o.slowdown)]  # ran
        if not outcomes:
            continue
        rest, mark = 0.0, start
        for o in outcomes:
            rest += (o.started - mark) / o.slowdown
            mark = o.ended
            per_op.setdefault(o.key, []).append(o.seconds / o.slowdown)
        rests.append(rest + (end - mark) / outcomes[-1].slowdown)
    op_s = {k: statistics.median(v) for k, v in per_op.items()}
    return sum(op_s.values()) + statistics.median(rests), op_s


def check_outcomes(wl, outcomes) -> int:
    failed = 0
    for o in outcomes:
        problems = wl.check(o)
        if problems:
            failed += 1
            if failed <= 10:
                print(f"FAILED {o.key}: " + "; ".join(problems), file=sys.stderr)
    return failed


def raw_op_s(outcomes) -> dict:
    """Each operation's median wall time."""
    per_op = {}
    for o in outcomes:
        per_op.setdefault(o.key, []).append(o.seconds)
    return {k: statistics.median(v) for k, v in per_op.items()}


def percentiles(op_s: dict) -> tuple[float, float]:
    """p50 and p90 over operations of their per-operation times."""
    times = sorted(op_s.values())
    if len(times) == 1:
        return times[0], times[0]
    q = statistics.quantiles(times, n=10, method="inclusive")
    return statistics.median(times), q[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def seam_self_test(tracer) -> None:
    """Exercise every traced seam on tiny inputs; exit if one records nothing."""
    import workloads
    from pcs_shaper import capacity, cli, montecarlo, solver
    from pcs_shaper.constellation import Distribution
    from pcs_shaper.error_rate import PairwiseGeometry

    out = OUT / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    cfg = replace(cli.default_paper_config(), modulation_order=4, power_dbm=[30.0],
                  montecarlo={"n_symbols": 2000, "seed": 1})
    (out / "config.json").write_text(json.dumps(cfg.to_dict()))
    with open(os.devnull, "w") as sink:
        stdout, sys.stdout = sys.stdout, sink
        try:
            code = cli.run(str(out / "config.json"), out_dir=str(out),
                           starts=SELF_TEST_STARTS)
        finally:
            sys.stdout = stdout
    if code != 0:
        raise SystemExit(f"seam self-test: tiny sweep exited with code {code}")
    settings = solver.CccpSettings(n_starts=SELF_TEST_STARTS)
    solver.solve(workloads.paper_point("qos_max_eve_ber", "flicker", 4, 30.0).problem,
                 settings)
    solver.solve(workloads.paper_point("unknown_csi", "flicker", 4, 30.0).problem,
                 settings)
    prob = workloads.paper_point("known_csi", "flicker", 4, 30.0).problem
    montecarlo.simulate_error_rates(montecarlo.SimConfig(
        n_symbols=1000, seed=1, link=prob.bob_link, constellation=prob.constellation,
        distribution=Distribution.uniform(4)))
    mm = capacity.MixtureModel.from_link(prob.constellation, Distribution.uniform(4),
                                         prob.bob_link)
    capacity.entropy_mc(mm, 1000, seed=1)
    montecarlo.pairwise_error_mc(0.4, 0.6, PairwiseGeometry(d=2.0, sigma=1.0), 1000)
    silent = tracer.silent_seams()
    if silent:
        print("seam self-test FAILED: no calls recorded at " + ", ".join(silent),
              file=sys.stderr)
        raise SystemExit(EXIT_SEAM)


def layer_metrics(tracer, traced, untraced, setup_times) -> dict:
    """Per-layer metrics per round of the traced phase.

    ``traced`` and ``untraced`` are the two modes' ``timed_round`` tuples.
    The tracing overhead compares their round times at the reference speed.
    """
    import workloads

    n, t = tracer.count, tracer.time
    outcomes = flat(traced)

    def per_round(x):
        return x / len(traced)

    def ratio(a, b):
        return a / b if b else 0.0

    results = [o.value.result for o in outcomes if isinstance(o.value, workloads.SolveOutput)]
    starts = [rec for r in results for rec in workloads.start_records(r)]
    feasible = sum(ok for ok, _, _ in starts)
    converged = sum(ok and conv for ok, conv, _ in starts)
    wall = statistics.median(work_s(r[0], r[1]) for r in traced)
    mc_s = t["simulate"] + t["pairwise"]
    m = {
        "solver.solve.calls": per_round(n["solve"]),
        "solver.solve.s": per_round(t["solve"]),
        "solver.solve.self_s": per_round(tracer.self_time["solve"]),
        "solver.project.calls": per_round(n["project"]),
        "solver.project.s": per_round(t["project"]),
        "solver.project.us_per_call": 1e6 * ratio(t["project"], n["project"]),
        "solver.evals": per_round(n["eval"]),
        "solver.proj_per_eval": ratio(n["project"], n["eval"]),
        "solver.outer_iters": per_round(n["outer"]),
        "solver.outer_per_start": ratio(n["outer"], feasible),
        "solver.evals_per_outer": ratio(n["eval"], n["outer"]),
        "solver.feasible_start_frac": ratio(feasible, len(starts)),
        "solver.converged_start_frac": ratio(converged, len(starts)),
        "capacity.grid_eval.calls": per_round(n["grid_eval"]),
        "capacity.grid_eval.us_per_call": 1e6 * ratio(t["grid_eval"], n["grid_eval"]),
        "capacity.grid_build.s": per_round(t["grid_build"]),
        "capacity.quad.calls": per_round(n["quad"]),
        "capacity.quad.s": per_round(t["quad"]),
        "capacity.entropy_mc.s": per_round(t["entropy_mc"]),
        "error_rate.approx.calls": per_round(n["approx"]),
        "error_rate.approx.us_per_call": 1e6 * ratio(t["approx"], n["approx"]),
        "error_rate.upper.calls": per_round(n["upper"]),
        "error_rate.upper.s": per_round(t["upper"]),
        "montecarlo.sim.symbols": per_round(tracer.symbols),
        "montecarlo.sim.s": per_round(t["simulate"]),
        "montecarlo.sim.msym_per_s": 1e-6 * ratio(tracer.symbols, t["simulate"]),
        "montecarlo.map_detect.s": per_round(t["map_detect"]),
        "montecarlo.pairwise.s": per_round(t["pairwise"]),
        "montecarlo.time_frac": ratio(per_round(mc_s), wall),
        # set-up builds the design workloads' points; the sweep builds its own
        "cli.resolve_point.s": setup_times["resolve_point"]
        + per_round(t["resolve_point"] - setup_times["resolve_point"]),
        "channel.link.s": setup_times["link"] + per_round(t["link"] - setup_times["link"]),
        "trace.wall_s": wall,
        "trace.overhead_frac": ratio(reference_times(traced)[0],
                                     reference_times(untraced)[0]) - 1.0,
    }
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

E2E_UNITS = {"setup_s": "s", "round_ref_s": "s", "op_ref_s_p50": "s",
             "op_ref_s_p90": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".symbols") or name in (
            "solver.evals", "solver.outer_iters"):
        return "count"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("msym_per_s"):
        return "Msym/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "ratio"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep_paper", "design_active", "design_slack", "oracle_mc"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    OUT.mkdir(exist_ok=True)

    wl, setup0 = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup0}))
        return 0
    prov = provenance()

    if not args.trace:
        from calibrate import IMPORT_REFERENCE_S
        setups, kernels = timed_setups(args.workload, args.seed)
        setup_s = statistics.median(
            2 * IMPORT_REFERENCE_S * s / (k0 + k1)
            for s, k0, k1 in zip(setups, kernels, kernels[1:]))
        rounds = run_phase(wl, args.seconds)
        outcomes = flat(rounds)
        failed = check_outcomes(wl, outcomes)
        round_s, op_s = reference_times(rounds)
        p50, p90 = percentiles(op_s)
        raw_p50, raw_p90 = percentiles(raw_op_s(outcomes))
        walls = [work_s(r[0], r[1]) for r in rounds]
        metrics = {"setup_s": setup_s,
                   "round_ref_s": round_s,
                   "op_ref_s_p50": p50, "op_ref_s_p90": p90, "peak_rss_mb": peak_rss_mb()}
        units = E2E_UNITS
        report = {"rounds": len(rounds), "wall_s": statistics.median(walls),
                  "op_s_p50": raw_p50, "op_s_p90": raw_p90, "round_wall_s": walls,
                  "slowdown_median": statistics.median(o.slowdown for o in outcomes),
                  "setup_samples_s": [setup0] + setups, "import_kernel_s": kernels,
                  "op_kinds": len(op_s), "op_samples": len(outcomes),
                  **wl.extras(outcomes)}
    else:
        from tracing import Tracer
        tracer = Tracer()
        with tracer.installed():
            seam_self_test(tracer)
            tracer.reset()
            wl, _ = set_up(args.workload, args.seed)
            setup_times = {"resolve_point": tracer.time["resolve_point"],
                           "link": tracer.time["link"]}
        by_mode = run_alternating(wl, args.seconds, tracer)
        outcomes = flat(by_mode[False] + by_mode[True])
        failed = check_outcomes(wl, outcomes)
        metrics = layer_metrics(tracer, by_mode[True], by_mode[False], setup_times)
        metrics["cli.ber_mc_ratio_max"] = wl.extras(flat(by_mode[True])).get(
            "ber_mc_ratio_max", 0.0)
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        units = {k: layer_unit(k) for k in metrics}
        report = {mode + "_round_wall_s": [work_s(r[0], r[1]) for r in by_mode[traced]]
                  for mode, traced in (("untraced", False), ("traced", True))}

    attempted = len(outcomes)
    report.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "fail_frac": failed / attempted,
                   "provenance": prov})
    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**report, "metrics": metrics}, indent=1))
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    print("report " + json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
