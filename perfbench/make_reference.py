#!/usr/bin/env python3
"""Record the reference designs the benchmark checks solves against.

Usage, from the root of the repository:

    python3 perfbench/make_reference.py

For every design problem the benchmark solves (``design_active``,
``design_slack`` and the solves inside ``sweep_paper``) this solves the
problem with the benchmark's settings at solver seed 2024 and records the
objective and ``p_opt``.  It also solves it at solver seeds 2025-2027; the
spread of those best-of-starts objectives, and at least the solver's own
relative stopping tolerance, is the tolerance by which a later version of
the solver may fall short of the recorded objective.  Writes
``perfbench/reference.json``.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from pcs_shaper import solver  # noqa: E402
from run import git_sha  # noqa: E402

SEEDS = (workloads.SOLVER_SEED, 2025, 2026, 2027)


def main() -> int:
    problems = {}
    for spec in (workloads.design_problems(workloads.ACTIVE_POINTS, workloads.ACTIVE_STARTS)
                 + workloads.design_problems(workloads.SLACK_POINTS, workloads.SLACK_STARTS)
                 + workloads.sweep_problems()):
        problems.setdefault(spec[0], spec)
    rel_tol = solver.CccpSettings().rel_tol
    out = {}
    for key, variant, mode, m, power, n_starts in problems.values():
        problem = workloads.paper_point(variant, mode, m, power).problem
        best = []
        t0 = perf_counter()
        for seed in SEEDS:
            res = solver.solve(problem, solver.CccpSettings(n_starts=n_starts, seed=seed))
            if seed == workloads.SOLVER_SEED:
                ref = res
            best.append(res.objective)
        spread = max(best) - min(best)
        out[key] = {
            "objective": ref.objective,
            "p_opt": ref.p_opt.probs.tolist(),
            "best_by_seed": dict(zip(map(str, SEEDS), best)),
            "tolerance": max(spread, rel_tol * abs(ref.objective)),
        }
        print(f"{key}: objective {ref.objective:.8g} spread {spread:.3g} "
              f"({perf_counter() - t0:.1f} s)", file=sys.stderr, flush=True)
    doc = {
        "command": "python3 perfbench/make_reference.py",
        "git_sha": git_sha(),
        "solver_seeds": list(SEEDS),
        "tolerance_rule": "max(max - min of best_by_seed, rel_tol * |objective|)",
        "problems": out,
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
