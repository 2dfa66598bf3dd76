"""Tracing of the pcs_shaper layers from outside the package.

The tracer rebinds module attributes where the package looks them up (for
example ``pcs_shaper.solver.project_to_simplex``, which the projector reads
from the solver module's globals) and restores them on exit.  Coarse calls
(a solve, a simulation, a quadrature, a point resolution) become spans with a
parent and a round identifier, kept in memory and written at the end.  Hot
leaf calls (a simplex projection, an entropy-grid evaluation, a BER kernel)
only add to a count and a total time, because one active-constraint solve
makes over a million projections.

A leaf's time is also charged to the span it runs under, so a span's self
time is its duration minus the time of the leaves and child spans inside it.
"""
from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

SPAN, LEAF, COUNT = "span", "leaf", "count"


@dataclass
class Span:
    name: str
    span_id: int
    parent: int | None
    round: int
    start: float
    end: float = 0.0
    child: float = 0.0


@dataclass
class Seam:
    """One rebound attribute: ``owner.attr`` recorded under ``name``."""

    owner: object
    attr: str
    name: str
    kind: str
    original: object = None
    calls: int = 0

    @property
    def label(self) -> str:
        owner = getattr(self.owner, "__name__", repr(self.owner))
        return f"{owner}.{self.attr}"


@dataclass
class Tracer:
    seams: list[Seam] = field(default_factory=list)
    count: dict = field(default_factory=lambda: defaultdict(int))
    time: dict = field(default_factory=lambda: defaultdict(float))
    self_time: dict = field(default_factory=lambda: defaultdict(float))
    symbols: int = 0
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _round: int = -1
    _origin: float = field(default_factory=perf_counter)

    # -- recording ---------------------------------------------------------
    def reset(self) -> None:
        self.count.clear()
        self.time.clear()
        self.self_time.clear()
        self.symbols = 0
        self.spans.clear()

    @contextmanager
    def span(self, name: str, round_id: int | None = None):
        if round_id is not None:
            self._round = round_id
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, len(self.spans), parent.span_id if parent else None,
                   self._round, perf_counter())
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()
            dur = rec.end - rec.start
            self.count[name] += 1
            self.time[name] += dur
            self.self_time[name] += dur - rec.child
            if parent is not None:
                parent.child += dur

    def _wrap(self, seam: Seam, fn):
        tracer = self
        name = seam.name

        if seam.kind == SPAN:
            def traced(*args, **kwargs):
                seam.calls += 1
                if name == "simulate":
                    tracer.symbols += args[0].n_symbols
                with tracer.span(name):
                    return fn(*args, **kwargs)
        elif seam.kind == LEAF:
            def traced(*args, **kwargs):
                seam.calls += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    tracer.count[name] += 1
                    tracer.time[name] += dt
                    if tracer._stack:
                        tracer._stack[-1].child += dt
        else:
            def traced(*args, **kwargs):
                seam.calls += 1
                tracer.count[name] += 1
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def _wrap_surrogate(self, seam: Seam, fn):
        """Count objective evaluations: wrap each closure ``surrogate`` returns."""
        tracer = self

        def surrogate(obj, p_k):
            fg = fn(obj, p_k)

            def counted(p):
                seam.calls += 1
                tracer.count["eval"] += 1
                return fg(p)
            return counted
        surrogate.__wrapped__ = fn
        return surrogate

    # -- installation ------------------------------------------------------
    @contextmanager
    def installed(self):
        """Rebind every seam for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        from pcs_shaper import capacity, cli, montecarlo, solver

        plan = [
            (solver, "solve", "solve", SPAN),
            (cli, "solve", "solve", SPAN),
            (montecarlo, "simulate_error_rates", "simulate", SPAN),
            (cli, "simulate_error_rates", "simulate", SPAN),
            (capacity, "mixture_entropy", "quad", SPAN),
            (capacity, "entropy_mc", "entropy_mc", SPAN),
            (montecarlo, "pairwise_error_mc", "pairwise", SPAN),
            (cli, "resolve_point", "resolve_point", SPAN),
            (solver, "project_to_simplex", "project", LEAF),
            (capacity.EntropyGrid, "component_integrals", "grid_eval", LEAF),
            (capacity.EntropyGrid, "__init__", "grid_build", LEAF),
            (solver, "ber_approx", "approx", LEAF),
            (solver, "grad_ber_approx", "approx", LEAF),
            (solver, "ber_upper_bound", "upper", LEAF),
            (solver, "grad_ber_upper", "upper", LEAF),
            (montecarlo, "map_detect", "map_detect", LEAF),
            (cli, "link_budget_from_geometry", "link", LEAF),
            (cli, "eve_link_from_quality_ratio", "link", LEAF),
            (cli, "average_eve_link", "link", LEAF),
            (solver, "linearized_ber_constraint", "outer", COUNT),
        ]
        for owner, attr, name, kind in plan:
            seam = Seam(owner, attr, name, kind, original=getattr(owner, attr))
            setattr(owner, attr, self._wrap(seam, seam.original))
            self.seams.append(seam)
        # Evaluations are counted at the solver's per-variant objective
        # factory; no public function sees every evaluation.
        seam = Seam(solver._Objective, "surrogate", "eval", COUNT,
                    original=solver._Objective.surrogate)
        solver._Objective.surrogate = self._wrap_surrogate(seam, seam.original)
        self.seams.append(seam)

    def uninstall(self) -> None:
        for seam in reversed(self.seams):
            setattr(seam.owner, seam.attr, seam.original)
        self.seams.clear()

    def silent_seams(self) -> list[str]:
        return [s.label for s in self.seams if s.calls == 0]

    # -- output ------------------------------------------------------------
    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "id": s.span_id, "parent": s.parent,
                    "round": s.round, "start_s": s.start - self._origin,
                    "end_s": s.end - self._origin}) + "\n")
