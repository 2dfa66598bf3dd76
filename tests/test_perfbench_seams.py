"""The benchmark's seam self-test, run as a test: every name that
``perfbench/tracing.py`` rebinds must still record calls."""
import importlib
import os
from pathlib import Path

from pcs_shaper import capacity, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_seam_self_test_records_a_call_at_every_traced_name(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    saved = os.environ.copy()
    try:
        run = importlib.import_module("run")    # pins the BLAS thread variables
    finally:
        os.environ.clear()
        os.environ.update(saved)
    tracing = importlib.import_module("tracing")
    monkeypatch.setattr(run, "OUT", tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        run.seam_self_test(tracer)      # raises SystemExit on a silent seam
        assert tracer.silent_seams() == []
    assert not hasattr(solver.solve, "__wrapped__")
    assert not hasattr(capacity.EntropyGrid.component_integrals, "__wrapped__")
