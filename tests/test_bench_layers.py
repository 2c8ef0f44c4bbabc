"""The benchmark's traced run (``bench/layers.py``) wraps library functions
by name. A rename of any of them fails here, not only in the benchmark's
own tests."""

import importlib
from pathlib import Path

import ccs.nfold
import ccs.ptas.builder
import ccs.ptas.driver

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_wrapped_name_exists_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    before = (
        ccs.ptas.driver.solve_feasible,
        ccs.ptas.builder.with_top_row_slacks,
        ccs.nfold.validate_structure,
        ccs.nfold.constraint_violations,
    )
    recorder = spans.Recorder()
    try:
        layers.wrap_layers(recorder)
        assert ccs.nfold.validate_structure is not before[2]
    finally:
        recorder.restore()
    assert (
        ccs.ptas.driver.solve_feasible,
        ccs.ptas.builder.with_top_row_slacks,
        ccs.nfold.validate_structure,
        ccs.nfold.constraint_violations,
    ) == before
