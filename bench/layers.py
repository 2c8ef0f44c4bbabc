"""The library boundaries the traced run wraps, and the per-layer metrics
derived from their spans.

Every ``*_s`` metric is a self time: the span's duration minus the time
its wrapped children cover, summed over the run. The one exception is
``ptas.driver_self_s``, which also keeps the warm-start approximation the
driver calls, as that is part of its guess search.
"""

from __future__ import annotations

import ccs.approx
import ccs.cli
import ccs.nfold
import ccs.ptas.builder
import ccs.ptas.driver
import scipy.optimize
from ccs.core import NONPREEMPTIVE, PREEMPTIVE, SPLITTABLE

from spans import Recorder

_VARIANT_TAG = {SPLITTABLE: "split", PREEMPTIVE: "preempt", NONPREEMPTIVE: "whole"}


def _configs(args, kwargs, result):
    _modules, configurations = result
    return {"configs": configurations.count}


def _columns(args, kwargs, result):
    return {"columns": result.program.total_columns}


def _feasible(args, kwargs, result):
    return {"feasible": result is not None}


def _highs_size(args, kwargs, result):
    matrix = kwargs["constraints"].A
    rows, cols = matrix.shape
    return {"rows": int(rows), "cols": int(cols), "nnz": int(matrix.nnz)}


def wrap_layers(recorder: Recorder) -> None:
    """Route every layer boundary through ``recorder``.

    Names are wrapped where their callers look them up: the driver and
    the CLI imported their collaborators by name, so those module
    attributes are patched, and the two dispatch tables built at import
    time get their entries patched as well. ``_solve_milp`` imports
    ``scipy.optimize.milp`` on every call, so patching the scipy module
    attribute reaches it.
    """
    driver = ccs.ptas.driver
    recorder.wrap(driver, "preprocess", "ptas.preprocess")
    recorder.wrap(driver, "build_program", "ptas.build", _columns)
    recorder.wrap(driver, "solve_feasible", "nfold.solve", _feasible)
    recorder.wrap(driver, "construct_schedule", "ptas.reconstruct")
    recorder.wrap(ccs.ptas.builder, "enumerate_sets", "ptas.sets", _configs)
    recorder.wrap(ccs.ptas.builder, "with_top_row_slacks", "nfold.widen")
    recorder.wrap(ccs.nfold, "validate_structure", "nfold.validate_structure")
    recorder.wrap(ccs.nfold, "constraint_violations", "nfold.verify")
    recorder.wrap(scipy.optimize, "milp", "nfold.highs", _highs_size)
    for table in (driver._WARM_ALGO, ccs.cli._APPROX):
        for variant in list(table):
            recorder.wrap(table, variant, "approx." + _VARIANT_TAG[variant])
    recorder.wrap(ccs.approx, "border_search_splittable", "approx.border_search")
    recorder.wrap(ccs.approx, "nonpreemptive_threshold", "approx.np_threshold")
    recorder.wrap(ccs.approx, "round_robin", "greedy.round_robin")
    recorder.wrap(ccs.approx, "lpt", "greedy.lpt")
    recorder.wrap(ccs.cli, "validate", "core.validate")
    recorder.wrap(ccs.cli, "lower_bound", "core.lower_bound")
    recorder.wrap(ccs.cli, "generate", "cli.generate")
    recorder.wrap(ccs.cli, "opt_splittable", "oracle.split")
    recorder.wrap(ccs.cli, "opt_preemptive", "oracle.preempt")
    recorder.wrap(ccs.cli, "opt_nonpreemptive", "oracle.whole")


# per-layer metric name -> unit; the order is the order they are printed
PER_LAYER = {
    "ptas.probes": "count",
    "ptas.probe_yield": "ratio",
    "ptas.driver_self_s": "s",
    "ptas.preprocess_s": "s",
    "ptas.sets_s": "s",
    "ptas.sets_calls": "count",
    "ptas.sets.configs_max": "count",
    "ptas.build_self_s": "s",
    "ptas.build.columns_max": "count",
    "ptas.reconstruct_s": "s",
    "nfold.highs_s": "s",
    "nfold.highs_calls": "count",
    "nfold.highs_share": "ratio",
    "nfold.highs.rows_max": "count",
    "nfold.highs.cols_max": "count",
    "nfold.highs.nnz_sum": "count",
    "nfold.widen_s": "s",
    "nfold.validate_structure_s": "s",
    "nfold.validate_structure_calls": "count",
    "nfold.solve_self_s": "s",
    "nfold.verify_s": "s",
    "nfold.verify_calls": "count",
    "approx.split_s": "s",
    "approx.preempt_s": "s",
    "approx.whole_s": "s",
    "approx.calls": "count",
    "approx.border_search_s": "s",
    "approx.np_threshold_s": "s",
    "greedy.round_robin_s": "s",
    "greedy.lpt_s": "s",
    "greedy.calls": "count",
    "oracle.split_s": "s",
    "oracle.preempt_s": "s",
    "oracle.whole_s": "s",
    "oracle.refused": "count",
    "core.validate_s": "s",
    "core.validate_calls": "count",
    "core.lower_bound_s": "s",
    "cli.generate_s": "s",
    "cli.run_self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# metric -> span name whose summed self time it reports
_SELF_TIME = {
    "ptas.preprocess_s": "ptas.preprocess",
    "ptas.sets_s": "ptas.sets",
    "ptas.build_self_s": "ptas.build",
    "ptas.reconstruct_s": "ptas.reconstruct",
    "nfold.highs_s": "nfold.highs",
    "nfold.widen_s": "nfold.widen",
    "nfold.validate_structure_s": "nfold.validate_structure",
    "nfold.solve_self_s": "nfold.solve",
    "nfold.verify_s": "nfold.verify",
    "approx.split_s": "approx.split",
    "approx.preempt_s": "approx.preempt",
    "approx.whole_s": "approx.whole",
    "approx.border_search_s": "approx.border_search",
    "approx.np_threshold_s": "approx.np_threshold",
    "greedy.round_robin_s": "greedy.round_robin",
    "greedy.lpt_s": "greedy.lpt",
    "oracle.split_s": "oracle.split",
    "oracle.preempt_s": "oracle.preempt",
    "oracle.whole_s": "oracle.whole",
    "core.validate_s": "core.validate",
    "core.lower_bound_s": "core.lower_bound",
    "cli.generate_s": "cli.generate",
    "cli.run_self_s": "cli.run",
}


def layer_metrics(recorder: Recorder, traced_wall: float, untraced_wall: float) -> dict:
    """Every PER_LAYER metric from one traced run. Layers the workload
    never reaches report zero."""
    spans = recorder.spans
    own = recorder.self_times()
    self_sum: dict = {}
    count: dict = {}
    for span, t in zip(spans, own):
        self_sum[span.name] = self_sum.get(span.name, 0.0) + t
        count[span.name] = count.get(span.name, 0) + 1

    def named(name):
        return [s for s in spans if s.name == name]

    def peak(name, key):
        return max((s.info[key] for s in named(name) if key in s.info), default=0)

    out = {m: self_sum.get(n, 0.0) for m, n in _SELF_TIME.items()}
    # the warm start is part of the driver's own search work
    warm = sum(
        s.duration
        for s in spans
        if s.name.startswith("approx.")
        and s.parent is not None
        and spans[s.parent].name == "ptas"
    )
    out["ptas.driver_self_s"] = self_sum.get("ptas", 0.0) + warm
    probes = count.get("nfold.solve", 0)
    feasible = sum(1 for s in named("nfold.solve") if s.info.get("feasible"))
    out["ptas.probes"] = probes
    out["ptas.probe_yield"] = feasible / probes if probes else 0.0
    out["ptas.sets_calls"] = count.get("ptas.sets", 0)
    out["ptas.sets.configs_max"] = peak("ptas.sets", "configs")
    out["ptas.build.columns_max"] = peak("ptas.build", "columns")
    highs = count.get("nfold.highs", 0)
    out["nfold.highs_calls"] = highs
    out["nfold.highs_share"] = highs / probes if probes else 0.0
    out["nfold.highs.rows_max"] = peak("nfold.highs", "rows")
    out["nfold.highs.cols_max"] = peak("nfold.highs", "cols")
    out["nfold.highs.nnz_sum"] = sum(s.info.get("nnz", 0) for s in named("nfold.highs"))
    out["nfold.validate_structure_calls"] = count.get("nfold.validate_structure", 0)
    out["nfold.verify_calls"] = count.get("nfold.verify", 0)
    out["approx.calls"] = sum(
        count.get(n, 0) for n in ("approx.split", "approx.preempt", "approx.whole")
    )
    out["greedy.calls"] = count.get("greedy.round_robin", 0) + count.get("greedy.lpt", 0)
    out["oracle.refused"] = sum(
        1
        for s in spans
        if s.name.startswith("oracle.") and s.error == "EnumerationCapError"
    )
    out["core.validate_calls"] = count.get("core.validate", 0)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return {m: out[m] for m in PER_LAYER}
