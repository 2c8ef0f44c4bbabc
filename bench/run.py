#!/usr/bin/env python3
"""Benchmark of the ccs toolkit: one seeded workload per process.

    python3 bench/run.py --workload scheme-split --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Runs the workload's calls one after another (a closed loop, one caller)
for ``--seconds``, checks every output (``gate.py``), and prints a summary
followed, as the last line, by one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics over the run's whole cycles, with times scaled to a
reference host speed (``hostspeed.py``); ``--trace 1`` wraps every layer
boundary, reports the per-layer metrics (unscaled) and writes the spans.
A run record with the machine, versions and sample counts goes to
``bench/results/``. See ``bench/README.md`` for the workloads and what
each metric should move.

Exit codes: 0 all outputs correct, 1 a wrong output, 2 the library
sources are missing.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("scheme-split", "scheme-whole", "approx-sweep")

# set-ups measured per run, in fresh processes; setup_s is their median
SETUP_REPEATS = 5
# kernel samples taken before the timed loop
WARM_SAMPLES = 10
# peak memory is read when this many whole cycles are done: the library's
# caches grow with every call, so a peak read at the deadline would grow
# with the host's speed, and a faster library would look hungrier
RSS_CYCLES = 3
# sweep rows per ``ccs.cli.sweep`` call; the loop checks its deadline
# between calls
SWEEP_BLOCK = 5
# blocks rerun after the timed loop to check that CSV rows repeat
RERUN_BLOCKS = 2
# fixed per workload so that the reported percentile does not move with
# the sample count; each keeps well over ten samples above it at today's
# speed (the code steps down when fewer remain)
TAIL_PERCENTILE = {"scheme-split": 90, "scheme-whole": 95, "approx-sweep": 90}
PERCENTILE_LADDER = (99.9, 99, 95, 90, 80, 75, 50)

END_TO_END = {
    "setup_s": "s",
    "solved_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "solved_share": "ratio",
    "worst_ratio": "ratio",
    "mean_ratio_lb": "ratio",
    "peak_rss_mb": "MB",
}


def load_library() -> None:
    """Import ccs from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ccs" / "__init__.py").is_file():
        print(f"no ccs sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import ccs

    if Path(ccs.__file__).resolve().parent != (src / "ccs").resolve():
        print(f"imported ccs from {ccs.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def prepare(workload: str, seed: int):
    """Imports and inputs of one workload: the part of a run before its
    first timed call."""
    import workloads

    if workload == "approx-sweep":
        import ccs.cli  # noqa: F401

        return workloads.sweep_rows(seed)
    # every probe of a scheme reaches HiGHS, which the library imports
    # lazily; a user pays that import once per session, so it is set-up
    import scipy.optimize  # noqa: F401

    return workloads.scheme_instances(seed, workloads.SCHEME_VARIANT[workload])


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its inputs being ready."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with code {child.returncode}")
    return ready - start


# ---------------------------------------------------------------------------
# timed loops


@dataclass
class Calls:
    """Outcome of one timed loop: the top-level call spans, when the loop
    started and how long it ran, how many inputs it consumed, and the data
    the gate needs (per call for the schemes, per CSV row for the sweep)."""

    tops: list
    start: float
    wall: float
    used: int
    records: list


def scheme_loop(instances, variant, seconds, recorder, after=None) -> Calls:
    from ccs.ptas import ptas_solve

    solve = recorder.traced(ptas_solve, "ptas")
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    for inst in instances:
        if time.perf_counter() >= deadline:
            break
        try:
            records.append((inst, solve(inst, 1, variant)))
        except Exception:  # noqa: BLE001 - a refusal or crash fails the
            # call; its span keeps the exception's name
            records.append((inst, None))
        if after is not None:
            after()
    wall = time.perf_counter() - start
    return Calls(recorder.top_level("ptas"), start, wall, len(records), records)


def sweep_loop(rows, seconds, recorder, manifest: Path, after=None) -> Calls:
    """Feed manifest blocks to ``ccs.cli.sweep``; each row it runs is one
    top-level ``ccs.cli.run`` call. Records are the CSV rows written."""
    import ccs.cli

    recorder.wrap(ccs.cli, "run", "cli.run")
    if after is not None:
        traced_run = ccs.cli.run

        def run_then_after(*args, **kwargs):
            try:
                return traced_run(*args, **kwargs)
            finally:
                after()

        ccs.cli.run = run_then_after
    records = []
    used = 0
    start = time.perf_counter()
    deadline = start + seconds
    while used < len(rows) and time.perf_counter() < deadline:
        block = rows[used:used + SWEEP_BLOCK]
        used += len(block)
        manifest.write_text("\n".join(block) + "\n")
        out = io.StringIO()
        try:
            ccs.cli.sweep(str(manifest), out)
        except Exception:  # noqa: BLE001 - the raising row's span keeps
            pass  # the exception's name; the block's later rows are skipped
        records.extend(out.getvalue().splitlines()[1:])
    wall = time.perf_counter() - start
    if after is not None:
        ccs.cli.run = traced_run
    recorder.restore()
    return Calls(recorder.top_level("cli.run"), start, wall, used, records)


# ---------------------------------------------------------------------------
# metrics


def percentile(sorted_values: list, p: float) -> tuple:
    """(nearest-rank p-th percentile, samples above it)."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def central_mean(values: list) -> float:
    """Mean of the middle fifth (40th to 60th percentile): the median of
    a mixed stream, read from the calls around it rather than from the
    one call that happens to sit in the middle."""
    ordered = sorted(values)
    n = len(ordered)
    return statistics.fmean(ordered[math.floor(0.4 * n):math.ceil(0.6 * n)])


def tail_latency(latencies: list, preferred: float) -> tuple:
    """(percentile, value, samples above): the preferred percentile, or
    the highest lower one with at least ten samples above it."""
    ordered = sorted(latencies)
    ladder = [p for p in PERCENTILE_LADDER if p <= preferred]
    for p in ladder:
        value, above = percentile(ordered, p)
        if above >= 10:
            return p, value, above
    value, above = percentile(ordered, ladder[-1])
    return ladder[-1], value, above


def judge(checks) -> dict:
    """Fold the gate's per-call verdicts (problems, solved, ratio to the
    optimum, ratio to the lower bound) into counts and ratio lists."""
    verdict = {"problems": [], "failed": 0, "ratios": [], "ratios_lb": []}
    for found, solved, ratio, ratio_lb in checks:
        verdict["problems"] += found
        if found or not solved:
            verdict["failed"] += 1
            continue
        verdict["ratios_lb"].append(ratio_lb)
        if ratio is not None:
            verdict["ratios"].append(ratio)
    return verdict


def whole_cycles(count: int, cycle: int) -> int:
    """Calls in the run's whole cycles, or every call if not one cycle
    ended: every run's metrics then cover the same mix of strata, whatever
    share of its last cycle the deadline cut off."""
    return count // cycle * cycle or count


def scaled_times(calls: Calls, window: int, cycle: int, pacer) -> tuple:
    """(per-call latencies, loop time) of the first ``window`` calls, each
    cycle scaled by the kernel samples taken during it. The loop time
    leaves out the kernel's own time."""
    latencies, loop = [], 0.0
    start = calls.start
    for first in range(0, window, cycle):
        spans = calls.tops[first:first + cycle]
        end = spans[-1].end
        scale = pacer.scale(start, end)
        latencies += [s.duration * scale for s in spans]
        loop += (end - start - pacer.spent(start, end)) * scale
        start = end
    return latencies, loop


def end_to_end(calls: Calls, checks: list, setups: list, workload: str,
               rss_mb: float, pacer) -> tuple:
    import workloads

    cycle = workloads.cycle_length(workload)
    window = whole_cycles(len(calls.tops), cycle)
    verdict = judge(checks[:window])
    latencies, loop = scaled_times(calls, window, min(cycle, window), pacer)
    attempted = len(latencies)
    solved = attempted - verdict["failed"]
    p, tail, above = tail_latency(latencies, TAIL_PERCENTILE[workload])
    ratios, ratios_lb = verdict["ratios"], verdict["ratios_lb"]
    metrics = {
        # set-up runs in other processes, just before the loop: it is
        # scaled by the host speed over the whole loop
        "setup_s": statistics.median(setups) * pacer.scale(-math.inf, math.inf),
        "solved_per_s": solved / loop,
        "latency_p50_ms": central_mean(latencies) * 1000,
        "latency_tail_ms": tail * 1000,
        "solved_share": solved / attempted,
        "worst_ratio": float(max(ratios)) if ratios else 0.0,
        "mean_ratio_lb": float(sum(ratios_lb) / len(ratios_lb)) if ratios_lb else 0.0,
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "setup_s": len(setups),
        "solved_per_s": solved,
        "latency_p50_ms": attempted,
        "latency_tail_ms": attempted,
        "solved_share": attempted,
        "worst_ratio": len(ratios),
        "mean_ratio_lb": len(ratios_lb),
        "peak_rss_mb": 1,
    }
    notes = {"latency_tail_ms": f"p{p:g}, {above} samples above",
             "solved_per_s": f"{window} of {len(calls.tops)} calls, whole cycles"}
    return metrics, samples, notes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Watch:
    """Runs after every timed call of an untraced loop: samples the
    host-speed kernel when due, and reads peak memory once ``rss_calls``
    calls are done."""

    def __init__(self, rss_calls: int) -> None:
        from hostspeed import Pacer

        self.pacer = Pacer()
        self.pacer.sample(WARM_SAMPLES)
        self.rss_calls = rss_calls
        self.rss_mb = None
        self.calls = 0

    def __call__(self) -> None:
        self.calls += 1
        if self.calls == self.rss_calls:
            self.rss_mb = peak_rss_mb()
        self.pacer.tick()


def run_record(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loop": "closed, one caller",
    }


# ---------------------------------------------------------------------------
# one run


def run_workload(args) -> int:
    import gate
    import workloads
    from spans import Recorder

    setups = []
    if not args.trace:
        setups = [measure_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    inputs = prepare(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    manifest = RESULTS / f"manifest-{os.getpid()}.txt"
    sweep = args.workload == "approx-sweep"
    variant = workloads.SCHEME_VARIANT.get(args.workload)

    def loop(items, seconds, recorder, after=None):
        if sweep:
            return sweep_loop(items, seconds, recorder, manifest, after)
        return scheme_loop(items, variant, seconds, recorder, after)

    recorder = Recorder()
    watch = None
    if args.trace:
        import layers

        layers.wrap_layers(recorder)
    else:
        watch = Watch(RSS_CYCLES * workloads.cycle_length(args.workload))
    try:
        calls = loop(inputs, args.seconds, recorder, watch)
    finally:
        recorder.restore()
    tops = calls.tops
    if sweep:
        # a row that raised wrote no CSV row; its span has the error
        rows = iter(calls.records)
        checks = [([], False, None, None) if s.error else gate.check_row(next(rows))
                  for s in tops]
    else:
        checks = [gate.check_scheme(inst, variant, schedule)
                  for inst, schedule in calls.records]
    verdict = judge(checks)

    record = run_record(args)
    attempted = len(tops)
    record["attempted"] = attempted
    record["failed"] = verdict["failed"]
    record["errors"] = sorted(s.error for s in tops if s.error)
    if args.trace:
        # the same calls again, wrapping only the top-level call
        replay = loop(inputs[:calls.used], math.inf, Recorder())
        if sweep:
            verdict["problems"] += gate.compare_reruns(calls.records, replay.records)
        metrics = layers.layer_metrics(recorder, calls.wall, replay.wall)
        units = layers.PER_LAYER
        spans_path = RESULTS / f"{stem}.spans.jsonl"
        recorder.write_jsonl(spans_path, recorder.spans[0].start if recorder.spans else 0.0)
        record["spans"] = str(spans_path.relative_to(ROOT))
        record["span_count"] = len(recorder.spans)
        samples, notes = {}, {}
    else:
        if sweep:
            rerun_rows = inputs[:min(calls.used, RERUN_BLOCKS * SWEEP_BLOCK)]
            again = sweep_loop(rerun_rows, math.inf, Recorder(), manifest)
            verdict["problems"] += gate.compare_reruns(
                calls.records[:len(again.records)], again.records
            )
        rss_mb = watch.rss_mb or peak_rss_mb()
        metrics, samples, notes = end_to_end(
            calls, checks, setups, args.workload, rss_mb, watch.pacer
        )
        units = END_TO_END
        record["setup_samples_s"] = setups
        record["peak_rss_after_calls"] = min(watch.rss_calls, len(tops))
        record["latencies_s"] = [s.duration for s in tops]
        record["kernel_samples_s"] = [d for _t, d in watch.pacer.samples]
        record["host_scale"] = watch.pacer.scale(-math.inf, math.inf)
        record["tail_percentile"] = notes["latency_tail_ms"]
        record["measured_calls"] = samples["latency_p50_ms"]
    manifest.unlink(missing_ok=True)

    correct = not verdict["problems"]
    record["correct"] = correct
    record["problems"] = verdict["problems"][:20]
    record["metrics"] = {
        name: {"value": metrics[name], "unit": units[name]} for name in units
    }
    record["samples"] = samples
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={record['nproc']} cpu={record['cpu_model']!r} "
          f"python={record['python']} numpy={record['numpy']} scipy={record['scipy']}")
    if "host_scale" in record:
        print(f"# times scaled to the reference host speed; this run's scale "
              f"{record['host_scale']:.4g} (raw = scaled / scale)")
    for name in units:
        extra = []
        if name in samples:
            extra.append(f"n={samples[name]}")
        if name in notes:
            extra.append(notes[name])
        print(f"{name:32s} {metrics[name]:>14.6g} {units[name]:6s} {' '.join(extra)}")
    for problem in verdict["problems"][:20]:
        print(f"WRONG: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": verdict["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    worst = 0
    for name in WORKLOADS:
        code = subprocess.call(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]
        )
        worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: prepare the inputs, print 'ready', exit")
    args = parser.parse_args(argv)
    load_library()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
