"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests

The smoke runs start the real entry point for about a second per workload
and check that every metric named in BENCHMARK.json is printed; the gate
tests feed it wrong outputs and check that it objects.
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ccs import Instance, NONPREEMPTIVE, NonPreemptiveSchedule, SPLITTABLE  # noqa: E402
from spans import Recorder, Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


def _two_class_instance():
    # two classes, one class slot per machine
    return Instance((4, 4, 3, 3), (1, 1, 2, 2), 2, 1)


def test_gate_accepts_a_valid_schedule():
    inst = _two_class_instance()
    good = NonPreemptiveSchedule({0: 0, 1: 0, 2: 1, 3: 1})
    problems, solved, ratio, ratio_lb = gate.check_scheme(inst, NONPREEMPTIVE, good)
    assert problems == [] and solved
    assert ratio == 1
    assert ratio_lb == Fraction(8, 7)


def test_gate_rejects_a_machine_over_its_class_budget():
    inst = _two_class_instance()
    # machine 0 now hosts both classes with a budget of one
    corrupt = NonPreemptiveSchedule({0: 0, 1: 1, 2: 1, 3: 0})
    problems = gate.check_scheme(inst, NONPREEMPTIVE, corrupt)[0]
    assert problems and "invalid schedule" in problems[0]


def test_gate_rejects_a_missed_ratio_guarantee():
    # valid but everything on one of three machines: ratio 3 > 1 + epsilon
    inst = Instance((5, 5, 5), (1, 1, 1), 3, 1)
    lazy = NonPreemptiveSchedule({0: 0, 1: 0, 2: 0})
    problems, _solved, ratio, _ = gate.check_scheme(inst, NONPREEMPTIVE, lazy)
    assert ratio == 3
    assert problems == ["ratio 3 above 2"]


def test_gate_counts_a_refusal_as_unsolved_but_not_wrong():
    assert gate.check_scheme(_two_class_instance(), NONPREEMPTIVE, None) == (
        [], False, None, None)


def test_gate_only_reports_splittable_ratios_beyond_n_times_c():
    one_job = Instance((6,), (1,), 3, 1)
    assert not gate.scheme_guaranteed(one_job, SPLITTABLE)
    assert gate.scheme_guaranteed(one_job, NONPREEMPTIVE)


def _row(makespan="7", opt="7", status="yes", ms="1.000"):
    fields = ["gen:uniform:1:4:2:1:10", "nonpreemptive", "approx", "", makespan,
              "6", opt, "", "", ms, status]
    return ",".join(fields)


def test_gate_checks_sweep_rows():
    assert gate.check_row(_row())[:2] == ([], True)
    assert gate.check_row(_row(status="no"))[0]
    # 7/3 is the non-preemptive approximation bound
    assert gate.check_row(_row(makespan="14", opt="6"))[0] == []
    assert gate.check_row(_row(makespan="15", opt="6"))[0]
    assert gate.check_row(_row(makespan="5", opt="5"))[0]  # below lb = 6
    assert gate.check_row(_row(status="enum-cap", makespan="", opt=""))[:2] == ([], False)


def test_rerun_comparison_ignores_only_the_ms_column():
    first = [_row(ms="1.000")]
    assert gate.compare_reruns(first, [_row(ms="9.000")]) == []
    assert gate.compare_reruns(first, [_row(makespan="8", ms="1.000")])
    assert gate.compare_reruns(first, [])


def test_self_time_excludes_wrapped_children():
    recorder = Recorder()

    def child():
        return sum(range(20000))

    traced_child = recorder.traced(child, "child")

    def parent():
        return traced_child() + traced_child()

    recorder.traced(parent, "parent")()
    spans = recorder.spans
    own = recorder.self_times()
    assert [s.name for s in spans] == ["parent", "child", "child"]
    assert spans[1].parent == spans[2].parent == 0
    assert {s.call_id for s in spans} == {0}
    children = spans[1].duration + spans[2].duration
    assert own[0] == pytest.approx(spans[0].duration - children)
    assert own[1] == spans[1].duration


def _shape(inst):
    """An instance up to the order of its jobs and the names of its classes."""
    classes = {}
    for size, label in zip(inst.processing_times, inst.class_labels):
        classes.setdefault(label, []).append(size)
    return (inst.machine_count, inst.slot_budget,
            sorted(sorted(sizes) for sizes in classes.values()))


@pytest.mark.parametrize("variant", [SPLITTABLE, NONPREEMPTIVE])
def test_seed_only_presents_the_scheme_instances(variant):
    first = workloads.scheme_instances(1, variant, 80)
    assert first == workloads.scheme_instances(1, variant, 80)
    second = workloads.scheme_instances(2, variant, 80)
    assert first != second
    assert [_shape(i) for i in first] == [_shape(i) for i in second]


def test_metrics_cover_whole_cycles_only():
    assert run.whole_cycles(130, 62) == 124
    assert run.whole_cycles(40, 62) == 40
    assert run.whole_cycles(124, 62) == 124


def test_p50_is_the_mean_of_the_middle_fifth():
    assert run.central_mean([5.0]) == 5.0
    assert run.central_mean(list(range(1, 11))) == pytest.approx(5.5)
    # ten calls: the 5th and 6th smallest
    assert run.central_mean([1, 2, 3, 4, 10, 20, 30, 40, 50, 60]) == 15


def test_times_are_scaled_per_cycle_and_leave_the_kernel_out():
    pacer = hostspeed.Pacer()
    ref = hostspeed.REFERENCE_S
    # the host runs at half speed in the first cycle, at full in the second
    pacer.samples = [(1.5, 2 * ref), (2.5, ref), (3.5, ref)]
    tops = [Span(i, "ptas", i, None, start, end)
            for i, (start, end) in enumerate([(0, 1), (1.5, 2), (2.5, 3), (3.5, 4)])]
    calls = run.Calls(tops, 0.0, 4.0, 4, [])
    latencies, loop = run.scaled_times(calls, 4, 2, pacer)
    assert latencies == pytest.approx([0.5, 0.25, 0.5, 0.5])
    # each cycle: 2 s less its kernel samples, at its own speed
    assert loop == pytest.approx((2 - 2 * ref) / 2 + (2 - 2 * ref))
