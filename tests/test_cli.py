"""Command line layer: parsing, generators, run reports, exit codes."""

import hashlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from ccs.cli import (
    CSV_HEADER,
    EXIT_CAP,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    GENERATOR_FAMILIES,
    InstanceFormatError,
    RunReport,
    VARIANT_FLAGS,
    format_instance,
    generate,
    main,
    parse_instance,
    run,
    sweep,
)
import ccs
from ccs.nfold import constraint_violations
from ccs.ptas import (
    PtasParams,
    build_program,
    construct_schedule,
    derive_delta,
    preprocess,
    ptas_solve,
)
from ccs.core import (
    EnumerationCapError,
    Instance,
    NONPREEMPTIVE,
    PREEMPTIVE,
    PreemptiveSchedule,
    SPLITTABLE,
    lower_bound,
    makespan,
    validate,
)
from conftest import certified, instances, lower_enum_cap, never_certify


# The scheme skips its program when the warm start is within 1 + epsilon
# of a lower bound. This instance's warm start is within 2 of it but not
# within 5/4, so at accuracy 1/4 the scheme reaches the program.
UNCERTIFIED = Instance((1, 1, 1), (1, 1, 2), 2, 2)
UNCERTIFIED_TEXT = "3 2 2\n1 1\n1 1\n1 2\n"
QUARTER = Fraction(1, 4)
# a non-preemptive instance whose program is reached at accuracy 1/8, index
# 10 of the seed-1 scheme-whole benchmark stream: its polished warm start,
# 8, misses the bound 7 by more than 1 + 1/8, and the program at 7 is
# feasible
SEARCHED_TEXT = "6 3 2\n5 1\n3 1\n4 1\n2 3\n1 3\n5 2\n"
# its polished warm start, 8, misses the bound 7 by more than 1 + 1/8 too,
# but the program at 7 is infeasible, which raises the bound to 8
REJECTED_TEXT = "4 3 2\n5 1\n7 2\n4 2\n4 1\n"
# searched to the end at accuracy 1/8, the non-preemptive scheme probes
# this instance twice, both feasible: its polished warm start has makespan
# 89 and its certificate T_np is 68, so the first probe lies above 68 and
# its program's schedule beats the warm start
TWO_PROBES = Instance((29, 38, 22, 1, 2, 22, 22), (2, 2, 2, 1, 1, 3, 3), 2, 2)


def probes(instance, variant, epsilon=1):
    """The (guess, feasible) probes of ptas_solve at epsilon."""
    report = {}
    ptas_solve(instance, epsilon, variant, report=report)
    return report["probes"]


def stall_highs(monkeypatch, answered=0):
    """Let HiGHS answer its first ``answered`` calls, then make every call
    stop at its time limit without a point. Returns the list of calls
    made, which the caller may clear to start the count again."""
    from scipy.optimize._highspy._core import HighsModelStatus

    real = ccs.nfold._run_highs
    calls = []

    def limited(lp, options):
        calls.append(lp)
        if len(calls) <= answered:
            return real(lp, options)
        return HighsModelStatus.kTimeLimit, None

    monkeypatch.setattr(ccs.nfold, "_run_highs", limited)
    return calls


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseInstance:
    def test_three_unit_jobs(self, tmp_path):
        path = write(tmp_path, "a.txt", "3 2 1\n2 1\n2 2\n2 3\n")
        inst = parse_instance(path)
        assert inst.job_count == 3
        assert inst.machine_count == 2
        assert inst.slot_budget == 1
        assert inst.class_count == 3
        assert inst.processing_times == (2, 2, 2)

    def test_fraction_processing_time(self, tmp_path):
        path = write(tmp_path, "a.txt", "1 1 1\n5/2 1\n")
        inst = parse_instance(path)
        assert inst.processing_times == (Fraction(5, 2),)

    def test_zero_job_count_header_rejected(self, tmp_path):
        path = write(tmp_path, "a.txt", "0 1 1\n")
        with pytest.raises(InstanceFormatError):
            parse_instance(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        text = "# two jobs\n\n2 1 2  # header\n3 1\n\n4 2 # second job\n"
        inst = parse_instance(write(tmp_path, "a.txt", text))
        assert inst.processing_times == (3, 4)
        assert inst.class_count == 2

    def test_error_carries_line_number(self, tmp_path):
        path = write(tmp_path, "a.txt", "# intro\n2 1 1\n3 1\nnonsense\n")
        with pytest.raises(InstanceFormatError, match=r"a\.txt:4"):
            parse_instance(path)

    def test_bad_number_reported(self, tmp_path):
        path = write(tmp_path, "a.txt", "1 1 1\nx 1\n")
        with pytest.raises(InstanceFormatError, match="bad number"):
            parse_instance(path)

    def test_fractional_machine_count_rejected(self, tmp_path):
        path = write(tmp_path, "a.txt", "1 3/2 1\n2 1\n")
        with pytest.raises(InstanceFormatError, match="integer"):
            parse_instance(path)

    def test_nonpositive_processing_time_rejected(self, tmp_path):
        path = write(tmp_path, "a.txt", "1 1 1\n0 1\n")
        with pytest.raises(InstanceFormatError, match="positive"):
            parse_instance(path)

    def test_job_count_mismatch_rejected(self, tmp_path):
        path = write(tmp_path, "a.txt", "3 1 1\n2 1\n2 2\n")
        with pytest.raises(InstanceFormatError, match="promises 3"):
            parse_instance(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "a.txt", "# nothing here\n")
        with pytest.raises(InstanceFormatError, match="no instance data"):
            parse_instance(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InstanceFormatError, match="cannot read"):
            parse_instance(str(tmp_path / "absent.txt"))

    @settings(max_examples=30, deadline=None)
    @given(inst=instances())
    def test_format_then_parse_roundtrips(self, inst, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "inst.txt"
        path.write_text(format_instance(inst))
        again = parse_instance(str(path))
        assert again.processing_times == inst.processing_times
        assert again.machine_count == inst.machine_count
        assert again.slot_budget == inst.slot_budget
        # labels are densely re-indexed on both sides
        assert again.class_labels == inst.class_labels


class TestGenerate:
    def test_same_seed_same_instance(self):
        a = generate(11, "uniform", 6, 3, 2)
        b = generate(11, "uniform", 6, 3, 2)
        assert a == b

    def test_seeds_vary_instances(self):
        draws = {generate(s, "uniform", 6, 3, 2) for s in range(10)}
        assert len(draws) > 1

    def test_many_singletons_one_job_per_class(self):
        inst = generate(5, "many-singletons", 7, 4, 2)
        assert inst.class_count == 7
        assert sorted(inst.class_labels) == list(range(1, 8))

    def test_uniform_respects_size_range(self):
        for seed in range(20):
            inst = generate(seed, "uniform", 8, 3, 2, (2, 5))
            assert all(2 <= p <= 5 for p in inst.processing_times)

    def test_few_large_classes_family(self):
        for seed in range(20):
            inst = generate(seed, "few-large-classes", 8, 4, 3, (1, 10))
            assert inst.class_count <= 3
            assert all(5 <= p <= 10 for p in inst.processing_times)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            generate(1, "bursty", 4, 2, 1)

    def test_bad_size_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            generate(1, "uniform", 4, 2, 1, (5, 2))

    @pytest.mark.parametrize("family", GENERATOR_FAMILIES)
    @pytest.mark.parametrize("n, m, c, p_range", [
        (1, 1, 1, (1, 1)),
        (6, 3, 2, (1, 1)),  # width 1: randrange still draws one bit a job
        (9, 3, 1, (4, 4)),
        (12, 4, 2, (1, 8)),  # power-of-two widths: one draw in two redrawn
        (12, 2, 3, (1, 16)),
        (12, 2, 2, (1, 15)),  # width 8 in the upper half, 8..15
        (11, 3, 2, (5, 12)),
        (20, 4, 3, (1, 10)),
        (40, 5, 2, (1, 100)),
    ])
    def test_draws_as_randrange(self, family, n, m, c, p_range):
        """The instances of the generator over ``random.randrange``, by
        which every ``gen:`` spec, pinned sweep row and benchmark input was
        drawn: sizes, dense labels and original labels alike."""
        for seed in range(40):
            inst = generate(seed, family, n, m, c, p_range)
            want = reference_generate(seed, family, n, m, c, p_range)
            assert inst == want
            assert inst.original_labels == want.original_labels

    @pytest.mark.parametrize("family", GENERATOR_FAMILIES)
    def test_draws_as_randrange_at_benchmark_size(self, family):
        m = 825 if family == "many-singletons" else 150
        for seed in (11, 12, 13):
            inst = generate(seed, family, 1500, m, 2, (1, 100))
            want = reference_generate(seed, family, 1500, m, 2, (1, 100))
            assert inst == want
            assert inst.original_labels == want.original_labels


def reference_generate(seed, family, n, m, c, p_range):
    """``generate`` as first written: two ``randrange`` draws a job."""
    low, high = p_range
    rng = random.Random(seed)
    if family == "many-singletons":
        labels = list(range(1, n + 1))
        sizes = [rng.randrange(low, high + 1) for _ in range(n)]
    elif family == "few-large-classes":
        palette = max(1, min(n, m * c, 3))
        labels = [rng.randrange(1, palette + 1) for _ in range(n)]
        heavy = max(low, (low + high) // 2)
        sizes = [rng.randrange(heavy, high + 1) for _ in range(n)]
    else:
        palette = max(1, min(n, m * c))
        labels = [rng.randrange(1, palette + 1) for _ in range(n)]
        sizes = [rng.randrange(low, high + 1) for _ in range(n)]
    return Instance(tuple(sizes), tuple(labels), m, c)


class TestRun:
    def test_single_job_spread_over_three_machines(self):
        inst = Instance((6,), (1,), 3, 1)
        row = run(inst, "approx", SPLITTABLE, label="demo")
        assert row.makespan == 2
        assert row.opt == 2
        assert row.ratio_opt == 1
        assert row.feasible == "yes"

    def test_exact_nonpreemptive_reports_schedule(self):
        inst = Instance((3, 2, 2), (1, 1, 2), 2, 1)
        row = run(inst, "exact", NONPREEMPTIVE)
        assert row.feasible == "yes"
        assert row.makespan == row.opt
        assert row.ratio_opt == 1

    def test_exact_splittable_is_value_only(self):
        inst = Instance((4, 2), (1, 2), 2, 1)
        row = run(inst, "exact", SPLITTABLE)
        assert row.feasible == "value-only"
        assert row.makespan == 4

    def test_exact_oversized_hits_oracle_cap(self):
        labels = tuple(1 + (i % 4) for i in range(12))
        inst = Instance((3,) * 12, labels, 6, 2)
        row = run(inst, "exact", NONPREEMPTIVE)
        assert row.feasible == "oracle-cap"
        assert row.makespan is None
        assert row.lb is not None

    def test_ptas_preemptive_accuracy_beyond_budget(self, monkeypatch):
        inst = UNCERTIFIED
        with monkeypatch.context() as patch:
            never_certify(patch)
            assert probes(inst, PREEMPTIVE)
            row = run(inst, "ptas", PREEMPTIVE, epsilon=1)
        assert row.feasible == "yes"
        assert row.epsilon == 1
        assert row.ratio_opt <= 2
        assert not certified(inst, SPLITTABLE, QUARTER)
        lower_enum_cap(monkeypatch, 10)
        row = run(inst, "ptas", SPLITTABLE, epsilon=QUARTER)
        assert row.feasible == "enum-cap"
        assert row.epsilon == QUARTER
        # the cap fires in set enumeration, before any program is solved:
        # the row keeps the warm start and the certificate, the load bound
        with pytest.raises(EnumerationCapError) as err:
            ptas_solve(inst, QUARTER, SPLITTABLE)
        assert validate(err.value.schedule, inst) == []
        assert row.makespan == makespan(err.value.schedule, inst)
        assert row.lb == err.value.bound == lower_bound(inst, SPLITTABLE)[0]

    def test_time_out_keeps_the_best_schedule_and_the_bound(self,
                                                            monkeypatch):
        """HiGHS answers the first probe and stops at its time limit on
        the second: the refusal carries the first probe's schedule, which
        beats the warm start, and the certificate, and the row shows its
        makespan over that bound."""
        never_certify(monkeypatch)
        calls = stall_highs(monkeypatch, answered=1)
        with pytest.raises(EnumerationCapError) as err:
            ptas_solve(TWO_PROBES, Fraction(1, 8), NONPREEMPTIVE)
        assert len(calls) == 2
        carried, bound = err.value.schedule, err.value.bound
        assert validate(carried, TWO_PROBES) == []
        value = makespan(carried, TWO_PROBES)
        assert value < 89
        assert bound == 68
        calls.clear()
        row = run(TWO_PROBES, "ptas", NONPREEMPTIVE, epsilon=Fraction(1, 8))
        assert row.feasible == "enum-cap"
        assert (row.makespan, row.lb, row.ratio_lb) == (value, 68, value / 68)

    def test_preemptive_time_out_carries_a_preemptive_schedule(self,
                                                              monkeypatch):
        never_certify(monkeypatch)
        stall_highs(monkeypatch)
        with pytest.raises(EnumerationCapError) as err:
            ptas_solve(UNCERTIFIED, 1, PREEMPTIVE)
        carried = err.value.schedule
        assert isinstance(carried, PreemptiveSchedule)
        assert validate(carried, UNCERTIFIED) == []
        row = run(UNCERTIFIED, "ptas", PREEMPTIVE, epsilon=1)
        assert row.feasible == "enum-cap"
        assert row.makespan == makespan(carried, UNCERTIFIED)
        floor, _ub = lower_bound(UNCERTIFIED, PREEMPTIVE)
        assert row.lb == max(floor, err.value.bound)

    def test_ms_leaves_out_the_dump_write(self, tmp_path, monkeypatch):
        inst = parse_instance(write(tmp_path, "inst.txt", SEARCHED_TEXT))
        dump = tmp_path / "prog.txt"
        eps = Fraction(1, 8)
        run(inst, "ptas", NONPREEMPTIVE, epsilon=eps, dump_nfold=dump)
        pause = 0.5

        def slow_dump(program):
            time.sleep(pause)
            return "slow\n"

        monkeypatch.setattr(ccs.cli, "dump_program", slow_dump)
        row = run(inst, "ptas", NONPREEMPTIVE, epsilon=eps, dump_nfold=dump)
        assert dump.read_text() == "slow\n"
        assert row.ms < pause * 1000

    def test_more_classes_than_slots_is_infeasible(self):
        inst = Instance((2, 2, 2), (1, 2, 3), 2, 1)
        row = run(inst, "approx", NONPREEMPTIVE)
        assert row.feasible == "infeasible"
        assert row.makespan is None

    def test_ratio_against_optimum_never_below_one(self):
        for seed in range(12):
            inst = generate(seed, "uniform", 5, 3, 2, (1, 9))
            for variant in (SPLITTABLE, PREEMPTIVE, NONPREEMPTIVE):
                row = run(inst, "approx", variant)
                assert row.feasible == "yes"
                if row.opt is not None:
                    assert row.ratio_opt >= 1

    def test_csv_row_matches_header_schema(self):
        inst = Instance((6,), (1,), 3, 1)
        row = run(inst, "approx", SPLITTABLE, label="demo")
        fields = row.csv().split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == "demo"
        assert fields[1] == "splittable"
        assert fields[4] == "2"
        assert float(fields[9]) >= 0
        assert fields[10] == "yes"

    def test_unknown_algorithm_rejected(self):
        inst = Instance((2,), (1,), 1, 1)
        with pytest.raises(ValueError, match="algorithm"):
            run(inst, "anneal", SPLITTABLE)

    def test_unknown_variant_rejected(self):
        inst = Instance((2,), (1,), 1, 1)
        with pytest.raises(ValueError, match="variant"):
            run(inst, "approx", "fractional")


class TestSolveCommand:
    def solve(self, tmp_path, text, *flags):
        path = write(tmp_path, "inst.txt", text)
        return main(["solve", *flags, path])

    def test_feasible_solve_exits_zero(self, tmp_path, capsys):
        code = self.solve(tmp_path, "1 3 1\n6 1\n",
                          "--variant", "split", "--algo", "approx")
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == CSV_HEADER
        assert out[1].split(",")[4] == "2"

    def test_split_approx_at_a_billion_machines(self, tmp_path, capsys):
        code = self.solve(tmp_path, "3 1000000000 2\n4 1\n5 2\n6 3\n",
                          "--variant", "split", "--algo", "approx")
        assert code == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[-1] == "yes"

    def test_split_ptas_at_a_billion_machines(self, tmp_path, capsys):
        # the warm start answers at m = 10^9 without expanding m machines
        text = "3 1000000000 2\n5 1\n9 2\n7 2\n"
        code = self.solve(tmp_path, text,
                          "--variant", "split", "--algo", "ptas")
        assert code == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[-1] == "yes"
        # solved at the true m: 21 units of work over 10^9 machines
        assert Fraction(row[4]) < 1

    def test_infeasible_instance_exits_two(self, tmp_path):
        code = self.solve(tmp_path, "2 1 1\n2 1\n2 2\n",
                          "--variant", "preempt", "--algo", "approx")
        assert code == EXIT_INFEASIBLE

    def test_cap_exits_three(self, tmp_path, monkeypatch):
        assert not certified(UNCERTIFIED, SPLITTABLE, QUARTER)
        lower_enum_cap(monkeypatch, 10)
        code = self.solve(tmp_path, UNCERTIFIED_TEXT,
                          "--variant", "split", "--algo", "ptas",
                          "--epsilon", "1/4")
        assert code == EXIT_CAP

    def test_many_large_sizes_exit_three(self, tmp_path, monkeypatch,
                                         capsys):
        # 1,308 distinct large sizes at epsilon 1/32: set enumeration
        # stops at the cap, never at Python's frame limit
        lower_enum_cap(monkeypatch, 10_000)
        inst = generate(1, "few-large-classes", 1500, 150, 2, (1, 10**6))
        code = self.solve(tmp_path, format_instance(inst),
                          "--variant", "nonpreempt", "--algo", "ptas",
                          "--epsilon", "1/32")
        assert code == EXIT_CAP
        assert capsys.readouterr().out.splitlines()[1].endswith(",enum-cap")

    def test_solver_time_limit_exits_three(self, tmp_path, monkeypatch,
                                           capsys):
        stall_highs(monkeypatch)
        code = self.solve(tmp_path, SEARCHED_TEXT,
                          "--variant", "nonpreempt", "--algo", "ptas",
                          "--epsilon", "1/8")
        assert code == EXIT_CAP
        captured = capsys.readouterr()
        # the polished warm start, 8, over the certificate, 7
        row = captured.out.splitlines()[1].split(",")
        assert (row[4], row[5], row[7], row[10]) == ("8", "7", "8/7", "enum-cap")
        assert captured.err == ""

    def test_parse_error_exits_four(self, tmp_path):
        code = self.solve(tmp_path, "0 1 1\n",
                          "--variant", "split", "--algo", "approx")
        assert code == EXIT_PARSE

    def test_out_of_range_epsilon_exits_four(self, tmp_path):
        code = self.solve(tmp_path, "1 1 1\n2 1\n",
                          "--variant", "split", "--algo", "ptas",
                          "--epsilon", "3")
        assert code == EXIT_PARSE

    def test_unparseable_epsilon_exits_four(self, tmp_path):
        code = self.solve(tmp_path, "1 1 1\n2 1\n",
                          "--variant", "split", "--algo", "ptas",
                          "--epsilon", "fast")
        assert code == EXIT_PARSE

    def test_nfold_dump_is_written(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", SEARCHED_TEXT)
        assert probes(parse_instance(inst), NONPREEMPTIVE, Fraction(1, 8))
        dump = tmp_path / "prog.txt"
        code = main(["solve", "--variant", "nonpreempt", "--algo", "ptas",
                     "--epsilon", "1/8", "--dump-nfold", str(dump), inst])
        assert code == EXIT_OK
        head = dump.read_text().splitlines()[0].split()
        assert len(head) == 4
        bricks, top_rows, diag_rows, width = map(int, head)
        assert bricks >= 1 and top_rows >= 1 and width >= 1

    def test_dump_skipped_when_every_program_is_infeasible(self, tmp_path,
                                                           capsys):
        inst = write(tmp_path, "inst.txt", REJECTED_TEXT)
        found = probes(parse_instance(inst), NONPREEMPTIVE, Fraction(1, 8))
        assert found == [(7, False)]
        dump = tmp_path / "prog.txt"
        code = main(["solve", "--variant", "nonpreempt", "--algo", "ptas",
                     "--epsilon", "1/8", "--dump-nfold", str(dump), inst])
        assert code == EXIT_OK
        assert not dump.exists()
        assert capsys.readouterr().err == (
            f"{dump} not written: every program probed was infeasible, and "
            "they raised the bound to within 1 + epsilon of the warm start\n"
        )

    @pytest.mark.parametrize("algo", ["approx", "exact"])
    def test_dump_not_written_without_a_scheme(self, tmp_path, capsys, algo):
        dump = tmp_path / "prog.txt"
        code = self.solve(tmp_path, SEARCHED_TEXT,
                          "--variant", "nonpreempt", "--algo", algo,
                          "--dump-nfold", str(dump))
        assert code == EXIT_OK
        assert not dump.exists()
        assert capsys.readouterr().err == (
            f"{dump} not written: only --algo ptas builds a program\n"
        )

    def test_unwritable_dump_exits_four(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", SEARCHED_TEXT)
        dump = str(tmp_path / "missing" / "prog.txt")
        code = main(["solve", "--variant", "nonpreempt", "--algo", "ptas",
                     "--epsilon", "1/8", "--dump-nfold", dump, inst])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"cannot write {dump}: ")

    def test_preemptive_nfold_dump_is_the_splittable_program(self, tmp_path,
                                                              monkeypatch):
        never_certify(monkeypatch)
        inst = write(tmp_path, "inst.txt", "3 2 2\n1 1\n1 1\n3 2\n")
        assert probes(parse_instance(inst), PREEMPTIVE)
        dump = tmp_path / "prog.txt"
        code = main(["solve", "--variant", "preempt", "--algo", "ptas",
                     "--epsilon", "1", "--dump-nfold", str(dump), inst])
        assert code == EXIT_OK
        assert len(dump.read_text().splitlines()[0].split()) == 4

    def test_preemptive_dump_skipped_without_a_program(self, tmp_path, capsys):
        inst = write(tmp_path, "inst.txt", "2 3 1\n4 1\n9 2\n")
        dump = tmp_path / "prog.txt"
        code = main(["solve", "--variant", "preempt", "--algo", "ptas",
                     "--epsilon", "1", "--dump-nfold", str(dump), inst])
        assert code == EXIT_OK
        assert not dump.exists()
        assert capsys.readouterr().err == (
            f"{dump} not written: m >= n, so every job runs alone and no "
            "program was solved\n"
        )

    def test_dump_skipped_for_a_certified_warm_start(self, tmp_path, capsys):
        # T* = 2 meets the warm start, so it is within 1 + epsilon: no
        # program is solved
        inst = write(tmp_path, "inst.txt", "3 2 1\n1 1\n1 1\n1 2\n")
        assert probes(parse_instance(inst), SPLITTABLE) == []
        dump = tmp_path / "prog.txt"
        code = main(["solve", "--variant", "split", "--algo", "ptas",
                     "--epsilon", "1", "--dump-nfold", str(dump), inst])
        assert code == EXIT_OK
        assert not dump.exists()
        captured = capsys.readouterr()
        assert captured.err == (
            f"{dump} not written: the warm start is within 1 + epsilon of a "
            "lower bound, so no program was solved\n"
        )
        assert captured.out.splitlines()[1].split(",")[4] == "2"


# SHA-256 of the --dump-nfold text of the n-fold program, pinned when the
# builder still assembled that program itself; every instance has both
# large and small classes. The certificate answers all three at accuracy
# 1, so the test makes the scheme search its program, as it did then.
DUMP_PINS = [
    ("split", "4 2 2\n10 1\n9 2\n1 3\n1 4\n",
     "6f23fa9e96a6dcf879f0674a5c365c1cdef26f5a2cc34bcf8fa668d5c7145903"),
    ("nonpreempt", "6 2 3\n10 1\n9 2\n1 3\n1 4\n2 1\n8 2\n",
     "fbf911494cd8ec8c69b60c3cf446fe22b224b544bf73dfb9d6226a0a1fdd75b9"),
    ("preempt", "4 2 2\n10 1\n9 2\n1 3\n1 1\n",
     "a5d14bd73b8d0e7222f5c161cdebc73fa3846c4116a12c8331e73df969cadf4a"),
]


@pytest.mark.parametrize("flag,text,digest", DUMP_PINS,
                         ids=[pin[0] for pin in DUMP_PINS])
def test_nfold_dump_bytes_are_pinned(tmp_path, capsys, monkeypatch, flag, text,
                                     digest):
    never_certify(monkeypatch)
    inst = write(tmp_path, "inst.txt", text)
    dump = tmp_path / "prog.txt"
    code = main(["solve", "--variant", flag, "--algo", "ptas",
                 "--epsilon", "1", "--dump-nfold", str(dump), inst])
    assert code == EXIT_OK
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest


# SHA-256 of the compact program (``CompactProgram``) the scheme accepts
# on each DUMP_PINS instance, over the repr of its six arrays as tuples.
# The dump above is built by ``as_nfold`` from the sets, so it does not
# see a change to ``build_program`` alone; these pins do.
COMPACT_PINS = {
    "split": "95c38c595699fb935b21d95e23eb0de0ebc18067aae72156e454dfebce3523be",
    "nonpreempt":
        "1dde14ffe90ecd338de1542548f315debfc367d18444c8dc0b7b169fe4558889",
    "preempt": "d29ef90932eb1533ef72b26b5ed370cdf9333ee5fb2c23d0047082d70629b0bb",
}


@pytest.mark.parametrize("flag,text,_dump", DUMP_PINS,
                         ids=[pin[0] for pin in DUMP_PINS])
def test_compact_program_bytes_are_pinned(tmp_path, monkeypatch, flag, text,
                                          _dump):
    never_certify(monkeypatch)
    report = {}
    ptas_solve(parse_instance(write(tmp_path, "inst.txt", text)), 1,
               VARIANT_FLAGS[flag], report=report)
    program = report["built"].program
    arrays = tuple(
        tuple(getattr(program, name))
        for name in ("col_start", "row_index", "values", "rhs", "lower", "upper")
    )
    digest = hashlib.sha256(repr(arrays).encode()).hexdigest()
    assert digest == COMPACT_PINS[flag]


# Feasible points of the compact program, as their nonzero entries
# {column: value}, and the SHA-256 of the repr of the schedule that
# construct_schedule rebuilds from each, pinned when reconstruction still
# scanned every module for every class. The first three are the points
# ptas_solve(report=) held on the DUMP_PINS instances under never_certify
# (preempt: its splittable run), at the guess of that report; the last two
# are non-preemptive probes at accuracy 1/2 whose large classes fill
# different module subsets. The points are stored, so the pins do not
# depend on which point HiGHS returns. Every instance has m <= n, so the
# scheme solves it unclamped.
DUMP_TEXT = {flag: text for flag, text, _digest in DUMP_PINS}
RECONSTRUCTION_PINS = [
    ("split", SPLITTABLE, DUMP_TEXT["split"], 1, Fraction(21, 2),
     {36: 1, 42: 1, 1824: 1, 1907: 1, 2046: 1, 2238: 1, 2586: 69, 2598: 57},
     "410cf2c294f5208886af77cdff825a3cb4dd5738881870d25f2589364b90791f"),
    ("nonpreempt", NONPREEMPTIVE, DUMP_TEXT["nonpreempt"], 1, 16,
     {11: 1, 27: 1, 74: 1, 75: 1, 78: 1, 79: 1, 94: 1, 184: 1, 364: 241},
     "5b37eb9fdc20803c1d063c6a9fe81e9357f7e3b9cdb341c176e41ce41d778216"),
    ("preempt", SPLITTABLE, DUMP_TEXT["preempt"], 1, Fraction(21, 2),
     {42: 1, 384: 1, 1794: 1, 1800: 1, 1907: 1, 2046: 1, 2406: 69},
     "f853297f092637a70c45ef409f4fc4357882979c2456a4d36f74877275dc7f5b"),
    ("nested", NONPREEMPTIVE, "6 3 2\n9 1\n9 1\n7 1\n8 2\n7 2\n6 3\n",
     Fraction(1, 2), 16,
     {7: 1, 12: 1, 14: 1, 28: 2, 30: 1, 33: 1, 34: 1, 37: 1},
     "e01d2be3efcd7e1f7ec3ad29ca7785a1be2e425de714c24cfeb115b8ba4135ea"),
    ("hosted", NONPREEMPTIVE,
     "8 3 2\n10 1\n10 1\n6 2\n9 2\n6 2\n6 3\n2 4\n1 5\n",
     Fraction(1, 2), 20,
     {1: 1, 2: 1, 28: 1, 42: 1, 48: 1, 50: 1, 52: 1, 90: 1, 138: 1,
      188: 192, 190: 123},
     "2e34aaf5f2dfaded9486da57a8d0e37bf7f0a6e99a14d2559ca90fb25eba1c60"),
]


@pytest.mark.parametrize("variant,text,epsilon,guess,entries,digest",
                         [pin[1:] for pin in RECONSTRUCTION_PINS],
                         ids=[pin[0] for pin in RECONSTRUCTION_PINS])
def test_reconstructed_schedule_bytes_are_pinned(tmp_path, variant, text,
                                                 epsilon, guess, entries,
                                                 digest):
    inst = parse_instance(write(tmp_path, "inst.txt", text))
    params = PtasParams(derive_delta(epsilon, variant), guess, variant)
    built = build_program(preprocess(inst, params))
    point = [0] * len(built.program.lower)
    for col, value in entries.items():
        point[col] = value
    assert constraint_violations(built.program, point) == []
    schedule = construct_schedule(point, built)
    assert hashlib.sha256(repr(schedule).encode()).hexdigest() == digest


def test_import_loads_neither_numpy_nor_scipy():
    # numpy alone takes about 0.2 s to import; it is loaded on the first
    # mixed-integer solve, not by importing the package or its CLI
    src = str(Path(ccs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, ccs, ccs.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


class TestGenCommand:
    def test_gen_writes_parseable_file(self, tmp_path):
        out = tmp_path / "g.txt"
        code = main(["gen", "--family", "uniform", "--seed", "4",
                     "--n", "5", "--m", "2", "--c", "2", str(out)])
        assert code == EXIT_OK
        inst = parse_instance(str(out))
        assert inst.job_count == 5
        assert inst == generate(4, "uniform", 5, 2, 2)

    def test_gen_to_stdout(self, capsys):
        code = main(["gen", "--family", "many-singletons", "--seed", "1",
                     "--n", "3", "--m", "3", "--c", "1", "-"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "3 3 1"
        assert len(lines) == 4

    @pytest.mark.parametrize("flag,why", [
        ("--m", "machine count must be positive"),
        ("--n", "instance needs at least one job"),
        ("--c", "slot budget must be positive"),
    ])
    def test_gen_nonpositive_count_exits_four(self, capsys, flag, why):
        counts = {"--n": "3", "--m": "2", "--c": "2", flag: "0"}
        args = [token for pair in counts.items() for token in pair]
        code = main(["gen", "--family", "uniform", "--seed", "1", *args, "-"])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.strip() == why

    def test_gen_unwritable_output_exits_four(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "g.txt")
        code = main(["gen", "--family", "uniform", "--seed", "1",
                     "--n", "3", "--m", "2", "--c", "2", out])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"cannot write {out}: ")


class TestSweepCommand:
    MANIFEST = (
        "# mixed demo sweep\n"
        "gen:uniform:3:4:2:2:9 split approx\n"
        "gen:uniform:3:4:2:2:9 nonpreempt exact\n"
        "gen:few-large-classes:5:4:2:2:9 nonpreempt ptas 1\n"
        "{file} split exact\n"
    )

    def manifest(self, tmp_path):
        inst = write(tmp_path, "one.txt", "1 2 1\n7 1\n")
        return write(tmp_path, "man.txt",
                     self.MANIFEST.format(file=inst))

    def test_sweep_writes_one_row_per_line(self, tmp_path):
        man = self.manifest(tmp_path)
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--manifest", man, "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        statuses = [line.split(",")[-1] for line in lines[1:]]
        assert statuses == ["yes", "yes", "yes", "value-only"]

    def test_solver_time_limit_row_is_a_cap(self, tmp_path, monkeypatch):
        # the stalled solve is a row of its own, and the next row still runs
        stall_highs(monkeypatch)
        inst = write(tmp_path, "searched.txt", SEARCHED_TEXT)
        man = write(tmp_path, "man.txt", f"{inst} nonpreempt ptas 1/8\n"
                                         f"{inst} split approx\n")
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--manifest", man, "--out", str(out)])
        assert code == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["enum-cap", "yes"]

    def test_sweep_reproducible_up_to_timing(self, tmp_path):
        man = self.manifest(tmp_path)
        runs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["sweep", "--manifest", man,
                         "--out", str(out)]) == EXIT_OK
            ms_column = CSV_HEADER.split(",").index("ms")
            rows = []
            for line in out.read_text().splitlines():
                cells = line.split(",")
                del cells[ms_column]
                rows.append(cells)
            runs.append(rows)
        assert runs[0] == runs[1]

    def test_sweep_statuses_are_data_not_errors(self, tmp_path):
        man = write(tmp_path, "man.txt",
                    "gen:uniform:1:3:1:1:5 split approx\n")
        out = tmp_path / "rows.csv"
        # n=3 jobs, one machine slot only: still feasible, just packed
        assert main(["sweep", "--manifest", man, "--out", str(out)]) == 0

    def test_manifest_bad_line_exits_four(self, tmp_path, capsys):
        man = write(tmp_path, "man.txt", "gen:uniform:1:3:1:1:5 split\n")
        code = main(["sweep", "--manifest", man, "--out", "-"])
        assert code == EXIT_PARSE
        assert "man.txt:1" in capsys.readouterr().err

    def test_manifest_unknown_variant_exits_four(self, tmp_path, capsys):
        man = write(tmp_path, "man.txt",
                    "gen:uniform:1:3:1:1:5 fractional approx\n")
        assert main(["sweep", "--manifest", man, "--out", "-"]) == EXIT_PARSE

    def test_manifest_unknown_variant_names_the_choices(self, tmp_path,
                                                        capsys):
        man = write(tmp_path, "man.txt",
                    "gen:uniform:1:4:2:2:9 splitt approx\n")
        assert main(["sweep", "--manifest", man, "--out", "-"]) == EXIT_PARSE
        assert capsys.readouterr().err.splitlines() == [
            f"{man}:1: unknown variant 'splitt',"
            " want one of nonpreempt, preempt, split"
        ]

    def test_manifest_bad_generator_spec_exits_four(self, tmp_path):
        man = write(tmp_path, "man.txt", "gen:uniform:1:3 split approx\n")
        assert main(["sweep", "--manifest", man, "--out", "-"]) == EXIT_PARSE

    def test_manifest_nonpositive_generator_count_exits_four(self, tmp_path,
                                                             capsys):
        man = write(tmp_path, "man.txt",
                    "gen:uniform:1:3:1:1:5 split approx\n"
                    "gen:uniform:1:4:0:2:9 split approx\n")
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--manifest", man, "--out", str(out)])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert "man.txt:2" in err and "machine count must be positive" in err

    def test_unwritable_sweep_output_exits_four(self, tmp_path, capsys):
        man = self.manifest(tmp_path)
        out = str(tmp_path / "missing" / "rows.csv")
        code = main(["sweep", "--manifest", man, "--out", out])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"cannot write {out}: ")

    def test_missing_manifest_exits_four(self, tmp_path):
        absent = str(tmp_path / "nope.txt")
        assert main(["sweep", "--manifest", absent, "--out", "-"]) == 4

    def test_seeded_hundred_instance_sweep_all_feasible(self, tmp_path):
        lines = [
            f"gen:uniform:{seed}:5:3:2:9 split approx\n"
            for seed in range(100)
        ]
        man = write(tmp_path, "man.txt", "".join(lines))
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--manifest", man, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 100
        assert all(row.split(",")[-1] == "yes" for row in rows)


# SHA-256 of the sweep CSV, without its ms column, of the approximation
# rows of every generator family and variant at n = 300, two class slots
# per machine and sizes up to 100 (m = n/10, or 0.55 n for
# many-singletons); pinned when the threshold searches still counted
# pieces in Fraction arithmetic
PINNED_APPROX_SWEEP = (
    "be54e17e48987c0477d63fd07b25f728328da1bc2dafe09f469d06c3d857bdc7"
)


def _approx_sweep_digest(tmp_path, n):
    """SHA-256 of the sweep CSV, ms column dropped, of one approx row per
    generator family and variant at n jobs: two class slots per machine,
    sizes up to 100, m = n/10 (0.55 n for many-singletons)."""
    lines = [
        f"gen:{family}:{seed}:{n}:"
        f"{n * 11 // 20 if family == 'many-singletons' else n // 10}"
        f":2:100 {variant} approx\n"
        for seed, family in enumerate(GENERATOR_FAMILIES, start=11)
        for variant in ("split", "preempt", "nonpreempt")
    ]
    man = write(tmp_path, "man.txt", "".join(lines))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--manifest", man, "--out", str(out)]) == EXIT_OK
    ms_column = CSV_HEADER.split(",").index("ms")
    rows = []
    for line in out.read_text().splitlines():
        cells = line.split(",")
        del cells[ms_column]
        rows.append(",".join(cells) + "\n")
    assert len(rows) == 10
    assert all(row.rstrip().endswith(",yes") for row in rows[1:])
    return hashlib.sha256("".join(rows).encode()).hexdigest()


def test_approx_sweep_rows_are_pinned(tmp_path):
    assert _approx_sweep_digest(tmp_path, 300) == PINNED_APPROX_SWEEP


# the same digest at the job counts of the benchmark's larger sweep rows,
# pinned when the layouts and the schedule checks still ran in Fraction
# arithmetic
PINNED_LARGE_APPROX_SWEEPS = {
    800: "a616f9c4b29db7715cb817235219894e6816c256cd8b43aeba8ee294c0dd0fba",
    1500: "46e0708b7f31d7de4494549fe0fff131bd3221bcb3ebbf1256ff2bc6c6a0f727",
}


@pytest.mark.parametrize("n", sorted(PINNED_LARGE_APPROX_SWEEPS))
def test_large_approx_sweep_rows_are_pinned(tmp_path, n):
    assert _approx_sweep_digest(tmp_path, n) == PINNED_LARGE_APPROX_SWEEPS[n]


class TestReportShape:
    def test_report_is_frozen(self):
        row = RunReport("i", "splittable", "approx", None, Fraction(2),
                        Fraction(1), None, Fraction(2), None, 0.5, "yes")
        with pytest.raises(AttributeError):
            row.makespan = Fraction(3)

    def test_empty_cells_for_missing_values(self):
        row = RunReport("i", "splittable", "approx", None, None,
                        None, None, None, None, 0.0, "infeasible")
        cells = row.csv().split(",")
        assert cells[3:9] == [""] * 6
