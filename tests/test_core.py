import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccs
from ccs import (
    CompactSchedule,
    Instance,
    InvalidInstanceError,
    InvalidScheduleError,
    NonPreemptiveSchedule,
    PreemptiveSchedule,
    SplittableSchedule,
    StructuralInfeasibleError,
    expand_compact,
    format_rational,
    lower_bound,
    machine_loads,
    makespan,
    parse_rational,
    validate,
)
from conftest import instances, instances_with_assignment


def F(x):
    return Fraction(x)


class TestInstanceNormalization:
    def test_labels_densely_reindexed_ascending(self):
        inst = Instance((1, 2, 3), (9, 5, 9), 2, 2)
        assert inst.class_labels == (2, 1, 2)
        assert inst.original_labels == (5, 9)
        assert inst.class_count == 2

    def test_slot_budget_clamped_to_class_count(self):
        inst = Instance((1, 1), (1, 1), 3, 5)
        assert inst.slot_budget == 1

    def test_rejects_nonpositive_size(self):
        with pytest.raises(InvalidInstanceError):
            Instance((0, 1), (1, 2), 1, 1)
        with pytest.raises(InvalidInstanceError):
            Instance((Fraction(-1, 2),), (1,), 1, 1)

    @pytest.mark.parametrize("size", [
        float("nan"), float("inf"), "1/0", "x", None, (1, 2),
    ])
    def test_rejects_unconvertible_size(self, size):
        with pytest.raises(InvalidInstanceError, match="bad processing time"):
            Instance((1, size), (1, 2), 1, 1)

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(InvalidInstanceError):
            Instance((), (), 1, 1)
        with pytest.raises(InvalidInstanceError):
            Instance((1, 2), (1,), 1, 1)

    def test_rejects_bad_counts(self):
        with pytest.raises(InvalidInstanceError):
            Instance((1,), (1,), 0, 1)
        with pytest.raises(InvalidInstanceError):
            Instance((1,), (1,), 1, 0)

    def test_rejects_fractional_machine_count(self):
        # used to be accepted and solved as if there were 2.5 machines
        with pytest.raises(InvalidInstanceError, match="machine count"):
            Instance((3, 2), (1, 2), 2.5, 1)

    def test_rejects_bool_counts(self):
        with pytest.raises(InvalidInstanceError, match="machine count"):
            Instance((3, 2), (1, 2), True, 1)
        with pytest.raises(InvalidInstanceError, match="slot budget"):
            Instance((3, 2), (1, 2), 2, True)

    def test_rejects_fractional_slot_budget(self):
        # used to end in an AttributeError inside ptas_solve
        with pytest.raises(InvalidInstanceError, match="slot budget"):
            Instance((3, 2), (1, 2), 2, 1.5)

    def test_rejects_string_counts(self):
        # used to raise a bare TypeError from the comparison with 1
        with pytest.raises(InvalidInstanceError, match="machine count"):
            Instance((3, 2), (1, 2), "2", 1)
        with pytest.raises(InvalidInstanceError, match="slot budget"):
            Instance((3, 2), (1, 2), 2, "2")

    def test_rejects_labels_that_do_not_compare(self):
        # used to raise a bare TypeError from sorting the labels
        with pytest.raises(InvalidInstanceError, match="bad class labels: '<'"):
            Instance((1, 2), ("a", 1), 1, 1)

    def test_rejects_unhashable_labels(self):
        # used to raise a bare TypeError from the set of labels
        with pytest.raises(InvalidInstanceError, match="bad class labels: unhashable"):
            Instance((1, 2), ([1], 1), 1, 1)

    def test_fractional_sizes_kept_exact(self):
        inst = Instance((Fraction(5, 2), 3), (1, 2), 2, 2)
        assert inst.processing_times == (F("5/2"), F(3))
        assert inst.total_load == F("11/2")


class TestMakespan:
    def test_two_machine_stacks(self):
        # Stacks 5+3+1 and 5+2+1.
        inst = Instance((5, 3, 1, 5, 2, 1), (1, 2, 3, 4, 5, 6), 2, 3)
        sched = NonPreemptiveSchedule({0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1})
        assert makespan(sched, inst) == 9

    def test_split_job_in_halves(self):
        inst = Instance((6,), (1,), 2, 1)
        sched = SplittableSchedule(((0, F("1/2"), 0), (0, F("1/2"), 1)))
        assert makespan(sched, inst) == 3

    def test_empty_schedule_is_zero(self):
        inst = Instance((4,), (1,), 2, 1)
        assert makespan(SplittableSchedule(()), inst) == 0
        assert makespan(PreemptiveSchedule(()), inst) == 0
        assert makespan(NonPreemptiveSchedule({}), inst) == 0

    def test_preemptive_uses_latest_end(self):
        inst = Instance((4, 2), (1, 2), 2, 2)
        sched = PreemptiveSchedule(
            ((0, F(1), 0, F(3)), (1, F(1), 1, F(0)))
        )
        assert makespan(sched, inst) == 7

    def test_dangling_ids_raise(self):
        inst = Instance((4,), (1,), 1, 1)
        with pytest.raises(InvalidScheduleError):
            makespan(NonPreemptiveSchedule({0: 5}), inst)
        with pytest.raises(InvalidScheduleError):
            makespan(SplittableSchedule(((3, F(1), 0),)), inst)


class TestClassLoads:
    def test_two_classes(self):
        inst = Instance((3, 4, 1), (1, 1, 2), 2, 2)
        assert inst.class_totals == (7, 1)

    def test_single_job(self):
        assert Instance((5,), (1,), 1, 1).class_totals == (5,)

    def test_everything_one_class(self):
        inst = Instance((2, 3, 4), (7, 7, 7), 2, 1)
        assert inst.class_totals == (9,)


class TestLowerBound:
    def test_splittable_average(self):
        lb, ub = lower_bound(Instance((2, 2, 2), (1, 2, 3), 3, 1), "splittable")
        assert lb == 2
        assert ub == 2  # c * heaviest class = 1 * 2

    def test_preemptive_peak_wins(self):
        lb, _ = lower_bound(Instance((6, 1), (1, 2), 2, 1), "preemptive")
        assert lb == max(F(6), F("7/2")) == 6

    def test_structural_infeasibility(self):
        inst = Instance((1, 1, 1), (1, 2, 3), 2, 1)
        for variant in ("splittable", "preemptive", "nonpreemptive"):
            with pytest.raises(StructuralInfeasibleError):
                lower_bound(inst, variant)

    def test_nonpreemptive_upper_bound(self):
        _, ub = lower_bound(Instance((3, 5), (1, 2), 2, 2), "nonpreemptive")
        assert ub == 10


class TestValidate:
    def test_slot_budget_violation_reported(self):
        inst = Instance((1, 1, 1), (1, 2, 3), 2, 2)
        sched = SplittableSchedule(((0, F(1), 0), (1, F(1), 0), (2, F(1), 0)))
        violations = validate(sched, inst)
        assert any("slot budget exceeded" in v for v in violations)

    def test_parallel_execution_reported(self):
        inst = Instance((8, 4), (1, 1), 2, 1)
        sched = PreemptiveSchedule(
            (
                (0, F("1/2"), 0, F(0)),  # [0, 4) on machine 0
                (0, F("1/2"), 1, F(2)),  # [2, 6) on machine 1: same job
                (1, F(1), 1, F(6)),
            )
        )
        violations = validate(sched, inst)
        assert any("parallel execution" in v for v in violations)

    def test_fraction_sum_must_be_one(self):
        inst = Instance((6,), (1,), 2, 1)
        sched = SplittableSchedule(((0, F("1/2"), 0), (0, F("1/4"), 1)))
        violations = validate(sched, inst)
        assert any("sum to 3/4" in v for v in violations)

    def test_touching_intervals_are_fine(self):
        inst = Instance((2, 2), (1, 2), 1, 2)
        sched = PreemptiveSchedule(((0, F(1), 0, F(0)), (1, F(1), 0, F(2))))
        assert validate(sched, inst) == []

    def test_unassigned_job_reported(self):
        inst = Instance((1, 2), (1, 2), 2, 1)
        violations = validate(NonPreemptiveSchedule({0: 0}), inst)
        assert any("unassigned" in v for v in violations)

    def test_variant_mismatch(self):
        inst = Instance((1,), (1,), 1, 1)
        sched = NonPreemptiveSchedule({0: 0})
        assert validate(sched, inst, "preemptive") != []
        assert validate(sched, inst, "nonpreemptive") == []


class TestCompactSchedule:
    def _compact(self):
        # Class 1 (total 12) on three machines of 4, one of which also
        # carries all of class 2 (total 3).
        inst = Instance((6, 6, 3), (1, 1, 2), 5, 2)
        return inst, CompactSchedule(
            ((((1, 4),), 2), (((1, 4), (2, 3)), 1))
        )

    def test_validates_and_measures(self):
        inst, compact = self._compact()
        assert validate(compact, inst) == []
        assert makespan(compact, inst) == 7
        assert makespan(CompactSchedule(()), inst) == 0

    def test_conservation_violation_detected(self):
        inst, compact = self._compact()
        broken = CompactSchedule(((compact.patterns[0][0], 1), compact.patterns[1]))
        assert any("class 1 carries 8" in v for v in validate(broken, inst))

    def test_machine_budget_checked(self):
        inst = Instance((6, 6, 3), (1, 1, 2), 2, 2)
        _inst, compact = self._compact()
        assert any("machine budget" in v for v in validate(compact, inst))

    @pytest.mark.parametrize("patterns, message", [
        (((((1, 12),), 0), (((2, 3),), 1)), "not a positive integer"),
        (((((1, 12),), True), (((2, 3),), 1)), "not a positive integer"),
        (((((1, 12),), 1.0), (((2, 3),), 1)), "not a positive integer"),
        (((((1, 12), (3, 1)), 1), (((2, 3),), 1)), "unknown class id 3"),
        (((((1, 6), (1, 6)), 1), (((2, 3),), 1)), "lists a class twice"),
        (((((1, 12), (2, 0)), 1), (((2, 3),), 1)), "non-positive load"),
        (((((1, 12), (2, 3)), 1),), None),
    ])
    def test_pattern_checks(self, patterns, message):
        inst = Instance((6, 6, 3), (1, 1, 2), 5, 2)
        violations = validate(CompactSchedule(patterns), inst)
        if message is None:
            assert violations == []
        else:
            assert any(message in v for v in violations)

    def test_slot_budget_checked_per_pattern(self):
        inst = Instance((6, 6, 3), (1, 1, 2), 5, 1)
        compact = CompactSchedule(((((1, 12), (2, 3)), 1),))
        assert any("slot budget" in v for v in validate(compact, inst))

    def test_expansion_preserves_makespan_and_loads(self):
        inst, compact = self._compact()
        expanded = expand_compact(compact, inst)
        assert validate(expanded, inst) == []
        assert makespan(expanded, inst) == makespan(compact, inst)
        per_machine = machine_loads(expanded, inst)
        assert sorted(per_machine.values()) == [4, 4, 7]

    def test_expansion_refuses_an_invalid_schedule(self):
        inst, _compact = self._compact()
        with pytest.raises(InvalidScheduleError, match="carries"):
            expand_compact(CompactSchedule(((((1, 4),), 2),)), inst)

    def test_machine_loads_refuses_compact(self):
        inst, compact = self._compact()
        with pytest.raises(TypeError, match="expand_compact"):
            machine_loads(compact, inst)


# equal to a valid id but no plain int: 1.0 and Fraction(1) compare equal
# to 1, and True is an int subclass
NOT_IDS = [1.0, Fraction(1), True]


class TestIdsArePlainInts:
    inst = Instance((4, 2), (1, 2), 2, 2)

    def refused(self, schedule, message):
        assert message in validate(schedule, self.inst)
        with pytest.raises(InvalidScheduleError):
            makespan(schedule, self.inst)

    @pytest.mark.parametrize("bad", NOT_IDS)
    def test_splittable(self, bad):
        for pieces, message in (
            (((0, F(1), 0), (bad, F(1), 1)), f"unknown job id {bad!r}"),
            (((0, F(1), bad), (1, F(1), 0)), f"unknown machine id {bad!r}"),
        ):
            schedule = SplittableSchedule(pieces)
            self.refused(schedule, message)
            with pytest.raises(InvalidScheduleError):
                machine_loads(schedule, self.inst)

    @pytest.mark.parametrize("bad", NOT_IDS)
    def test_preemptive(self, bad):
        for pieces, message in (
            (((0, F(1), 0, F(0)), (bad, F(1), 1, F(0))), f"unknown job id {bad!r}"),
            (((0, F(1), bad, F(0)), (1, F(1), 0, F(0))),
             f"unknown machine id {bad!r}"),
        ):
            schedule = PreemptiveSchedule(pieces)
            self.refused(schedule, message)
            with pytest.raises(InvalidScheduleError):
                machine_loads(schedule, self.inst)

    @pytest.mark.parametrize("bad", NOT_IDS)
    def test_nonpreemptive(self, bad):
        for assignment, message in (
            ({0: 0, bad: 1}, f"unknown job id {bad!r}"),
            ({0: bad, 1: 0}, f"unknown machine id {bad!r}"),
        ):
            schedule = NonPreemptiveSchedule(assignment)
            self.refused(schedule, message)
            with pytest.raises(InvalidScheduleError):
                machine_loads(schedule, self.inst)

    @pytest.mark.parametrize("bad", NOT_IDS)
    def test_compact(self, bad):
        schedule = CompactSchedule(((((bad, 4),), 1), (((2, 2),), 1)))
        self.refused(schedule, f"unknown class id {bad!r}")
        with pytest.raises(InvalidScheduleError):
            expand_compact(schedule, self.inst)

    def test_compact_pattern_of_bad_count_names_its_classes(self):
        # the pattern's count is reported, and its unknown class id still is
        schedule = CompactSchedule(((((3, 4),), 0), (((1, 4), (2, 2)), 1)))
        assert validate(schedule, self.inst) == [
            "pattern count 0 is not a positive integer", "unknown class id 3",
        ]
        with pytest.raises(InvalidScheduleError, match="^unknown class id 3$"):
            makespan(schedule, self.inst)

    def test_mixed_job_ids_are_reported_not_sorted(self):
        schedule = NonPreemptiveSchedule({0: 0, "1": 1, 1: 1})
        assert validate(schedule, self.inst) == ["unknown job id '1'"]

    def test_int_subclass_ids_are_ids(self):
        class Id(int):
            pass

        schedule = NonPreemptiveSchedule({Id(0): Id(0), Id(1): Id(1)})
        assert validate(schedule, self.inst) == []
        assert makespan(schedule, self.inst) == 4


# one schedule of each piece type with its values of one kind, given as
# a tuple of plain tuples
SCHEDULE_BUILDERS = {
    "split": lambda v: SplittableSchedule(((0, v, 0), (1, v, 1))),
    "preempt": lambda v: PreemptiveSchedule(((0, v, 0, v), (1, v, 1, v))),
    "compact": lambda v: CompactSchedule(((((1, v),), 1), (((1, v), (2, v)), 2))),
}


def stored_values(schedule):
    """The values a constructor converts: fractions and starts, or loads."""
    if isinstance(schedule, CompactSchedule):
        return [load for pattern, _count in schedule.patterns for _u, load in pattern]
    return [value for piece in schedule.pieces for value in piece[1::2]]


def stored_rows(schedule):
    """Every tuple the schedule stores, outermost first."""
    if isinstance(schedule, CompactSchedule):
        rows = [schedule.patterns, *schedule.patterns]
        return rows + [pattern for pattern, _count in schedule.patterns] + [
            item for pattern, _count in schedule.patterns for item in pattern
        ]
    return [schedule.pieces, *schedule.pieces]


class Half(Fraction):
    pass


class TestScheduleConstruction:
    """Pieces and patterns are stored as plain tuples of Fractions however
    they are given; a tuple already in that form is kept as it is."""

    @pytest.mark.parametrize("kind", sorted(SCHEDULE_BUILDERS))
    @pytest.mark.parametrize("value", [1, 0.5, "1/2", Half(1, 2), F("1/2")])
    def test_values_become_fractions(self, kind, value):
        schedule = SCHEDULE_BUILDERS[kind](value)
        assert all(type(v) is Fraction for v in stored_values(schedule))
        assert all(v == Fraction(value) for v in stored_values(schedule))
        assert all(type(row) is tuple for row in stored_rows(schedule))
        assert schedule == SCHEDULE_BUILDERS[kind](Fraction(value))

    @pytest.mark.parametrize("kind", sorted(SCHEDULE_BUILDERS))
    def test_exact_tuples_are_kept(self, kind):
        schedule = SCHEDULE_BUILDERS[kind](F("1/2"))
        rows = schedule.patterns if kind == "compact" else schedule.pieces
        again = type(schedule)(rows)
        assert (again.patterns if kind == "compact" else again.pieces) is rows

    def test_generators_are_read_once(self):
        pieces = ((0, F("1/2"), 0), (0, F("1/2"), 1))
        assert SplittableSchedule(p for p in pieces).pieces == pieces
        timed = ((0, F(1), 0, F(0)), (1, F(1), 1, F(2)))
        assert PreemptiveSchedule(p for p in timed).pieces == timed
        patterns = ((((1, F(4)),), 2), (((1, F(4)), (2, F(3))), 1))
        assert CompactSchedule(p for p in patterns).patterns == patterns

    def test_lists_and_tuple_subclasses_are_stored_as_tuples(self):
        class Piece(tuple):
            pass

        for pieces in ([Piece((0, F(1), 0)), [1, F(1), 1]],
                       (Piece((0, F(1), 0)), (1, F(1), 1))):
            schedule = SplittableSchedule(pieces)
            assert schedule.pieces == ((0, F(1), 0), (1, F(1), 1))
            assert all(type(row) is tuple for row in stored_rows(schedule))
        for pieces in ([(0, F(1), 0, F(0))], (Piece((0, F(1), 0, F(0))),)):
            timed = PreemptiveSchedule(pieces)
            assert all(type(row) is tuple for row in stored_rows(timed))
        for patterns in (
            [[[(1, F(4)), [2, F(3)]], 1]],
            (Piece((((1, F(4)), (2, F(3))), 1)),),
            (((Piece((1, F(4))), (2, F(3))), 1),),
            ((Piece(((1, F(4)), (2, F(3)))), 1),),
        ):
            compact = CompactSchedule(patterns)
            assert compact.patterns == ((((1, F(4)), (2, F(3))), 1),)
            assert all(type(row) is tuple for row in stored_rows(compact))

    @pytest.mark.parametrize("build", [
        lambda: SplittableSchedule(((0, 1),)),
        lambda: SplittableSchedule(((0, 1, 0, 0),)),
        lambda: SplittableSchedule(((0, None, 0),)),
        lambda: SplittableSchedule(5),
        lambda: PreemptiveSchedule(((0, float("nan"), 0, 0),)),
        lambda: PreemptiveSchedule(((0, 1, 0, float("inf")),)),
        lambda: PreemptiveSchedule(((0, "1/0", 0, 0),)),
        lambda: PreemptiveSchedule(((0, 1, 0),)),
        lambda: CompactSchedule((((1, 2),),)),
        lambda: CompactSchedule(((((1, "x"),), 1),)),
        lambda: CompactSchedule(((((1,),), 1),)),
    ])
    def test_malformed_input_is_an_invalid_schedule(self, build):
        with pytest.raises(InvalidScheduleError):
            build()


def test_library_raises_no_assertion():
    """Guarantees fail with a typed CCSError: ``python -O`` strips assert
    statements, and AssertionError is no CCSError."""
    found = []
    for path in sorted(Path(ccs.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Name) and node.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno} AssertionError")
    assert found == []


class TestRationalText:
    def test_round_trips(self):
        assert parse_rational("5/2") == F("5/2")
        assert parse_rational("7") == 7
        assert format_rational(F("5/2")) == "5/2"
        assert format_rational(F(4)) == "4"

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_rational("three")


@given(data=instances_with_assignment(max_jobs=12))
@settings(max_examples=150, deadline=None)
def test_feasible_schedules_respect_bounds(data):
    """Any feasible schedule's makespan is at least the variant lower bound,
    and validate accepts it."""
    instance, assignment = data
    sched = NonPreemptiveSchedule(assignment)
    assert validate(sched, instance) == []
    lb, _ = lower_bound(instance, "nonpreemptive")
    assert makespan(sched, instance) >= lb
    # The same placement read as a splittable schedule.
    split = SplittableSchedule(
        tuple((j, F(1), i) for j, i in sorted(assignment.items()))
    )
    assert validate(split, instance) == []
    lb_split, _ = lower_bound(instance, "splittable")
    assert makespan(split, instance) >= lb_split


@given(data=instances_with_assignment(max_jobs=10))
@settings(max_examples=100, deadline=None)
def test_accepted_schedules_stay_within_slot_budget(data):
    """Direct recount of distinct classes per machine for accepted schedules."""
    instance, assignment = data
    sched = NonPreemptiveSchedule(assignment)
    assert validate(sched, instance) == []
    seen = {}
    for j, i in assignment.items():
        seen.setdefault(i, set()).add(instance.class_labels[j])
    assert all(len(s) <= instance.slot_budget for s in seen.values())


@given(inst=instances(max_jobs=6), denom=st.integers(2, 5))
@settings(max_examples=100, deadline=None)
def test_fraction_sums_checked_exactly(inst, denom):
    """Dropping 1/denom of the first job's fractions is always caught."""
    pieces = []
    for j in range(inst.job_count):
        lam = F(1) if j else Fraction(denom - 1, denom)
        pieces.append((j, lam, 0))
    # Give every job its own machine when the budget is tight.
    sched = SplittableSchedule(tuple((j, lam, 0) for j, lam, _ in pieces))
    if inst.class_count > inst.slot_budget:
        return  # slot violations would drown the signal
    violations = validate(sched, inst)
    assert any("sum to" in v for v in violations)
