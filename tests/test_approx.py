"""Threshold searches, class cutting, and the three approximation
algorithms: frozen small cases plus property tests against the oracles."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccs import (
    CompactSchedule,
    Instance,
    PreemptiveSchedule,
    approx_nonpreemptive,
    approx_preemptive,
    approx_splittable,
    border_search_splittable,
    expand_compact,
    lower_bound,
    machine_loads,
    makespan,
    nonpreemptive_threshold,
    opt_nonpreemptive,
    opt_preemptive,
    opt_splittable,
    validate,
    NONPREEMPTIVE,
    PREEMPTIVE,
    SPLITTABLE,
)
from ccs.approx import (
    _common_scale,
    _cu_sorted,
    _cut,
    _deal_nonpreemptive,
    _deal_splittable,
    _preemptive_guess,
)

from conftest import instances, oracle_instances


def inst(sizes, labels, m, c) -> Instance:
    return Instance(
        tuple(Fraction(p) for p in sizes), tuple(labels), machine_count=m, slot_budget=c
    )


class TestSplitClass:
    def test_cuts_at_threshold_multiples(self):
        loads, parts = _cut([[0]], [10], 4)
        assert loads == [4, 4, 2]
        assert parts[0] == ((0, 4),)
        assert parts[2] == ((0, 2),)

    def test_straddling_job_is_shared(self):
        # second job is cut 3/1 across the first and second piece
        loads, parts = _cut([[0, 1]], [2, 4], 5)
        assert loads == [5, 1]
        assert parts == [((0, 2), (1, 3)), ((1, 1),)]

    def test_classes_cut_apart_in_one_call(self):
        # a class's last piece is never topped up by the next class
        loads, parts = _cut([[0, 2], [1], [3]], [3, 4, 3, 5], 5)
        assert loads == [5, 1, 4, 5]
        assert parts == [
            ((0, 3), (2, 2)), ((2, 1),), ((1, 4),), ((3, 5),)
        ]


class TestBorderSearch:
    def test_single_class_three_machines(self):
        instance = inst([12], [1], 3, 1)
        t_star = border_search_splittable(instance)
        assert t_star == 4
        schedule, peak, scale = _deal_splittable(instance, t_star)
        assert schedule == CompactSchedule(patterns=((((1, 4),), 3),))
        assert Fraction(peak, scale) == 4

    def test_two_singleton_classes_one_slot_each(self):
        # both classes need a machine of their own, the big one sets T*
        assert border_search_splittable(inst([8, 2], [1, 2], 2, 1)) == 8

    def test_threshold_may_undercut_the_load_average(self):
        # 8 slots allow quarter pieces; the average (1/2) is not binding
        t_star = border_search_splittable(inst([1, 1], [1, 2], 4, 2))
        assert t_star == Fraction(1, 4)

    def test_example_with_ample_slots_takes_a_deep_cut(self):
        assert border_search_splittable(inst([6], [1], 3, 1)) == 2

    @given(instances(max_machines=6))
    @settings(max_examples=120, deadline=None)
    def test_cut_shape_and_conservation(self, instance):
        t_star = border_search_splittable(instance)
        budget = instance.slot_budget * instance.machine_count
        den, sizes, sums = instance._scaled
        _scale, up, theta = _common_scale(den, t_star)
        scaled = [size * up for size in sizes]
        count = 0
        for u, total in enumerate(sums, start=1):
            jobs = instance.jobs_of_class(u)
            loads, pieces = _cut([jobs], scaled, theta)
            count += len(pieces)
            full, rest = divmod(total * up, theta)
            assert loads == [theta] * full + ([rest] if rest else [])
            taken = {j: 0 for j in jobs}
            for load, parts in zip(loads, pieces):
                assert sum(take for _j, take in parts) == load
                for j, take in parts:
                    assert 0 < take <= scaled[j]
                    taken[j] += take
            assert taken == {j: scaled[j] for j in jobs}
        assert count <= budget
        all_loads, all_pieces = _cut(instance._class_members, scaled, theta)
        assert len(all_loads) == len(all_pieces) == count

    @given(oracle_instances())
    @settings(max_examples=40, deadline=None)
    def test_threshold_is_an_optimum_lower_bound(self, instance):
        # the scheme's lower-bound certificate rests on this chain; the
        # sizes are integers, so the non-preemptive optimum is one too
        t_star = border_search_splittable(instance)
        split = opt_splittable(instance)
        whole, _schedule = opt_nonpreemptive(instance)
        assert t_star <= split <= opt_preemptive(instance) <= whole
        assert math.ceil(t_star) <= whole


class TestApproxSplittable:
    def test_self_parallel_pieces_use_every_machine(self):
        instance = inst([6], [1], 3, 1)
        schedule = approx_splittable(instance)
        assert schedule == CompactSchedule(patterns=((((1, 2),), 3),))
        assert makespan(schedule, instance) == 2
        assert validate(schedule, instance) == []

    def test_ten_singleton_classes_round_robin(self):
        instance = inst([5, 5, 4, 3, 3, 2, 2, 1, 1, 1], range(1, 11), 4, 3)
        schedule = approx_splittable(instance)
        assert isinstance(schedule, CompactSchedule)
        explicit = expand_compact(schedule, instance)
        assert sorted(machine_loads(explicit, instance).values(), reverse=True) == [
            8,
            7,
            7,
            5,
        ]
        assert validate(schedule, instance) == []

    def test_partial_piece_gets_a_machine_of_its_own(self):
        instance = inst([9, 2], [1, 2], 3, 1)
        schedule = approx_splittable(instance)
        assert schedule == CompactSchedule(
            patterns=((((1, Fraction(9, 2)),), 2), (((2, 2),), 1))
        )
        assert makespan(schedule, instance) == Fraction(9, 2)
        assert validate(schedule, instance) == []

    def test_doubled_up_machines_share_one_pattern(self):
        # 8 quarter-pieces on 4 machines: every machine carries two classes
        instance = inst([6, 6], [1, 2], 4, 2)
        schedule = approx_splittable(instance)
        half = Fraction(3, 2)
        assert schedule == CompactSchedule(patterns=((((1, half), (2, half)), 4),))
        assert makespan(schedule, instance) == 3
        assert validate(schedule, instance) == []

    def test_expansion_preserves_value(self):
        for sizes, labels, m, c in [
            ([6], [1], 3, 1),
            ([9, 2], [1, 2], 3, 1),
            ([6, 6], [1, 2], 4, 2),
            ([1, 1], [1, 2], 4, 2),
            ([5, 5, 4, 3, 3, 2], [1, 1, 2, 3, 3, 4], 2, 3),
        ]:
            instance = inst(sizes, labels, m, c)
            schedule = approx_splittable(instance)
            assert isinstance(schedule, CompactSchedule)
            expanded = expand_compact(schedule, instance)
            assert validate(expanded, instance) == []
            assert makespan(expanded, instance) == makespan(schedule, instance)

    @given(instances(max_machines=6))
    @settings(max_examples=150, deadline=None)
    def test_feasible_and_within_additive_bound(self, instance):
        t_star = border_search_splittable(instance)
        schedule = approx_splittable(instance)
        assert isinstance(schedule, CompactSchedule)
        assert validate(schedule, instance) == []
        assert validate(expand_compact(schedule, instance), instance) == []
        lb, _ub = lower_bound(instance, SPLITTABLE)
        assert makespan(schedule, instance) <= lb + t_star
        dealt, peak, scale = _deal_splittable(instance, t_star)
        assert dealt == schedule
        assert Fraction(peak, scale) == makespan(schedule, instance)

    @given(oracle_instances())
    @settings(max_examples=30, deadline=None)
    def test_within_twice_the_optimum(self, instance):
        schedule = approx_splittable(instance)
        assert makespan(schedule, instance) <= 2 * opt_splittable(instance)

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_a_billion_machines(self, c):
        instance = inst(range(1, 21), [j % 5 + 1 for j in range(20)], 10**9, c)
        start = time.perf_counter()
        t_star = border_search_splittable(instance)
        schedule = approx_splittable(instance)
        assert time.perf_counter() - start < 1
        assert isinstance(schedule, CompactSchedule)
        assert validate(schedule, instance) == []
        lb, _ub = lower_bound(instance, SPLITTABLE)
        assert makespan(schedule, instance) <= lb + t_star
        # one pattern per stretch between run boundaries: O(C), not O(m)
        assert len(schedule.patterns) <= 2 * instance.class_count + 1


class TestApproxPreemptive:
    def test_single_job_runs_sequentially(self):
        # extra machines are useless without self-parallelism
        instance = inst([6], [1], 3, 1)
        schedule = approx_preemptive(instance)
        assert schedule.pieces == ((0, Fraction(1), 0, Fraction(0)),)
        assert makespan(schedule, instance) == 6

    def test_second_layer_lifted_to_threshold(self):
        # T* = 3: class 1 cuts into pieces of 3 and 1, so every machine's
        # second piece starts at 3, after a gap on machine 1
        instance = inst([1, 1, 1, 3], [1, 2, 3, 1], 2, 2)
        assert approx_preemptive(instance).pieces == (
            (0, Fraction(1), 0, Fraction(0)),
            (3, Fraction(2, 3), 0, Fraction(1)),
            (1, Fraction(1), 0, Fraction(3)),
            (3, Fraction(1, 3), 1, Fraction(0)),
            (2, Fraction(1), 1, Fraction(3)),
        )

    def test_plain_stacking_without_full_pieces(self):
        # T* = 4 and no piece of load 4: each piece starts where the one
        # below it ends
        instance = inst([3, 2, 2, 1], [1, 2, 3, 4], 2, 2)
        assert approx_preemptive(instance).pieces == (
            (0, Fraction(1), 0, Fraction(0)),
            (2, Fraction(1), 0, Fraction(3)),
            (1, Fraction(1), 1, Fraction(0)),
            (3, Fraction(1), 1, Fraction(2)),
        )

    def test_machine_without_pieces(self):
        # T* = 10 cuts the class into two pieces for three machines
        instance = inst([10, 1, 1], [1, 1, 1], 3, 1)
        assert approx_preemptive(instance).pieces == (
            (0, Fraction(1), 0, Fraction(0)),
            (1, Fraction(1), 1, Fraction(0)),
            (2, Fraction(1), 1, Fraction(1)),
        )

    def test_straddling_job_parts_stay_disjoint(self):
        instance = inst([7, 5, 5, 5], [1, 1, 1, 1], 2, 1)
        schedule = approx_preemptive(instance)
        assert makespan(schedule, instance) == 11
        assert validate(schedule, instance) == []

    def test_whole_classes_stack_plainly(self):
        instance = inst([5, 5, 4, 3, 3, 2, 2, 1, 1, 1], range(1, 11), 4, 3)
        schedule = approx_preemptive(instance)
        assert makespan(schedule, instance) == 9
        assert validate(schedule, instance) == []

    @given(instances(max_machines=6))
    @settings(max_examples=150, deadline=None)
    def test_feasible_and_within_additive_bound(self, instance):
        t_star, m_used, lb = _preemptive_guess(instance)
        schedule = approx_preemptive(instance)
        assert validate(schedule, instance) == []
        assert makespan(schedule, instance) <= lb + t_star

    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_machines_beyond_job_count_change_nothing(self, instance):
        clamped = Instance(
            instance.processing_times,
            instance.class_labels,
            machine_count=min(instance.machine_count, instance.job_count),
            slot_budget=instance.slot_budget,
        )
        assert makespan(approx_preemptive(instance), instance) == makespan(
            approx_preemptive(clamped), clamped
        )

    @given(oracle_instances())
    @settings(max_examples=30, deadline=None)
    def test_within_twice_the_optimum(self, instance):
        schedule = approx_preemptive(instance)
        assert makespan(schedule, instance) <= 2 * opt_preemptive(instance)


def compute_cu(sizes, threshold):
    """``_cu_sorted`` on an unsorted list of int sizes."""
    ordered = sorted(sizes)
    return _cu_sorted(ordered, sum(ordered), threshold)


class TestComputeCu:
    def test_pairing_saves_a_piece(self):
        # 7 hosts one 5; the two leftover 5s share a piece
        assert compute_cu([7, 5, 5, 5], 12) == (2, 1, 2)

    def test_two_heavies_cannot_pair(self):
        assert compute_cu([7, 7], 12) == (2, 2, 0)

    def test_small_jobs_need_one_piece(self):
        assert compute_cu([1, 1], 12) == (1, 0, 0)

    def test_volume_bound_can_dominate(self):
        # no job above T/3, still two pieces by volume
        assert compute_cu([2, 2, 2, 2], 7) == (2, 0, 0)

    def test_medium_too_big_for_its_host_stays_loose(self):
        # 6 does not fit next to the 7 (slack 5); the 5 does
        count, heavy, loose = compute_cu([7, 6, 5], 12)
        assert (count, heavy, loose) == (2, 1, 1)


class TestApproxNonPreemptive:
    def test_singleton_classes_spread_out(self):
        instance = inst([2, 2, 2], [1, 2, 3], 3, 1)
        schedule = approx_nonpreemptive(instance)
        assert makespan(schedule, instance) == 2
        assert validate(schedule, instance) == []

    def test_one_class_two_machines(self):
        instance = inst([7, 5, 5, 5], [1, 1, 1, 1], 2, 1)
        threshold, m_used, lb = nonpreemptive_threshold(instance)
        assert (threshold, m_used, lb) == (12, 2, 11)
        schedule = approx_nonpreemptive(instance)
        assert sorted(machine_loads(schedule, instance).values(), reverse=True) == [
            12,
            10,
        ]
        assert validate(schedule, instance) == []

    def test_fractional_sizes_search_multiples_of_their_denominator(self):
        instance = inst([Fraction(5, 2), Fraction(3, 2)], [1, 1], 2, 1)
        threshold, _m, lb = nonpreemptive_threshold(instance)
        assert threshold == Fraction(5, 2) == lb
        schedule = approx_nonpreemptive(instance)
        assert makespan(schedule, instance) == Fraction(5, 2)
        assert validate(schedule, instance) == []

    @given(instances(max_machines=6))
    @settings(max_examples=150, deadline=None)
    def test_feasible_and_within_additive_bound(self, instance):
        threshold, m_used, lb = nonpreemptive_threshold(instance)
        schedule = approx_nonpreemptive(instance)
        assert validate(schedule, instance) == []
        assert makespan(schedule, instance) <= lb + Fraction(4, 3) * threshold
        dealt, peak, den = _deal_nonpreemptive(instance, threshold)
        assert dealt == schedule
        assert Fraction(peak, den) == makespan(schedule, instance)

    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_integer_threshold_is_minimal(self, instance):
        # integer sizes: the search returns the smallest feasible integer
        threshold, m_used, lb = nonpreemptive_threshold(instance)
        assert threshold.denominator == 1
        budget = instance.slot_budget * m_used

        def total_pieces(guess):
            by_class = {}
            for p, lab in zip(instance.processing_times, instance.class_labels):
                by_class.setdefault(lab, []).append(p.numerator)
            return sum(
                compute_cu(sizes, guess)[0] for sizes in by_class.values()
            )

        assert total_pieces(threshold) <= budget
        assert threshold == math.ceil(lb) or total_pieces(threshold - 1) > budget

    @given(oracle_instances(max_denominator=12))
    # a float geometric search stopped above this optimum, 3/2
    @example(instance=inst([1, 1, Fraction(1, 2)], [1, 1, 1], 2, 1))
    @settings(max_examples=150, deadline=None)
    def test_fractional_threshold_never_exceeds_the_optimum(self, instance):
        # the optimum is a sum of sizes, a multiple of 1/D over their
        # common denominator D, and the search bisects those multiples
        threshold, _m, _lb = nonpreemptive_threshold(instance)
        value, _schedule = opt_nonpreemptive(instance)
        assert threshold <= value
        assert makespan(approx_nonpreemptive(instance), instance) <= (
            Fraction(7, 3) * value
        )

    @given(oracle_instances())
    @settings(max_examples=30, deadline=None)
    def test_within_seven_thirds_of_the_optimum(self, instance):
        schedule = approx_nonpreemptive(instance)
        value, _opt_schedule = opt_nonpreemptive(instance)
        assert makespan(schedule, instance) <= Fraction(7, 3) * value


class TestVariantDominanceOfApproximations:
    @given(oracle_instances())
    @settings(max_examples=30, deadline=None)
    def test_each_approximation_beats_no_stronger_oracle(self, instance):
        # sanity chain: every approximation is bounded below by its own
        # variant's optimum
        split_opt = opt_splittable(instance)
        pre_opt = opt_preemptive(instance)
        np_value, _ = opt_nonpreemptive(instance)
        assert makespan(approx_splittable(instance), instance) >= split_opt
        assert makespan(approx_preemptive(instance), instance) >= pre_opt
        assert makespan(approx_nonpreemptive(instance), instance) >= np_value


class TestThresholdsStayInternal:
    def test_a_second_argument_is_refused(self):
        # a caller's threshold could break the guarantee: at T = 1 the
        # splittable layout put 4 classes on one c = 2 machine, and at
        # T = 7/2 the non-preemptive one divided by zero
        instance = inst([3, 4, 5, 6], [1, 2, 3, 4], 2, 2)
        with pytest.raises(TypeError):
            approx_splittable(instance, 1)
        with pytest.raises(TypeError):
            approx_nonpreemptive(instance, Fraction(7, 2))
