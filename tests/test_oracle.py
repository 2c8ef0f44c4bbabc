"""Ground-truth solvers: frozen values, bounds, and cross-validation."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ccs import (
    EnumerationCapError,
    Instance,
    NONPREEMPTIVE,
    SPLITTABLE,
    StructuralInfeasibleError,
    class_loads,
    lower_bound,
    makespan,
    validate,
)
from ccs.oracle import (
    opt_nonpreemptive,
    opt_preemptive,
    opt_splittable,
    preemptive_feasible,
)

from conftest import oracle_instances


class TestNonPreemptiveOracle:
    def test_three_singleton_classes_spread_out(self):
        inst = Instance((2, 2, 2), (1, 2, 3), machine_count=3, slot_budget=1)
        value, schedule = opt_nonpreemptive(inst)
        assert value == 2
        assert schedule.assignment == {0: 0, 1: 1, 2: 2}

    def test_one_class_two_machines(self):
        # 7+5 against 5+5 is forced; nothing reaches 11.
        inst = Instance((7, 5, 5, 5), (1, 1, 1, 1), machine_count=2, slot_budget=1)
        value, schedule = opt_nonpreemptive(inst)
        assert value == 12
        assert makespan(schedule, inst) == 12
        assert validate(schedule, inst, NONPREEMPTIVE) == []

    def test_lexicographically_smallest_optimum(self):
        inst = Instance((1, 1, 1, 1), (1, 1, 1, 1), machine_count=2, slot_budget=1)
        value, schedule = opt_nonpreemptive(inst)
        assert value == 2
        assert [schedule.assignment[j] for j in range(4)] == [0, 0, 1, 1]

    def test_structurally_infeasible(self):
        inst = Instance((1, 1, 1), (1, 2, 3), machine_count=2, slot_budget=1)
        with pytest.raises(StructuralInfeasibleError):
            opt_nonpreemptive(inst)

    def test_assignment_cap(self):
        inst = Instance((1,) * 30, (1,) * 30, machine_count=2, slot_budget=1)
        with pytest.raises(EnumerationCapError):
            opt_nonpreemptive(inst)


class TestSplittableOracle:
    def test_single_job_spreads_over_all_machines(self):
        inst = Instance((6,), (1,), machine_count=3, slot_budget=1)
        assert opt_splittable(inst) == 2

    def test_two_classes_forced_apart(self):
        inst = Instance((4, 4), (1, 2), machine_count=2, slot_budget=2)
        assert opt_splittable(inst) == 4

    def test_slot_counting_alone_is_not_enough(self):
        # Loads 6,2,2,2 on two machines with budget 2: four slots for four
        # classes suggests average 6, but no pairing beats putting the heavy
        # class with one light one, which costs 8.
        inst = Instance((6, 2, 2, 2), (1, 2, 3, 4), machine_count=2, slot_budget=2)
        assert opt_splittable(inst) == 8

    def test_structurally_infeasible(self):
        inst = Instance((1, 1, 1), (1, 2, 3), machine_count=2, slot_budget=1)
        with pytest.raises(StructuralInfeasibleError):
            opt_splittable(inst)

    def test_pattern_cap(self):
        inst = Instance((1,) * 6, (1, 2, 3, 4, 5, 6), machine_count=4, slot_budget=2)
        with pytest.raises(EnumerationCapError):
            opt_splittable(inst)

    def test_huge_machine_count_refuses_at_once(self):
        # the cap is checked before (2^m - 1)^C is built; the message
        # names the count symbolically instead of printing it
        inst = Instance((4, 9), (1, 2), machine_count=10**9, slot_budget=1)
        with pytest.raises(EnumerationCapError) as err:
            opt_splittable(inst)
        assert len(str(err.value)) < 100


class TestPreemptiveOracle:
    def test_single_job_cannot_self_parallelize(self):
        inst = Instance((6,), (1,), machine_count=3, slot_budget=1)
        assert opt_preemptive(inst) == 6

    def test_three_unit_jobs_one_class(self):
        inst = Instance((2, 2, 2), (1, 1, 1), machine_count=3, slot_budget=1)
        assert opt_preemptive(inst) == 2

    def test_fractional_optimum_from_integer_input(self):
        # Three unit singleton classes, two machines, budget two: one class
        # straddles both machines, finishing at 3/2.
        inst = Instance((1, 1, 1), (1, 2, 3), machine_count=2, slot_budget=2)
        assert opt_preemptive(inst) == Fraction(3, 2)

    def test_pattern_cap(self):
        for inst in (
            Instance((1,) * 6, (1, 2, 3, 4, 5, 6), machine_count=4, slot_budget=2),
            Instance((4, 9), (1, 2), machine_count=10**9, slot_budget=1),
        ):
            with pytest.raises(EnumerationCapError):
                opt_preemptive(inst)


class TestFlowFeasibility:
    def test_floor_rejects_short_deadlines(self):
        inst = Instance((6,), (1,), machine_count=3, slot_budget=1)
        full = {1: (0, 1, 2)}
        assert not preemptive_feasible(inst, full, Fraction(2))
        assert preemptive_feasible(inst, full, Fraction(6))

    def test_straddling_class_hits_exact_threshold(self):
        inst = Instance((1, 1, 1), (1, 2, 3), machine_count=2, slot_budget=2)
        pattern = {1: (0,), 2: (1,), 3: (0, 1)}
        assert preemptive_feasible(inst, pattern, Fraction(3, 2))
        assert not preemptive_feasible(inst, pattern, Fraction(4, 3))

    def test_empty_eligibility_is_infeasible(self):
        inst = Instance((1, 1), (1, 2), machine_count=2, slot_budget=1)
        assert not preemptive_feasible(inst, {1: (0,), 2: ()}, Fraction(100))


def _brute_force_nonpreemptive(inst: Instance) -> tuple[Fraction, tuple[int, ...]]:
    n, m, c = inst.job_count, inst.machine_count, inst.slot_budget
    best = None
    best_assign = None
    for assign in product(range(m), repeat=n):
        loads = [Fraction(0)] * m
        hosted = [set() for _ in range(m)]
        ok = True
        for j, i in enumerate(assign):
            loads[i] += inst.processing_times[j]
            hosted[i].add(inst.class_labels[j])
        if any(len(h) > c for h in hosted):
            ok = False
        if not ok:
            continue
        top = max(loads)
        if best is None or top < best:
            best = top
            best_assign = assign
    assert best is not None
    return best, best_assign


@settings(max_examples=60, deadline=None)
@given(oracle_instances(max_size=9))
def test_nonpreemptive_matches_brute_force(inst):
    if inst.job_count > 5 or inst.machine_count > 3:
        inst = Instance(
            inst.processing_times[:5],
            inst.class_labels[:5],
            machine_count=min(inst.machine_count, 3),
            slot_budget=inst.slot_budget,
        )
    if inst.class_count > inst.machine_count * inst.slot_budget:
        return  # truncation may have broken structural feasibility
    value, schedule = opt_nonpreemptive(inst)
    brute_value, brute_assign = _brute_force_nonpreemptive(inst)
    assert value == brute_value
    # canonical machine numbering: relabel brute-force winner by first use
    order: dict[int, int] = {}
    relabeled = []
    for i in brute_assign:
        if i not in order:
            order[i] = len(order)
        relabeled.append(order[i])
    mine = [schedule.assignment[j] for j in range(inst.job_count)]
    assert mine <= relabeled


@settings(max_examples=60, deadline=None)
@given(oracle_instances())
def test_variant_dominance(inst):
    split = opt_splittable(inst)
    pre = opt_preemptive(inst)
    np_value, _ = opt_nonpreemptive(inst)
    assert split <= pre <= np_value


@settings(max_examples=60, deadline=None)
@given(oracle_instances())
def test_oracle_values_inside_proven_bounds(inst):
    split_lb, split_ub = lower_bound(inst, SPLITTABLE)
    np_lb, np_ub = lower_bound(inst, NONPREEMPTIVE)
    split = opt_splittable(inst)
    np_value, schedule = opt_nonpreemptive(inst)
    assert split_lb <= split <= split_ub
    assert np_lb <= np_value <= np_ub
    assert validate(schedule, inst, NONPREEMPTIVE) == []
    assert makespan(schedule, inst) == np_value


@st.composite
def _tiny_instances(draw):
    m = draw(st.integers(1, 3))
    c = draw(st.integers(1, 2))
    n = draw(st.integers(1, 4))
    sizes = draw(
        st.lists(st.integers(1, 6), min_size=n, max_size=n).map(tuple)
    )
    palette = min(n, m * c, 3)
    labels = draw(
        st.lists(st.integers(1, palette), min_size=n, max_size=n).map(tuple)
    )
    return Instance(sizes, labels, machine_count=m, slot_budget=c)


@settings(max_examples=25, deadline=None)
@given(_tiny_instances())
def test_preemptive_identity_agrees_with_flow_search(inst):
    """The closed form max(p_max, splittable optimum) must match a direct
    search over eligibility patterns with max-flow feasibility checks."""
    m, c, cc = inst.machine_count, inst.slot_budget, inst.class_count
    expected = opt_preemptive(inst)

    loads = [cl.total for cl in class_loads(inst)]
    candidates = {inst.max_processing_time}
    for subset in range(1, 1 << cc):
        total = sum(
            (loads[u] for u in range(cc) if subset & (1 << u)), Fraction(0)
        )
        for k in range(1, m + 1):
            candidates.add(total / k)
    usable = sorted(t for t in candidates if t >= inst.max_processing_time)

    machine_subsets = [
        frozenset(i for i in range(m) if mask & (1 << i))
        for mask in range(1, 1 << m)
    ]
    patterns = []
    for combo in product(machine_subsets, repeat=cc):
        per_machine = [0] * m
        for chosen in combo:
            for i in chosen:
                per_machine[i] += 1
        if all(count <= c for count in per_machine):
            patterns.append({u + 1: tuple(sorted(combo[u])) for u in range(cc)})

    found = None
    for t in usable:
        if any(preemptive_feasible(inst, pat, t) for pat in patterns):
            found = t
            break
    assert found == expected
