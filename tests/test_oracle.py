"""Ground-truth solvers: frozen values, bounds, and cross-validation."""

import sys
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping

import pytest
from hypothesis import given, settings, strategies as st

from ccs import (
    CCSError,
    EnumerationCapError,
    Instance,
    NONPREEMPTIVE,
    SPLITTABLE,
    StructuralInfeasibleError,
    lower_bound,
    makespan,
    validate,
)
from ccs import oracle
from ccs.oracle import opt_nonpreemptive, opt_preemptive, opt_splittable

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

    @pytest.mark.parametrize("size", [1, Fraction(1, 3)])
    def test_search_stops_at_the_bound_on_the_sizes_grid(self, size):
        # 23 equal jobs on two machines: the bound 23/2 sizes rounds up to
        # 12 sizes, which the first 12/11 split reaches. Unrounded, the
        # bound is never met and the search walked the rest of the 2^23
        # assignments
        calls = []

        def count(frame, event, _arg):
            code = frame.f_code
            if (event == "call" and code.co_name == "rec"
                    and code.co_filename == oracle.__file__):
                calls.append(1)
                # raising here ends an overrunning search at once
                assert len(calls) <= 200, "the search did not stop at its bound"

        inst = Instance((size,) * 23, (1,) * 23, machine_count=2, slot_budget=1)
        sys.setprofile(count)
        try:
            value, schedule = opt_nonpreemptive(inst)
        finally:
            sys.setprofile(None)
        assert value == 12 * size
        assert [schedule.assignment[j] for j in range(23)] == [0] * 12 + [1] * 11

    def test_assignment_cap(self):
        inst = Instance((1,) * 30, (1,) * 30, machine_count=2, slot_budget=1)
        with pytest.raises(EnumerationCapError):
            opt_nonpreemptive(inst)

    def test_huge_machine_count_refuses_at_once(self):
        # n past the cap's bit length decides the cap alone: m^n is never
        # built (at m = 10^9 and n = 300,000 building it took about a
        # second); the message names the count symbolically
        class Machines(int):
            def __pow__(self, other):
                raise AssertionError("m^n was built")

        n = 300_000
        inst = Instance((1,) * n, (1,) * n, Machines(10**9), slot_budget=1)
        with pytest.raises(EnumerationCapError) as err:
            opt_nonpreemptive(inst)
        assert str(err.value).startswith("1000000000^300000 assignments")

    def test_one_machine_answers_for_many_jobs(self):
        # a single machine has one assignment, however many jobs there are
        inst = Instance((2,) * 5000, (1, 2) * 2500, machine_count=1, slot_budget=2)
        value, schedule = opt_nonpreemptive(inst)
        assert value == 10_000
        assert validate(schedule, inst, NONPREEMPTIVE) == []
        value, schedule = opt_nonpreemptive(
            Instance((3, 1, 2), (1, 2, 1), machine_count=1, slot_budget=2)
        )
        assert value == 6 and schedule.assignment == {0: 0, 1: 0, 2: 0}


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


def preemptive_feasible(
    instance: Instance,
    eligibility: Mapping[int, Iterable[int]],
    deadline: Fraction,
) -> bool:
    """Can the instance finish by `deadline` when each class may only use the
    machines listed in `eligibility`?  Exact max-flow check, in Fractions
    and augmenting paths: the reference the closed form of
    ``opt_preemptive`` is checked against.

    Network: source -> job (capacity p_j), job -> eligible machine (capacity
    `deadline`, forbidding self-parallelism together with the p_max floor),
    machine -> sink (capacity `deadline`).  Feasible iff the flow saturates
    every job edge and no job exceeds the deadline on its own.
    """
    if deadline < instance.max_processing_time:
        return False
    if deadline < 0:
        return False
    n = instance.job_count
    m = instance.machine_count
    eligible_masks = {u: 0 for u in range(1, instance.class_count + 1)}
    for u, machines in eligibility.items():
        mask = 0
        for i in machines:
            if not 0 <= i < m:
                raise ValueError(f"machine {i} out of range for class {u}")
            mask |= 1 << i
        if u not in eligible_masks:
            raise ValueError(f"unknown class {u} in eligibility map")
        eligible_masks[u] = mask
    if any(mask == 0 for mask in eligible_masks.values()):
        return False

    # Node ids: 0 = source, 1..n = jobs, n+1..n+m = machines, n+m+1 = sink.
    source = 0
    sink = n + m + 1
    cap: dict[tuple[int, int], Fraction] = {}
    adj: dict[int, list[int]] = {v: [] for v in range(sink + 1)}

    def add_edge(a: int, b: int, capacity: Fraction) -> None:
        if (a, b) not in cap:
            adj[a].append(b)
            adj[b].append(a)
            cap[(a, b)] = Fraction(0)
            cap[(b, a)] = Fraction(0)
        cap[(a, b)] += capacity

    total = Fraction(0)
    for j in range(n):
        add_edge(source, 1 + j, instance.processing_times[j])
        total += instance.processing_times[j]
        mask = eligible_masks[instance.class_labels[j]]
        for i in range(m):
            if mask & (1 << i):
                add_edge(1 + j, n + 1 + i, deadline)
    for i in range(m):
        add_edge(n + 1 + i, sink, deadline)

    flow = Fraction(0)
    while True:
        # BFS for a shortest augmenting path
        parent: dict[int, int] = {source: source}
        queue = [source]
        while queue and sink not in parent:
            nxt: list[int] = []
            for v in queue:
                for w in adj[v]:
                    if w not in parent and cap[(v, w)] > 0:
                        parent[w] = v
                        nxt.append(w)
            queue = nxt
        if sink not in parent:
            break
        bottleneck = None
        v = sink
        while v != source:
            p = parent[v]
            edge_cap = cap[(p, v)]
            bottleneck = edge_cap if bottleneck is None else min(bottleneck, edge_cap)
            v = p
        if bottleneck is None or bottleneck <= 0:
            raise CCSError("augmenting path without residual capacity")
        v = sink
        while v != source:
            p = parent[v]
            cap[(p, v)] -= bottleneck
            cap[(v, p)] += bottleneck
            v = p
        flow += bottleneck
    return flow == total


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

    loads = inst.class_totals
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
