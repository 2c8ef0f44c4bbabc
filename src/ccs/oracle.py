"""Exhaustive ground-truth solvers for tiny instances.

These walk the full solution space and return exact optima as Fractions.
They exist so the fast algorithms have something trustworthy to be measured
against in tests; none of them is meant to scale past toy sizes, and each
refuses (EnumerationCapError) when its search space would be too large.

Search spaces:

* non-preemptive: machine assignments, at most m^n of them;
* splittable / preemptive: eligibility patterns, i.e. which machines each
  class may use.  Growing a class's eligibility never hurts, so only maximal
  patterns (every machine eligible for exactly min(c, C) classes) need to be
  visited, and identical machines make patterns that differ by a machine
  permutation interchangeable.  We therefore enumerate non-decreasing
  multisets of per-machine class subsets.

For one eligibility pattern the splittable optimum has a closed min-cut form:
the max over machine subsets B of (total load of classes confined to B) / |B|.
The preemptive optimum adds the no-self-parallelism floor and nothing else:
a load matrix with row sums p_j <= T and column sums <= T always unfolds into
a preemptive schedule (classical slice decomposition), so

    opt_preemptive = max(p_max, opt_splittable).

preemptive_feasible() keeps the direct max-flow feasibility check (exact
Fraction arithmetic, augmenting paths); tests use it to cross-validate the
identity above.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .core import (
    EnumerationCapError,
    Instance,
    NONPREEMPTIVE,
    NonPreemptiveSchedule,
    SPLITTABLE,
    class_loads,
    lower_bound,
)

# Hard ceilings on the search spaces, per the documented contract.
ORACLE_PATTERN_CAP = 10**6
ORACLE_ASSIGNMENT_CAP = 10**7

__all__ = [
    "ORACLE_ASSIGNMENT_CAP",
    "ORACLE_PATTERN_CAP",
    "opt_nonpreemptive",
    "opt_preemptive",
    "opt_splittable",
    "preemptive_feasible",
]


def opt_nonpreemptive(instance: Instance) -> tuple[Fraction, NonPreemptiveSchedule]:
    """Exact minimum makespan without job splitting, plus one optimal schedule.

    Depth-first search over assignments in job order.  Among all optimal
    assignments the lexicographically smallest machine vector is returned
    (machines are numbered by first use, so the vector is canonical).
    """
    lb, _ = lower_bound(instance, NONPREEMPTIVE)  # raises when C > m*c
    n = instance.job_count
    m = instance.machine_count
    c = instance.slot_budget
    if m**n > ORACLE_ASSIGNMENT_CAP:
        raise EnumerationCapError(
            f"{m}^{n} assignments exceed the cap of {ORACLE_ASSIGNMENT_CAP}"
        )

    times = instance.processing_times
    labels = instance.class_labels
    # classes_after[j]: classes appearing among jobs j..n-1 (for slot pruning)
    classes_after: list[frozenset[int]] = [frozenset()] * (n + 1)
    acc: frozenset[int] = frozenset()
    for j in range(n - 1, -1, -1):
        acc = acc | {labels[j]}
        classes_after[j] = acc

    zero = Fraction(0)
    loads: list[Fraction] = [zero] * m
    hosted: list[set[int]] = [set() for _ in range(m)]
    hosted_any: dict[int, int] = {}  # class -> number of machines hosting it
    assign: list[int] = [0] * n

    best_val: Optional[Fraction] = None
    best_assign: Optional[tuple[int, ...]] = None

    def slots_left(used: int) -> int:
        open_slots = sum(c - len(hosted[i]) for i in range(used))
        return open_slots + (m - used) * c

    def rec(j: int, used: int) -> None:
        nonlocal best_val, best_assign
        if best_val == lb:
            return  # nothing can beat the lower bound
        if j == n:
            top = max(loads)
            if best_val is None or top < best_val:
                best_val = top
                best_assign = tuple(assign)
            return
        needed = sum(1 for u in classes_after[j] if u not in hosted_any)
        if needed > slots_left(used):
            return
        u = labels[j]
        p = times[j]
        limit = min(used + 1, m)  # one fresh machine at most: symmetry
        for i in range(limit):
            fresh_class = u not in hosted[i]
            if fresh_class and len(hosted[i]) == c:
                continue
            new_load = loads[i] + p
            if best_val is not None and new_load >= best_val:
                continue
            loads[i] = new_load
            if fresh_class:
                hosted[i].add(u)
                hosted_any[u] = hosted_any.get(u, 0) + 1
            assign[j] = i
            rec(j + 1, used + (1 if i == used else 0))
            loads[i] = new_load - p
            if fresh_class:
                hosted[i].remove(u)
                if hosted_any[u] == 1:
                    del hosted_any[u]
                else:
                    hosted_any[u] -= 1

    rec(0, 0)
    assert best_val is not None and best_assign is not None  # C <= m*c ensures one
    return best_val, NonPreemptiveSchedule(dict(enumerate(best_assign)))


def _pattern_minimum(class_masks: Sequence[int], loads: Sequence[Fraction], m: int) -> Fraction:
    """Splittable optimum for one eligibility pattern (min-cut closed form)."""
    best = Fraction(0)
    for b in range(1, 1 << m):
        confined = Fraction(0)
        for mask, load in zip(class_masks, loads):
            if mask & ~b == 0:
                confined += load
        size = b.bit_count()
        ratio = confined / size
        if ratio > best:
            best = ratio
    return best


def opt_splittable(instance: Instance) -> Fraction:
    """Exact minimum makespan when jobs may be cut arbitrarily and split
    pieces of one job may run in parallel with each other."""
    lb, _ = lower_bound(instance, SPLITTABLE)  # raises when C > m*c
    m = instance.machine_count
    cc = instance.class_count
    # cc >= 1, so m beyond the cap's bit length already exceeds it; testing
    # that first keeps a huge m from building the power at all
    if m > ORACLE_PATTERN_CAP.bit_length() or (2**m - 1) ** cc > ORACLE_PATTERN_CAP:
        raise EnumerationCapError(
            f"(2^{m} - 1)^{cc} eligibility patterns exceed the cap of {ORACLE_PATTERN_CAP}"
        )

    loads = [cl.total for cl in class_loads(instance)]
    k = min(instance.slot_budget, cc)
    machine_choices = list(itertools.combinations(range(cc), k))
    all_classes = (1 << cc) - 1
    choice_masks = [sum(1 << u for u in choice) for choice in machine_choices]

    best: Optional[Fraction] = None
    class_masks = [0] * cc

    def rec(machine_i: int, min_choice: int, covered: int) -> None:
        nonlocal best
        if best == lb:
            return
        remaining = m - machine_i
        missing = (all_classes & ~covered).bit_count()
        if missing > remaining * k:
            return
        if machine_i == m:
            value = _pattern_minimum(class_masks, loads, m)
            if best is None or value < best:
                best = value
            return
        bit = 1 << machine_i
        for idx in range(min_choice, len(machine_choices)):
            for u in machine_choices[idx]:
                class_masks[u] |= bit
            rec(machine_i + 1, idx, covered | choice_masks[idx])
            for u in machine_choices[idx]:
                class_masks[u] &= ~bit

    rec(0, 0, 0)
    assert best is not None  # C <= m*c guarantees a covering pattern
    return best


def opt_preemptive(instance: Instance) -> Fraction:
    """Exact minimum makespan when jobs may be cut but a job never runs on
    two machines at the same moment.

    Equals max(p_max, splittable optimum): the floor makes the per-job time
    budget slack, and any load matrix with row sums <= T and column sums <= T
    unfolds into a valid preemptive schedule by slice decomposition.
    """
    return max(instance.max_processing_time, opt_splittable(instance))


def preemptive_feasible(
    instance: Instance,
    eligibility: Mapping[int, Iterable[int]],
    deadline: Fraction,
) -> bool:
    """Can the instance finish by `deadline` when each class may only use the
    machines listed in `eligibility`?  Exact max-flow check.

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
        assert bottleneck is not None and bottleneck > 0
        v = sink
        while v != source:
            p = parent[v]
            cap[(p, v)] -= bottleneck
            cap[(v, p)] += bottleneck
            v = p
        flow += bottleneck
    return flow == total
