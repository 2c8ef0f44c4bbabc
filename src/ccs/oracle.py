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
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    CCSError,
    EnumerationCapError,
    Instance,
    NONPREEMPTIVE,
    NonPreemptiveSchedule,
    SPLITTABLE,
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
]


def opt_nonpreemptive(instance: Instance) -> tuple[Fraction, NonPreemptiveSchedule]:
    """Exact minimum makespan without job splitting, plus one optimal schedule.

    Depth-first search over assignments in job order.  Among all optimal
    assignments the lexicographically smallest machine vector is returned
    (machines are numbered by first use, so the vector is canonical).
    """
    lb, _ = lower_bound(instance, NONPREEMPTIVE)  # raises when C > m*c
    # a makespan is a sum of sizes, so a multiple of 1/D (D the sizes'
    # common denominator): no assignment beats lb rounded up to that grid,
    # and the search stops at the first one that reaches it
    den = instance._scaled[0]
    lb = Fraction(math.ceil(lb * den), den)
    n = instance.job_count
    m = instance.machine_count
    c = instance.slot_budget
    if m == 1:
        # one assignment, which the search below would reach one recursive
        # call per job deep
        schedule = NonPreemptiveSchedule(dict.fromkeys(range(n), 0))
        return instance.total_load, schedule
    # m >= 2 makes m^n at least 2^n, so n past the cap's bit length already
    # exceeds it; testing that first keeps a large n from building the power
    if n >= ORACLE_ASSIGNMENT_CAP.bit_length() or m**n > ORACLE_ASSIGNMENT_CAP:
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
            return  # nothing can beat the rounded lower bound
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
    if best_val is None or best_assign is None:  # C <= m*c ensures one
        raise CCSError("no feasible assignment")
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

    loads = instance.class_totals
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
    if best is None:  # C <= m*c guarantees a covering pattern
        raise CCSError("no class pattern covers every class")
    return best


def opt_preemptive(instance: Instance) -> Fraction:
    """Exact minimum makespan when jobs may be cut but a job never runs on
    two machines at the same moment.

    Equals max(p_max, splittable optimum): the floor makes the per-job time
    budget slack, and any load matrix with row sums <= T and column sums <= T
    unfolds into a valid preemptive schedule by slice decomposition.
    """
    return max(instance.max_processing_time, opt_splittable(instance))
