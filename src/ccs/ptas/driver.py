"""Guess search and the public entry point of the approximation schemes.

Each scheme first runs its constant-factor algorithm (the warm start) and
tests it against a lower-bound certificate from that algorithm's own
threshold search in ``ccs.approx``: max(load bound, T*) for the splittable
scheme, T* the border threshold, which never exceeds the splittable (so
the preemptive) optimum; and T_np, the 7/3 algorithm's threshold, for the
non-preemptive one. T_np never exceeds the non-preemptive optimum, and no
other bound raises it: it is searched on the multiples of 1/D (D the
sizes' common denominator) from the load bound up, and the splittable
piece counts ceil(P_u/T) <= C_u fit at T_np too, so T* <= T_np. The
certificate is at most the optimum, so a warm start whose makespan is at
most (1 + epsilon) times it already keeps the scheme's guarantee. Both
schemes return such a warm start as it is, and build and solve no
program; it is optimal only where its makespan equals the certificate.
Before that test the non-preemptive scheme polishes a warm start that
misses the certificate by a move and swap descent (Finn and Horowitz,
1979), which never raises the makespan.

Otherwise the makespan guess is searched from the certificate up to the
warm start's makespan: the bottom is at most the optimum, and the top is
the makespan of a feasible schedule, so at least the optimum. Integral
non-preemptive instances search the integers in that bracket (the
optimum is a sum of job sizes, hence integral, and T_np is then an
integer); the others walk a geometric (1 + delta) grid from the bottom,
which costs at most a factor (1 + delta) in the guess.

The search probes the bottom first. A feasible guess T yields a schedule
within (1 + epsilon) * T, and the bottom is at most the optimum, so a
feasible bottom keeps the guarantee whether or not feasibility grows with
the guess. Otherwise the safe guess at the top must be feasible, and
bisection above the bottom finds the smallest feasible guess it meets.

A non-preemptive schedule never uses more than n machines, so that scheme
solves at min(m, n) machines and loses nothing. The splittable scheme
solves at the true m, since pieces of one job may run in parallel on any
number of machines. Its schedule, the warm start's as well as the
program's, is a CompactSchedule of counted patterns at every m. Of the
two schedules a searched scheme holds, the warm start and the program's,
it returns the one with the smaller makespan, so the program can only
improve on the warm start.

The preemptive variant reduces to the splittable one, since the preemptive
optimum is max(p_max, splittable optimum): with m >= n every job gets a
machine of its own (makespan p_max, optimal); otherwise the splittable
scheme's schedule is expanded (m < n, so cheaply) and unfolded into time
slices by ``unfold_preemptive``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import replace
from fractions import Fraction
from typing import Optional

from .. import approx
from ..core import (
    CCSError,
    Instance,
    NONPREEMPTIVE,
    NonPreemptiveSchedule,
    PREEMPTIVE,
    PreemptiveSchedule,
    Rational,
    SPLITTABLE,
    VARIANTS,
    expand_compact,
    lower_bound,
    makespan,
)
from ..nfold import solve_feasible
from .builder import build_program
from .reconstruct import construct_schedule, unfold_preemptive
from .rounding import PtasParams, derive_delta, preprocess, require_epsilon

_WARM_ALGO = {
    SPLITTABLE: approx._deal_splittable,
    NONPREEMPTIVE: approx._deal_nonpreemptive,
}


def _clamp(instance: Instance, variant: str):
    """A non-preemptive instance at min(m, n) machines, which loses
    nothing; a splittable one as it is."""
    if variant == SPLITTABLE or instance.machine_count <= instance.job_count:
        return instance
    return replace(instance, machine_count=instance.job_count)


def _search(probe, guess_at, lo: int, hi: int):
    """(guess, built, solution) at the smallest feasible index in
    [lo, hi] under guess_at, bottom first.

    A feasible lo answers at once. Otherwise hi must be feasible, and
    bisection over (lo, hi] returns the smallest feasible index it meets.
    Every index is probed at most once: each midpoint lies strictly
    between an infeasible and a feasible index probed before it. Only
    lo == hi probes one index twice, and an infeasible one raises.
    """
    built, solution = probe(guess_at(lo))
    if solution is not None:
        return (guess_at(lo), built, solution)
    built, solution = probe(guess_at(hi))
    if solution is None:
        raise CCSError(
            f"feasibility program rejected the safe guess {guess_at(hi)}"
        )
    best = (guess_at(hi), built, solution)
    lo += 1
    while lo < hi:
        mid = (lo + hi) // 2
        built, solution = probe(guess_at(mid))
        if solution is None:
            lo = mid + 1
        else:
            best = (guess_at(mid), built, solution)
            hi = mid
    return best


def ptas_solve(
    instance: Instance,
    epsilon: Rational,
    variant: str,
    *,
    report: Optional[dict] = None,
):
    """A schedule within a factor 1 + epsilon of the variant's optimum.

    The splittable variant returns a CompactSchedule (``expand_compact``
    gives machine ids). epsilon must lie in (0, 1]. A dict passed as
    ``report`` receives under "bound" the lower-bound certificate of the
    module docstring, a Fraction, so makespan / bound is a proved gap to
    the optimum. It also receives the accepted guess, the program it was
    solved on and that program's point ("guess", "built", "solution";
    ``as_nfold(built)`` gives the program's n-fold layout), and under
    "probes" the (guess, feasible) pair of every program solved, in probe
    order.

    When the warm start's makespan is within 1 + epsilon of the bound
    (for the non-preemptive scheme, after the descent of ``_descend`` has
    polished a warm start that misses the bound), the scheme returns it and
    solves no program: the report then holds None for guess, built and
    solution and an empty "probes" list. That schedule is optimal only
    where its makespan equals the bound. Otherwise the scheme searches the
    program and returns the (polished) warm start where it beats the
    program's schedule; the report still describes the program solved.

    The preemptive variant runs the splittable scheme at the same epsilon
    and unfolds the result into time slices; its report describes that
    splittable run. With at least as many machines as jobs it solves no
    program at all, and reports as a certified warm start does, with the
    bound p_max.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if epsilon is None:
        raise ValueError("epsilon is required")
    epsilon = require_epsilon(epsilon)
    scheme = SPLITTABLE if variant == PREEMPTIVE else variant
    if variant == PREEMPTIVE and instance.machine_count >= instance.job_count:
        if report is not None:
            floor, _ub = lower_bound(instance, variant)
            report.update(_unsearched(), bound=floor)
        return PreemptiveSchedule(
            pieces=tuple((j, 1, j, 0) for j in range(instance.job_count))
        )
    work = _clamp(instance, scheme)
    warm, reach, bound, certified = _certify(work, scheme, epsilon)
    if certified:
        schedule, record = warm, _unsearched()
    else:
        delta = derive_delta(epsilon, scheme)
        schedule, record = _search_program(work, scheme, delta, bound, reach)
        if reach < makespan(schedule, work):
            schedule = warm
    if report is not None:
        report.update(record, bound=bound)
    if variant != PREEMPTIVE:
        return schedule
    # max(p_max, the splittable makespan) <= (1 + epsilon) * opt_preemptive
    return unfold_preemptive(instance, expand_compact(schedule, instance))


def _unsearched() -> dict:
    """The report entries of a run that solved no program."""
    return dict(guess=None, built=None, solution=None, probes=[])


def _certify(work, variant, epsilon):
    """(warm start, its makespan, bound, certified): the constant-factor
    schedule on ``work``, its makespan, the certificate of the module
    docstring (a Fraction), and whether the warm start answers, that is,
    has a makespan within 1 + epsilon (an int or Fraction) of the bound.
    One threshold is searched, T* or T_np, and the warm start is laid out
    at it; a non-preemptive warm start that misses the bound is polished
    by ``_descend`` before the test. The answer is optimal only where its
    makespan equals the bound. Where it misses, the makespan and the bound
    are the top and the bottom of the guess search."""
    # looked up in ccs.approx, where a layer trace can wrap them
    if variant == SPLITTABLE:
        t_star = approx.border_search_splittable(work)
        warm = _WARM_ALGO[variant](work, t_star)
        # the splittable load bound of lower_bound, whose class-slot check
        # border_search_splittable has already passed
        bound = max(work.total_load / work.machine_count, t_star)
    else:
        bound, _m_used, _floor = approx.nonpreemptive_threshold(work)
        warm = _WARM_ALGO[variant](work, bound)
    reach = makespan(warm, work)
    if reach <= 0:
        raise CCSError(f"warm start has makespan {reach}")
    if variant != SPLITTABLE and reach > bound:
        assignment = dict(warm.assignment)
        _descend(work, assignment)
        warm = NonPreemptiveSchedule(assignment=assignment)
        reach = makespan(warm, work)
    # reach <= (1 + epsilon) * bound over common denominators: in Fraction
    # arithmetic this one test costs about a tenth of a certified run
    certified = (
        reach.numerator * bound.denominator * epsilon.denominator
        <= (epsilon.denominator + epsilon.numerator) * bound.numerator
        * reach.denominator
    )
    return warm, reach, bound, certified


def _descend(work, assignment: dict) -> int:
    """Lower the machine loads of ``assignment`` (job -> machine, a
    non-preemptive schedule of ``work``) in place by first-improvement
    descent; return the number of improving steps taken.

    A step takes a job j of a machine a at the top load M to another
    machine b, alone (a move) where b holds j's class or a free class
    slot, or in exchange for a smaller job of b (a swap) where both
    machines stay within c classes; either way b's new load stays below
    M. Both machines then end below M, so each step lowers the sorted
    load vector. The descent stops at a schedule no step improves, or
    after n steps. Steps are tried by a, j and b ascending, then the move
    before the swaps, those by the partner's id: the result is
    deterministic. Sizes are the ints of ``work._scaled``."""
    _den, sizes, _sums = work._scaled
    labels = work.class_labels
    budget = work.slot_budget
    loads = [0] * work.machine_count
    jobs = [[] for _ in loads]  # job ids ascending
    classes = [{} for _ in loads]  # class -> its job count on the machine
    for j in sorted(assignment):
        i = assignment[j]
        loads[i] += sizes[j]
        jobs[i].append(j)
        classes[i][labels[j]] = classes[i].get(labels[j], 0) + 1

    def room(held, out, into) -> bool:
        # within the budget once a job of class out (None: no job) leaves
        # and one of class into arrives
        if into == out or into in held:
            return True
        return len(held) - (out is not None and held[out] == 1) < budget

    def shift(j, src, dst):
        u = labels[j]
        loads[src] -= sizes[j]
        loads[dst] += sizes[j]
        jobs[src].remove(j)
        bisect.insort(jobs[dst], j)
        classes[src][u] -= 1
        if not classes[src][u]:
            del classes[src][u]
        classes[dst][u] = classes[dst].get(u, 0) + 1
        assignment[j] = dst

    def improving_step():
        top = max(loads)
        for a, load in enumerate(loads):
            if load < top:
                continue
            for j in jobs[a]:
                p, u = sizes[j], labels[j]
                for b, other in enumerate(loads):
                    gap = top - other  # b ends below top iff p - q < gap
                    if gap < 2:  # q < p are ints, so p - q >= 1
                        continue
                    if p < gap and room(classes[b], None, u):
                        return j, a, None, b
                    for k in jobs[b]:
                        if p - gap < sizes[k] < p and room(
                            classes[a], u, labels[k]
                        ) and room(classes[b], labels[k], u):
                            return j, a, k, b
        return None

    for steps in range(len(sizes)):
        step = improving_step()
        if step is None:
            return steps
        j, a, k, b = step
        shift(j, a, b)
        if k is not None:
            shift(k, b, a)
    return len(sizes)


def _search_program(work, variant, delta, lo, hi):
    """(schedule, record): the guess search over the program at grid
    delta within the bracket [lo, hi], the certificate and the warm
    start's makespan, and the schedule read from the accepted program's
    point. ``record`` holds the report entries "guess", "built",
    "solution" and "probes" (see ``ptas_solve``)."""
    probes = []

    def probe(guess):
        params = PtasParams(delta, guess, variant)
        built = build_program(preprocess(work, params))
        solution = solve_feasible(built.program)
        probes.append((params.guess, solution is not None))
        return built, solution

    if variant != SPLITTABLE and work._scaled[0] == 1:
        # integral sizes: the guesses are the indices, as the bracket may
        # hold over 2**63 integers, too many for a range to report its length
        guess, built, solution = _search(
            probe, lambda i: i, math.ceil(lo), math.ceil(hi)
        )
    else:
        grid = [Fraction(lo)]
        while grid[-1] < hi:
            grid.append(grid[-1] * (1 + delta))
        guess, built, solution = _search(
            probe, grid.__getitem__, 0, len(grid) - 1
        )
    record = dict(guess=guess, built=built, solution=solution, probes=probes)
    return construct_schedule(work, solution, built), record
