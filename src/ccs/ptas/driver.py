"""Guess search and the public entry point of the approximation schemes.

Each scheme first runs its constant-factor algorithm (the warm start) and
tests it against a lower-bound certificate from that algorithm's own
threshold search in ``ccs.approx``: max(load bound, T*) for the splittable
scheme, T* the border threshold, which never exceeds the splittable (so
the preemptive) optimum; and T_np, the 7/3 algorithm's threshold, for the
non-preemptive one. T_np never exceeds the non-preemptive optimum, and no
other bound raises it: it is searched on the multiples of 1/D (D the
sizes' common denominator) at or above the load bound, from the smallest
at which the splittable piece counts ceil(P_u/T) fit; as ceil(P_u/T) <=
C_u, those fit at T_np too, so T* <= T_np. The certificate is at most
the optimum, so a warm start whose makespan is at most (1 + epsilon)
times it already keeps the scheme's guarantee. Both schemes return such
a warm start as it is, and build and solve no program; it is optimal
only where its makespan equals the certificate. Before that test the
non-preemptive scheme polishes a warm start that misses the certificate
by a move and swap descent (Finn and Horowitz, 1979), which never raises
the makespan.

Otherwise the scheme searches makespan guesses T by dual approximation
(Hochbaum and Shmoys, J. ACM 1987). By the paper's rounding lemmas
(arXiv:1909.11970), which ``preprocess`` implements, the configuration
program is feasible at every T >= OPT, and a feasible program yields a
schedule within (1 + epsilon) * T. So an infeasible guess proves
OPT > T; for integral non-preemptive sizes, whose optimum and T_np are
integers, the guesses are the integers and an infeasible T proves
OPT >= T + 1. Other instances walk a (1 + delta) grid from the
certificate, which costs at most a factor 1 + delta in the guess.

One rule stops the search: the best schedule in hand is returned once it
is within 1 + epsilon of the bound; the certificate test is its first
check. The open guesses start at the certificate and end below the first
guess at or above the warm makespan, which the warm start answers for.
Each probe is their midpoint, or the largest guess whose 1 + epsilon
multiple is below the best makespan if lower, where an infeasible answer
closes the gap. An infeasible probe raises the bound past its guess; a
feasible one closes the guesses from it up, and its schedule becomes the
best if shorter. If the gap closes, the best is within 1 + epsilon of the
bound, so of OPT. If the guesses run out, the first one above them, the
certificate or the guess after an infeasible one, is at most OPT (below
(1 + delta) * OPT on the grid), and the warm start or a feasible probe
answers for it, so the best keeps the guarantee. A bound proved above a
schedule's makespan contradicts the lemmas, and raises.

A non-preemptive schedule never uses more than n machines, so that scheme
solves at min(m, n) machines and loses nothing. The splittable scheme
solves at the true m, since pieces of one job may run in parallel on any
number of machines. Its schedule, the warm start's as well as the
program's, is a CompactSchedule of counted patterns at every m.

The preemptive variant reduces to the splittable one, since the preemptive
optimum is max(p_max, splittable optimum): with m >= n every job gets a
machine of its own (makespan p_max, optimal); otherwise the splittable
scheme's schedule is expanded (m < n, so cheaply) and unfolded into time
slices by ``unfold_preemptive``.
"""

from __future__ import annotations

import bisect
import copy
import math
from fractions import Fraction
from typing import Optional

from .. import approx
from ..core import (
    CCSError,
    EnumerationCapError,
    Instance,
    NONPREEMPTIVE,
    PREEMPTIVE,
    PreemptiveSchedule,
    Rational,
    SPLITTABLE,
    VARIANTS,
    lower_bound,
    makespan_and_violations,
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
    nothing; a splittable one as it is. The clamped instance is a copy of
    the validated one: none of its derived fields depends on m, so it is
    neither validated again nor made to build its processing times."""
    if variant == SPLITTABLE or instance.machine_count <= instance.job_count:
        return instance
    clamped = copy.copy(instance)
    object.__setattr__(clamped, "machine_count", instance.job_count)
    return clamped


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
    ``report`` receives under "bound" a proved lower bound, a Fraction:
    the certificate of the module docstring, raised by the infeasible
    probes of the guess search, so makespan / bound is a proved gap to
    the optimum. Under "guess", "built" and "solution" it receives the
    last feasible probe, the smallest feasible guess probed: its guess,
    program and point (``as_nfold(built)`` gives the program's n-fold
    layout), or None where no program was feasible; and under "probes"
    the (guess, feasible) pair of every program solved, in probe order.

    The scheme returns the best schedule it holds, the (polished) warm
    start or a program's, once that is within 1 + epsilon of the bound.
    A warm start within 1 + epsilon of the certificate (for the
    non-preemptive scheme, after ``_descend`` has polished one that
    misses it) answers with no program solved; it is optimal only where
    its makespan equals the bound.

    The preemptive variant runs the splittable scheme at the same epsilon
    and unfolds the result into time slices; its report describes that
    splittable run. With at least as many machines as jobs it solves no
    program at all, and reports as a certified warm start does, with the
    bound p_max.

    A probe that exceeds a budget (``EnumerationCapError``) stops the call
    with no answer; the error carries the best schedule held, in the
    variant's form, as ``schedule`` and the bound proved as ``bound``.
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
            report.update(
                guess=None, built=None, solution=None, probes=[], bound=floor
            )
        return PreemptiveSchedule(
            pieces=tuple((j, 1, j, 0) for j in range(instance.job_count))
        )
    work = _clamp(instance, scheme)
    warm, top, bound = _certify(work, scheme)
    try:
        schedule, record = _search_program(work, scheme, epsilon, warm, top, bound)
    except EnumerationCapError as exc:
        if variant == PREEMPTIVE:
            exc.schedule = unfold_preemptive(instance, exc.schedule)
        raise
    if report is not None:
        report.update(record)
    if variant != PREEMPTIVE:
        return schedule
    # max(p_max, the splittable makespan) <= (1 + epsilon) * opt_preemptive
    return unfold_preemptive(instance, schedule)


def _certify(work, variant):
    """(warm start, its makespan, bound): the constant-factor schedule on
    ``work``, its makespan and the certificate of the module docstring,
    Fractions. One threshold is searched, T* or T_np, and the warm start
    is laid out at it; a non-preemptive warm start that misses the bound
    is polished in place by ``_descend``. The deal and the descent return
    the makespan as an int over the deal's scale: no schedule is measured
    again, and the bound test is in ints."""
    # looked up in ccs.approx, where a layer trace can wrap them
    if variant == SPLITTABLE:
        den, _sizes, sums = work._scaled
        t_star = approx.border_search_splittable(work)
        warm, peak, scale = _WARM_ALGO[variant](work, t_star)
        # max(load/share, T*) in ints: load/share = total/m is the
        # splittable load bound of lower_bound, whose class-slot check
        # border_search_splittable has already passed
        load, share = sum(sums), den * work.machine_count
        bound = t_star
        if load * t_star.denominator > t_star.numerator * share:
            bound = Fraction(load, share)
    else:
        bound, _m_used, _floor = approx.nonpreemptive_threshold(work)
        warm, peak, scale = _WARM_ALGO[variant](work, bound)
        # T_np is a multiple of 1/D, and D is the deal's scale
        if peak > bound.numerator * (scale // bound.denominator):
            # the deal's schedule is new and held nowhere else
            _steps, peak = _descend(work, warm.assignment)
    if peak <= 0:
        raise CCSError(f"warm start has makespan {Fraction(peak, scale)}")
    return warm, Fraction(peak, scale), bound


def _within(top, bound, epsilon) -> bool:
    """Whether top <= (1 + epsilon) * bound, each an int or a Fraction."""
    # over common denominators: in Fraction arithmetic this one test costs
    # about a tenth of a run the certificate answers
    return (
        top.numerator * bound.denominator * epsilon.denominator
        <= (epsilon.denominator + epsilon.numerator) * bound.numerator
        * top.denominator
    )


def _descend(work, assignment: dict) -> tuple:
    """Lower the machine loads of ``assignment`` (job -> machine, a
    non-preemptive schedule of ``work``) in place by first-improvement
    descent; return (steps, peak): the number of improving steps taken
    and the makespan reached, an int over D.

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
            return steps, max(loads)
        j, a, k, b = step
        shift(j, a, b)
        if k is not None:
            shift(k, b, a)
    return len(sizes), max(loads)


def _search_program(work, variant, epsilon, schedule, top, bound):
    """(schedule, record): the guess search of the module docstring from
    the warm start ``schedule`` of makespan ``top`` and the certificate
    ``bound``, and the best schedule it holds when it stops. ``record``
    holds the report entries "bound" (raised by the infeasible probes),
    "guess", "built" and "solution" (the last feasible probe's, else
    None) and "probes" (see ``ptas_solve``). An EnumerationCapError from
    a probe leaves with the best schedule and the bound held. Each
    schedule rebuilt from a program is measured by its check, and one
    that fails it raises CCSError rather than being returned."""
    probes = []
    record = dict(
        guess=None, built=None, solution=None, probes=probes, bound=bound
    )
    if _within(top, bound, epsilon):
        return schedule, record
    delta = derive_delta(epsilon, variant)
    if variant != SPLITTABLE and work._scaled[0] == 1:
        # integral sizes: the guesses are the indices, as the bracket may
        # hold over 2**63 integers, too many for a list or a range
        lo, hi = math.ceil(bound), math.ceil(top)
        guess_at = lambda i: i
        last_below = lambda limit: math.ceil(limit) - 1
        proved = lambda i: Fraction(i + 1)
    else:
        grid = [bound]
        while grid[-1] < top:
            grid.append(grid[-1] * (1 + delta))
        lo, hi = 0, len(grid) - 1
        guess_at = proved = grid.__getitem__
        last_below = lambda limit: bisect.bisect_left(grid, limit) - 1
    while lo < hi and not _within(top, bound, epsilon):
        # the midpoint, or the largest guess whose 1 + epsilon multiple is
        # below top where that is lower: an infeasible answer there raises
        # the bound to within 1 + epsilon of top
        i = max(lo, min(last_below(top / (1 + epsilon)), (lo + hi) // 2))
        guess = guess_at(i)
        params = PtasParams(delta, guess, variant)
        try:
            built = build_program(preprocess(work, params))
            solution = solve_feasible(built.program)
        except EnumerationCapError as exc:
            exc.schedule, exc.bound = schedule, bound
            raise
        probes.append((params.guess, solution is not None))
        if solution is None:
            lo, bound = i + 1, proved(i)
        else:
            hi = i
            record.update(guess=guess, built=built, solution=solution)
            found = construct_schedule(solution, built)
            span, violations = makespan_and_violations(found, work)
            if violations:
                raise CCSError(
                    f"the schedule rebuilt at guess {guess} is invalid: "
                    f"{violations[0]}"
                )
            if span < top:
                schedule, top = found, span
        if top < bound:
            raise CCSError(
                f"guess search proved the bound {bound} above the makespan "
                f"{top} of a schedule"
            )
    record["bound"] = bound
    return schedule, record
