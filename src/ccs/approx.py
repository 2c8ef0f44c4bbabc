"""Constant-factor approximation algorithms for all three variants.

The common skeleton: guess a piece-size threshold T, cut every class whose
load exceeds T into ceil(load/T) sub-classes (all pieces of size exactly T
except possibly the last), and distribute the sub-classes round robin by
size. The threshold search differs per variant:

* splittable: smallest T among the class-load borders {P/k} and the load
  average at which the total piece count fits the slot budget c*m. Equal
  class loads are grouped once, and the piece count is a sum of integer
  ceilings over the D distinct loads. It is monotone in T, and the
  smallest fitting border lies in a window of at most C + 2D borders
  (C classes) fixed by the total load and the budget; sorting and
  bisecting that window costs O(C log C) integer operations, whatever m
  is.
* preemptive: same borders restricted to k <= min(m, n) and values >= the
  preemptive lower bound; pieces are stacked in arrival order and, when any
  piece has size exactly T, the second layer of every machine is lifted to
  start at T so that consecutive pieces of one job never overlap in time.
* non-preemptive: jobs cannot be cut, so the per-class piece count comes
  from a size-classification (``_cu_sorted``), and T is the smallest
  multiple of 1/D (D the sizes' common denominator) at or above the load
  bound at which the counts fit: the optimum is one of them, so T never
  exceeds it. The search starts at the ceil-load floor, the smallest such
  T at which the class loads' ceilings sum(ceil(P_u/T)) fit, which is
  never above it as C_u >= ceil(P_u/T); most often T is the floor itself.
  Otherwise it gallops up from the floor by 1, 2, 4, ... multiples of
  1/D and bisects the last gap. Classes of equal sizes are grouped and
  sorted once; a probe then costs O(log n) bisections per distinct class
  shape plus the pairing of its medium jobs, in integers.

The splittable variant needs no job-level cutting at all: machine ids
are interchangeable and jobs of a class may run in parallel, so its round
robin is laid out from the class totals alone and stored as counted
class-load patterns (a CompactSchedule), O(C) of them whatever m is;
``expand_compact`` carves it into job pieces on demand.

The preemptive and non-preemptive layouts run in one pass. All classes
are cut in one call; the round robin is one stable sort of the piece
indices by load, descending, and machine i takes the sorted positions i,
i + m_used, i + 2*m_used and so on (m_used = min(m, n)); a preemptive
machine stacks its pieces as they are dealt.

Thresholds and schedules are Fractions at the API. The searches run in
Python ints over the sizes' common denominator, their bounds included,
and build one Fraction for each value they return; the sizes and the
threshold are then scaled to one common denominator, and the layouts cut,
sort, deal and stack in ints. Fractions are built only for the threshold.
The splittable and preemptive schedules keep their layouts in ints: the
schedule checks read them as they are, and their Fraction patterns or
pieces are built only when a caller reads ``patterns`` or ``pieces``.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence

from .core import (
    CompactSchedule,
    Instance,
    NonPreemptiveSchedule,
    PreemptiveSchedule,
    _Layout,
    _require_class_slots,
)
# round_robin is not called here: bench/layers.py wraps it by this name
from .greedy import lpt, round_robin  # noqa: F401


# ---------------------------------------------------------------------------
# cutting classes


def _cut(classes: Iterable, sizes: Sequence, threshold: int) -> tuple:
    """Cut every class, its job ids ascending, at multiples of the
    threshold, sizes[j] and the threshold ints over one denominator:
    (loads, parts), one entry per piece, class by class. Every load of a
    class is the threshold but possibly its last; parts = ((job_id, take),
    ...), the job running take of its size in the piece."""
    loads: list = []
    pieces: list = []
    for jobs in classes:
        parts: list = []
        space = threshold
        for job_id in jobs:
            size = sizes[job_id]
            if size < space:  # the job fits whole, with room to spare
                parts.append((job_id, size))
                space -= size
                continue
            remaining = size
            while remaining > 0:
                take = min(space, remaining)
                parts.append((job_id, take))
                remaining -= take
                space -= take
                if space == 0:
                    loads.append(threshold)
                    pieces.append(tuple(parts))
                    parts = []
                    space = threshold
        if parts:
            loads.append(threshold - space)
            pieces.append(tuple(parts))
    return loads, pieces


def _common_scale(den: int, threshold: Fraction) -> tuple:
    """(L, up, theta): L is the least common denominator of den and the
    threshold; an int over den times up is that value over L, and theta is
    the threshold over L."""
    scale = math.lcm(den, threshold.denominator)
    return scale, scale // den, threshold.numerator * (scale // threshold.denominator)


# ---------------------------------------------------------------------------
# threshold search


def _piece_count(groups, num: int, den: int) -> int:
    """Pieces the grouped class loads cut into at threshold num/den: the
    sum of k * ceil((a/b) / (num/den)) over the (a, b, k) groups, in
    integers."""
    return sum(k * -(-a * den // (b * num)) for a, b, k in groups)


def _smallest_guess(sums, den, machine_limit, budget, average, floored):
    """Smallest threshold among the class-load borders {P/k : k <= limit}
    and the average candidate whose piece count fits the slot budget, as
    a Fraction. When ``floored``, the average is also a floor: no border
    below it counts, so where it fits it is the answer. The class loads
    are the ints ``sums`` over ``den``, and ``average`` is an int pair
    (a, b), the value a/b over ``den``. The budget is at least the class
    count, as every class is at least one piece.

    The piece count f(T) = sum ceil(P/T) only grows as T shrinks, so the
    thresholds that fit are those >= the smallest border x/k (any k) that
    fits. T0 is that border, and the answer's k for a load x is
    min(limit, x // T0). With X the total load, B the budget and C the
    class count, X/T <= f(T) < X/T + C: every fitting T is >= X/B, and
    X/(B - C) fits. So the smallest fitting border is among the x/k with
    x(B - C)/X <= k <= xB/X, at most C + 2D of them over the D distinct
    loads. Sorted by the int key xB^2 // k (exact, as k <= B) and bisected
    with the exact piece count, they give it in O(C log C) integer
    operations, whatever the machine count."""
    loads = Counter(sums)
    groups = [(x, 1, k) for x, k in loads.items()]

    def fits(num: int, dnm: int) -> bool:
        return _piece_count(groups, num, dnm) <= budget

    a_num, a_den = average
    if floored and fits(a_num, a_den):
        return Fraction(a_num, a_den * den)
    if budget == len(sums):  # one piece per class
        t_num, t_den = max(loads), 1
    else:
        total = sum(sums)
        spare = budget - len(sums)
        square = budget * budget
        window = sorted(
            (x * square // k, x, k)
            for x in loads
            for k in range(max(1, x * spare // total), x * budget // total + 1)
        )
        # the last border, >= T0, fits
        first = _first_fit(0, len(window) - 1, lambda i: fits(*window[i][1:]))
        _key, t_num, t_den = window[first]
    best = None  # (x, k) of the smallest candidate border x/k: T0's x has k >= 1
    for x in loads:
        k = min(machine_limit, x * t_den // t_num)
        if k >= 1 and (best is None or x * best[1] < best[0] * k):
            best = (x, k)
    if not floored and fits(a_num, a_den) and a_num * best[1] < best[0] * a_den:
        return Fraction(a_num, a_den * den)
    return Fraction(best[0], den * best[1])


def border_search_splittable(instance: Instance) -> Fraction:
    """T*: the smallest threshold from the border set at which the classes
    cut into at most c*m sub-classes. T* never exceeds the splittable
    optimum: any schedule with makespan T uses at least ceil(P/T) slots for
    a class of load P, and only c*m slots exist."""
    _require_class_slots(instance)
    m = instance.machine_count
    den, _sizes, sums = instance._scaled
    return _smallest_guess(
        sums, den, m, instance.slot_budget * m, (sum(sums), m), floored=False
    )


# ---------------------------------------------------------------------------
# splittable construction


def approx_splittable(instance: Instance) -> CompactSchedule:
    """2-approximation for the splittable variant: cut every class at the
    border-search threshold T* and deal the pieces round robin by size.
    Makespan is at most total/m + T*, and T* is a lower bound on the
    optimum, so the ratio is at most 2."""
    return _deal_splittable(instance, border_search_splittable(instance))[0]


def _deal_splittable(instance: Instance, t_star: Fraction) -> tuple:
    """(schedule, peak, scale): ``approx_splittable``'s round robin at its
    T*, stored as counted class-load patterns, and its makespan peak/scale,
    scale the common denominator of the sizes and T*. The schedule keeps
    the patterns with their int loads over that scale: the checks read
    them as they are, and its Fraction patterns are built only when a
    caller reads ``patterns``.

    Class u of load P cuts into floor(P/T*) full pieces and one partial
    piece of P mod T* when that is positive. Dealing order: every full
    piece (class ascending), then the partial pieces by (-load, class);
    piece k goes to machine k mod m. The order is a list of runs, one per
    class's full pieces and one per partial piece, and machine i meets a
    new run in some layer only where i = b mod m for a run boundary b. The
    machines between those cut points share one pattern, so there are O(C)
    patterns whatever m is. At most c*m pieces exist, so a machine takes
    at most c of them. A partial piece is below T*, so the loads dealt
    never grow: machine 0 takes the largest piece of every layer and the
    most layers, and its pattern, the first built, holds the makespan.
    """
    m = instance.machine_count
    den, _sizes, sums = instance._scaled
    scale, up, theta = _common_scale(den, t_star)
    runs = []  # (first piece index, class_id, piece load) in dealing order
    partials = []
    dealt = 0
    for u, total in enumerate(sums, start=1):
        full, rest = divmod(total * up, theta)
        if full:
            runs.append((dealt, u, theta))
            dealt += full
        if rest:
            partials.append((u, rest))
    # load descending, class ascending on ties: a reversed sort is stable
    for u, rest in sorted(partials, key=itemgetter(1), reverse=True):
        runs.append((dealt, u, rest))
        dealt += 1
    starts = [first for first, _u, _load in runs]
    cuts = sorted({0, m} | {b % m for b in starts + [dealt]})
    counts: dict = {}
    for lo, hi in zip(cuts, cuts[1:]):
        loads: dict = {}
        for k in range(lo, dealt, m):  # machine lo's piece in each layer
            _first, u, load = runs[bisect.bisect_right(starts, k) - 1]
            loads[u] = loads.get(u, 0) + load
        if loads:
            pattern = tuple(sorted(loads.items()))
            counts[pattern] = counts.get(pattern, 0) + hi - lo
    peak = sum(load for _u, load in next(iter(counts)))  # machine 0's
    return CompactSchedule._laid_out(tuple(counts.items()), scale), peak, scale


# ---------------------------------------------------------------------------
# preemptive


def _preemptive_guess(instance: Instance):
    """(T*, m_used, LB) for the preemptive variant. Machines beyond the job
    count are useless without self-parallelism, so m is clamped to
    min(m, n); candidate thresholds are the class-load borders at or above
    LB = max(p_max, total/m) = max(p_max, total/m_used), plus LB itself."""
    _require_class_slots(instance)
    m_used = min(instance.machine_count, instance.job_count)
    den, sizes, sums = instance._scaled
    lb = (max(max(sizes) * m_used, sum(sums)), m_used)  # over den
    t_star = _smallest_guess(
        sums, den, m_used, instance.slot_budget * m_used, lb, floored=True
    )
    return t_star, m_used, Fraction(lb[0], lb[1] * den)


def approx_preemptive(instance: Instance) -> PreemptiveSchedule:
    """2-approximation for the preemptive variant. Cut at T*, deal the
    pieces round robin over m_used = min(m, n) machines and stack each
    machine's pieces in dealing order, lifting the second layer to T* when
    full-size pieces exist. Consecutive pieces of a split class land on
    adjacent machines whose layers are synchronized, so the two halves of
    a straddling job never overlap in time.

    The round robin is one stable sort of the piece indices by load,
    descending: machine i takes the sorted positions i, i + m_used, and so
    on, and a cursor per machine stacks them as they are dealt. The
    schedule keeps this layout in ints over the common scale L of the
    sizes and T*; its pieces are built from it when first read."""
    t_star, m_used, _lb = _preemptive_guess(instance)
    den, sizes, _sums = instance._scaled
    scale, up, theta = _common_scale(den, t_star)
    if up != 1:
        sizes = tuple(size * up for size in sizes)
    loads, pieces = _cut(instance._class_members, sizes, theta)
    # load descending, index ascending on ties: a reversed sort is stable
    order = sorted(range(len(loads)), key=loads.__getitem__, reverse=True)
    lift = theta if theta in loads else 0
    out = []  # (job_id, amount, machine, start), all ints over L
    for machine in range(m_used):
        offset = 0
        for layer, k in enumerate(order[machine::m_used]):
            if layer == 1 and offset < lift:
                offset = lift
            for job_id, take in pieces[k]:
                out.append((job_id, take, machine, offset))
                offset += take
    jobs, amounts, machines, starts = zip(*out)
    return PreemptiveSchedule._laid_out(
        _Layout(jobs, amounts, machines, starts, scale, den, sizes)
    )


# ---------------------------------------------------------------------------
# non-preemptive


def _cu_sorted(sizes: Sequence, total: int, threshold: int) -> tuple:
    """(C_u, heavy, loose) for one class at threshold T, from its sizes
    sorted ascending and their sum, all ints over one denominator.

    heavy = jobs above T/2, each in a piece of its own. The mediums in
    (T/3, T/2], largest first, each take the smallest heavy slack T - p
    that holds them; loose = those left over, two to a piece. C_u =
    max(ceil(load/T), heavy + ceil(loose/2)).
    """
    # an int p has 2p <= T iff p <= T // 2, and 3p <= T iff p <= T // 3
    heavy_at = bisect.bisect_right(sizes, threshold // 2)
    medium_at = bisect.bisect_right(sizes, threshold // 3, 0, heavy_at)
    heavy = len(sizes) - heavy_at
    loose = heavy_at - medium_at
    if loose and heavy:
        slack = [threshold - p for p in reversed(sizes[heavy_at:])]  # ascending
        for p in reversed(sizes[medium_at:heavy_at]):
            host = bisect.bisect_left(slack, p)
            if host < len(slack):
                del slack[host]
                loose -= 1
    return max(-(-total // threshold), heavy + (loose + 1) // 2), heavy, loose


def _first_fit(lo: int, hi: int, fits) -> int:
    """The smallest int in [lo, hi] at which ``fits`` holds, by bisection:
    ``fits`` holds at hi and never fails above an int where it holds."""
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def nonpreemptive_threshold(instance: Instance):
    """(T_final, m_used, LB): the smallest threshold T >= LB = max(p_max,
    total/m) at which the per-class piece counts fit the slot budget
    c*min(m, n), searched on the ints over D, the sizes' common
    denominator: the optimum is one of them, and at least LB.

    At a T at or above its load a class is one piece: it has at most one
    job above T/2 and two above T/3, and a medium fits beside the heavy
    job; C <= c*min(m, n) one-piece classes fit. Below the largest load
    the search starts at the ceil-load floor, where sum(ceil(P_u/T)) <=
    sum(C_u) first fits, and gallops up from there."""
    _require_class_slots(instance)
    m = instance.machine_count
    m_used = min(m, instance.job_count)
    den, scaled_sizes, sums = instance._scaled
    peak, total = max(scaled_sizes), sum(sums)
    lb = Fraction(max(peak * m, total), den * m)
    lo = max(peak, -(-total // m))  # ceil(LB*D)
    top = max(sums)
    if lo >= top:
        return Fraction(lo, den), m_used, lb
    shapes = Counter(
        tuple(sorted(map(scaled_sizes.__getitem__, jobs)))
        for jobs in instance._class_members
        if len(jobs) > 1
    )
    groups = [(sizes, sum(sizes), k) for sizes, k in shapes.items()]
    # the slots left once every one-job class has its one piece
    budget = instance.slot_budget * m_used - (len(sums) - sum(shapes.values()))

    def fits(threshold: int) -> bool:
        return (
            sum(
                k * _cu_sorted(sizes, total, threshold)[0]
                for sizes, total, k in groups
            )
            <= budget
        )

    # every class is one piece at the largest load, so both fit at top
    loads = [(load, 1, k) for _sizes, load, k in groups]
    lo = _first_fit(lo, top, lambda t: _piece_count(loads, t, 1) <= budget)
    if fits(lo):
        return Fraction(lo, den), m_used, lb
    step = 1  # the floor lo fails, and so does lo + step // 2
    while lo + step < top and not fits(lo + step):
        step *= 2
    found = _first_fit(lo + step // 2 + 1, min(lo + step, top), fits)
    return Fraction(found, den), m_used, lb


def approx_nonpreemptive(instance: Instance) -> NonPreemptiveSchedule:
    """7/3-approximation for the non-preemptive variant. At the searched
    threshold T, split each class into its C_u pieces by LPT (piece loads
    stay within (4/3)*T), then distribute the pieces round robin by load
    over min(m, n) machines. Makespan is at most LB + (4/3)*T."""
    return _deal_nonpreemptive(instance, nonpreemptive_threshold(instance)[0])[0]


def _deal_nonpreemptive(instance: Instance, threshold: Fraction) -> tuple:
    """(schedule, peak, D): the pieces and round robin of
    ``approx_nonpreemptive`` at T = ``nonpreemptive_threshold(instance)[0]``
    and its makespan peak/D, D the sizes' common denominator.

    T >= LB >= p_max, so a one-job class is one piece of its own size.
    The round robin is one stable sort of the piece indices by load,
    descending: machine i takes the sorted positions i, i + m_used, and so
    on, and the assignment is filled machine by machine. Machine 0 takes
    the largest piece of every layer and the most layers: the makespan."""
    m_used = min(instance.machine_count, instance.job_count)
    den, sizes, _sums = instance._scaled
    theta = threshold.numerator * (den // threshold.denominator)
    cuts: dict = {}  # class weights in id order -> [(load, positions), ...]
    loads = []  # per piece, class asc then bin asc
    members = []  # the piece's job ids, in the order its bin was filled
    for jobs in instance._class_members:
        if len(jobs) == 1:
            loads.append(sizes[jobs[0]])
            members.append(jobs)
            continue
        weights = tuple(map(sizes.__getitem__, jobs))
        cut = cuts.get(weights)
        if cut is None:  # classes of equal weights cut alike
            total = sum(weights)
            if total <= theta:
                # one piece (C_u = 1), filled in the order lpt fills one
                # bin: weight descending, position ascending on ties
                order = sorted(range(len(weights)), key=weights.__getitem__,
                               reverse=True)
                cut = cuts[weights] = [(total, order)]
            else:
                count = _cu_sorted(sorted(weights), total, theta)[0]
                bins = lpt(list(enumerate(weights)), count)
                cut = cuts[weights] = [
                    (sum(weights[k] for k in bins[b]), bins[b])
                    for b in range(count)
                ]
        for load, positions in cut:
            loads.append(load)
            members.append([jobs[k] for k in positions])
    # load descending, index ascending on ties: a reversed sort is stable
    order = sorted(range(len(loads)), key=loads.__getitem__, reverse=True)
    assignment = {}
    for machine in range(m_used):
        for k in order[machine::m_used]:
            for job_id in members[k]:
                assignment[job_id] = machine
    peak = sum(loads[k] for k in order[::m_used])
    return NonPreemptiveSchedule(assignment=assignment), peak, den
