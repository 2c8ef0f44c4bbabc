"""Constant-factor approximation algorithms for all three variants.

The common skeleton: guess a piece-size threshold T, cut every class whose
load exceeds T into ceil(load/T) sub-classes (all pieces of size exactly T
except possibly the last), and distribute the sub-classes round robin by
size. The threshold search differs per variant:

* splittable: smallest T among the class-load borders {P/k} and the load
  average at which the total piece count fits the slot budget c*m. Because
  the piece count is monotone in T, the best border is found per class by a
  binary search on k, so huge machine counts cost only O(C log m).
* preemptive: same borders restricted to k <= min(m, n) and values >= the
  preemptive lower bound; pieces are stacked in arrival order and, when any
  piece has size exactly T, the second layer of every machine is lifted to
  start at T so that consecutive pieces of one job never overlap in time.
* non-preemptive: jobs cannot be cut, so the per-class piece count comes
  from a size-classification (compute_cu_nonpreemptive) and T is found by
  binary search over integers (or a geometric search for fractional sizes).

Machine counts beyond the job count are profitable only when jobs may run
self-parallel, i.e. in the splittable variant. There the output switches to
the compact encoding: machines holding exactly one full-size piece are kept
as per-class counters and only the irregular machines are listed.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (
    CompactSchedule,
    EnumerationCapError,
    Instance,
    NONPREEMPTIVE,
    NonPreemptiveSchedule,
    PREEMPTIVE,
    PreemptiveSchedule,
    SPLITTABLE,
    SplittableSchedule,
    class_loads,
    lower_bound,
)
from .greedy import lpt, round_robin

# Plans larger than this keep only per-class summaries plus the partial
# piece; full pieces are reconstructed on demand from index arithmetic.
PLAN_PIECE_CAP = 100_000

# Hard ceiling on explicitly listed machines in a compact schedule. Only
# reachable when both m and the slot budget are in the millions.
COMPACT_EXPLICIT_CAP = 1_000_000


# ---------------------------------------------------------------------------
# sub-class plans


@dataclass(frozen=True)
class ClassSplit:
    """How one class is cut at a threshold T.

    count = ceil(total / T) sub-classes: full_count pieces of size exactly T
    followed by one piece of size partial_load (0 when total is a multiple
    of T; then count == full_count). partial_parts are the (job_id,
    fraction) shares making up the partial piece. pieces lists every
    sub-class as (load, parts) in cutting order, or None when the plan was
    built in summary-only mode.
    """

    class_id: int
    total: Fraction
    count: int
    full_count: int
    partial_load: Fraction
    partial_parts: tuple
    pieces: Optional[tuple]


@dataclass(frozen=True)
class SubClassPlan:
    """Cutting plan for a whole instance at one threshold."""

    threshold: Fraction
    classes: tuple

    @property
    def total_sub_classes(self) -> int:
        return sum(split.count for split in self.classes)


def split_class(jobs: Sequence, threshold: Fraction) -> list:
    """Cut a class (list of (job_id, size), in id order) at multiples of
    the threshold. Returns [(load, parts), ...] with parts = ((job_id,
    fraction), ...); every load equals the threshold except possibly the
    last."""
    threshold = Fraction(threshold)
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    pieces = []
    parts: list = []
    space = threshold
    filled = Fraction(0)
    for job_id, size in jobs:
        size = Fraction(size)
        remaining = size
        while remaining > 0:
            take = min(space, remaining)
            parts.append((job_id, take / size))
            remaining -= take
            space -= take
            filled += take
            if space == 0:
                pieces.append((filled, tuple(parts)))
                parts = []
                space = threshold
                filled = Fraction(0)
    if parts:
        pieces.append((filled, tuple(parts)))
    return pieces


def _class_job_lists(instance: Instance) -> list:
    """Per class (1..C): list of (job_id, size) in job id order."""
    by_class: list = [[] for _ in range(instance.class_count)]
    for job_id, (p, lab) in enumerate(
        zip(instance.processing_times, instance.class_labels)
    ):
        by_class[lab - 1].append((job_id, p))
    return by_class


def _tail_parts(jobs: Sequence, tail_load: Fraction) -> tuple:
    """(job_id, fraction) shares forming the last tail_load units of the
    class, walking jobs from the back."""
    parts = []
    need = tail_load
    for job_id, size in reversed(jobs):
        if need <= 0:
            break
        take = min(size, need)
        parts.append((job_id, take / size))
        need -= take
    return tuple(reversed(parts))


def _build_plan(instance: Instance, threshold: Fraction, materialize: bool) -> SubClassPlan:
    splits = []
    for u, jobs in enumerate(_class_job_lists(instance), start=1):
        total = sum((p for _j, p in jobs), Fraction(0))
        count = max(1, math.ceil(total / threshold))
        full = math.floor(total / threshold)
        partial = total - full * threshold
        if partial == 0 and full == 0:  # empty classes cannot occur
            raise AssertionError("class without load")
        pieces = tuple(split_class(jobs, threshold)) if materialize else None
        splits.append(
            ClassSplit(
                class_id=u,
                total=total,
                count=count,
                full_count=full,
                partial_load=partial,
                partial_parts=_tail_parts(jobs, partial) if partial else (),
                pieces=pieces,
            )
        )
    return SubClassPlan(threshold=threshold, classes=tuple(splits))


# ---------------------------------------------------------------------------
# threshold search


def _piece_count(loads: Sequence, threshold: Fraction) -> int:
    return sum(math.ceil(p / threshold) for p in loads)


def _smallest_guess(loads, machine_limit, slot_budget, floor, average):
    """Smallest threshold among class-load borders {P/k : k <= limit} (only
    values >= floor when a floor is given) and the average candidate whose
    piece count fits the slot budget. The piece count grows as the
    threshold shrinks, so per class the largest admissible k is found by
    binary search."""
    best = None
    for load in set(loads):
        hi = machine_limit
        if floor is not None:
            hi = min(hi, load // floor)  # borders below the floor are out
        if hi < 1 or _piece_count(loads, load) > slot_budget:
            continue
        lo = 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _piece_count(loads, load / mid) <= slot_budget:
                lo = mid
            else:
                hi = mid - 1
        candidate = load / lo
        if best is None or candidate < best:
            best = candidate
    if _piece_count(loads, average) <= slot_budget and (best is None or average < best):
        best = average
    return best


def border_search_splittable(instance: Instance):
    """(T*, plan): the smallest threshold from the border set at which the
    classes cut into at most c*m sub-classes, plus the cutting plan. T*
    never exceeds the splittable optimum: any schedule with makespan T uses
    at least ceil(P/T) slots for a class of load P, and only c*m slots
    exist."""
    lb, _ub = lower_bound(instance, SPLITTABLE)
    m = instance.machine_count
    loads = [cl.total for cl in class_loads(instance)]
    t_star = _smallest_guess(
        loads, m, instance.slot_budget * m, floor=None, average=lb
    )
    if t_star is None:  # k=1 on the largest class always fits: count C <= c*m
        raise AssertionError("no feasible threshold")
    materialize = (
        m <= instance.job_count or _piece_count(loads, t_star) <= PLAN_PIECE_CAP
    )
    return t_star, _build_plan(instance, t_star, materialize)


# ---------------------------------------------------------------------------
# splittable construction


def _explicit_splittable(plan: SubClassPlan, machine_count: int) -> SplittableSchedule:
    pieces_by_index = []
    for split in plan.classes:
        assert split.pieces is not None
        pieces_by_index.extend(split.pieces)
    loads = [load for load, _parts in pieces_by_index]
    layout = round_robin(list(enumerate(loads)), machine_count)
    out = []
    for machine, indices in layout.items():
        for k in indices:
            for job_id, frac in pieces_by_index[k][1]:
                out.append((job_id, frac, machine))
    return SplittableSchedule(pieces=tuple(out))


def _full_piece_parts(jobs, prefix, piece_idx, threshold) -> tuple:
    """Shares of the piece covering [piece_idx*T, (piece_idx+1)*T) of a
    class's concatenated job loads. prefix[i] = load before job i."""
    lo = piece_idx * threshold
    hi = lo + threshold
    # first job ending strictly after lo
    a, b = 0, len(jobs) - 1
    while a < b:
        mid = (a + b) // 2
        if prefix[mid] + jobs[mid][1] > lo:
            b = mid
        else:
            a = mid + 1
    parts = []
    pos = lo
    idx = a
    while pos < hi:
        job_id, size = jobs[idx]
        end = prefix[idx] + size
        take = min(hi, end) - pos
        parts.append((job_id, take / size))
        pos += take
        if pos == end:
            idx += 1
    return tuple(parts)


def _compact_splittable(
    instance: Instance, plan: SubClassPlan, job_lists
) -> CompactSchedule:
    """Round-robin layout over the true machine count, stored compressed.

    Virtual order: all full pieces (class asc, piece asc; they share size
    T*) followed by the partial pieces sorted by size descending. Piece j
    goes to machine j mod m. Machines carrying a single full piece are
    folded into per-class counters; the rest are listed explicitly.
    """
    m = instance.machine_count
    t_star = plan.threshold
    full_total = sum(split.full_count for split in plan.classes)
    # global index ranges of each class's full pieces
    full_range = {}
    cursor = 0
    for split in plan.classes:
        full_range[split.class_id] = (cursor, cursor + split.full_count)
        cursor += split.full_count
    partials = sorted(
        (s for s in plan.classes if s.partial_load),
        key=lambda s: (-s.partial_load, s.class_id),
    )
    g = full_total + len(partials)
    assert g == plan.total_sub_classes

    prefixes: dict = {}

    def class_prefix(class_id):
        if class_id not in prefixes:
            acc = [Fraction(0)]
            for _jid, size in job_lists[class_id - 1]:
                acc.append(acc[-1] + size)
            prefixes[class_id] = acc
        return prefixes[class_id]

    range_starts = [full_range[s.class_id][0] for s in plan.classes]

    def piece(j):
        """(load, parts) of virtual piece j."""
        if j < full_total:
            pos = bisect.bisect_right(range_starts, j) - 1
            split = plan.classes[pos]
            lo, _hi = full_range[split.class_id]
            jobs = job_lists[split.class_id - 1]
            return t_star, _full_piece_parts(
                jobs, class_prefix(split.class_id), j - lo, t_star
            )
        split = partials[j - full_total]
        return split.partial_load, split.partial_parts

    explicit_pieces = []
    trivial: dict = {}
    next_machine = 0

    def emit(piece_indices):
        nonlocal next_machine
        for j in piece_indices:
            _load, parts = piece(j)
            for job_id, frac in parts:
                explicit_pieces.append((job_id, frac, next_machine))
        next_machine += 1

    if g <= m:
        # one piece per machine: fulls are all trivial, partials explicit
        for split in plan.classes:
            if split.full_count:
                trivial[split.class_id] = split.full_count
        for rank in range(len(partials)):
            emit([full_total + rank])
    else:
        overflow = g - m
        if overflow > COMPACT_EXPLICIT_CAP:
            raise EnumerationCapError(
                f"compact splittable layout needs {overflow} explicitly "
                f"listed machines, cap is {COMPACT_EXPLICIT_CAP}"
            )
        multi = min(m, overflow)  # machines 0..multi-1 hold >= 2 pieces
        for i in range(multi):
            emit(range(i, g, m))
        # single-piece machines are i in [g-m, m) carrying piece i
        single_lo = g - m
        # fulls among them become counters
        for split in plan.classes:
            lo, hi = full_range[split.class_id]
            kept = min(hi, m) - max(lo, single_lo)
            if kept > 0:
                trivial[split.class_id] = kept
        # partial singles stay explicit
        for j in range(max(single_lo, full_total), min(g, m)):
            emit([j])

    return CompactSchedule(
        explicit_machines=SplittableSchedule(pieces=tuple(explicit_pieces)),
        trivial_machine_counts=trivial,
        piece_size=t_star,
    )


def approx_splittable(instance: Instance):
    """2-approximation for the splittable variant: cut at the border-search
    threshold T*, distribute sub-classes round robin. Makespan is at most
    total/m + T*, and T* is a lower bound on the optimum, so the ratio is
    at most 2. Returns a SplittableSchedule, or a CompactSchedule when
    m exceeds the job count."""
    t_star, plan = border_search_splittable(instance)
    if instance.machine_count <= instance.job_count:
        return _explicit_splittable(plan, instance.machine_count)
    return _compact_splittable(instance, plan, _class_job_lists(instance))


# ---------------------------------------------------------------------------
# preemptive


def repack_stacks(stacks: Sequence, threshold) -> list:
    """Start times for stacked pieces. Plain stacking (each piece starts
    where the previous ended) unless some piece's load equals the
    threshold: then, on every machine, the second piece is lifted to start
    at the threshold, leaving a gap above a smaller bottom piece."""
    threshold = Fraction(threshold)
    shift = any(Fraction(load) == threshold for stack in stacks for load in stack)
    starts = []
    for stack in stacks:
        row = []
        cursor = Fraction(0)
        for idx, load in enumerate(stack):
            if idx == 1 and shift:
                cursor = max(cursor, threshold)
            row.append(cursor)
            cursor += Fraction(load)
        starts.append(row)
    return starts


def _preemptive_guess(instance: Instance):
    """(T*, m_used, LB) for the preemptive variant. Machines beyond the job
    count are useless without self-parallelism, so m is clamped to
    min(m, n); candidate thresholds are the class-load borders at or above
    LB = max(p_max, total/m_used), plus LB itself."""
    lower_bound(instance, PREEMPTIVE)
    m_used = min(instance.machine_count, instance.job_count)
    lb = max(instance.max_processing_time, instance.total_load / m_used)
    loads = [cl.total for cl in class_loads(instance)]
    t_star = _smallest_guess(
        loads, m_used, instance.slot_budget * m_used, floor=lb, average=lb
    )
    # always solvable: every class load <= c * m_used slots suffice at LB
    # or at the smallest admissible border
    assert t_star is not None
    return t_star, m_used, lb


def approx_preemptive(instance: Instance) -> PreemptiveSchedule:
    """2-approximation for the preemptive variant. Cut at T*, round robin
    over min(m, n) machines, stack pieces in distribution order, lift the
    second layer to T* when full-size pieces exist. Consecutive pieces of a
    split class land on adjacent machines whose layers are synchronized, so
    the two halves of a straddling job never overlap in time."""
    t_star, m_used, _lb = _preemptive_guess(instance)
    plan = _build_plan(instance, t_star, materialize=True)
    pieces_by_index = []
    for split in plan.classes:
        assert split.pieces is not None
        pieces_by_index.extend(split.pieces)
    loads = [load for load, _parts in pieces_by_index]
    layout = round_robin(list(enumerate(loads)), m_used)
    stacks = [[loads[k] for k in layout[i]] for i in range(m_used)]
    starts = repack_stacks(stacks, t_star)
    out = []
    for machine in range(m_used):
        for slot, k in enumerate(layout[machine]):
            offset = starts[machine][slot]
            for job_id, frac in pieces_by_index[k][1]:
                duration = frac * instance.processing_times[job_id]
                out.append((job_id, frac, machine, offset))
                offset += duration
    return PreemptiveSchedule(pieces=tuple(out))


# ---------------------------------------------------------------------------
# non-preemptive


def compute_cu_nonpreemptive(class_jobs: Sequence, threshold) -> tuple:
    """(C_u, heavy, loose) piece-count data for one class at threshold T.

    heavy = jobs larger than T/2 (each needs its own piece). Jobs in
    (T/3, T/2] are paired greedily, largest first, onto the heavy piece
    with the least remaining capacity that still fits; loose = how many of
    them stay unpaired. C_u = max(ceil(load/T), heavy + ceil(loose/2)):
    unpaired mediums fit two per piece, and no piece can hold more than
    two jobs above T/3 next to a heavy one.
    """
    threshold = Fraction(threshold)
    sizes = [Fraction(p) for p in class_jobs]
    heavy = [(i, p) for i, p in enumerate(sizes) if p > threshold / 2]
    medium = [
        (i, p)
        for i, p in enumerate(sizes)
        if threshold / 3 < p <= threshold / 2
    ]
    medium.sort(key=lambda ip: (-ip[1], ip[0]))
    # remaining capacity of each heavy piece, pair at most one medium onto it
    free = {i: threshold - p for i, p in heavy}
    loose = 0
    for _i, p in medium:
        hosts = [(cap, hid) for hid, cap in free.items() if cap >= p]
        if hosts:
            _cap, hid = min(hosts)
            del free[hid]
        else:
            loose += 1
    by_pairing = len(heavy) + (loose + 1) // 2
    total = sum(sizes, Fraction(0))
    by_volume = math.ceil(total / threshold) if total > 0 else 0
    return max(by_volume, by_pairing), len(heavy), loose


def nonpreemptive_threshold(instance: Instance):
    """(T_final, m_used, LB): smallest threshold found by binary search at
    which the per-class piece counts fit the slot budget. Integer sizes
    admit an exact integer search on [ceil(LB), n*p_max]; fractional sizes
    use a geometric search to relative precision 2^-20 and return the last
    verified-feasible guess."""
    lower_bound(instance, NONPREEMPTIVE)
    m_used = min(instance.machine_count, instance.job_count)
    lb = max(instance.max_processing_time, instance.total_load / m_used)
    budget = instance.slot_budget * m_used
    job_lists = _class_job_lists(instance)
    size_lists = [[p for _j, p in jobs] for jobs in job_lists]

    def fits(threshold) -> bool:
        return (
            sum(
                compute_cu_nonpreemptive(sizes, threshold)[0]
                for sizes in size_lists
            )
            <= budget
        )

    hi_end = instance.job_count * instance.max_processing_time  # always fits
    if all(p.denominator == 1 for p in instance.processing_times):
        lo, hi = math.ceil(lb), int(hi_end)
        while lo < hi:
            mid = (lo + hi) // 2
            if fits(mid):
                hi = mid
            else:
                lo = mid + 1
        return Fraction(lo), m_used, lb

    lo, hi = lb, hi_end
    if fits(lo):
        return lo, m_used, lb
    while hi - lo > lo * Fraction(1, 2**20):
        try:
            mid = Fraction(math.sqrt(float(lo) * float(hi)))
        except (OverflowError, ValueError):
            mid = (lo + hi) / 2
        if not lo < mid < hi:
            mid = (lo + hi) / 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    assert fits(hi)
    return hi, m_used, lb


def approx_nonpreemptive(instance: Instance) -> NonPreemptiveSchedule:
    """7/3-approximation for the non-preemptive variant. At the searched
    threshold T, split each class into its C_u pieces by LPT (piece loads
    stay within (4/3)*T), then distribute the pieces round robin by load.
    Makespan is at most LB + (4/3)*T."""
    threshold, m_used, _lb = nonpreemptive_threshold(instance)
    job_lists = _class_job_lists(instance)
    groups = []  # (load, job_ids) per piece, class asc then bin asc
    for jobs in job_lists:
        count = compute_cu_nonpreemptive([p for _j, p in jobs], threshold)[0]
        bins = lpt(list(enumerate(p for _j, p in jobs)), count)
        for b in range(count):
            members = [jobs[k][0] for k in bins[b]]
            load = sum((jobs[k][1] for k in bins[b]), Fraction(0))
            groups.append((load, members))
    layout = round_robin(list(enumerate(load for load, _ in groups)), m_used)
    assignment = {}
    for machine, indices in layout.items():
        for k in indices:
            for job_id in groups[k][1]:
                assignment[job_id] = machine
    return NonPreemptiveSchedule(assignment=assignment)
