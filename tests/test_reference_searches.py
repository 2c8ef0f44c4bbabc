"""The approximation path's threshold searches, layouts and schedule
checks against plain reference versions: Fraction piece counts, the
O(k^2) best-fit pairing, a min-scan LPT, the job-level round robin, and
the Fraction cutters, stackers, validators, makespans and machine loads.
The library runs integer, heap and counted-pattern versions of the same
rules; these tests hold them to identical results, violation messages
included.

The non-preemptive scheme's program is held to the program over the full
box of modules: every multiplicity vector under the bound, whether or not
a class can fill it. The library enumerates only fillable modules; the
two programs must be feasible at the same guesses."""

import bisect
import math
import pickle
import re
from fractions import Fraction
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ccs.approx
import ccs.ptas.builder
from ccs.cli import GENERATOR_FAMILIES, generate
from conftest import (
    dense,
    instances,
    nonpreemptive_probe,
    nonpreemptive_probes,
    solve_exhaustive,
    sparse,
)
from ccs import (
    SPLITTABLE,
    VARIANTS,
    CompactSchedule,
    Instance,
    InvalidScheduleError,
    StructuralInfeasibleError,
    NonPreemptiveSchedule,
    PreemptiveSchedule,
    SplittableSchedule,
    approx_nonpreemptive,
    approx_preemptive,
    approx_splittable,
    expand_compact,
    lpt,
    lower_bound,
    machine_loads,
    makespan,
    round_robin,
    validate,
)
from ccs.core import _Layout, _slot_violations, makespan_and_violations
from ccs.nfold import solve_feasible
from ccs.ptas import ModuleSet, build_program, driver
from ccs.ptas.sets import _fillable_modules, nonpreemptive_sets
from ccs.approx import (
    _cu_sorted,
    _common_scale,
    _cut,
    _piece_count,
    _preemptive_guess,
    _smallest_guess,
    border_search_splittable,
    nonpreemptive_threshold,
)


# ---------------------------------------------------------------------------
# reference versions


def reference_piece_count(loads, threshold):
    return sum(math.ceil(p / threshold) for p in loads)


def reference_smallest_guess(loads, machine_limit, slot_budget, floor, average):
    best = None
    for load in set(loads):
        hi = machine_limit
        if floor is not None:
            hi = min(hi, load // floor)
        if hi < 1 or reference_piece_count(loads, load) > slot_budget:
            continue
        lo = 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if reference_piece_count(loads, load / mid) <= slot_budget:
                lo = mid
            else:
                hi = mid - 1
        candidate = load / lo
        if best is None or candidate < best:
            best = candidate
    if reference_piece_count(loads, average) <= slot_budget and (
        best is None or average < best
    ):
        best = average
    return best


def reference_cu(class_jobs, threshold):
    threshold = Fraction(threshold)
    sizes = [Fraction(p) for p in class_jobs]
    heavy = [(i, p) for i, p in enumerate(sizes) if p > threshold / 2]
    medium = [(i, p) for i, p in enumerate(sizes) if threshold / 3 < p <= threshold / 2]
    medium.sort(key=lambda ip: (-ip[1], ip[0]))
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


def reference_nonpreemptive_threshold(instance):
    m_used = min(instance.machine_count, instance.job_count)
    lb = max(instance.max_processing_time, instance.total_load / m_used)
    budget = instance.slot_budget * m_used
    size_lists = [[] for _ in range(instance.class_count)]
    for p, u in zip(instance.processing_times, instance.class_labels):
        size_lists[u - 1].append(p)

    def fits(threshold):
        return sum(reference_cu(sizes, threshold)[0] for sizes in size_lists) <= budget

    hi_end = instance.job_count * instance.max_processing_time
    if all(p.denominator == 1 for p in instance.processing_times):
        lo, hi = math.ceil(lb), int(hi_end)
        while lo < hi:
            mid = (lo + hi) // 2
            if fits(mid):
                hi = mid
            else:
                lo = mid + 1
        return Fraction(lo), m_used, lb
    # the optimum is a multiple of 1/D over the sizes' common denominator
    den = math.lcm(*(p.denominator for p in instance.processing_times))
    lo, hi = math.ceil(lb * den), int(hi_end * den)
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(Fraction(mid, den)):
            hi = mid
        else:
            lo = mid + 1
    return Fraction(lo, den), m_used, lb


def reference_lpt(weights, bin_count):
    bins = {i: [] for i in range(bin_count)}
    totals = [Fraction(0)] * bin_count
    for item_id, weight in sorted(weights, key=lambda pair: (-Fraction(pair[1]), pair[0])):
        target = min(range(bin_count), key=lambda i: (totals[i], i))
        bins[target].append(item_id)
        totals[target] += Fraction(weight)
    return bins


def reference_class_job_lists(instance):
    by_class = [[] for _ in range(instance.class_count)]
    for job_id, (p, lab) in enumerate(
        zip(instance.processing_times, instance.class_labels)
    ):
        by_class[lab - 1].append((job_id, p))
    return by_class


def reference_split_class(jobs, threshold):
    threshold = Fraction(threshold)
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    pieces = []
    parts = []
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


def reference_repack_stacks(stacks, threshold):
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


def reference_approx_splittable(instance):
    """The counted-pattern round robin with Fraction loads and a
    Fraction-keyed partial sort."""
    t_star = border_search_splittable(instance)
    m = instance.machine_count
    runs = []
    partials = []
    dealt = 0
    for u, total in enumerate(instance.class_totals, start=1):
        full, rest = divmod(total, t_star)
        if full:
            runs.append((dealt, u, t_star))
            dealt += full
        if rest:
            partials.append((u, rest))
    for u, rest in sorted(partials, key=lambda pair: pair[1], reverse=True):
        runs.append((dealt, u, rest))
        dealt += 1
    starts = [first for first, _u, _load in runs]
    cuts = sorted({0, m} | {b % m for b in starts + [dealt]})
    counts = {}
    for lo, hi in zip(cuts, cuts[1:]):
        loads = {}
        for k in range(lo, dealt, m):
            _first, u, load = runs[bisect.bisect_right(starts, k) - 1]
            loads[u] = loads.get(u, 0) + load
        if loads:
            pattern = tuple(sorted(loads.items()))
            counts[pattern] = counts.get(pattern, 0) + hi - lo
    return CompactSchedule(patterns=tuple(counts.items()))


def reference_approx_preemptive(instance):
    t_star, m_used, _lb = _preemptive_guess(instance)
    pieces = [
        piece
        for jobs in reference_class_job_lists(instance)
        for piece in reference_split_class(jobs, t_star)
    ]
    layout = round_robin(
        list(enumerate(load for load, _parts in pieces)), m_used
    )
    loads = [load for load, _parts in pieces]
    stacks = [[loads[k] for k in layout[i]] for i in range(m_used)]
    starts = reference_repack_stacks(stacks, t_star)
    out = []
    for machine in range(m_used):
        for slot, k in enumerate(layout[machine]):
            offset = starts[machine][slot]
            for job_id, frac in pieces[k][1]:
                duration = frac * instance.processing_times[job_id]
                out.append((job_id, frac, machine, offset))
                offset += duration
    return PreemptiveSchedule(pieces=tuple(out))


def reference_nonpreemptive_layout(instance):
    """C_u pieces per class by the best-fit reference, filled by the
    min-scan LPT in Fraction totals, dealt round robin by Fraction load:
    the job -> machine assignment."""
    threshold, m_used, _lb = reference_nonpreemptive_threshold(instance)
    groups = []
    for jobs in reference_class_job_lists(instance):
        count = reference_cu([p for _j, p in jobs], threshold)[0]
        bins = reference_lpt(list(enumerate(p for _j, p in jobs)), count)
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
    return assignment


def is_id(value, lo, hi):
    """Whether the value is an id in lo..hi-1: a plain int, which neither
    True, 1.0 nor Fraction(1) is, though each equals 1."""
    return type(value) is int and lo <= value < hi


def reference_machine_loads(schedule, instance):
    """Per machine, in order of first appearance, the sum of fraction *
    size over its pieces (its jobs' sizes, for an assignment); None when
    a job or machine id does not exist."""
    if isinstance(schedule, NonPreemptiveSchedule):
        rows = [(j, Fraction(1), i) for j, i in schedule.assignment.items()]
    else:
        rows = [piece[:3] for piece in schedule.pieces]
    loads = {}
    for j, lam, i in rows:
        if not is_id(j, 0, instance.job_count) or not is_id(
            i, 0, instance.machine_count
        ):
            return None
        loads[i] = loads.get(i, Fraction(0)) + lam * instance.processing_times[j]
    return loads


def reference_makespan_preemptive(schedule, instance):
    ends = [
        start + lam * instance.processing_times[j]
        for (j, lam, _i, start) in schedule.pieces
    ]
    return max(ends, default=Fraction(0))


def reference_makespan_compact(schedule):
    return max(
        (sum((load for _u, load in pattern), Fraction(0))
         for pattern, _count in schedule.patterns),
        default=Fraction(0),
    )


def reference_validate_preemptive(schedule, instance):
    violations = []
    fraction_sums = [Fraction(0)] * instance.job_count
    machine_classes = {}
    by_machine = {}
    by_job = {}
    for j, lam, i, start in schedule.pieces:
        if not 0 <= j < instance.job_count:
            violations.append(f"unknown job id {j}")
            continue
        if not 0 <= i < instance.machine_count:
            violations.append(f"unknown machine id {i}")
            continue
        if not 0 < lam <= 1:
            violations.append(f"fraction {lam} of job {j} outside (0, 1]")
        if start < 0:
            violations.append(f"piece of job {j} starts at {start} < 0")
        end = start + lam * instance.processing_times[j]
        fraction_sums[j] += lam
        machine_classes.setdefault(i, set()).add(instance.class_labels[j])
        by_machine.setdefault(i, []).append((start, end, j))
        by_job.setdefault(j, []).append((start, end, i))
    for j, total in enumerate(fraction_sums):
        if total != 1:
            violations.append(f"fractions of job {j} sum to {total}, not 1")
    for i in sorted(by_machine):
        ordered = sorted(by_machine[i])
        for (s1, e1, j1), (s2, e2, j2) in zip(ordered, ordered[1:]):
            if s2 < e1:
                violations.append(
                    f"machine {i} runs jobs {j1} and {j2} at once: "
                    f"[{s1}, {e1}) overlaps [{s2}, {e2})"
                )
    for j in sorted(by_job):
        ordered = sorted(by_job[j])
        for (s1, e1, i1), (s2, e2, i2) in zip(ordered, ordered[1:]):
            if s2 < e1:
                violations.append(
                    f"parallel execution of job {j}: [{s1}, {e1}) on machine {i1} "
                    f"overlaps [{s2}, {e2}) on machine {i2}"
                )
    violations.extend(_slot_violations(machine_classes, instance.slot_budget))
    return violations


def reference_validate_compact(schedule, instance):
    violations = []
    carried = [Fraction(0)] * instance.class_count
    machines = 0
    for pattern, count in schedule.patterns:
        known = [is_id(u, 1, instance.class_count + 1) for u, _load in pattern]
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            violations.append(f"pattern count {count!r} is not a positive integer")
            violations.extend(
                f"unknown class id {u!r}"
                for (u, _load), fits in zip(pattern, known)
                if not fits
            )
            continue
        machines += count
        classes = [u for u, _load in pattern]
        ids = [u for u in classes if type(u) is int]
        if len(set(ids)) != len(ids):
            violations.append(f"pattern {classes} lists a class twice")
        if len(classes) > instance.slot_budget:
            violations.append(
                f"slot budget exceeded on {count} machines: "
                f"{len(classes)} classes > c={instance.slot_budget}"
            )
        for (u, load), fits in zip(pattern, known):
            if not fits:
                violations.append(f"unknown class id {u!r}")
            elif load <= 0:
                violations.append(f"class {u} has non-positive load {load}")
            else:
                carried[u - 1] += count * load
    if machines > instance.machine_count:
        violations.append(
            f"machine budget exceeded: {machines} machines > "
            f"m={instance.machine_count}"
        )
    for u, total in enumerate(instance.class_totals, start=1):
        if carried[u - 1] != total:
            violations.append(
                f"class {u} carries {carried[u - 1]}, expected {total}"
            )
    return violations


def reference_splittable_layout(instance, threshold):
    """Every class cut into job pieces at the threshold by split_class,
    dealt round robin over all m machines: (job_id, fraction, machine)
    triples."""
    pieces = [
        piece
        for jobs in reference_class_job_lists(instance)
        for piece in reference_split_class(jobs, threshold)
    ]
    layout = round_robin(
        list(enumerate(load for load, _parts in pieces)), instance.machine_count
    )
    return [
        (job_id, frac, machine)
        for machine, indices in layout.items()
        for k in indices
        for job_id, frac in pieces[k][1]
    ]


def class_profile(pieces, instance):
    """Sorted per-machine class loads, ((class_id, load), ...) per machine
    that carries any."""
    per_machine = {}
    for j, lam, i in pieces:
        loads = per_machine.setdefault(i, {})
        u = instance.class_labels[j]
        loads[u] = loads.get(u, 0) + lam * instance.processing_times[j]
    return sorted(tuple(sorted(loads.items())) for loads in per_machine.values())


# ---------------------------------------------------------------------------
# strategies

# integral and fractional values; small numerators make equal values common
values = st.one_of(
    st.integers(1, 40).map(Fraction),
    st.builds(Fraction, st.integers(1, 60), st.integers(1, 7)),
)


@st.composite
def mixed_instances(draw):
    """Up to 12 jobs of integral or fractional sizes, often in one-job
    classes, on machine counts below and above the job count, with
    enough class slots (C <= m*c)."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
    else:
        sizes = draw(st.lists(values, min_size=n, max_size=n))
    if draw(st.booleans()):
        labels = list(range(n))  # every class a one-job class
    else:
        labels = draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    c = draw(st.integers(1, 4))
    fewest = -(-len(set(labels)) // c)
    m = draw(st.integers(fewest, fewest + 15))
    return Instance(tuple(sizes), tuple(labels), m, c)


@st.composite
def generated_instances(draw):
    """About 60 jobs drawn by ``generate``, of every family, with enough
    class slots: schedules of many pieces and patterns, on which the
    schedule checks take their bulk paths unless a mutation stops them."""
    family = draw(st.sampled_from(GENERATOR_FAMILIES))
    n = draw(st.integers(50, 70))
    c = draw(st.integers(1, 3))
    fewest = -(-n // c) if family == "many-singletons" else 1
    m = draw(st.integers(fewest, fewest + 12))
    pmax = draw(st.sampled_from((1, 10, 100)))
    return generate(draw(st.integers(0, 10**6)), family, n, m, c, (1, pmax))


# the schedule checks' inputs: small instances of every shape, and larger
# generated ones
check_instances = st.one_of(mixed_instances(), generated_instances())


# ---------------------------------------------------------------------------
# splittable and preemptive border search


@given(loads=st.lists(values, min_size=1, max_size=10), threshold=values)
@settings(max_examples=300, deadline=None)
def test_piece_count_matches_fraction_count(loads, threshold):
    """Thresholds range below, between and above the loads."""
    groups = {}
    for p in loads:
        groups[p] = groups.get(p, 0) + 1
    grouped = [(p.numerator, p.denominator, k) for p, k in groups.items()]
    count = _piece_count(grouped, threshold.numerator, threshold.denominator)
    assert count == reference_piece_count(loads, threshold)


def on_one_denominator(loads):
    """(sums, D): the loads as ints over their least common denominator."""
    den = math.lcm(*(p.denominator for p in loads))
    return [p.numerator * (den // p.denominator) for p in loads], den


def over_den(value, den):
    """A value as ``_smallest_guess`` takes it: the int pair (a, b), the
    value a/b over den."""
    return value.numerator * den, value.denominator


def reference_on_scaled(sums, den, machine_limit, budget, average, floored):
    """``reference_smallest_guess`` called as ``_smallest_guess`` is."""
    average = Fraction(average[0], average[1] * den)
    return reference_smallest_guess(
        [Fraction(x, den) for x in sums],
        machine_limit,
        budget,
        average if floored else None,
        average,
    )


@given(
    loads=st.lists(values, min_size=1, max_size=60),
    machine_limit=st.one_of(st.integers(1, 200), st.integers(1, 10**9)),
    budget_share=st.one_of(st.just(0), st.integers(0, 12)),
    average=st.one_of(values, st.integers(4, 12)),
    floored=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_smallest_guess_matches_reference(
    loads, machine_limit, budget_share, average, floored
):
    """The two shapes the searches pass: an average with no floor (the
    splittable search) and an average that is also the floor (the
    preemptive one). Up to 60 classes and 10^9 machines, budgets from one
    slot per class (B = C) up, and averages drawn freely or at k/8 of T0,
    the smallest border that fits (an int k in 4..12 is drawn), so below,
    at and above it."""
    budget = len(loads) + budget_share * machine_limit // 4
    if isinstance(average, int):
        t0 = reference_smallest_guess(loads, budget, budget, None, max(loads))
        average = t0 * Fraction(average, 8)
    sums, den = on_one_denominator(loads)
    found = _smallest_guess(
        sums, den, machine_limit, budget, over_den(average, den), floored
    )
    assert found == reference_smallest_guess(
        loads, machine_limit, budget, average if floored else None, average
    )


@given(instance=mixed_instances())
# C = c*m: one piece per class, the splittable search's shortcut
@example(instance=Instance((3, 5, 2), (1, 2, 3), 3, 1))
# the preemptive LB, 14/3, fits and beats every admissible border (6 and 8)
@example(instance=Instance((3, 3, 4, 4), (1, 1, 2, 2), 3, 2))
@settings(max_examples=300, deadline=None)
def test_border_searches_match_reference(instance):
    split = border_search_splittable(instance)
    preempt = _preemptive_guess(instance)
    with mock.patch.object(ccs.approx, "_smallest_guess", reference_on_scaled):
        assert border_search_splittable(instance) == split
        assert _preemptive_guess(instance) == preempt


@given(instance=mixed_instances())
@settings(max_examples=300, deadline=None)
def test_patterns_match_the_explicit_round_robin(instance):
    """Machine counts below, at and above the job count."""
    t_star = border_search_splittable(instance)
    schedule = approx_splittable(instance)
    reference = reference_splittable_layout(instance, t_star)
    compact = expand_compact(schedule, instance).pieces
    assert class_profile(compact, instance) == class_profile(reference, instance)


# ---------------------------------------------------------------------------
# non-preemptive search


@given(sizes=st.lists(values, min_size=0, max_size=10), threshold=values)
@settings(max_examples=500, deadline=None)
def test_cu_matches_best_fit_reference(sizes, threshold):
    """Thresholds below the largest size make every job heavy or medium;
    one-job lists are drawn too."""
    (theta, *ints), _den = on_one_denominator([threshold] + sizes)
    ints.sort()
    assert _cu_sorted(ints, sum(ints), theta) == reference_cu(sizes, threshold)


@given(
    heavy=st.lists(st.integers(7, 12), max_size=6),
    medium=st.lists(st.integers(5, 6), max_size=6),
    small=st.lists(st.integers(1, 4), max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_cu_pairing_matches_best_fit_reference(heavy, medium, small):
    """At T = 12 every heavy job (> 6) leaves a slack of 0 to 5 and every
    medium (5 or 6) competes for the few that hold it."""
    sizes = heavy + medium + small
    ordered = sorted(sizes)
    assert _cu_sorted(ordered, sum(ordered), 12) == reference_cu(sizes, 12)


@given(instance=mixed_instances())
# one-job classes only: the load bound covers every class load
@example(instance=Instance((3, 5, 2), (1, 2, 3), 2, 2))
# the ceil-load floor, 8, fits below the largest class load, 9
@example(instance=Instance((4, 4, 3, 3, 1), (1, 1, 2, 2, 1), 2, 2))
# the gallop: the floor 6 and 13/2 do not fit, 7 does
@example(instance=Instance((Fraction(5, 2), Fraction(9, 2), 5), (1, 1, 1), 2, 2))
@settings(max_examples=300, deadline=None)
def test_nonpreemptive_threshold_matches_reference(instance):
    assert nonpreemptive_threshold(instance) == reference_nonpreemptive_threshold(
        instance
    )


def test_searches_refuse_as_lower_bound_does():
    """Three classes, one machine, two slots: every threshold search
    raises lower_bound's StructuralInfeasibleError, message and all."""
    instance = Instance((1, 2, 3), (1, 2, 3), 1, 2)
    with pytest.raises(StructuralInfeasibleError) as expected:
        lower_bound(instance, SPLITTABLE)
    message = re.escape(str(expected.value))
    for search in (border_search_splittable, _preemptive_guess,
                   nonpreemptive_threshold):
        with pytest.raises(StructuralInfeasibleError, match=f"^{message}$"):
            search(instance)


def scaled_class(sizes, top):
    """The sizes as ints over their least common denominator D, sorted,
    with their sum, and the scaled thresholds from p_max*D to ``top``*D."""
    ints, den = on_one_denominator(sizes)
    ints.sort()
    return ints, sum(ints), range(ints[-1], top * den + 1)


@given(sizes=st.lists(st.integers(1, 30), min_size=1, max_size=10))
@settings(max_examples=300, deadline=None)
def test_cu_never_grows_with_the_threshold(sizes):
    """The threshold search's gallop and bisections rest on this: C_u,
    the pieces a class cuts into, is non-increasing in T from p_max up,
    here checked at every integer up to the class load, where C_u is 1."""
    ints, total, thresholds = scaled_class(sizes, sum(sizes))
    counts = [_cu_sorted(ints, total, t)[0] for t in thresholds]
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] == 1


@given(
    sizes=st.lists(values, min_size=1, max_size=10),
    picks=st.lists(st.integers(0, 10**6), min_size=2, max_size=2),
)
@settings(max_examples=300, deadline=None)
def test_cu_never_grows_with_a_fractional_threshold(sizes, picks):
    """The same on fractional sizes scaled to their common denominator,
    at two thresholds drawn between p_max and the class load."""
    ints, total, thresholds = scaled_class(sizes, math.ceil(sum(sizes)))
    low, high = sorted(thresholds[k % len(thresholds)] for k in picks)
    assert _cu_sorted(ints, total, high)[0] <= _cu_sorted(ints, total, low)[0]


@given(instance=mixed_instances())
@settings(max_examples=300, deadline=None)
def test_ceil_load_floor_never_exceeds_the_threshold(instance):
    """The search's floor, the smallest multiple of 1/D at or above the
    load bound at which the class loads' ceilings sum(ceil(P_u/T)) fit
    the slot budget, is at most T_np, as C_u >= ceil(P_u/T). The sum only
    falls as T rises, so that holds iff T_np >= LB and the ceilings fit
    at T_np."""
    threshold, m_used, lb = nonpreemptive_threshold(instance)
    budget = instance.slot_budget * m_used
    assert threshold >= lb
    assert reference_piece_count(instance.class_totals, threshold) <= budget


@given(instance=mixed_instances())
@settings(max_examples=300, deadline=None)
def test_nonpreemptive_threshold_covers_the_largest_job(instance):
    """T >= p_max, on integral and fractional sizes: the non-preemptive
    layout deals a one-job class as one piece of its own size on this."""
    threshold, _m_used, _lb = nonpreemptive_threshold(instance)
    assert threshold >= instance.max_processing_time


# ---------------------------------------------------------------------------
# LPT


@given(
    weights=st.lists(st.one_of(st.integers(1, 4), values), max_size=25),
    bins=st.integers(1, 8),
)
@settings(max_examples=400, deadline=None)
def test_lpt_matches_min_scan_reference(weights, bins):
    """Weights from a narrow range, so weight and bin-total ties are
    frequent."""
    items = list(enumerate(weights))
    assert lpt(items, bins) == reference_lpt(items, bins)


# ---------------------------------------------------------------------------
# layouts

# sizes over the coprime denominators 2, 3, 5, 7 and 11
COPRIME = Instance(
    (Fraction(1, 2), Fraction(2, 3), Fraction(3, 5), Fraction(4, 7), Fraction(5, 11)),
    (1, 1, 2, 2, 3),
    3,
    2,
)


@given(jobs=st.lists(values, max_size=8), threshold=values)
@settings(max_examples=400, deadline=None)
def test_split_class_matches_reference(jobs, threshold):
    """``_cut`` over the ints of one common denominator: thresholds
    below, between and above the sizes."""
    (theta, *sizes), den = on_one_denominator([threshold] + jobs)
    loads, pieces = _cut([range(len(sizes))], sizes, theta)
    cut = [
        (Fraction(load, den),
         tuple((j, Fraction(take, sizes[j])) for j, take in parts))
        for load, parts in zip(loads, pieces)
    ]
    assert cut == reference_split_class(list(enumerate(jobs)), threshold)


def assert_layouts_match_reference(instance):
    """Schedules equal the Fraction layouts, down to repr and to the
    assignment's order."""
    assert repr(approx_splittable(instance)) == repr(
        reference_approx_splittable(instance)
    )
    assert repr(approx_preemptive(instance)) == repr(
        reference_approx_preemptive(instance)
    )
    assignment = approx_nonpreemptive(instance).assignment
    assert list(assignment.items()) == list(
        reference_nonpreemptive_layout(instance).items()
    )


@given(instance=check_instances)
@example(instance=COPRIME)
@settings(max_examples=300, deadline=None)
def test_layouts_match_reference(instance):
    assert_layouts_match_reference(instance)


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
def test_large_row_layouts_match_reference(family):
    """The approximation sweep's large rows at 300 jobs: two class slots
    per machine, sizes up to 100, m = n*11/20 for one-job classes and
    n/10 otherwise. Every family cuts a piece of load exactly T*, so the
    preemptive layout lifts its second layer."""
    n = 300
    m = n * 11 // 20 if family == "many-singletons" else n // 10
    instance = generate(7, family, n, m, 2, (1, 100))
    t_star, _m_used, _lb = _preemptive_guess(instance)
    den, sizes, _sums = instance._scaled
    _scale, up, theta = _common_scale(den, t_star)
    loads, _pieces = _cut(
        instance._class_members, [size * up for size in sizes], theta
    )
    assert theta in loads
    assert_layouts_match_reference(instance)


# ---------------------------------------------------------------------------
# schedule checks

PIECE_MUTATIONS = ("none", "shift", "fraction", "machine", "drop", "extra")


def mutate_pieces(pieces, instance, mutation, pick, delta, sign):
    """The pieces (timed or not) with one mutation of PIECE_MUTATIONS or
    an unknown job or machine id: out of range, negative, or no int."""
    pieces = list(pieces)
    k = pick % len(pieces)
    j, lam, i = pieces[k][:3]
    start = pieces[k][3:]  # (start,) for a timed piece, else ()
    if mutation == "shift" and start:
        pieces[k] = (j, lam, i, start[0] + sign * delta)
    elif mutation == "fraction":
        pieces[k] = (j, lam + sign * delta / 8, i) + start
    elif mutation == "machine":
        pieces[k] = (j, lam, (i + 1) % instance.machine_count) + start
    elif mutation == "drop":
        del pieces[k]
    elif mutation == "extra":
        extra = tuple(t + delta for t in start)
        pieces.append((pick % instance.job_count, lam, i) + extra)
    elif mutation == "unknown job":
        pieces[k] = ((instance.job_count, -1, True)[pick % 3], lam, i) + start
    elif mutation == "unknown machine":
        pieces[k] = (j, lam, (instance.machine_count, -1, 1.0)[pick % 3]) + start
    return tuple(pieces)


@given(
    instance=check_instances,
    mutation=st.sampled_from(PIECE_MUTATIONS),
    pick=st.integers(0, 10**6),
    delta=values,
    sign=st.sampled_from((1, -1)),
)
@example(instance=COPRIME, mutation="shift", pick=1, delta=Fraction(1, 3), sign=-1)
@example(instance=COPRIME, mutation="fraction", pick=2, delta=Fraction(2, 7), sign=1)
@settings(max_examples=400, deadline=None)
def test_preemptive_checks_match_reference(instance, mutation, pick, delta, sign):
    """Valid schedules and ones with a shifted start, a perturbed or
    out-of-range fraction, a piece moved to the next machine, a piece
    dropped, or an extra piece of some job (an extra class on a machine):
    the same violations, message text included, and the same makespan."""
    schedule = PreemptiveSchedule(mutate_pieces(
        approx_preemptive(instance).pieces, instance, mutation, pick, delta, sign
    ))
    assert validate(schedule, instance) == reference_validate_preemptive(
        schedule, instance
    )
    assert repr(makespan(schedule, instance)) == repr(
        reference_makespan_preemptive(schedule, instance)
    )


PATTERN_MUTATIONS = ("none", "load", "count", "extra", "drop")


def mutate_patterns(patterns, instance, mutation, pick, delta, sign):
    """The patterns with one mutation of PATTERN_MUTATIONS or an unknown
    class id, on a pattern whose count drops to 0 when sign is -1."""
    patterns = list(patterns)
    k = pick % len(patterns)
    pattern, count = patterns[k]
    e = pick % len(pattern)
    u, load = pattern[e]
    if mutation == "load":
        pattern = pattern[:e] + ((u, load + sign * delta),) + pattern[e + 1:]
    elif mutation == "count":
        count += sign
    elif mutation == "extra":
        pattern += ((pick % instance.class_count + 1, delta),)
    elif mutation == "unknown class":
        unknown = (instance.class_count + 1, 0, True)[pick % 3]
        pattern = pattern[:e] + ((unknown, load),) + pattern[e + 1:]
        count = count if sign == 1 else 0
    patterns[k] = (pattern, count)
    if mutation == "drop":
        del patterns[k]
    return tuple(patterns)


@given(
    instance=check_instances,
    mutation=st.sampled_from(PATTERN_MUTATIONS + ("unknown class",)),
    pick=st.integers(0, 10**6),
    delta=values,
    sign=st.sampled_from((1, -1)),
)
@example(instance=COPRIME, mutation="load", pick=0, delta=Fraction(1, 5), sign=1)
@example(instance=COPRIME, mutation="extra", pick=4, delta=Fraction(3, 7), sign=1)
@example(instance=COPRIME, mutation="unknown class", pick=0, delta=Fraction(1),
         sign=-1)  # an unknown class in a pattern of count 0
@settings(max_examples=400, deadline=None)
def test_compact_checks_match_reference(instance, mutation, pick, delta, sign):
    """Valid pattern lists and ones with a perturbed or non-positive load,
    a count off by one, an extra class in a pattern (a repeat, a slot too
    many or a load no class needs), a pattern dropped, or an unknown class
    id, whatever its pattern's count. An unknown id makes makespan raise
    the first one validate reports."""
    schedule = CompactSchedule(mutate_patterns(
        approx_splittable(instance).patterns, instance, mutation, pick, delta, sign
    ))
    violations = validate(schedule, instance)
    assert violations == reference_validate_compact(schedule, instance)
    unknown = [v for v in violations if v.startswith("unknown class id")]
    assert outcome(lambda: makespan(schedule, instance)) == (
        f"raises {unknown[0]}" if unknown
        else repr(reference_makespan_compact(schedule))
    )


def mutate_assignment(assignment, instance, mutation, pick):
    """The assignment with one job moved to the next machine, dropped, or
    sent to an unknown machine, or an unknown job added."""
    assignment = dict(assignment)
    j = pick % instance.job_count
    if mutation == "machine":
        assignment[j] = (assignment[j] + 1) % instance.machine_count
    elif mutation == "drop":
        del assignment[j]
    elif mutation == "unknown machine":
        assignment[j] = (instance.machine_count, -1, 1.0)[pick % 3]
    elif mutation in ("unknown job", "extra"):
        assignment[(instance.job_count, -1, "0")[pick % 3]] = 0
    return assignment


def outcome(check):
    """repr of what the check returns, or the InvalidScheduleError it
    raises."""
    try:
        return repr(check())
    except InvalidScheduleError as exc:
        return f"raises {exc}"


def mutated_schedule(instance, kind, mutation, pick, delta, sign):
    """An approximation's schedule of the kind, "split", "compact",
    "preempt" or "whole", with the mutation its mutate_* function makes
    (none where that function has no such mutation)."""
    if kind == "split":
        pieces = expand_compact(approx_splittable(instance), instance).pieces
        return SplittableSchedule(
            mutate_pieces(pieces, instance, mutation, pick, delta, sign)
        )
    if kind == "compact":
        return CompactSchedule(mutate_patterns(
            approx_splittable(instance).patterns, instance, mutation, pick, delta,
            sign,
        ))
    if kind == "preempt":
        return PreemptiveSchedule(mutate_pieces(
            approx_preemptive(instance).pieces, instance, mutation, pick, delta, sign
        ))
    return NonPreemptiveSchedule(mutate_assignment(
        approx_nonpreemptive(instance).assignment, instance, mutation, pick
    ))


# every schedule type, valid and with every mutation above
MUTATED = dict(
    instance=check_instances,
    kind=st.sampled_from(("split", "compact", "preempt", "whole")),
    mutation=st.sampled_from(
        PIECE_MUTATIONS + PATTERN_MUTATIONS[1:]
        + ("unknown job", "unknown machine", "unknown class")
    ),
    pick=st.integers(0, 10**6),
    delta=values,
    sign=st.sampled_from((1, -1)),
)


@given(**MUTATED, variant=st.sampled_from((None,) + VARIANTS))
@example(instance=COPRIME, kind="compact", mutation="unknown class", pick=0,
         delta=Fraction(1), sign=-1, variant=None)
@example(instance=COPRIME, kind="compact", mutation="count", pick=0,
         delta=Fraction(1), sign=-1, variant=None)  # the peak pattern at count 0
@example(instance=COPRIME, kind="compact", mutation="unknown class", pick=1,
         delta=Fraction(1), sign=1, variant=None)  # class id 0
@settings(max_examples=600, deadline=None)
def test_one_pass_check_matches_makespan_and_validate(
    instance, kind, mutation, pick, delta, sign, variant
):
    """All four schedule types, valid and with the corruptions above
    (unknown ids included, on which makespan raises), checked under their
    own variant, under none and under another: ``makespan_and_violations``
    returns what ``makespan`` and ``validate`` do, or raises what
    ``makespan`` raises."""
    schedule = mutated_schedule(instance, kind, mutation, pick, delta, sign)
    assert outcome(
        lambda: makespan_and_violations(schedule, instance, variant)
    ) == outcome(
        lambda: (makespan(schedule, instance), validate(schedule, instance, variant))
    )


@given(**MUTATED)
@example(instance=COPRIME, kind="whole", mutation="machine", pick=3,
         delta=Fraction(1), sign=1)
@example(instance=COPRIME, kind="preempt", mutation="fraction", pick=2,
         delta=Fraction(2, 7), sign=-1)
@settings(max_examples=400, deadline=None)
def test_measures_match_fraction_references(instance, kind, mutation, pick, delta, sign):
    """Where every id exists, ``makespan`` and ``machine_loads`` equal plain
    Fraction sums, down to repr and the order of the machines: the
    largest per-machine sum of fraction * size, the latest piece end, or
    the largest pattern load. Where one does not, both raise."""
    schedule = mutated_schedule(instance, kind, mutation, pick, delta, sign)
    if kind == "compact":
        with pytest.raises(TypeError, match="expand_compact"):
            machine_loads(schedule, instance)
        if all(is_id(u, 1, instance.class_count + 1)
               for pattern, _count in schedule.patterns for u, _load in pattern):
            assert repr(makespan(schedule, instance)) == repr(
                reference_makespan_compact(schedule)
            )
        else:
            with pytest.raises(InvalidScheduleError, match="^unknown class id"):
                makespan(schedule, instance)
        return
    loads = reference_machine_loads(schedule, instance)
    if loads is None:
        for measure in (makespan, machine_loads):
            with pytest.raises(InvalidScheduleError, match="^unknown "):
                measure(schedule, instance)
        return
    assert repr(list(machine_loads(schedule, instance).items())) == repr(
        list(loads.items())
    )
    if kind == "preempt":
        peak = reference_makespan_preemptive(schedule, instance)
    else:
        peak = max(loads.values(), default=Fraction(0))
    assert repr(makespan(schedule, instance)) == repr(peak)


def test_several_unknown_job_ids_name_the_first_validate_reports():
    """The measures name the first unknown job id in validate's order, int
    ids ascending and then the rest as given, not the first in the
    assignment's order."""
    instance = Instance((4, 2), (1, 2), 2, 2)
    schedule = NonPreemptiveSchedule({0: 0, 1: 1, 5: 0, "a": 1, -1: 0})
    assert validate(schedule, instance) == [
        "unknown job id -1", "unknown job id 5", "unknown job id 'a'",
    ]
    for measure in (makespan, machine_loads, makespan_and_violations):
        with pytest.raises(InvalidScheduleError, match="^unknown job id -1$"):
            measure(schedule, instance)


# ---------------------------------------------------------------------------
# the preemptive int layout against its Fraction pieces

# the approximation sweep's three large rows
LARGE_ROWS = (
    (11, "uniform", 1500, 150, 2, (1, 100)),
    (12, "few-large-classes", 1500, 150, 2, (1, 100)),
    (13, "many-singletons", 1500, 825, 2, (1, 100)),
)


def preemptive_checks(schedule, instance):
    """What ``makespan_and_violations``, ``validate``, ``makespan`` and
    ``machine_loads`` return for the schedule, or the error they raise."""
    return tuple(outcome(lambda: check(schedule, instance)) for check in (
        makespan_and_violations, validate, makespan, machine_loads,
    ))


def assert_checked_in_ints(schedule, instance):
    """The checks of an ``approx_preemptive`` schedule read its int layout:
    they build no pieces and convert no fractions, and they answer as the
    checks of a schedule built from its pieces. The pieces are the
    reference layout's, and the two schedules are equal."""
    with mock.patch.object(_Layout, "pieces", side_effect=AssertionError), \
            mock.patch("ccs.core._over_common_denominator",
                       side_effect=AssertionError):
        found = preemptive_checks(schedule, instance)
    assert "pieces" not in vars(schedule)
    peak, violations = makespan_and_violations(schedule, instance)
    assert violations == []
    twin = PreemptiveSchedule(schedule.pieces)
    assert found == preemptive_checks(twin, instance)
    assert schedule.pieces == reference_approx_preemptive(instance).pieces
    assert schedule == twin and hash(schedule) == hash(twin)
    assert repr(schedule) == repr(twin)
    assert pickle.loads(pickle.dumps(schedule)) == twin


@given(instance=st.one_of(check_instances, instances()))
@example(instance=COPRIME)
@settings(max_examples=300, deadline=None)
def test_laid_out_checks_match_fraction_checks(instance):
    assert_checked_in_ints(approx_preemptive(instance), instance)


@pytest.mark.parametrize("row", LARGE_ROWS, ids=itemgetter(1))
def test_large_row_laid_out_checks_match_fraction_checks(row):
    instance = generate(*row)
    assert_checked_in_ints(approx_preemptive(instance), instance)


LAYOUT_CORRUPTIONS = ("amount", "overlap", "machine", "drop")


def corrupt_layout(layout, instance, corruption, pick, shift):
    """The layout with piece k's amount moved by ``shift`` (in or out of
    range), its start moved onto the previous piece's start (a lone piece's
    later), its machine id unknown (out of range, negative, or no int), or
    the piece dropped."""
    columns = [list(layout.jobs), list(layout.amounts), list(layout.machines),
               list(layout.starts)]
    jobs, amounts, machines, starts = columns
    k = pick % len(jobs)
    if corruption == "amount":
        amounts[k] += shift
    elif corruption == "overlap":
        k = max(k, 1) if len(jobs) > 1 else k
        starts[k] = starts[k - 1] if k else starts[k] + abs(shift)
    elif corruption == "machine":
        machines[k] = (instance.machine_count, -1, 1.0, True)[pick % 4]
    else:
        for column in columns:
            del column[k]
    return layout._replace(
        jobs=tuple(jobs), amounts=tuple(amounts), machines=tuple(machines),
        starts=tuple(starts),
    )


@given(
    instance=check_instances,
    corruption=st.sampled_from(LAYOUT_CORRUPTIONS),
    pick=st.integers(0, 10**6),
    shift=st.integers(-40, 40).filter(bool),
)
@example(instance=COPRIME, corruption="overlap", pick=1, shift=1)
@settings(max_examples=400, deadline=None)
def test_corrupted_layouts_report_as_their_pieces(instance, corruption, pick, shift):
    """A corrupted int layout reports the violations, in the same order,
    and the makespan and loads of its pieces read as Fractions. Start
    overlaps, dropped pieces and amounts in range are found in ints; an
    unknown machine id or an amount out of range sends the checks to the
    pieces, which report each piece's problems."""
    layout = corrupt_layout(
        approx_preemptive(instance)._layout, instance, corruption, pick, shift
    )
    schedule = PreemptiveSchedule._laid_out(layout)
    found = preemptive_checks(schedule, instance)
    if corruption in ("overlap", "drop"):
        assert "pieces" not in vars(schedule)
    if corruption == "machine":
        assert "pieces" in vars(schedule)
    assert found == preemptive_checks(PreemptiveSchedule(schedule.pieces), instance)


def test_start_overlap_is_found_in_ints():
    schedule = approx_preemptive(COPRIME)
    layout = corrupt_layout(schedule._layout, COPRIME, "overlap", 1, 1)
    violations = validate(PreemptiveSchedule._laid_out(layout), COPRIME)
    assert any("at once" in v or "parallel execution" in v for v in violations)


@given(
    instance=check_instances,
    change=st.sampled_from(("size", "halved", "doubled", "machines")),
    pick=st.integers(0, 10**6),
)
@settings(max_examples=300, deadline=None)
def test_layout_checked_against_another_instance(instance, change, pick):
    """A schedule checked against an instance it was not built for (one
    size changed, every size halved or doubled, so the common denominator
    may change while the sizes over it do not, or fewer machines) gets the
    answer of its pieces read as Fractions."""
    schedule = approx_preemptive(instance)
    times = list(instance.processing_times)
    machines = instance.machine_count
    if change == "size":
        times[pick % len(times)] += 1
    elif change == "halved":
        times = [p / 2 for p in times]
    elif change == "doubled":
        times = [p * 2 for p in times]
    else:
        machines = max(1, machines - 1 - pick % machines)
    other = Instance(tuple(times), instance.class_labels, machines,
                     instance.slot_budget)
    found = preemptive_checks(schedule, other)
    assert found == preemptive_checks(PreemptiveSchedule(schedule.pieces), other)


def test_layout_checked_against_sizes_over_another_denominator():
    """7/4 over the layout's scale 4 and 7/3 over the sizes' common
    denominator 3 are both the int 7: the denominators tell them apart."""
    schedule = approx_preemptive(Instance((Fraction(7, 4),), (1,), 2, 2))
    other = Instance((Fraction(7, 3),), (1,), 2, 2)
    assert schedule._layout.sizes == other._scaled[1]
    found = preemptive_checks(schedule, other)
    assert found == preemptive_checks(PreemptiveSchedule(schedule.pieces), other)


# ---------------------------------------------------------------------------
# the splittable int patterns against their Fraction patterns


def compact_measures(schedule, instance):
    """What ``makespan_and_violations``, ``validate`` and ``makespan``
    return for the schedule, or the error they raise."""
    return tuple(outcome(lambda: check(schedule, instance)) for check in (
        makespan_and_violations, validate, makespan,
    ))


def assert_compact_checked_in_ints(schedule, instance):
    """The checks of a splittable schedule laid out in ints read its int
    loads: they build no patterns and convert no Fractions, and they
    answer as the checks of a schedule built from its patterns, as does
    ``expand_compact``. The patterns are the Fraction reference's, and
    the two schedules are equal."""
    with mock.patch("ccs.core._OverScale", side_effect=AssertionError), \
            mock.patch("ccs.core._over_common_denominator",
                       side_effect=AssertionError):
        found = compact_measures(schedule, instance)
    assert "patterns" not in vars(schedule)
    assert makespan_and_violations(schedule, instance)[1] == []
    twin = CompactSchedule(schedule.patterns)
    assert found == compact_measures(twin, instance)
    assert outcome(lambda: expand_compact(schedule, instance)) == outcome(
        lambda: expand_compact(twin, instance)
    )
    assert schedule.patterns == reference_approx_splittable(instance).patterns
    assert schedule == twin and hash(schedule) == hash(twin)
    assert repr(schedule) == repr(twin)
    assert pickle.loads(pickle.dumps(schedule)) == twin


def splittable_warm_start(instance):
    """The splittable scheme's warm start, as ``ptas_solve`` lays it out,
    with the makespan the scheme takes from the deal."""
    warm, top, _bound = driver._certify(instance, SPLITTABLE)
    return warm, top


@given(instance=st.one_of(check_instances, instances()))
@example(instance=COPRIME)
@settings(max_examples=300, deadline=None)
def test_splittable_checks_match_fraction_checks(instance):
    assert_compact_checked_in_ints(approx_splittable(instance), instance)
    warm, top = splittable_warm_start(instance)
    assert_compact_checked_in_ints(warm, instance)
    assert top == makespan(CompactSchedule(warm.patterns), instance)


@pytest.mark.parametrize("row", LARGE_ROWS, ids=itemgetter(1))
def test_large_row_splittable_checks_match_fraction_checks(row):
    instance = generate(*row)
    assert_compact_checked_in_ints(approx_splittable(instance), instance)
    warm, top = splittable_warm_start(instance)
    assert_compact_checked_in_ints(warm, instance)
    assert top == makespan(CompactSchedule(warm.patterns), instance)


PATTERN_CORRUPTIONS = ("unknown class", "zero count", "class twice", "load")


def corrupt_rows(rows, instance, corruption, pick, shift):
    """The int patterns with one entry's class id unknown (out of range,
    0, or no int), one pattern's count 0, one pattern listing a class a
    second time, or one entry's load moved by ``shift`` (possibly to 0 or
    below)."""
    rows = list(rows)
    k = pick % len(rows)
    pattern, count = rows[k]
    e = pick % len(pattern)
    u, load = pattern[e]
    if corruption == "unknown class":
        unknown = (instance.class_count + 1, 0, True)[pick % 3]
        pattern = pattern[:e] + ((unknown, load),) + pattern[e + 1:]
    elif corruption == "zero count":
        count = 0
    elif corruption == "class twice":
        pattern += ((u, load),)
    else:
        pattern = pattern[:e] + ((u, load + shift),) + pattern[e + 1:]
    rows[k] = (pattern, count)
    return tuple(rows)


@given(
    instance=check_instances,
    corruption=st.sampled_from(PATTERN_CORRUPTIONS),
    pick=st.integers(0, 10**6),
    shift=st.integers(-40, 40).filter(bool),
)
@example(instance=COPRIME, corruption="load", pick=0, shift=-10**6)
@settings(max_examples=400, deadline=None)
def test_corrupted_int_patterns_report_as_their_fractions(
    instance, corruption, pick, shift
):
    """A corrupted int layout reports the violations, in the same order,
    and the makespan of its patterns read as Fractions, or raises what
    they raise, without building its patterns."""
    rows, scale = approx_splittable(instance)._layout
    schedule = CompactSchedule._laid_out(
        corrupt_rows(rows, instance, corruption, pick, shift), scale
    )
    found = compact_measures(schedule, instance)
    assert "patterns" not in vars(schedule)
    twin = CompactSchedule(schedule.patterns)
    assert found == compact_measures(twin, instance)
    assert found[1] != "[]"
    assert outcome(lambda: expand_compact(schedule, instance)) == outcome(
        lambda: expand_compact(twin, instance)
    )


@given(
    instance=check_instances,
    change=st.sampled_from(("size", "halved", "doubled", "machines")),
    pick=st.integers(0, 10**6),
)
@settings(max_examples=200, deadline=None)
def test_int_patterns_checked_against_another_instance(instance, change, pick):
    """The int loads are exact on their own: checked against an instance
    it was not built for, the schedule gets the answer of its patterns."""
    schedule = approx_splittable(instance)
    times = list(instance.processing_times)
    machines = instance.machine_count
    if change == "size":
        times[pick % len(times)] += 1
    elif change == "halved":
        times = [p / 2 for p in times]
    elif change == "doubled":
        times = [p * 2 for p in times]
    else:
        machines = max(1, machines - 1 - pick % machines)
    other = Instance(tuple(times), instance.class_labels, machines,
                     instance.slot_budget)
    found = compact_measures(schedule, other)
    assert found == compact_measures(CompactSchedule(schedule.patterns), other)


# ---------------------------------------------------------------------------
# instances: one Fraction per distinct size


# sizes of every accepted kind; small ints, quarters and small fractions
# make equal sizes of different types common (2, 2.0, "2", Fraction(2))
any_sizes = st.one_of(
    st.integers(1, 12),
    values,
    values.map(str),
    st.integers(1, 48).map(lambda k: k / 4),
    st.floats(min_value=0.001, max_value=100.0),
)


@given(
    sizes=st.one_of(
        st.lists(st.integers(1, 30), min_size=1, max_size=12),
        st.lists(any_sizes, min_size=1, max_size=12),
    ),
    data=st.data(),
)
@settings(max_examples=400, deadline=None)
def test_instance_sizes_match_one_fraction_per_job(sizes, data):
    """Plain ints, Fractions, strings, floats and mixes of them: the
    processing times, the scaled sizes and class sums, equality and hash
    are those of an instance built from one Fraction per job."""
    n = len(sizes)
    labels = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    instance = Instance(tuple(sizes), tuple(labels), 2, 2)
    times = tuple(Fraction(p) for p in sizes)
    assert instance.processing_times == times
    assert all(type(p) is Fraction for p in instance.processing_times)
    den = math.lcm(*(p.denominator for p in times))
    scaled = tuple(p.numerator * (den // p.denominator) for p in times)
    sums = [0] * instance.class_count
    for size, u in zip(scaled, instance.class_labels):
        sums[u - 1] += size
    assert instance._scaled == (den, scaled, tuple(sums))
    twin = Instance(times, tuple(labels), 2, 2)
    assert instance == twin and hash(instance) == hash(twin)


def read_as_the_approximations_do(instance):
    """The lower bounds, the three approximations and every check and
    measure of their schedules, as the approximation sweep runs them."""
    for variant in VARIANTS:
        lower_bound(instance, variant)
    for approx in (approx_splittable, approx_preemptive, approx_nonpreemptive):
        schedule = approx(instance)
        makespan_and_violations(schedule, instance)
        validate(schedule, instance)
        makespan(schedule, instance)
        if approx is not approx_splittable:
            machine_loads(schedule, instance)
    assert instance.job_count == len(instance._scaled[1])


@given(
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=12),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_int_instances_build_their_times_when_read(sizes, data):
    """An instance of plain int sizes builds no processing times until
    they are read, on the approximations' path included, and then builds
    those of the instance of one Fraction per job: equal, of equal hash
    and repr, with one Fraction per distinct size. A pickle round trip
    keeps it equal, built or not."""
    n = len(sizes)
    labels = tuple(data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    m = data.draw(st.integers(2, 6))
    instance = Instance(tuple(sizes), labels, m, 2)
    read_as_the_approximations_do(instance)
    assert "processing_times" not in vars(instance)
    unbuilt = pickle.loads(pickle.dumps(instance))
    assert "processing_times" not in vars(unbuilt)
    times = tuple(map(Fraction, sizes))
    twin = Instance(times, labels, m, 2)
    assert repr(instance) == repr(twin)
    assert instance == twin and hash(instance) == hash(twin)
    assert unbuilt == twin and pickle.loads(pickle.dumps(instance)) == twin
    assert instance.processing_times == times
    assert all(type(p) is Fraction for p in instance.processing_times)
    assert len(set(map(id, instance.processing_times))) == len(set(sizes))


@pytest.mark.parametrize("row", LARGE_ROWS, ids=itemgetter(1))
def test_large_rows_build_no_times(row):
    instance = generate(*row)
    read_as_the_approximations_do(instance)
    assert "processing_times" not in vars(instance)


# ---------------------------------------------------------------------------
# non-preemptive modules: fillable ones against the full box


def reference_nonpreemptive_modules(ground, bound):
    """Every multiplicity vector over the large sizes with footprint
    <= bound, the all-zero one included, in lexicographic order."""
    found = []
    vec = [0] * len(ground)

    def descend(idx, size_left):
        if idx == len(ground):
            found.append((tuple(vec), bound - size_left))
            return
        step = ground[idx]
        for count in range(size_left // step + 1):
            vec[idx] = count
            descend(idx + 1, size_left - count * step)
        vec[idx] = 0

    descend(0, bound)
    return tuple(v for v, _s in found), tuple(s for _v, s in found)


def covered_modules(modules, have):
    """Indices of the modules no entry above the count vector ``have``."""
    return tuple(
        g for g, vec in enumerate(modules)
        if all(v <= h for v, h in zip(vec, have))
    )


def reference_enumerate_sets(rounded):
    """The non-preemptive sets over the full box of modules, each class
    count vector filling the modules no entry above it; the modules and
    count vectors are stored as their (position, count) pairs, as the
    builder reads them."""
    ground = rounded.large_sizes
    bound = rounded.scaled_inflated
    modules, sizes = reference_nonpreemptive_modules(ground, bound)
    fillable = {
        have: covered_modules(modules, dense(have, len(ground)))
        for have in rounded.count_vectors
    }
    mods = ModuleSet(
        modules=tuple(map(sparse, modules)), sizes=sizes, fillable=fillable
    )
    # a class with bound // p pieces of every size p fills the whole box
    _mods, confs = nonpreemptive_sets(
        ground, (sparse(bound // p for p in ground),), bound,
        rounded.slot_budget, rounded.params.grid,
    )
    return mods, confs


# solve_exhaustive walks its box in Python; boxes up to this many points
# take well under a second
EXHAUSTIVE_BOX = 4096


def box_size(program):
    size = 1
    for lo, hi in zip(program.lower, program.upper):
        size *= hi - lo + 1
    return size


@given(
    ground=st.lists(st.integers(1, 9), min_size=1, max_size=4, unique=True),
    counts=st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4),
                    max_size=3),
    bound=st.integers(0, 24),
)
@settings(max_examples=300, deadline=None)
def test_fillable_modules_are_the_box_under_some_class(ground, counts, bound):
    ground = tuple(sorted(ground))
    counts = tuple(tuple(have[:len(ground)]) for have in counts)
    modules, sizes, _fillable = _fillable_modules(
        ground, tuple(map(sparse, counts)), bound
    )
    box = zip(*reference_nonpreemptive_modules(ground, bound))
    expected = [
        (vec, size) for vec, size in box
        if any(all(v <= h for v, h in zip(vec, have)) for have in counts)
    ]
    modules = [dense(module, len(ground)) for module in modules]
    assert list(zip(modules, sizes)) == expected


@given(
    ground=st.lists(st.integers(1, 9), min_size=1, max_size=4, unique=True),
    counts=st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4),
                    min_size=1, max_size=3),
    extra=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                   max_size=3),
    bound=st.integers(0, 24),
)
@settings(max_examples=300, deadline=None)
def test_fillable_record_lists_the_modules_under_each_vector(ground, counts,
                                                             extra, bound):
    # sizes in drawn order, unsorted; each extra entry (a, b) adds the
    # entrywise minimum of count vectors a and b: vector a again when
    # a = b (shared), else a vector under both (nested)
    counts = [tuple(have[:len(ground)]) for have in counts]
    for a, b in extra:
        a, b = counts[a % len(counts)], counts[b % len(counts)]
        counts.append(tuple(map(min, a, b)))
    modules, _sizes, fillable = _fillable_modules(
        tuple(ground), tuple(map(sparse, counts)), bound
    )
    modules = [dense(module, len(ground)) for module in modules]
    assert modules[0] == (0,) * len(ground)
    assert set(fillable) == set(map(sparse, counts))
    for have in counts:
        assert fillable[sparse(have)] == covered_modules(modules, have)


@given(rounded=nonpreemptive_probes())
@settings(max_examples=60, deadline=None)
def test_large_class_y_columns_are_the_modules_it_covers(rounded):
    built = build_program(rounded)
    for u, cls in enumerate(rounded.classes):
        if cls.small:
            continue
        width = len(rounded.large_sizes)
        used = tuple(g for g, _col in built.y_columns[u])
        assert used == covered_modules(
            [dense(module, width) for module in built.modules.modules],
            dense(rounded.count_vectors[u], width),
        )


@given(rounded=nonpreemptive_probes())
# the only infeasible probes of the scheme-whole benchmark stream (seed 1):
# none among 4,000 instances at epsilon 1, these two among 300 at 1/2
@example(rounded=nonpreemptive_probe(
    Instance((3, 8, 3, 8), (2, 2, 1, 2), 3, 1), Fraction(1, 2), 8))
@example(rounded=nonpreemptive_probe(
    Instance((9, 8, 2, 9, 1, 10), (1, 2, 3, 4, 4, 5), 3, 2), Fraction(1, 2), 13))
@settings(max_examples=120, deadline=None)
def test_fillable_program_is_feasible_with_the_full_box(rounded):
    built = build_program(rounded)
    with mock.patch.object(
        ccs.ptas.builder, "enumerate_sets", reference_enumerate_sets
    ):
        reference = build_program(rounded)
    feasible = solve_feasible(built.program) is not None
    assert (solve_feasible(reference.program) is not None) == feasible
    for program in (built.program, reference.program):
        if box_size(program) <= EXHAUSTIVE_BOX:
            assert (solve_exhaustive(program) is not None) == feasible
