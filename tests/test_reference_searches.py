"""The approximation path's threshold searches, LPT and splittable layout
against plain reference versions: Fraction piece counts, the O(k^2)
best-fit pairing, a min-scan LPT and the job-level round robin. The
library runs integer, heap and counted-pattern versions of the same rules;
these tests hold them to identical results."""

import math
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import ccs.approx
from ccs import (
    Instance,
    approx_splittable,
    compute_cu_nonpreemptive,
    expand_compact,
    lpt,
    round_robin,
    split_class,
)
from ccs.approx import (
    _class_job_lists,
    _cu_sorted,
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
    lo, hi = lb, hi_end
    if fits(lo):
        return lo, m_used, lb
    while hi - lo > lo * Fraction(1, 2**20):
        mid = Fraction(math.sqrt(float(lo) * float(hi)))
        if not lo < mid < hi:
            mid = (lo + hi) / 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi, m_used, lb


def reference_lpt(weights, bin_count):
    bins = {i: [] for i in range(bin_count)}
    totals = [Fraction(0)] * bin_count
    for item_id, weight in sorted(weights, key=lambda pair: (-Fraction(pair[1]), pair[0])):
        target = min(range(bin_count), key=lambda i: (totals[i], i))
        bins[target].append(item_id)
        totals[target] += Fraction(weight)
    return bins


def reference_splittable_layout(instance, threshold):
    """Every class cut into job pieces at the threshold by split_class,
    dealt round robin over all m machines: (job_id, fraction, machine)
    triples."""
    pieces = [
        piece
        for jobs in _class_job_lists(instance)
        for piece in split_class(jobs, threshold)
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


@given(
    loads=st.lists(values, min_size=1, max_size=10),
    machine_limit=st.integers(1, 200),
    budget_share=st.integers(0, 12),
    floor=st.one_of(st.none(), values),
    average=values,
)
@settings(max_examples=400, deadline=None)
def test_smallest_guess_matches_reference(
    loads, machine_limit, budget_share, floor, average
):
    budget = len(loads) + budget_share * machine_limit // 4
    args = (loads, machine_limit, budget, floor, average)
    assert _smallest_guess(*args) == reference_smallest_guess(*args)


@given(instance=mixed_instances())
@settings(max_examples=300, deadline=None)
def test_border_searches_match_reference(instance):
    split = border_search_splittable(instance)
    preempt = _preemptive_guess(instance)
    with mock.patch.object(ccs.approx, "_smallest_guess", reference_smallest_guess):
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
    expected = reference_cu(sizes, threshold)
    assert compute_cu_nonpreemptive(sizes, threshold) == expected
    if all(p.denominator == 1 for p in sizes) and threshold.denominator == 1:
        ints = sorted(p.numerator for p in sizes)
        assert _cu_sorted(ints, sum(ints), threshold.numerator) == expected


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
    assert compute_cu_nonpreemptive(sizes, 12) == reference_cu(sizes, 12)


@given(instance=mixed_instances())
@settings(max_examples=300, deadline=None)
def test_nonpreemptive_threshold_matches_reference(instance):
    assert nonpreemptive_threshold(instance) == reference_nonpreemptive_threshold(
        instance
    )


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
