"""Round-robin and LPT list scheduling, shared by the approximation
algorithms and the scheme reconstruction phases.

Both functions are deterministic: weight ties break by ascending item id,
bin ties by lowest bin index. Bins are numbered 0..bin_count-1 and all of
them appear in the result, possibly empty.
"""

from __future__ import annotations

import heapq
from operator import itemgetter


def _sorted_items(items):
    # Non-ascending weight, ascending id on ties: two stable sorts, so no
    # key builds a number (a reversed sort keeps the order of ties).
    by_id = sorted(items, key=itemgetter(0))
    return sorted(by_id, key=itemgetter(1), reverse=True)


def round_robin(loads, bin_count: int) -> dict:
    """Cyclic assignment in non-ascending weight order: the k-th heaviest
    item lands in bin k mod bin_count. Max bin weight is bounded by
    total/bin_count + max single weight."""
    if bin_count < 1:
        raise ValueError("bin_count must be positive")
    bins = {i: [] for i in range(bin_count)}
    for k, (item_id, _weight) in enumerate(_sorted_items(loads)):
        bins[k % bin_count].append(item_id)
    return bins


def lpt(weights, bin_count: int) -> dict:
    """Longest processing time first: items in non-increasing weight order
    each go to the currently least-loaded bin, the lowest-numbered one on
    ties. The bins sit in a heap of (total, bin), so an item costs
    O(log bin_count). Totals add the weights as given, so ints and
    Fractions compare exactly."""
    if bin_count < 1:
        raise ValueError("bin_count must be positive")
    bins = {i: [] for i in range(bin_count)}
    heap = [(0, i) for i in range(bin_count)]  # sorted, so a heap
    for item_id, weight in _sorted_items(weights):
        total, target = heap[0]
        bins[target].append(item_id)
        heapq.heapreplace(heap, (total + weight, target))
    return bins
