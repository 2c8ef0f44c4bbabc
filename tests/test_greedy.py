from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccs.greedy import _sorted_items, lpt, round_robin


def weighted(values):
    return [(i, Fraction(v)) for i, v in enumerate(values)]


def bin_loads(bins, weights):
    lookup = dict(weights)
    return {b: sum((lookup[i] for i in items), Fraction(0)) for b, items in bins.items()}


class TestRoundRobin:
    def test_four_machine_stacks(self):
        items = weighted([5, 5, 4, 3, 3, 2, 2, 1, 1, 1])
        bins = round_robin(items, 4)
        loads = bin_loads(bins, items)
        assert [loads[b] for b in range(4)] == [9, 8, 6, 4]

    def test_single_item(self):
        bins = round_robin([(42, Fraction(7))], 5)
        assert bins[0] == [42]
        assert all(bins[b] == [] for b in range(1, 5))

    def test_unit_weights_balance(self):
        items = weighted([1, 1, 1, 1])
        loads = bin_loads(round_robin(items, 2), items)
        assert loads == {0: 2, 1: 2}

    def test_tie_break_by_item_id(self):
        items = [(3, Fraction(2)), (1, Fraction(2)), (2, Fraction(2))]
        bins = round_robin(items, 2)
        assert bins[0] == [1, 3]
        assert bins[1] == [2]

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            round_robin([], 0)


class TestLpt:
    def test_hand_traceable(self):
        items = weighted([5, 4, 3, 2])
        bins = lpt(items, 2)
        loads = bin_loads(bins, items)
        assert sorted(loads.values()) == [7, 7]
        assert bins[0] == [0, 3]  # 5 then 2
        assert bins[1] == [1, 2]  # 4 then 3

    def test_one_heavy_three_equal(self):
        items = weighted([7, 5, 5, 5])
        loads = bin_loads(lpt(items, 2), items)
        assert sorted(loads.values()) == [10, 12]

    def test_single_bin(self):
        items = weighted([3, 1, 2])
        bins = lpt(items, 1)
        assert bins[0] == [0, 2, 1]


weight_lists = st.lists(
    st.tuples(st.integers(0, 10_000), st.fractions(0, 50)), min_size=0, max_size=50
)


@given(items=weight_lists, bins=st.integers(1, 10))
@settings(max_examples=300, deadline=None)
def test_round_robin_load_lemma(items, bins):
    """Max bin load <= total/bins + max weight, exactly."""
    items = [(k, w) for k, (_i, w) in enumerate(items)]  # unique ids
    loads = bin_loads(round_robin(items, bins), items)
    total = sum((w for _i, w in items), Fraction(0))
    heaviest = max((w for _i, w in items), default=Fraction(0))
    assert max(loads.values()) <= total / bins + heaviest


@given(items=weight_lists, bins=st.integers(1, 10))
@settings(max_examples=200, deadline=None)
def test_round_robin_counts_differ_by_at_most_one(items, bins):
    items = [(k, w) for k, (_i, w) in enumerate(items)]
    result = round_robin(items, bins)
    counts = [len(result[b]) for b in range(bins)]
    assert max(counts) - min(counts) <= 1


@given(items=weight_lists, bins=st.integers(1, 10))
@settings(max_examples=200, deadline=None)
def test_lpt_choices_replayable(items, bins):
    """Replaying the output order, every item went to a then-minimal bin."""
    items = [(k, w) for k, (_i, w) in enumerate(items)]
    result = lpt(items, bins)
    lookup = dict(items)
    order = sorted(
        ((item, b) for b, its in result.items() for item in its),
        key=lambda pair: (-lookup[pair[0]], pair[0]),
    )
    totals = [Fraction(0)] * bins
    for item, b in order:
        assert totals[b] == min(totals)
        totals[b] += lookup[item]


@given(items=weight_lists, bins=st.integers(1, 10))
@settings(max_examples=100, deadline=None)
def test_both_deterministic_partitions(items, bins):
    items = [(k, w) for k, (_i, w) in enumerate(items)]
    for algo in (round_robin, lpt):
        one = algo(items, bins)
        two = algo(list(reversed(items)), bins)
        assert one == two
        placed = sorted(i for its in one.values() for i in its)
        assert placed == sorted(i for i, _w in items)


@given(
    items=st.lists(
        st.tuples(
            st.integers(0, 5),
            st.one_of(st.integers(0, 4), st.fractions(0, 4, max_denominator=3)),
        ),
        max_size=30,
    )
)
@settings(max_examples=300, deadline=None)
def test_sort_order_matches_the_fraction_key(items):
    """Ids and weights repeat, ints mix with Fractions: the order is the
    stable sort on (-Fraction(weight), id)."""
    reference = sorted(items, key=lambda pair: (-Fraction(pair[1]), pair[0]))
    ordered = _sorted_items(items)
    # equal pairs such as (0, 1) and (0, Fraction(1)) must not swap either
    assert len(ordered) == len(reference)
    assert all(a is b for a, b in zip(ordered, reference))
