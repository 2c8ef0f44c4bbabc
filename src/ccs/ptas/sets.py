"""Enumeration of modules and machine configurations.

A module is the footprint of one class on one machine; a configuration is
a machine's multiset of module footprints, stored as the (footprint
position, multiplicity) pairs it uses. Both live in scaled units. The
per-variant shapes:

  splittable      module = a piece size c*l (integer l >= k), configuration
                  = pairs over the module sizes
  non-preemptive  module = (large size position, multiplicity) pairs
                  that some large class can fill, configuration = pairs
                  over the distinct module sizes; the module walk alone
                  decides which modules each class can fill

The preemptive variant has no sets of its own: ptas_solve answers it
through the splittable scheme.

Every configuration K obeys size(K) <= inflated bound and uses at most c
slots, with pair host counts capped at min(c, piece cap), the piece cap
being the most pieces of at least delta T that fit within the bound. One
walk enumerates them and the non-preemptive modules in their stored order.
The scaled bound, the splittable module range and the piece cap all come
from ``ccs.ptas.rounding.inflation``, and the sets store no variant: the
rounded instance's ``PtasParams`` holds it. Enumeration aborts with
EnumerationCapError once a count passes ``ENUM_CAP``, 10^6: a program with
that many configuration columns would outrun the solver's time limit, and
the configurations alone take about 500 MB. The splittable sets are
memoized, since they depend only on the accuracy and the slot budget; the
non-preemptive sets also depend on the large sizes and the large classes'
job counts at them, so few calls repeat one, and they are built afresh
each time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import accumulate, takewhile

from ..core import EnumerationCapError, NONPREEMPTIVE, SPLITTABLE
from .rounding import RoundedInstance, inflation, piece_cap

ENUM_CAP = 10**6
CAP_MESSAGE = "accuracy too fine for desk scale"


def _cap_check(count: int, what: str) -> None:
    if count > ENUM_CAP:
        raise EnumerationCapError(
            f"{CAP_MESSAGE}: more than {ENUM_CAP} {what}"
        )


@dataclass(frozen=True)
class ModuleSet:
    """The modules of one scheme at one accuracy.

    modules: splittable -> scaled piece sizes (ints); non-preemptive ->
    (position, multiplicity) pairs over the rounded instance's
    ``large_sizes``, positions ascending, each multiplicity at most some
    large class's job count at that position, so the set depends on those
    counts as well as on the sizes. ``sizes[i]`` is the scaled footprint
    of ``modules[i]`` on a machine. Non-preemptive ``fillable`` maps each
    large class's (position, count) pairs (``count_vectors``) to the
    ascending indices of the modules it covers (splittable: None, as
    every large class uses every module).
    """

    modules: tuple
    sizes: tuple
    fillable: dict = field(default=None, compare=False, repr=False)

    @property
    def count(self) -> int:
        return len(self.modules)

    @property
    def size_values(self) -> tuple:
        """Sorted distinct module sizes."""
        return tuple(sorted(set(self.sizes)))


@dataclass(frozen=True)
class ConfigurationSet:
    """The machine configurations over a module set.

    configs: (footprint position, multiplicity) pairs, positions
    ascending, over the ``footprints`` modules (splittable) or
    ``ModuleSet.size_values`` (non-preemptive), enumerated for
    ``slot_budget`` slots and total size at most ``size_bound``. The pair
    list is the full cross product of the distinct configuration sizes
    with the host counts {0, .., slot_cap - 1}.
    """

    configs: tuple
    sizes: tuple
    slots: tuple
    footprints: int
    slot_budget: int
    size_bound: int
    slot_cap: int
    size_set: tuple
    pairs: tuple

    @property
    def count(self) -> int:
        return len(self.configs)

    def pair_position(self, i: int):
        """Position in ``pairs`` of configuration i's (size, slots) pair,
        or None when it uses slot_cap slots or more and so hosts none."""
        b = self.slots[i]
        if b < self.slot_cap:
            return bisect_left(self.size_set, self.sizes[i]) * self.slot_cap + b

    @cached_property
    def columns(self) -> tuple:
        """The configuration columns of the configuration program
        (``ccs.ptas.builder``) without host rows."""
        return self._columns(hosted=False)

    @cached_property
    def hosted_columns(self) -> tuple:
        """The configuration columns with host rows."""
        return self._columns(hosted=True)

    def _columns(self, hosted: bool) -> tuple:
        """(col_start, row_index, values) of one column per configuration,
        in compressed sparse column form: 1 in the machine row 0, the
        multiplicity of footprint g in link row 1 + g and, when hosted,
        b - slot_budget in the host-capacity row 1 + L + pos and
        h - size_bound in the host-volume row 1 + L + P + pos of its pair
        (h, b) at position pos, with L footprints and P pairs."""
        capacity = 1 + self.footprints
        volume = capacity + len(self.pairs)
        starts, rows, values = [0], [], []
        for i, vec in enumerate(self.configs):
            rows.append(0)
            values.append(1)
            for g, k in vec:
                rows.append(1 + g)
                values.append(k)
            pos = self.pair_position(i) if hosted else None
            if pos is not None:
                rows.append(capacity + pos)
                values.append(self.slots[i] - self.slot_budget)
                h = self.sizes[i]
                if h != self.size_bound:
                    rows.append(volume + pos)
                    values.append(h - self.size_bound)
            starts.append(len(rows))
        return starts, rows, values


def _walk(sizes, budget, admit, state, what):
    """(pairs, total, state) of every multiset of positions of ``sizes``
    of total size at most ``budget`` that ``admit`` lets in, pairs being
    (position, multiplicity), positions ascending. ``admit(state, p)``
    yields the states after 1, 2, ... more copies of a position p above
    all of the multiset's, as many as its rule allows; a false state
    admits nothing more. A multiset is emitted, then extended by one more
    position, largest first, in ascending multiplicity: that is the
    lexicographic order of the multiplicity vectors, so nothing is sorted
    afterwards. The recursion takes a frame per distinct position; both
    families served are closed under taking sub-multisets, so a multiset
    of d positions comes after its 2^d sub-multisets and ``ENUM_CAP``
    (10^6) stops the walk by depth 20, far within Python's frame limit.
    """
    order = sorted(range(len(sizes)), key=sizes.__getitem__)
    ascending = [sizes[g] for g in order]
    highest = [-1, *accumulate(order, max)]  # top position of the i smallest
    found = []

    def visit(pairs, total, state, last):
        found.append((pairs, total, state))
        _cap_check(len(found), what)
        if not state:
            return
        fit = bisect_right(ascending, budget - total)
        for p in range(highest[fit], last, -1):
            size = total
            for k, grown in enumerate(admit(state, p), 1):
                size += sizes[p]
                if size > budget:
                    break
                visit(pairs + ((p, k),), size, grown, p)

    visit((), 0, state, -1)
    return found


def _configurations(sizes, c, bound, pieces):
    """The configurations over the distinct module sizes ``sizes``: at
    most c slots and total size at most ``bound``, with (size, slots)
    pairs for slot counts below the slot cap min(c, pieces), with
    ``pieces`` from ``piece_cap``."""
    # the state is the slots left: k more copies take k of them
    configs, totals, left = zip(*_walk(
        sizes, bound, lambda free, _p: range(free - 1, -1, -1), c,
        "configurations",
    ))
    slot_cap = min(c, pieces)
    size_set = tuple(sorted(set(totals)))
    return ConfigurationSet(
        configs=configs,
        sizes=totals,
        slots=tuple(c - free for free in left),
        footprints=len(sizes),
        slot_budget=c,
        size_bound=bound,
        slot_cap=slot_cap,
        size_set=size_set,
        pairs=tuple((h, b) for h in size_set for b in range(slot_cap)),
    )


@cache
def splittable_sets(
    grid: int, slot_budget: int
) -> "tuple[ModuleSet, ConfigurationSet]":
    """Modules and configurations of the splittable scheme at delta = 1/grid.

    Module sizes are c*l for l from k up to ``inflation(k)``, where c*l
    meets the scaled inflated bound.
    """
    k, c = grid, slot_budget
    top = inflation(k, SPLITTABLE)
    sizes = tuple(c * level for level in range(k, top + 1))
    _cap_check(len(sizes), "modules")
    mods = ModuleSet(modules=sizes, sizes=sizes)
    confs = _configurations(sizes, c, c * top, piece_cap(k, SPLITTABLE))
    return mods, confs


def _fillable_modules(ground, counts, bound):
    """``ModuleSet`` fields: the (position, multiplicity) pairs over the
    large sizes ``ground`` with footprint <= bound that some class can
    fill, i.e. with no multiplicity above that class's count at the
    position, as given by its (position, count) pairs in ``counts``, in
    the lexicographic order of their multiplicity vectors; their
    footprints; and ``fillable``. The empty module is among them whenever
    ``counts`` is not empty. The walk's state masks the classes' pairs
    that still cover the module, ``covers[g][k - 1]`` those with at least
    k jobs at position g; ``fillable`` reads the final masks."""
    if not counts:
        return (), (), {}
    covers = [[] for _ in ground]
    for i, have in enumerate(counts):
        for g, count in have:
            column = covers[g]
            column += [0] * (count - len(column))
            for k in range(count):
                column[k] |= 1 << i

    def covered(live, g):
        return takewhile(bool, map(live.__and__, covers[g]))

    modules, sizes, masks = zip(*_walk(
        ground, bound, covered, (1 << len(counts)) - 1, "modules"
    ))
    covered_by = [[] for _ in counts]
    for g, live in enumerate(masks):
        while live:  # one step per set bit, lowest first
            covered_by[(live & -live).bit_length() - 1].append(g)
            live &= live - 1
    return modules, sizes, dict(zip(counts, map(tuple, covered_by)))


def nonpreemptive_sets(
    ground: tuple,
    counts: tuple,
    scaled_bound: int,
    slot_budget: int,
    grid: int,
) -> "tuple[ModuleSet, ConfigurationSet]":
    """Modules and configurations of the non-preemptive scheme.

    ``ground`` holds the scaled large sizes, ``counts`` the large classes'
    (position, count) pairs over ``ground`` (sorted, without repeats), and
    ``scaled_bound`` the scaled inflated bound. Only
    modules some class can fill are enumerated, and configurations range
    over their distinct footprints alone: a configuration using any other
    footprint has a link row without y columns, so it is 0 in every
    feasible point of the program.
    """
    mods = ModuleSet(*_fillable_modules(ground, counts, scaled_bound))
    return mods, _configurations(
        mods.size_values,
        slot_budget,
        scaled_bound,
        piece_cap(grid, NONPREEMPTIVE),
    )


def enumerate_sets(
    rounded: RoundedInstance,
) -> "tuple[ModuleSet, ConfigurationSet]":
    """Dispatch to the variant's enumeration for one rounded instance."""
    if rounded.params.variant == SPLITTABLE:
        return splittable_sets(rounded.params.grid, rounded.slot_budget)
    counts = {
        have
        for cls, have in zip(rounded.classes, rounded.count_vectors)
        if not cls.small
    }
    return nonpreemptive_sets(
        rounded.large_sizes,
        tuple(sorted(counts)),
        rounded.scaled_inflated,
        rounded.slot_budget,
        rounded.params.grid,
    )
