"""Enumeration of modules and machine configurations.

A module is the footprint of one class on one machine; a configuration is
a machine's multiset of module footprints. Both live in scaled units. The
per-variant shapes:

  splittable      module = a piece size c*l (integer l >= k), configuration
                  = multiplicity vector over the module sizes
  non-preemptive  module = multiplicity vector over the large job sizes,
                  configuration = multiplicity vector over the distinct
                  module sizes

The preemptive variant has no sets of its own: ptas_solve answers it
through the splittable scheme.

Every configuration K obeys size(K) <= inflated bound and uses at most c
slots. Enumeration aborts once the count passes the cap; results are
memoized because the sets depend only on the accuracy, the slot budget
and (for the non-preemptive variant) the large sizes, not on the whole
instance.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from ..core import (
    CCSError,
    EnumerationCapError,
    NONPREEMPTIVE,
    SPLITTABLE,
)
from .rounding import RoundedInstance, require_scheme_variant

DEFAULT_ENUM_CAP = 10**6
ENUM_CAP_ENV = "CCS_ENUM_CAP"
CAP_MESSAGE = "accuracy too fine for desk scale"


def resolve_enum_cap(cap=None) -> int:
    """Explicit cap, else the CCS_ENUM_CAP environment knob, else 10^6."""
    if cap is not None:
        return int(cap)
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw:
        try:
            return int(raw)
        except ValueError as exc:
            raise CCSError(f"bad {ENUM_CAP_ENV} value {raw!r}") from exc
    return DEFAULT_ENUM_CAP


def _cap_check(count: int, cap: int, what: str) -> None:
    if count > cap:
        raise EnumerationCapError(
            f"{CAP_MESSAGE}: more than {cap} {what}"
        )


@dataclass(frozen=True)
class ModuleSet:
    """The modules of one variant at one accuracy.

    modules: splittable -> scaled piece sizes (ints); non-preemptive ->
    multiplicity tuples over ``ground`` (the scaled large sizes).
    ``sizes[i]`` is the scaled footprint of ``modules[i]`` on a machine.
    """

    variant: str
    modules: tuple
    sizes: tuple
    ground: tuple = ()

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

    configs: multiplicity tuples over the modules (splittable) or over
    ``ModuleSet.size_values`` (non-preemptive). The pair list
    is the full cross product of the distinct configuration sizes with the
    host counts {0, .., slot_cap - 1}; ``groups`` maps each pair to the
    configurations of exactly that size and slot usage.
    """

    variant: str
    configs: tuple
    sizes: tuple
    slots: tuple
    slot_cap: int
    size_set: tuple
    pairs: tuple
    groups: Mapping = field(hash=False, compare=False)

    @property
    def count(self) -> int:
        return len(self.configs)


def _pairs_and_groups(sizes, slots, slot_cap):
    size_set = tuple(sorted(set(sizes)))
    pairs = tuple((h, b) for h in size_set for b in range(slot_cap))
    groups = {pair: [] for pair in pairs}
    for idx, (h, b) in enumerate(zip(sizes, slots)):
        if b < slot_cap:
            groups[(h, b)].append(idx)
    frozen = {pair: tuple(members) for pair, members in groups.items()}
    return size_set, pairs, frozen


def _multiplicity_configs(sizes, c, budget, cap):
    """Multiplicity vectors over ``sizes`` with at most c entries and
    total size at most ``budget``, in lexicographic order."""
    found = []
    vec = [0] * len(sizes)

    def descend(idx: int, slots_left: int, size_left) -> None:
        if idx == len(sizes):
            _cap_check(len(found) + 1, cap, "configurations")
            found.append((tuple(vec), budget - size_left))
            return
        step = sizes[idx]
        top = slots_left if step == 0 else min(slots_left, size_left // step)
        for count in range(int(top) + 1):
            vec[idx] = count
            descend(idx + 1, slots_left - count, size_left - count * step)
        vec[idx] = 0

    descend(0, c, budget)
    configs = tuple(v for v, _s in found)
    totals = tuple(int(s) for _v, s in found)
    return configs, totals


def splittable_sets(
    grid: int, slot_budget: int, cap=None
) -> "tuple[ModuleSet, ConfigurationSet]":
    """Modules and configurations of the splittable scheme at delta = 1/grid.

    Module sizes are c*l for l in {k, .., k(k+4)} (the inflated bound is
    c*k*(k+4) scaled, so l tops out there).
    """
    cap = resolve_enum_cap(cap)
    key = (grid, slot_budget, cap)
    hit = _SPLIT_CACHE.get(key)
    if hit is not None:
        return hit
    k = grid
    c = slot_budget
    bound = c * k * (k + 4)
    sizes = tuple(c * level for level in range(k, k * (k + 4) + 1))
    _cap_check(len(sizes), cap, "modules")
    mods = ModuleSet(variant=SPLITTABLE, modules=sizes, sizes=sizes)
    configs, totals = _multiplicity_configs(sizes, c, bound, cap)
    slot_cap = min(c, k + 4)
    slots = tuple(sum(v) for v in configs)
    size_set, pairs, groups = _pairs_and_groups(totals, slots, slot_cap)
    confs = ConfigurationSet(
        variant=SPLITTABLE,
        configs=configs,
        sizes=totals,
        slots=slots,
        slot_cap=slot_cap,
        size_set=size_set,
        pairs=pairs,
        groups=groups,
    )
    _SPLIT_CACHE[key] = (mods, confs)
    return mods, confs


def _nonpreemptive_modules(ground, bound, cap):
    """Multiplicity vectors over the large sizes with footprint <= bound,
    the all-zero footprint included."""
    found = []
    vec = [0] * len(ground)

    def descend(idx: int, size_left) -> None:
        if idx == len(ground):
            _cap_check(len(found) + 1, cap, "modules")
            found.append((tuple(vec), bound - size_left))
            return
        step = ground[idx]
        for count in range(int(size_left // step) + 1):
            vec[idx] = count
            descend(idx + 1, size_left - count * step)
        vec[idx] = 0

    descend(0, bound)
    return tuple(v for v, _s in found), tuple(int(s) for _v, s in found)


def nonpreemptive_sets(
    ground: tuple, scaled_bound: int, slot_budget: int, grid: int, cap=None
) -> "tuple[ModuleSet, ConfigurationSet]":
    """Modules and configurations of the non-preemptive scheme.

    ``ground`` holds the scaled large sizes, ``scaled_bound`` the integral
    scaled inflated bound c(k+2)(k+3).
    """
    cap = resolve_enum_cap(cap)
    key = (tuple(ground), scaled_bound, slot_budget, cap)
    hit = _NP_CACHE.get(key)
    if hit is not None:
        return hit
    c = slot_budget
    modules, footprints = _nonpreemptive_modules(ground, scaled_bound, cap)
    mods = ModuleSet(
        variant=NONPREEMPTIVE,
        modules=modules,
        sizes=footprints,
        ground=tuple(ground),
    )
    values = mods.size_values
    configs, totals = _multiplicity_configs(values, c, scaled_bound, cap)
    # floor of (inflated bound)/(delta T) = (k+2)(k+3)/k caps the slots
    slot_cap = min(c, (grid + 2) * (grid + 3) // grid)
    slots = tuple(sum(v) for v in configs)
    size_set, pairs, groups = _pairs_and_groups(totals, slots, slot_cap)
    confs = ConfigurationSet(
        variant=NONPREEMPTIVE,
        configs=configs,
        sizes=totals,
        slots=slots,
        slot_cap=slot_cap,
        size_set=size_set,
        pairs=pairs,
        groups=groups,
    )
    _NP_CACHE[key] = (mods, confs)
    return mods, confs


def enumerate_sets(
    rounded: RoundedInstance, cap=None
) -> "tuple[ModuleSet, ConfigurationSet]":
    """Dispatch to the variant's enumeration for one rounded instance."""
    if require_scheme_variant(rounded.variant) == SPLITTABLE:
        return splittable_sets(rounded.params.grid, rounded.slot_budget, cap)
    bound = rounded.scaled_inflated
    assert bound.denominator == 1
    return nonpreemptive_sets(
        rounded.large_sizes,
        int(bound),
        rounded.slot_budget,
        rounded.params.grid,
        cap,
    )


_SPLIT_CACHE: dict = {}
_NP_CACHE: dict = {}
