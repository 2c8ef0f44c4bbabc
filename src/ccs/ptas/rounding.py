"""Accuracy selection and instance rounding for the approximation schemes.

Everything downstream of ``preprocess`` works in scaled integer units: sizes
are multiplied by c/(delta^2 T), which turns the rounding grain delta^2 T/c
into 1 and delta^2 T into c. The original jobs stay attached to their
rounded carriers so reconstruction can reinsert them exactly.

The variant is stored once, on ``PtasParams``. ``inflation`` is the one
formula for the inflated bound; the scaled bound, the splittable module
range and ``piece_cap`` (the slot caps in ``ccs.ptas.sets`` and the
splittable y bound in ``ccs.ptas.builder``) all follow from it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from ..core import (
    CCSError,
    Instance,
    NONPREEMPTIVE,
    PREEMPTIVE,
    Rational,
    SPLITTABLE,
)

# end-to-end multiplicative error in units of delta, per variant: the sum of
# the preprocessing, rounding, inflation and round-robin losses along each
# chain, valid for delta <= 1/2
ERROR_BUDGET = {SPLITTABLE: 8, NONPREEMPTIVE: 9}


def require_scheme_variant(variant: str) -> str:
    """The variant itself if it has a program of its own (splittable or
    non-preemptive); ValueError otherwise."""
    if variant == PREEMPTIVE:
        raise ValueError(
            "the preemptive variant has no program of its own: "
            "ptas_solve answers it through the splittable scheme"
        )
    if variant not in ERROR_BUDGET:
        raise ValueError(f"unknown variant {variant!r}")
    return variant


def require_epsilon(epsilon: Rational) -> Fraction:
    """epsilon as a Fraction if it lies in (0, 1]; ValueError otherwise."""
    try:
        eps = Fraction(epsilon)
    except (OverflowError, ValueError):
        # infinite and NaN floats have no exact value
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}") from None
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {eps}")
    return eps


def derive_delta(epsilon: Rational, variant: str) -> Fraction:
    """Largest delta = 1/k (integer k >= 2) whose end-to-end error factor
    1 + BUDGET*delta stays within 1 + epsilon."""
    require_scheme_variant(variant)
    eps = require_epsilon(epsilon)
    k = max(2, math.ceil(Fraction(ERROR_BUDGET[variant]) / eps))
    return Fraction(1, k)


def inflation(grid: int, variant: str) -> int:
    """The inflated bound in units of delta^2 T at delta = 1/grid: the
    paper's (1 + 4 delta) T (splittable) or (1 + 3 delta)(1 + 2 delta) T
    (non-preemptive), times k^2."""
    k = grid
    if variant == SPLITTABLE:
        return k * (k + 4)
    return (k + 2) * (k + 3)


def piece_cap(grid: int, variant: str) -> int:
    """floor(inflated bound / (delta T)) at delta = 1/grid: the most
    pieces of at least delta T that fit on one machine."""
    return inflation(grid, variant) // grid


@dataclass(frozen=True)
class PtasParams:
    """Accuracy bundle: grid size delta = 1/k, guess and variant."""

    delta: Fraction
    guess: Fraction
    variant: str

    def __post_init__(self) -> None:
        require_scheme_variant(self.variant)
        delta = Fraction(self.delta)
        if delta.numerator != 1 or delta > Fraction(1, 2):
            raise ValueError(
                f"delta must be 1/k for integer k >= 2, got {delta}"
            )
        guess = Fraction(self.guess)
        if guess <= 0:
            raise ValueError("guess must be positive")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "guess", guess)

    @property
    def grid(self) -> int:
        """k = 1/delta."""
        return self.delta.denominator


@dataclass(frozen=True)
class RoundedJob:
    """A job of the rounded instance: one or more original jobs fused
    together, with the exact pre-rounding size kept for reinsertion."""

    job_ids: tuple
    raw_size: Fraction
    scaled_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "job_ids", tuple(self.job_ids))
        object.__setattr__(self, "raw_size", Fraction(self.raw_size))

    @property
    def lead_id(self) -> int:
        return min(self.job_ids)


@dataclass(frozen=True)
class RoundedClass:
    """Per-class outcome of grouping and rounding. A small class holds
    exactly one job of at most delta*T; a large class holds only jobs of
    at least delta*T."""

    class_id: int
    small: bool
    jobs: tuple

    @property
    def xi(self) -> int:
        return 1 if self.small else 0

    @property
    def scaled_load(self) -> int:
        return sum(job.scaled_size for job in self.jobs)


@dataclass(frozen=True)
class RoundedInstance:
    """Scaled, grouped, rounded view of an instance at one guess."""

    params: PtasParams
    machine_count: int
    slot_budget: int
    classes: tuple

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def scale(self) -> Fraction:
        """Multiplier from raw sizes to scaled units: c/(delta^2 T)."""
        p = self.params
        return self.slot_budget / (p.delta * p.delta * p.guess)

    @property
    def scaled_inflated(self) -> int:
        """The inflated bound in scaled units: c times ``inflation``."""
        return self.slot_budget * inflation(self.params.grid, self.params.variant)

    @cached_property
    def large_sizes(self) -> tuple:
        """Sorted distinct scaled sizes over the large classes."""
        sizes = {
            job.scaled_size
            for cls in self.classes
            if not cls.small
            for job in cls.jobs
        }
        return tuple(sorted(sizes))

    @cached_property
    def count_vectors(self) -> tuple:
        """Per class, in class order, its (position, job count) pairs over
        ``large_sizes``, positions ascending, one per size it has jobs
        of; () for a small class."""
        position = {p: g for g, p in enumerate(self.large_sizes)}
        counts = []
        for cls in self.classes:
            have = Counter() if cls.small else Counter(
                position[job.scaled_size] for job in cls.jobs
            )
            counts.append(tuple(sorted(have.items())))
        return tuple(counts)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _scaled_ceil(raw: Fraction, scale: Fraction, unit: int) -> int:
    """Round a raw size up to a multiple of ``unit`` scaled units."""
    exact = raw * scale
    return unit * _ceil_div(exact.numerator, exact.denominator * unit)


def _group_class(jobs: list, slot: Fraction) -> list:
    """The grouping loop for one class of the non-preemptive variant.

    jobs: (job_id, size) pairs. Jobs below delta*T are fused into chunks
    of total size in [delta*T, 2*delta*T) while possible (taken largest
    first, ids ascending on ties); the leftover below delta*T merges into
    the largest other job of size at most 2*delta*T if one exists, else
    into the smallest other job, else it stays as the class's single
    small job. Returns (ids tuple, raw size) pairs.
    """
    tiny = sorted(
        ((j, p) for j, p in jobs if p < slot),
        key=lambda pair: (-pair[1], pair[0]),
    )
    hosts = [((j,), p) for j, p in jobs if p >= slot]
    taken, total = [], Fraction(0)  # the open chunk
    for j, p in tiny:
        taken.append(j)
        total += p
        if total >= slot:
            if total >= 2 * slot:
                raise CCSError(
                    f"chunk load {total} outside [{slot}, {2 * slot})"
                )
            hosts.append((tuple(sorted(taken)), total))
            taken, total = [], Fraction(0)
    if taken:
        if not hosts:
            return [(tuple(sorted(taken)), total)]
        fitting = [h for h in hosts if h[1] <= 2 * slot]
        if fitting:
            host = max(fitting, key=lambda h: (h[1], -min(h[0])))
        else:
            host = min(hosts, key=lambda h: (h[1], min(h[0])))
        hosts[hosts.index(host)] = (
            tuple(sorted(host[0] + tuple(taken))),
            host[1] + total,
        )
    return hosts


def preprocess(instance: Instance, params: PtasParams) -> RoundedInstance:
    """Group, classify, round and scale one instance at one guess.

    Splittable: each class fuses into a single job of its total load.
    Non-preemptive: jobs below delta*T fuse into chunks in
    [delta*T, 2*delta*T), the leftover merges as described in
    ``_group_class``; a chunk hosting the leftover stays below 3*delta*T,
    only a merge into an already oversized job exceeds that.
    Classes with one job of at most delta*T become small (xi = 1)
    and round on the fine grid delta^2 T/c; everything else is large
    and rounds on the grid delta^2 T.
    """
    slot = params.delta * params.guess
    c = instance.slot_budget
    rounded = RoundedInstance(params, instance.machine_count, c, classes=())
    scale = rounded.scale
    classes = []
    for u, ids in enumerate(instance._class_members, 1):
        members = [(j, instance.processing_times[j]) for j in ids]
        if params.variant == SPLITTABLE:
            grouped = [(ids, sum(p for _j, p in members))]
        else:
            grouped = _group_class(members, slot)
        small = len(grouped) == 1 and grouped[0][1] <= slot
        jobs = []
        for ids, raw in grouped:
            if small:
                scaled = _scaled_ceil(raw, scale, 1)
            else:
                if raw < slot:
                    raise CCSError(f"large class {u} with an undersized job")
                scaled = _scaled_ceil(raw, scale, c)
            jobs.append(RoundedJob(ids, raw, scaled))
        jobs.sort(key=lambda job: (-job.scaled_size, job.lead_id))
        classes.append(RoundedClass(class_id=u, small=small, jobs=tuple(jobs)))
    return replace(rounded, classes=tuple(classes))
