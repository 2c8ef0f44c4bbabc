"""Accuracy selection and instance rounding for the approximation schemes.

Everything downstream of ``preprocess`` works in scaled integer units: sizes
are multiplied by c/(delta^2 T), which turns the rounding grain delta^2 T/c
into 1 and delta^2 T into c. The original jobs stay attached to their
rounded carriers so reconstruction can reinsert them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..core import (
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


def derive_delta(epsilon: Rational, variant: str) -> Fraction:
    """Largest delta = 1/k (integer k >= 2) whose end-to-end error factor
    1 + BUDGET*delta stays within 1 + epsilon."""
    require_scheme_variant(variant)
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {eps}")
    k = max(2, math.ceil(Fraction(ERROR_BUDGET[variant]) / eps))
    return Fraction(1, k)


def inflated_bound(guess: Fraction, delta: Fraction, variant: str) -> Fraction:
    """The makespan the scheme may actually use for a guess: the guess
    stretched by the variant's preprocessing and rounding losses."""
    if require_scheme_variant(variant) == SPLITTABLE:
        return (1 + 4 * delta) * guess
    return (1 + 3 * delta) * (1 + 2 * delta) * guess


@dataclass(frozen=True)
class PtasParams:
    """Accuracy bundle: target ratio, grid size, guess and inflated bound."""

    epsilon: Optional[Fraction]
    delta: Fraction
    guess: Fraction
    inflated: Fraction
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
        object.__setattr__(self, "inflated", Fraction(self.inflated))
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", Fraction(self.epsilon))

    @classmethod
    def at_guess(
        cls,
        guess: Rational,
        delta: Rational,
        variant: str,
        epsilon: Optional[Rational] = None,
    ) -> "PtasParams":
        guess = Fraction(guess)
        delta = Fraction(delta)
        return cls(
            epsilon=epsilon,
            delta=delta,
            guess=guess,
            inflated=inflated_bound(guess, delta, variant),
            variant=variant,
        )

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

    variant: str
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
    def scaled_guess(self) -> int:
        """T in scaled units: c * k^2."""
        return self.slot_budget * self.params.grid**2

    @property
    def scaled_slot(self) -> int:
        """delta*T in scaled units: c * k (the small/large threshold)."""
        return self.slot_budget * self.params.grid

    @property
    def scaled_inflated(self) -> Fraction:
        """Inflated bound in scaled units (integral for bounds from
        ``inflated_bound``)."""
        return self.params.inflated * self.scale

    @property
    def large_sizes(self) -> tuple:
        """Sorted distinct scaled sizes over the large classes."""
        sizes = {
            job.scaled_size
            for cls in self.classes
            if not cls.small
            for job in cls.jobs
        }
        return tuple(sorted(sizes))

    def size_counts(self, class_id: int) -> dict:
        """Scaled size -> job count for one (large) class."""
        counts: dict = {}
        for job in self.classes[class_id - 1].jobs:
            counts[job.scaled_size] = counts.get(job.scaled_size, 0) + 1
        return counts


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
    keep = [((j,), p) for j, p in jobs if p >= slot]
    chunks = []
    while sum(p for _j, p in tiny) >= slot:
        total = Fraction(0)
        taken = []
        while total < slot:
            j, p = tiny.pop(0)
            taken.append(j)
            total += p
        assert slot <= total < 2 * slot
        chunks.append((tuple(sorted(taken)), total))
    hosts = keep + chunks
    if tiny:
        rest_ids = tuple(sorted(j for j, _p in tiny))
        rest = sum(p for _j, p in tiny)
        if not hosts:
            return [(rest_ids, rest)]
        fitting = [h for h in hosts if h[1] <= 2 * slot]
        pool = fitting if fitting else hosts
        if fitting:
            host = max(pool, key=lambda h: (h[1], -min(h[0])))
        else:
            host = min(pool, key=lambda h: (h[1], min(h[0])))
        hosts[hosts.index(host)] = (
            tuple(sorted(host[0] + rest_ids)),
            host[1] + rest,
        )
    return hosts


def preprocess(
    instance: Instance, params: PtasParams, variant: str
) -> RoundedInstance:
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
    require_scheme_variant(variant)
    slot = params.delta * params.guess
    c = instance.slot_budget
    scale = c / (params.delta * params.delta * params.guess)
    classes = []
    for u in range(1, instance.class_count + 1):
        members = [
            (j, instance.processing_times[j]) for j in instance.jobs_of_class(u)
        ]
        if variant == SPLITTABLE:
            ids = tuple(j for j, _p in members)
            load = sum(p for _j, p in members)
            grouped = [(ids, load)]
        else:
            grouped = _group_class(members, slot)
        small = len(grouped) == 1 and grouped[0][1] <= slot
        jobs = []
        for ids, raw in grouped:
            if small:
                scaled = _scaled_ceil(raw, scale, 1)
            else:
                assert raw >= slot, "large class with an undersized job"
                scaled = _scaled_ceil(raw, scale, c)
            jobs.append(RoundedJob(ids, raw, scaled))
        jobs.sort(key=lambda job: (-job.scaled_size, job.lead_id))
        classes.append(RoundedClass(class_id=u, small=small, jobs=tuple(jobs)))
    return RoundedInstance(
        variant=variant,
        params=params,
        machine_count=instance.machine_count,
        slot_budget=c,
        classes=tuple(classes),
    )
