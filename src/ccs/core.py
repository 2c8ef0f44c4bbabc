"""Instance and schedule data model with exact rational arithmetic.

Conventions used across the package: jobs are identified by their position
0..n-1 in ``processing_times``, machines by 0..m-1, classes by 1..C after
dense re-indexing; ids are plain ints (not bool). Every quantity that can
be fractional is a :class:`fractions.Fraction` where the API takes or
returns it. Inner loops run in Python ints instead: an instance keeps its
sizes over their least common denominator, and the schedule checks scale
a schedule's fractions, starts and loads to one common denominator before
they add, sort and compare. Nothing in this package touches floats except
the mixed-integer solve inside ``ccs.nfold``, whose output is re-verified
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping, Sequence, Union

Rational = Union[int, Fraction]

SPLITTABLE = "splittable"
PREEMPTIVE = "preemptive"
NONPREEMPTIVE = "nonpreemptive"
VARIANTS = (SPLITTABLE, PREEMPTIVE, NONPREEMPTIVE)


class CCSError(Exception):
    """Base class for all toolkit errors."""


class InvalidInstanceError(CCSError):
    """Malformed instance data: empty job list, non-positive sizes or counts."""


class InvalidScheduleError(CCSError):
    """A schedule references a job or machine id the instance does not have."""


class StructuralInfeasibleError(CCSError):
    """No schedule exists at any makespan: more classes than class slots."""


class EnumerationCapError(CCSError):
    """A configured search-space cap was exceeded."""


def parse_rational(token: str) -> Fraction:
    """Parse ``a`` or ``a/b`` into an exact value. Raises ValueError."""
    return Fraction(token)


def format_rational(value: Rational) -> str:
    """Render exactly: integers bare, everything else as ``a/b``."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Instance:
    """n jobs with sizes and class labels, m machines, slot budget c.

    Construction normalizes the input: class labels are densely re-indexed
    1..C in ascending order of the original labels (classes without jobs
    cannot exist since classes are defined by the labels present), and the
    slot budget is clamped to min(c, C) — extra slots are never usable.
    ``original_labels[u - 1]`` recovers the input label of class u.
    """

    processing_times: tuple
    class_labels: tuple
    machine_count: int
    slot_budget: int
    original_labels: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        try:
            times = tuple(Fraction(p) for p in self.processing_times)
        except (TypeError, ValueError) as exc:
            raise InvalidInstanceError(f"bad processing time: {exc}") from exc
        raw_labels = tuple(self.class_labels)
        if not times:
            raise InvalidInstanceError("instance needs at least one job")
        if len(times) != len(raw_labels):
            raise InvalidInstanceError(
                f"{len(times)} processing times but {len(raw_labels)} class labels"
            )
        if any(p.numerator <= 0 for p in times):
            raise InvalidInstanceError("all processing times must be positive")
        for name, value in (
            ("machine count", self.machine_count),
            ("slot budget", self.slot_budget),
        ):
            # bool is an int subclass; 2.5 machines or "2" are not counts
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidInstanceError(
                    f"{name} must be an integer, got {value!r}"
                )
            if value < 1:
                raise InvalidInstanceError(f"{name} must be positive")
        originals = tuple(sorted(set(raw_labels)))
        remap = {orig: u for u, orig in enumerate(originals, start=1)}
        object.__setattr__(self, "processing_times", times)
        object.__setattr__(self, "class_labels", tuple(remap[l] for l in raw_labels))
        object.__setattr__(self, "slot_budget", min(self.slot_budget, len(originals)))
        object.__setattr__(self, "original_labels", originals)

    @property
    def job_count(self) -> int:
        return len(self.processing_times)

    @property
    def class_count(self) -> int:
        return len(self.original_labels)

    # computed once, on first use: an instance that is only built or
    # stored never pays for it
    @cached_property
    def _scaled(self) -> tuple:
        """(D, sizes, class_sums): D is the least common denominator of
        the processing times; sizes holds each time times D, and
        class_sums each class's total times D (class 1 first), as ints."""
        times = self.processing_times
        den = lcm(*{p.denominator for p in times})
        sizes = tuple(p.numerator * (den // p.denominator) for p in times)
        sums = [0] * self.class_count
        for size, lab in zip(sizes, self.class_labels):
            sums[lab - 1] += size
        return den, sizes, tuple(sums)

    @cached_property
    def total_load(self) -> Fraction:
        den, sizes, _sums = self._scaled
        return Fraction(sum(sizes), den)

    @cached_property
    def max_processing_time(self) -> Fraction:
        den, sizes, _sums = self._scaled
        return Fraction(max(sizes), den)

    @cached_property
    def class_totals(self) -> tuple:
        """Total processing time per class, class 1 first."""
        den, _sizes, sums = self._scaled
        return tuple(Fraction(total, den) for total in sums)

    def jobs_of_class(self, class_id: int) -> tuple:
        return tuple(
            j for j, lab in enumerate(self.class_labels) if lab == class_id
        )


def _fraction(value) -> Fraction:
    # a Fraction is immutable, so one the caller built is kept as it is
    return value if type(value) is Fraction else Fraction(value)


@dataclass(frozen=True)
class SplittableSchedule:
    """Fractions of jobs on machines; a job may run on several machines
    simultaneously. Pieces are (job_id, fraction, machine_id) with the
    fraction taken of the job's full size."""

    pieces: tuple

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "pieces",
            tuple((j, _fraction(lam), i) for (j, lam, i) in self.pieces),
        )


@dataclass(frozen=True)
class PreemptiveSchedule:
    """Timed job pieces; pieces of one job must never overlap in time.
    Pieces are (job_id, fraction, machine_id, start_time)."""

    pieces: tuple

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "pieces",
            tuple(
                (j, _fraction(lam), i, _fraction(start))
                for (j, lam, i, start) in self.pieces
            ),
        )


@dataclass(frozen=True, eq=False)
class NonPreemptiveSchedule:
    """Total assignment of jobs to machines."""

    assignment: Mapping

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", dict(self.assignment))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NonPreemptiveSchedule)
            and self.assignment == other.assignment
        )


@dataclass(frozen=True)
class CompactSchedule:
    """Splittable schedule stored as counted machine patterns, whatever
    the machine count: ``approx_splittable`` and the splittable scheme
    (``ptas_solve``) answer in this form.

    ``patterns`` holds (pattern, count) pairs: ``count`` machines each run
    ``pattern``, one machine's load per class as ``((class_id, load),
    ...)`` in class order. Jobs of a class may be cut anywhere and run in
    parallel, so the per-machine class loads fix the schedule up to how
    each class is carved into job pieces; ``expand_compact`` carves one."""

    patterns: tuple

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "patterns",
            tuple(
                (tuple((u, _fraction(load)) for u, load in pattern), count)
                for pattern, count in self.patterns
            ),
        )


Schedule = Union[
    SplittableSchedule, PreemptiveSchedule, NonPreemptiveSchedule, CompactSchedule
]


def _is_int(value) -> bool:
    # ids and counts are plain ints: bool is an int subclass, and 1.0 or
    # Fraction(1) compare equal to 1 but are no ids
    return type(value) is int or (
        isinstance(value, int) and not isinstance(value, bool)
    )


def _check_ids(pairs, instance: Instance) -> None:
    for job_id, machine_id in pairs:
        if not (_is_int(job_id) and 0 <= job_id < instance.job_count):
            raise InvalidScheduleError(f"unknown job id {job_id!r}")
        if not (_is_int(machine_id) and 0 <= machine_id < instance.machine_count):
            raise InvalidScheduleError(f"unknown machine id {machine_id!r}")


def _check_classes(schedule: CompactSchedule, instance: Instance) -> None:
    for pattern, _count in schedule.patterns:
        for u, _load in pattern:
            if not (_is_int(u) and 1 <= u <= instance.class_count):
                raise InvalidScheduleError(f"unknown class id {u!r}")


def _over_common_denominator(values: list) -> tuple:
    """(L, ints): the Fractions as ints over their least common
    denominator L, in the given order."""
    scale = lcm(*{v.denominator for v in values})
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _amounts(pieces: list, instance: Instance) -> tuple:
    """(L, ints): the processing time fraction * p_j of each (job_id,
    fraction, ...) piece, as ints over one common denominator L."""
    den, sizes, _sums = instance._scaled
    scale, fractions = _over_common_denominator([piece[1] for piece in pieces])
    return scale * den, [
        lam * sizes[piece[0]] for piece, lam in zip(pieces, fractions)
    ]


def _spans(pieces: list, instance: Instance) -> tuple:
    """(L, [(start, end), ...]): each preemptive piece's time span, as ints
    over one common denominator L."""
    amount_scale, amounts = _amounts(pieces, instance)
    start_scale, starts = _over_common_denominator([piece[3] for piece in pieces])
    scale = lcm(amount_scale, start_scale)
    up_amount, up_start = scale // amount_scale, scale // start_scale
    spans = []
    for start, amount in zip(starts, amounts):
        start *= up_start
        spans.append((start, start + amount * up_amount))
    return scale, spans


def _machine_totals(schedule: Schedule, instance: Instance) -> tuple:
    """(L, {machine: load}): machine loads as ints over one common
    denominator L, machines in order of first appearance."""
    if isinstance(schedule, (SplittableSchedule, PreemptiveSchedule)):
        pieces = schedule.pieces
        _check_ids(((piece[0], piece[2]) for piece in pieces), instance)
        scale, amounts = _amounts(pieces, instance)
        machines = [piece[2] for piece in pieces]
    elif isinstance(schedule, NonPreemptiveSchedule):
        _check_ids(schedule.assignment.items(), instance)
        scale, sizes, _sums = instance._scaled
        machines = list(schedule.assignment.values())
        amounts = [sizes[j] for j in schedule.assignment]
    elif isinstance(schedule, CompactSchedule):
        raise TypeError(
            "a CompactSchedule has no machine ids; use expand_compact first"
        )
    else:
        raise TypeError(f"not a schedule: {schedule!r}")
    totals: dict = {}
    for machine, amount in zip(machines, amounts):
        totals[machine] = totals.get(machine, 0) + amount
    return scale, totals


def machine_loads(schedule: Schedule, instance: Instance) -> dict:
    """Total assigned processing time per machine (machines with pieces only)."""
    scale, totals = _machine_totals(schedule, instance)
    return {machine: Fraction(total, scale) for machine, total in totals.items()}


def makespan(schedule: Schedule, instance: Instance) -> Fraction:
    """Maximum total processing time over machines; empty schedules have
    makespan 0. For preemptive schedules this is the latest piece end."""
    if isinstance(schedule, PreemptiveSchedule):
        _check_ids(((j, i) for (j, _lam, i, _s) in schedule.pieces), instance)
        scale, spans = _spans(schedule.pieces, instance)
        return Fraction(max((end for _start, end in spans), default=0), scale)
    if isinstance(schedule, CompactSchedule):
        _check_classes(schedule, instance)
        scale = lcm(*{
            load.denominator
            for pattern, _count in schedule.patterns
            for _u, load in pattern
        })
        peak = max(
            (sum(load.numerator * (scale // load.denominator) for _u, load in pattern)
             for pattern, _count in schedule.patterns),
            default=0,
        )
        return Fraction(peak, scale)
    scale, totals = _machine_totals(schedule, instance)
    return Fraction(max(totals.values(), default=0), scale)


def _variant_of(schedule: Schedule) -> str:
    if isinstance(schedule, (SplittableSchedule, CompactSchedule)):
        return SPLITTABLE
    if isinstance(schedule, PreemptiveSchedule):
        return PREEMPTIVE
    if isinstance(schedule, NonPreemptiveSchedule):
        return NONPREEMPTIVE
    raise TypeError(f"not a schedule: {schedule!r}")


def _slot_violations(machine_classes: Mapping, budget: int) -> list:
    out = []
    for machine_id in sorted(machine_classes):
        classes = machine_classes[machine_id]
        if len(classes) > budget:
            out.append(
                f"slot budget exceeded on machine {machine_id}: "
                f"{len(classes)} classes > c={budget}"
            )
    return out


def _known_pieces(pieces, instance: Instance, violations: list) -> tuple:
    """(pieces, machine classes): the pieces whose job and machine ids
    exist, and the classes each machine runs. Reports unknown ids and
    fractions outside (0, 1] into violations, in piece order."""
    known = []
    machine_classes: dict = {}
    for piece in pieces:
        j, lam, i = piece[:3]
        if not (_is_int(j) and 0 <= j < instance.job_count):
            violations.append(f"unknown job id {j!r}")
            continue
        if not (_is_int(i) and 0 <= i < instance.machine_count):
            violations.append(f"unknown machine id {i!r}")
            continue
        if not 0 < lam.numerator <= lam.denominator:
            violations.append(f"fraction {lam} of job {j} outside (0, 1]")
        if len(piece) == 4 and piece[3].numerator < 0:  # a preemptive start
            violations.append(f"piece of job {j} starts at {piece[3]} < 0")
        known.append(piece)
        machine_classes.setdefault(i, set()).add(instance.class_labels[j])
    return known, machine_classes


def _fraction_sum_violations(pieces: list, instance: Instance) -> list:
    scale, fractions = _over_common_denominator([piece[1] for piece in pieces])
    sums = [0] * instance.job_count
    for piece, lam in zip(pieces, fractions):
        sums[piece[0]] += lam
    return [
        f"fractions of job {j} sum to {Fraction(total, scale)}, not 1"
        for j, total in enumerate(sums)
        if total != scale
    ]


def _validate_splittable(schedule: SplittableSchedule, instance: Instance) -> list:
    violations = []
    known, machine_classes = _known_pieces(schedule.pieces, instance, violations)
    violations.extend(_fraction_sum_violations(known, instance))
    violations.extend(_slot_violations(machine_classes, instance.slot_budget))
    return violations


def _validate_preemptive(schedule: PreemptiveSchedule, instance: Instance) -> list:
    violations = []
    known, machine_classes = _known_pieces(schedule.pieces, instance, violations)
    violations.extend(_fraction_sum_violations(known, instance))
    scale, spans = _spans(known, instance)
    by_machine: dict = {}
    by_job: dict = {}
    for (j, _lam, i, _start), (start, end) in zip(known, spans):
        by_machine.setdefault(i, []).append((start, end, j))
        by_job.setdefault(j, []).append((start, end, i))

    def span(start, end) -> str:
        return f"[{Fraction(start, scale)}, {Fraction(end, scale)})"

    # Adjacent-pair checks after sorting; touching intervals (end == start) are fine.
    for i in sorted(by_machine):
        ordered = sorted(by_machine[i])
        for (s1, e1, j1), (s2, e2, j2) in zip(ordered, ordered[1:]):
            if s2 < e1:
                violations.append(
                    f"machine {i} runs jobs {j1} and {j2} at once: "
                    f"{span(s1, e1)} overlaps {span(s2, e2)}"
                )
    for j in sorted(by_job):
        ordered = sorted(by_job[j])
        for (s1, e1, i1), (s2, e2, i2) in zip(ordered, ordered[1:]):
            if s2 < e1:
                violations.append(
                    f"parallel execution of job {j}: {span(s1, e1)} on machine {i1} "
                    f"overlaps {span(s2, e2)} on machine {i2}"
                )
    violations.extend(_slot_violations(machine_classes, instance.slot_budget))
    return violations


def _validate_nonpreemptive(schedule: NonPreemptiveSchedule, instance: Instance) -> list:
    violations = []
    machine_classes: dict = {}
    for j in range(instance.job_count):
        if j not in schedule.assignment:
            violations.append(f"job {j} is unassigned")

    def order(item) -> tuple:  # int job ids ascending, then the rest as given
        return (0, item[0]) if _is_int(item[0]) else (1, 0)

    for j, i in sorted(schedule.assignment.items(), key=order):
        if not (_is_int(j) and 0 <= j < instance.job_count):
            violations.append(f"unknown job id {j!r}")
            continue
        if not (_is_int(i) and 0 <= i < instance.machine_count):
            violations.append(f"unknown machine id {i!r}")
            continue
        machine_classes.setdefault(i, set()).add(instance.class_labels[j])
    violations.extend(_slot_violations(machine_classes, instance.slot_budget))
    return violations


def _validate_compact(schedule: CompactSchedule, instance: Instance) -> list:
    violations = []
    carried = []  # (class_id, count, load) of every well-formed entry
    machines = 0
    for pattern, count in schedule.patterns:
        if not _is_int(count) or count < 1:
            violations.append(f"pattern count {count!r} is not a positive integer")
            continue
        machines += count
        classes = [u for u, _load in pattern]
        ids = [u for u in classes if _is_int(u)]
        if len(set(ids)) != len(ids):
            violations.append(f"pattern {classes} lists a class twice")
        if len(classes) > instance.slot_budget:
            violations.append(
                f"slot budget exceeded on {count} machines: "
                f"{len(classes)} classes > c={instance.slot_budget}"
            )
        for u, load in pattern:
            if not (_is_int(u) and 1 <= u <= instance.class_count):
                violations.append(f"unknown class id {u!r}")
            elif load.numerator <= 0:
                violations.append(f"class {u} has non-positive load {load}")
            else:
                carried.append((u, count, load))
    if machines > instance.machine_count:
        violations.append(
            f"machine budget exceeded: {machines} machines > "
            f"m={instance.machine_count}"
        )
    den, _sizes, sums = instance._scaled
    scale, loads = _over_common_denominator([load for _u, _count, load in carried])
    totals = [0] * instance.class_count
    for (u, count, _load), load in zip(carried, loads):
        totals[u - 1] += count * load
    common = lcm(scale, den)
    for u, (total, expected) in enumerate(zip(totals, sums), start=1):
        if total * (common // scale) != expected * (common // den):
            violations.append(
                f"class {u} carries {Fraction(total, scale)}, "
                f"expected {Fraction(expected, den)}"
            )
    return violations


def validate(schedule: Schedule, instance: Instance, variant: str = None) -> list:
    """All feasibility violations of the schedule under the given variant's
    rules (empty list means feasible). The variant defaults to the one the
    schedule type belongs to; a mismatch is itself a violation."""
    own = _variant_of(schedule)
    if variant is None:
        variant = own
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant != own:
        return [f"{type(schedule).__name__} is not a {variant} schedule"]
    if isinstance(schedule, SplittableSchedule):
        return _validate_splittable(schedule, instance)
    if isinstance(schedule, PreemptiveSchedule):
        return _validate_preemptive(schedule, instance)
    if isinstance(schedule, NonPreemptiveSchedule):
        return _validate_nonpreemptive(schedule, instance)
    return _validate_compact(schedule, instance)


def lower_bound(instance: Instance, variant: str):
    """(LB, UB) bracket for the optimal makespan of the variant.

    Splittable: LB = total/m, UB = c * max class load. Preemptive and
    non-preemptive: LB = max(p_max, total/m), UB = n * p_max. Raises
    StructuralInfeasibleError when C > m*c (pigeonhole on class slots:
    no schedule exists at any makespan).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    m = instance.machine_count
    c = instance.slot_budget
    if instance.class_count > m * c:
        raise StructuralInfeasibleError(
            f"{instance.class_count} classes need more than m*c = {m * c} class slots"
        )
    average = instance.total_load / m
    if variant == SPLITTABLE:
        den, _sizes, sums = instance._scaled
        return average, c * Fraction(max(sums), den)
    peak = instance.max_processing_time
    return max(peak, average), instance.job_count * peak


def expand_compact(schedule: CompactSchedule, instance: Instance) -> SplittableSchedule:
    """Materialize a valid CompactSchedule as an explicit SplittableSchedule.

    Machines get fresh ids 0, 1, ... in pattern order. Each class's jobs
    are carved in job-id order into the loads its patterns ask for; exact
    conservation makes the carving come out even. The cost is O(m*c + n):
    one piece per machine and class slot, plus one per job cut in two.
    Raises InvalidScheduleError when ``validate`` rejects the schedule.
    """
    violations = _validate_compact(schedule, instance)
    if violations:
        raise InvalidScheduleError(violations[0])
    jobs = [[] for _ in range(instance.class_count)]
    for j, lab in enumerate(instance.class_labels):
        jobs[lab - 1].append(j)
    cursor = [0] * instance.class_count  # next job of the class to carve
    left = [Fraction(1)] * instance.job_count  # fraction not yet carved
    pieces = []
    machine = 0
    for pattern, count in schedule.patterns:
        for _ in range(count):
            for u, load in pattern:
                while load > 0:
                    j = jobs[u - 1][cursor[u - 1]]
                    size = instance.processing_times[j]
                    lam = min(left[j], load / size)
                    pieces.append((j, lam, machine))
                    left[j] -= lam
                    load -= lam * size
                    if left[j] == 0:
                        cursor[u - 1] += 1
            machine += 1
    return SplittableSchedule(tuple(pieces))
