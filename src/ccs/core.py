"""Instance and schedule data model with exact rational arithmetic.

Conventions used across the package: jobs are identified by their position
0..n-1 in ``processing_times``, machines by 0..m-1, classes by 1..C after
dense re-indexing. Every quantity that can be fractional is a
:class:`fractions.Fraction`; nothing in this package touches floats except
the mixed-integer solve inside ``ccs.nfold``, whose output is re-verified
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
        if any(p <= 0 for p in times):
            raise InvalidInstanceError("all processing times must be positive")
        if self.machine_count < 1:
            raise InvalidInstanceError("machine count must be positive")
        if self.slot_budget < 1:
            raise InvalidInstanceError("slot budget must be positive")
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

    @property
    def total_load(self) -> Fraction:
        return sum(self.processing_times, Fraction(0))

    @property
    def max_processing_time(self) -> Fraction:
        return max(self.processing_times)

    def jobs_of_class(self, class_id: int) -> tuple:
        return tuple(
            j for j, lab in enumerate(self.class_labels) if lab == class_id
        )


@dataclass(frozen=True)
class ClassLoad:
    """Accumulated processing time of one class."""

    class_id: int
    total: Fraction


def class_loads(instance: Instance) -> list:
    """Per-class totals, ordered by class id. Exact."""
    totals = [Fraction(0)] * instance.class_count
    for p, lab in zip(instance.processing_times, instance.class_labels):
        totals[lab - 1] += p
    return [ClassLoad(u + 1, t) for u, t in enumerate(totals)]


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
            tuple((j, Fraction(lam), i) for (j, lam, i) in self.pieces),
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
                (j, Fraction(lam), i, Fraction(start))
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


@dataclass(frozen=True, eq=False)
class CompactSchedule:
    """Splittable schedule in compressed form for huge machine counts: an
    explicit part over the machines that carry anything irregular, plus, per
    class, a count of machines filled with exactly one piece of size
    ``piece_size``. Only the explicit machines are materialized."""

    explicit_machines: SplittableSchedule
    trivial_machine_counts: Mapping
    piece_size: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "trivial_machine_counts", dict(self.trivial_machine_counts)
        )
        object.__setattr__(self, "piece_size", Fraction(self.piece_size))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CompactSchedule)
            and self.explicit_machines == other.explicit_machines
            and self.trivial_machine_counts == other.trivial_machine_counts
            and self.piece_size == other.piece_size
        )


Schedule = Union[
    SplittableSchedule, PreemptiveSchedule, NonPreemptiveSchedule, CompactSchedule
]


def _check_ids(pairs, instance: Instance) -> None:
    for job_id, machine_id in pairs:
        if not 0 <= job_id < instance.job_count:
            raise InvalidScheduleError(f"unknown job id {job_id}")
        if not 0 <= machine_id < instance.machine_count:
            raise InvalidScheduleError(f"unknown machine id {machine_id}")


def machine_loads(schedule: Schedule, instance: Instance) -> dict:
    """Total assigned processing time per machine (machines with pieces only)."""
    loads: dict = {}
    if isinstance(schedule, SplittableSchedule):
        _check_ids(((j, i) for (j, _lam, i) in schedule.pieces), instance)
        for j, lam, i in schedule.pieces:
            loads[i] = loads.get(i, Fraction(0)) + lam * instance.processing_times[j]
    elif isinstance(schedule, PreemptiveSchedule):
        _check_ids(((j, i) for (j, _lam, i, _s) in schedule.pieces), instance)
        for j, lam, i, _start in schedule.pieces:
            loads[i] = loads.get(i, Fraction(0)) + lam * instance.processing_times[j]
    elif isinstance(schedule, NonPreemptiveSchedule):
        _check_ids(schedule.assignment.items(), instance)
        for j, i in schedule.assignment.items():
            loads[i] = loads.get(i, Fraction(0)) + instance.processing_times[j]
    elif isinstance(schedule, CompactSchedule):
        loads = machine_loads(schedule.explicit_machines, instance)
    else:
        raise TypeError(f"not a schedule: {schedule!r}")
    return loads


def makespan(schedule: Schedule, instance: Instance) -> Fraction:
    """Maximum total processing time over machines; empty schedules have
    makespan 0. For preemptive schedules this is the latest piece end."""
    if isinstance(schedule, PreemptiveSchedule):
        _check_ids(((j, i) for (j, _lam, i, _s) in schedule.pieces), instance)
        ends = [
            start + lam * instance.processing_times[j]
            for (j, lam, _i, start) in schedule.pieces
        ]
        return max(ends, default=Fraction(0))
    if isinstance(schedule, CompactSchedule):
        explicit = makespan(schedule.explicit_machines, instance)
        if any(count > 0 for count in schedule.trivial_machine_counts.values()):
            return max(explicit, schedule.piece_size)
        return explicit
    loads = machine_loads(schedule, instance)
    return max(loads.values(), default=Fraction(0))


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


def _validate_splittable(schedule: SplittableSchedule, instance: Instance) -> list:
    violations = []
    fraction_sums = [Fraction(0)] * instance.job_count
    machine_classes: dict = {}
    for j, lam, i in schedule.pieces:
        if not 0 <= j < instance.job_count:
            violations.append(f"unknown job id {j}")
            continue
        if not 0 <= i < instance.machine_count:
            violations.append(f"unknown machine id {i}")
            continue
        if not 0 < lam <= 1:
            violations.append(f"fraction {lam} of job {j} outside (0, 1]")
        fraction_sums[j] += lam
        machine_classes.setdefault(i, set()).add(instance.class_labels[j])
    for j, total in enumerate(fraction_sums):
        if total != 1:
            violations.append(f"fractions of job {j} sum to {total}, not 1")
    violations.extend(_slot_violations(machine_classes, instance.slot_budget))
    return violations


def _validate_preemptive(schedule: PreemptiveSchedule, instance: Instance) -> list:
    violations = []
    fraction_sums = [Fraction(0)] * instance.job_count
    machine_classes: dict = {}
    by_machine: dict = {}
    by_job: dict = {}
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
    # Adjacent-pair checks after sorting; touching intervals (end == start) are fine.
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


def _validate_nonpreemptive(schedule: NonPreemptiveSchedule, instance: Instance) -> list:
    violations = []
    machine_classes: dict = {}
    for j in range(instance.job_count):
        if j not in schedule.assignment:
            violations.append(f"job {j} is unassigned")
    for j, i in sorted(schedule.assignment.items()):
        if not 0 <= j < instance.job_count:
            violations.append(f"unknown job id {j}")
            continue
        if not 0 <= i < instance.machine_count:
            violations.append(f"unknown machine id {i}")
            continue
        machine_classes.setdefault(i, set()).add(instance.class_labels[j])
    violations.extend(_slot_violations(machine_classes, instance.slot_budget))
    return violations


def _validate_compact(schedule: CompactSchedule, instance: Instance) -> list:
    violations = []
    explicit = schedule.explicit_machines
    fraction_sums = [Fraction(0)] * instance.job_count
    explicit_class_load: dict = {}
    machine_classes: dict = {}
    explicit_ids = set()
    for j, lam, i in explicit.pieces:
        if not 0 <= j < instance.job_count:
            violations.append(f"unknown job id {j}")
            continue
        if not 0 <= i < instance.machine_count:
            violations.append(f"unknown machine id {i}")
            continue
        if not 0 < lam <= 1:
            violations.append(f"fraction {lam} of job {j} outside (0, 1]")
        fraction_sums[j] += lam
        explicit_ids.add(i)
        u = instance.class_labels[j]
        explicit_class_load[u] = (
            explicit_class_load.get(u, Fraction(0)) + lam * instance.processing_times[j]
        )
        machine_classes.setdefault(i, set()).add(u)
    for j, total in enumerate(fraction_sums):
        if total > 1:
            violations.append(f"fractions of job {j} sum to {total} > 1")
    violations.extend(_slot_violations(machine_classes, instance.slot_budget))
    trivial_total = 0
    for u, count in sorted(schedule.trivial_machine_counts.items()):
        if not 1 <= u <= instance.class_count:
            violations.append(f"unknown class id {u} in trivial machine counts")
            continue
        if count < 0:
            violations.append(f"negative trivial machine count for class {u}")
            continue
        trivial_total += count
    if len(explicit_ids) + trivial_total > instance.machine_count:
        violations.append(
            f"machine budget exceeded: {len(explicit_ids)} explicit + "
            f"{trivial_total} trivial > m={instance.machine_count}"
        )
    # Per-class conservation: the explicit part plus the folded size-T pieces
    # must carry the class's entire load exactly.
    totals = {cl.class_id: cl.total for cl in class_loads(instance)}
    for u, total in sorted(totals.items()):
        carried = explicit_class_load.get(u, Fraction(0))
        carried += schedule.trivial_machine_counts.get(u, 0) * schedule.piece_size
        if carried != total:
            violations.append(
                f"class {u} carries {carried}, expected {total}"
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
        heaviest = max(cl.total for cl in class_loads(instance))
        return average, c * heaviest
    peak = instance.max_processing_time
    return max(peak, average), instance.job_count * peak


def expand_compact(schedule: CompactSchedule, instance: Instance) -> SplittableSchedule:
    """Materialize a CompactSchedule as an explicit SplittableSchedule.

    Trivial machines get fresh machine ids after the explicit ones. Each
    class's leftover job fractions (whatever the explicit part did not use)
    are carved into pieces of exactly ``piece_size`` in job-id order; exact
    conservation makes the carving come out even.
    """
    pieces = list(schedule.explicit_machines.pieces)
    used = {i for (_j, _lam, i) in pieces}
    next_machine = max(used) + 1 if used else 0
    remaining = [Fraction(1)] * instance.job_count
    for j, lam, _i in pieces:
        remaining[j] -= lam
    for u in sorted(schedule.trivial_machine_counts):
        count = schedule.trivial_machine_counts[u]
        pool = [j for j in instance.jobs_of_class(u) if remaining[j] > 0]
        cursor = 0
        for _ in range(count):
            space = schedule.piece_size
            while space > 0:
                if cursor >= len(pool):
                    raise InvalidScheduleError(
                        f"class {u} lacks load for its trivial machines"
                    )
                j = pool[cursor]
                available = remaining[j] * instance.processing_times[j]
                take = min(space, available)
                lam = take / instance.processing_times[j]
                pieces.append((j, lam, next_machine))
                remaining[j] -= lam
                space -= take
                if remaining[j] == 0:
                    cursor += 1
            next_machine += 1
    return SplittableSchedule(tuple(pieces))
