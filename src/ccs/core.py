"""Instance and schedule data model with exact rational arithmetic.

Conventions used across the package: jobs are identified by their position
0..n-1 in ``processing_times``, machines by 0..m-1, classes by 1..C after
dense re-indexing; ids are plain ints (not bool). Every quantity that can
be fractional is a :class:`fractions.Fraction` where the API takes or
returns it. Inner loops run in Python ints instead: an instance keeps its
sizes over their least common denominator (and builds the Fractions of
plain int sizes only when read), and the schedule checks scale a
schedule's fractions, starts and loads to one common denominator before
they add, sort and compare; the schedules built by ``approx_splittable``
and ``approx_preemptive`` carry such ints already, and their Fraction
patterns or pieces are built only when read. The checks are the one
reader of a schedule: ``validate``, ``makespan``, ``machine_loads`` and
``makespan_and_violations`` each run one of them once, and the measures
come from the int loads and spans it computes. Nothing in this package
computes in floats except the mixed-integer solve inside ``ccs.nfold``,
whose output is re-verified exactly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from math import lcm
from operator import add, and_, eq, itemgetter, le, lt, mul, sub
from typing import Mapping, NamedTuple, Union

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
    """A search budget was exceeded: an enumeration cap, a program bound
    the solver's doubles cannot hold, or the solver's time limit.

    Raised from a scheme's guess search, it keeps what the search held:
    ``schedule``, the best schedule found (the warm start or a program's),
    and ``bound``, the lower bound on the optimum proved so far. Both are
    None where no search ran."""

    schedule = None
    bound = None


def parse_rational(token: str) -> Fraction:
    """Parse ``a`` or ``a/b`` into an exact value. Raises ValueError."""
    return Fraction(token)


def format_rational(value: Rational) -> str:
    """Render exactly: integers bare, everything else as ``a/b``."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# what a malformed value raises when it is converted to a Fraction, or a
# malformed piece or pattern when it is unpacked
_MALFORMED = (TypeError, ValueError, ZeroDivisionError, OverflowError)

# equal values of these types are one rational, so one Fraction serves
# every job of that size
_KEYED_SIZES = frozenset({int, float, str})


def _exact_sizes(raw: tuple) -> tuple:
    """(times, D, sizes): the processing times as Fractions, their least
    common denominator D, and each time times D as an int. One Fraction is
    built per distinct size (a Fraction given is kept as it is). Plain
    ints are their own sizes over D = 1, and their times are None: the
    instance builds them when first read."""
    kinds = set(map(type, raw))
    if kinds <= {int}:
        return None, 1, raw
    if kinds <= _KEYED_SIZES:
        times = _one_fraction_per_size(raw)
    else:
        times = tuple(map(_fraction, raw))
    den = lcm(*{p.denominator for p in times})
    return times, den, tuple(p.numerator * (den // p.denominator) for p in times)


def _one_fraction_per_size(raw: tuple) -> tuple:
    """The sizes as Fractions, one Fraction per distinct size."""
    exact = {p: Fraction(p) for p in dict.fromkeys(raw)}
    return tuple(map(exact.__getitem__, raw))


@dataclass(frozen=True)
class Instance:
    """n jobs with sizes and class labels, m machines, slot budget c.

    Construction normalizes the input: class labels are densely re-indexed
    1..C in ascending order of the original labels (classes without jobs
    cannot exist since classes are defined by the labels present), and the
    slot budget is clamped to min(c, C) — extra slots are never usable.
    ``original_labels[u - 1]`` recovers the input label of class u.

    Sizes that are all plain ints are their own scaled sizes (D = 1), and
    ``processing_times``, their Fractions, is built on first read: the
    approximations and the schedule checks read the ints only.
    """

    processing_times: tuple
    class_labels: tuple
    machine_count: int
    slot_budget: int
    original_labels: tuple = field(init=False, compare=False, repr=False)
    # (D, sizes, class_sums): D is the least common denominator of the
    # processing times; sizes holds each time times D, and class_sums each
    # class's total times D (class 1 first), as ints
    _scaled: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        try:
            times, den, sizes = _exact_sizes(tuple(self.processing_times))
        except _MALFORMED as exc:
            raise InvalidInstanceError(f"bad processing time: {exc}") from exc
        raw_labels = tuple(self.class_labels)
        if not sizes:
            raise InvalidInstanceError("instance needs at least one job")
        if len(sizes) != len(raw_labels):
            raise InvalidInstanceError(
                f"{len(sizes)} processing times but {len(raw_labels)} class labels"
            )
        if min(sizes) <= 0:
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
        try:
            originals = tuple(sorted(set(raw_labels)))
        except TypeError as exc:  # a label unhashable, or two incomparable
            raise InvalidInstanceError(f"bad class labels: {exc}") from exc
        remap = {orig: u for u, orig in enumerate(originals, start=1)}
        labels = tuple(map(remap.__getitem__, raw_labels))
        sums = [0] * len(originals)
        for size, lab in zip(sizes, labels):
            sums[lab - 1] += size
        if times is None:
            object.__delattr__(self, "processing_times")
        else:
            object.__setattr__(self, "processing_times", times)
        object.__setattr__(self, "class_labels", labels)
        object.__setattr__(self, "slot_budget", min(self.slot_budget, len(originals)))
        object.__setattr__(self, "original_labels", originals)
        object.__setattr__(self, "_scaled", (den, sizes, tuple(sums)))

    def __getattr__(self, name: str):
        # reached only for an attribute never set: the processing times
        # of plain int sizes, until their first read
        if name != "processing_times" or "_scaled" not in vars(self):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        times = _one_fraction_per_size(self._scaled[1])
        object.__setattr__(self, "processing_times", times)
        return times

    @property
    def job_count(self) -> int:
        return len(self._scaled[1])

    @property
    def class_count(self) -> int:
        return len(self.original_labels)

    @cached_property
    def total_load(self) -> Fraction:
        den, sizes, _sums = self._scaled
        return Fraction(sum(sizes), den)

    @cached_property
    def max_processing_time(self) -> Fraction:
        den, sizes, _sums = self._scaled
        return Fraction(max(sizes), den)

    @cached_property
    def _class_members(self) -> tuple:
        """Per class, class 1 first, its job ids ascending."""
        members = [[] for _ in self.original_labels]
        for j, u in enumerate(self.class_labels):
            members[u - 1].append(j)
        return tuple(map(tuple, members))

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


def _stored_pieces(pieces, width: int) -> tuple:
    """The pieces as plain tuples ``(job_id, fraction, machine_id)``, with
    a start as fourth entry when ``width`` is 4, fraction and start as
    Fractions. A tuple already in that form, as the algorithms build it,
    is kept as given: one pass over it costs less than a rebuild. Raises
    InvalidScheduleError on a piece that does not unpack or convert."""
    if type(pieces) is tuple:
        for piece in pieces:
            if (
                type(piece) is not tuple
                or len(piece) != width
                or type(piece[1]) is not Fraction
                or (width == 4 and type(piece[3]) is not Fraction)
            ):
                break
        else:
            return pieces
    try:
        if width == 3:
            return tuple((j, _fraction(lam), i) for j, lam, i in pieces)
        return tuple(
            (j, _fraction(lam), i, _fraction(start)) for j, lam, i, start in pieces
        )
    except _MALFORMED as exc:
        raise InvalidScheduleError(f"bad piece: {exc}") from exc


@dataclass(frozen=True)
class SplittableSchedule:
    """Fractions of jobs on machines; a job may run on several machines
    simultaneously. Pieces are (job_id, fraction, machine_id) with the
    fraction taken of the job's full size."""

    pieces: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", _stored_pieces(self.pieces, 3))


class _OverScale(dict):
    """Fraction(num, scale) for ints num over one fixed scale, built once
    per distinct num on first lookup."""

    def __init__(self, scale: int) -> None:
        super().__init__()
        self.scale = scale

    def __missing__(self, num: int) -> Fraction:
        value = self[num] = Fraction(num, self.scale)
        return value


class _Layout(NamedTuple):
    """A preemptive schedule as int columns in piece order: job ids,
    machine ids, and each piece's processing time and start over one
    scale L. ``sizes`` holds the jobs' sizes over L, from an instance
    whose sizes have the common denominator ``den``."""

    jobs: tuple
    amounts: tuple
    machines: tuple
    starts: tuple
    scale: int
    den: int
    sizes: tuple

    def pieces(self) -> tuple:
        """The pieces (job_id, amount/size, machine_id, start/L), one
        Fraction per cut job and one per distinct start."""
        sizes = self.sizes
        whole = Fraction(1)
        exact = _OverScale(self.scale)
        return tuple(
            (j, whole if take == sizes[j] else Fraction(take, sizes[j]), i, exact[start])
            for j, take, i, start in zip(self.jobs, self.amounts, self.machines, self.starts)
        )


@dataclass(frozen=True)
class PreemptiveSchedule:
    """Timed job pieces; pieces of one job must never overlap in time.
    Pieces are (job_id, fraction, machine_id, start_time).

    ``approx_preemptive`` builds its schedule from an int ``_Layout``: the
    checks, ``makespan`` and ``machine_loads`` read the layout, and
    ``pieces`` is built from it on first read."""

    pieces: tuple
    _layout = None  # the _Layout the schedule was built from, if any

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", _stored_pieces(self.pieces, 4))

    @classmethod
    def _laid_out(cls, layout: _Layout) -> PreemptiveSchedule:
        schedule = object.__new__(cls)
        object.__setattr__(schedule, "_layout", layout)
        return schedule

    def __getattr__(self, name: str):
        # reached only for an attribute never set: the pieces of a
        # schedule built from a layout, until their first read
        if name != "pieces" or self._layout is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        pieces = self._layout.pieces()
        object.__setattr__(self, "pieces", pieces)
        return pieces


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
    each class is carved into job pieces; ``expand_compact`` carves one.

    ``approx_splittable`` builds its schedule from the same patterns with
    int loads over one scale L: the checks and ``makespan`` read those,
    and ``patterns`` is built from them on first read."""

    patterns: tuple
    _layout = None  # (patterns with int loads, L) the schedule was built from

    def __post_init__(self) -> None:
        object.__setattr__(self, "patterns", _stored_patterns(self.patterns))

    @classmethod
    def _laid_out(cls, patterns: tuple, scale: int) -> CompactSchedule:
        schedule = object.__new__(cls)
        object.__setattr__(schedule, "_layout", (patterns, scale))
        return schedule

    def __getattr__(self, name: str):
        # reached only for an attribute never set: the patterns of a
        # schedule built from a layout, until their first read
        if name != "patterns" or self._layout is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        rows, scale = self._layout
        exact = _OverScale(scale)
        patterns = tuple(
            (tuple((u, exact[load]) for u, load in pattern), count)
            for pattern, count in rows
        )
        object.__setattr__(self, "patterns", patterns)
        return patterns


def _stored_patterns(patterns) -> tuple:
    """The patterns as plain tuples ``(((class_id, load), ...), count)``
    with Fraction loads; a tuple already in that form is kept as given, as
    ``_stored_pieces`` keeps pieces. Raises InvalidScheduleError on a
    pattern that does not unpack or convert."""
    if _stored_as_given(patterns):
        return patterns
    try:
        return tuple(
            (tuple((u, _fraction(load)) for u, load in pattern), count)
            for pattern, count in patterns
        )
    except _MALFORMED as exc:
        raise InvalidScheduleError(f"bad pattern: {exc}") from exc


def _stored_as_given(patterns) -> bool:
    """Whether the patterns already are plain tuples with Fraction loads:
    one pass, which costs less than a rebuild however few they are."""
    if type(patterns) is not tuple:
        return False
    for entry in patterns:
        if type(entry) is not tuple or len(entry) != 2:
            return False
        if type(entry[0]) is not tuple:
            return False
        for item in entry[0]:
            if type(item) is not tuple or len(item) != 2:
                return False
            if type(item[1]) is not Fraction:
                return False
    return True


Schedule = Union[
    SplittableSchedule, PreemptiveSchedule, NonPreemptiveSchedule, CompactSchedule
]


def _is_int(value) -> bool:
    # ids and counts are plain ints: bool is an int subclass, and 1.0 or
    # Fraction(1) compare equal to 1 but are no ids
    return type(value) is int or (
        isinstance(value, int) and not isinstance(value, bool)
    )


def _over_common_denominator(values: list) -> tuple:
    """(L, ints): the Fractions as ints over their least common
    denominator L, in the given order."""
    dens = [v.denominator for v in values]
    scale = lcm(*set(dens))
    if scale == 1:
        return 1, [v.numerator for v in values]
    return scale, [v.numerator * (scale // d) for v, d in zip(values, dens)]


def _columns(rows, width: int) -> list:
    """The columns of rows of ``width`` entries each (a schedule's pieces
    or patterns): ``width`` empty ones when there are no rows."""
    return list(zip(*rows)) or [()] * width


def _amounts(jobs, instance: Instance, fractions: tuple) -> tuple:
    """(L, ints): the processing time fraction * p_j of each piece, as ints
    over one common denominator L, from the pieces' job ids and their
    fractions over a common denominator."""
    den, sizes, _sums = instance._scaled
    scale, lams = fractions
    return scale * den, list(map(mul, lams, map(sizes.__getitem__, jobs)))


def _timed_amounts(jobs, fractions: tuple, starts: tuple, instance: Instance) -> tuple:
    """(L, amounts, starts, need): each preemptive piece's processing time
    and start, and each job's size, as ints over one common denominator L,
    from the pieces' job ids and their fractions and starts over common
    denominators."""
    amount_scale, amounts = _amounts(jobs, instance, fractions)
    start_scale, starts = starts
    scale = lcm(amount_scale, start_scale)
    if scale != start_scale:
        starts = list(map(mul, starts, repeat(scale // start_scale)))
    if scale != amount_scale:
        amounts = list(map(mul, amounts, repeat(scale // amount_scale)))
    den, sizes, _sums = instance._scaled
    return scale, amounts, starts, tuple(map(mul, sizes, repeat(scale // den)))


def _laid_out_columns(schedule: PreemptiveSchedule, instance: Instance):
    """(jobs, machines, L, amounts, starts, need) from the schedule's int
    layout: its id columns, each piece's processing time and start, and
    each job's size, as ints over its scale L. None when it has no layout,
    when the layout was built for other sizes (another common denominator,
    or sizes over L that are not this instance's), or when its ids or
    ranges fail the bulk test, so that the pieces are read."""
    layout = schedule._layout
    den, sizes, _sums = instance._scaled
    if layout is None or layout.den != den:
        return None
    up = layout.scale // den
    need = sizes if up == 1 else tuple(map(mul, sizes, repeat(up)))
    jobs, amounts, machines, starts = layout[:4]
    if need != layout.sizes or not (
        _plain_ids(jobs, instance.job_count)
        and _plain_ids(machines, instance.machine_count)
        and min(amounts, default=1) > 0
        and all(map(le, amounts, map(need.__getitem__, jobs)))
        and min(starts, default=0) >= 0
    ):
        return None
    return jobs, machines, layout.scale, amounts, starts, need


def _totals(machines, amounts) -> dict:
    """{machine: summed amount}, machines in order of first appearance."""
    totals: dict = {}
    for machine, amount in zip(machines, amounts):
        totals[machine] = totals.get(machine, 0) + amount
    return totals


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


def _plain_ids(ids: list, count: int) -> bool:
    """Whether every id is a plain int in range(count), checked in bulk."""
    return not ids or (
        set(map(type, ids)) == {int} and min(ids) >= 0 and max(ids) < count
    )


def _slot_check(machines, jobs, instance: Instance) -> list:
    """``_slot_violations`` of jobs running on machines, checked in bulk
    on the number of classes per machine first."""
    pairs = set(zip(machines, map(instance.class_labels.__getitem__, jobs)))
    if max(Counter(map(itemgetter(0), pairs)).values(), default=0) <= (
        instance.slot_budget
    ):
        return []
    machine_classes: dict = {}
    for i, u in pairs:
        machine_classes.setdefault(i, set()).add(u)
    return _slot_violations(machine_classes, instance.slot_budget)


def _scaled_columns(pieces, width: int) -> tuple:
    """(jobs, machines, fractions[, starts]): the pieces' id columns, and
    their fractions and, for timed pieces (``width`` 4), their starts as
    ``_over_common_denominator`` pairs."""
    jobs, lams, machines, *starts = _columns(pieces, width)
    return (
        jobs, machines, _over_common_denominator(lams),
        *map(_over_common_denominator, starts),
    )


def _known_pieces(pieces, instance: Instance, violations: list, width: int) -> tuple:
    """``_scaled_columns`` of the pieces whose job and machine ids exist.
    The columns are checked in bulk; only when that fails are the pieces
    checked one by one, reporting unknown ids, fractions outside (0, 1]
    and negative starts into violations in piece order."""
    columns = _scaled_columns(pieces, width)
    jobs, machines, (scale, lams), *starts = columns
    if (
        _plain_ids(jobs, instance.job_count)
        and _plain_ids(machines, instance.machine_count)
        and (not lams or min(lams) > 0 and max(lams) <= scale)
        and all(min(ints, default=0) >= 0 for _scale, ints in starts)
    ):
        return columns
    known = []
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
        if width == 4 and piece[3].numerator < 0:
            violations.append(f"piece of job {j} starts at {piece[3]} < 0")
        known.append(piece)
    return _scaled_columns(known, width)


def _sum_violations(jobs, parts, need) -> list:
    """A violation for each job j whose parts do not sum to need[j]: the
    job's fraction of its size, or the fraction of its time, is not 1."""
    sums = [0] * len(need)
    for j, part in zip(jobs, parts):
        sums[j] += part
    if sums == list(need):  # checked in bulk first
        return []
    return [
        f"fractions of job {j} sum to {Fraction(total, full)}, not 1"
        for j, (total, full) in enumerate(zip(sums, need))
        if total != full
    ]


# Each _check_* returns (violations, measure) for a schedule of its type
# under its own variant's rules, from one pass. The measure is what the
# pass holds in ints over one scale L: (L, peak, machines, amounts), the
# makespan peak/L, and the machine id and processing time of each piece
# (of each job, for an assignment, whose amounts are an iterator to read
# once) in order, which ``machine_loads`` sums; a CompactSchedule has no
# machine ids, and its columns are None. The measure is None when the
# schedule names an unknown id.


def _check_splittable(schedule: SplittableSchedule, instance: Instance) -> tuple:
    violations = []
    jobs, machines, fractions = _known_pieces(
        schedule.pieces, instance, violations, 3
    )
    scale, lams = fractions
    violations.extend(_sum_violations(jobs, lams, [scale] * instance.job_count))
    violations.extend(_slot_check(machines, jobs, instance))
    if len(jobs) < len(schedule.pieces):
        return violations, None
    scale, amounts = _amounts(jobs, instance, fractions)
    peak = max(_totals(machines, amounts).values(), default=0)
    return violations, (scale, peak, machines, amounts)


def _clashes(rows: list) -> list:
    """Indices k at which rows k and k + 1 of the sorted (group, start,
    end, other) rows share a group and overlap in time; touching
    intervals (end == start) are fine."""
    if not rows:
        return []
    groups, starts, ends, _others = zip(*rows)
    clash = map(and_, map(eq, groups, groups[1:]), map(lt, starts[1:], ends))
    return list(compress(range(len(rows) - 1), clash))


def _check_preemptive(schedule: PreemptiveSchedule, instance: Instance) -> tuple:
    """The checks run on the columns ``_laid_out_columns`` describes: the
    int layout's when it takes it, else the pieces' over their common
    denominator, with the pieces of an unknown id left out and each
    piece's problems reported."""
    violations = []
    columns = _laid_out_columns(schedule, instance)
    complete = True
    if columns is None:
        pieces = schedule.pieces
        jobs, machines, fractions, starts = _known_pieces(
            pieces, instance, violations, 4
        )
        columns = jobs, machines, *_timed_amounts(jobs, fractions, starts, instance)
        complete = len(jobs) == len(pieces)
    jobs, machines, scale, amounts, starts, need = columns
    violations.extend(_sum_violations(jobs, amounts, need))
    ends = list(map(add, starts, amounts))

    def span(start, end) -> str:
        return f"[{Fraction(start, scale)}, {Fraction(end, scale)})"

    # adjacent pairs of each machine's and each job's pieces, sorted
    rows = sorted(zip(machines, starts, ends, jobs))
    for k in _clashes(rows):
        (i, s1, e1, j1), (_i, s2, e2, j2) = rows[k], rows[k + 1]
        violations.append(
            f"machine {i} runs jobs {j1} and {j2} at once: "
            f"{span(s1, e1)} overlaps {span(s2, e2)}"
        )
    # a job of one piece has no pair: only jobs cut into several are sorted
    split = {j for j, pieces in Counter(jobs).items() if pieces > 1}
    rows = sorted(compress(
        zip(jobs, starts, ends, machines), map(split.__contains__, jobs)
    ))
    for k in _clashes(rows):
        (j, s1, e1, i1), (_j, s2, e2, i2) = rows[k], rows[k + 1]
        violations.append(
            f"parallel execution of job {j}: {span(s1, e1)} on machine {i1} "
            f"overlaps {span(s2, e2)} on machine {i2}"
        )
    violations.extend(_slot_check(machines, jobs, instance))
    if not complete:
        return violations, None
    return violations, (scale, max(ends, default=0), machines, amounts)


def _check_nonpreemptive(schedule: NonPreemptiveSchedule, instance: Instance) -> tuple:
    violations = []
    assignment = schedule.assignment
    den, sizes, _sums = instance._scaled
    # checked in bulk first: n distinct job ids that all exist assign
    # every job, and with every machine id existing no job checks its own
    every_job = _plain_ids(list(assignment), instance.job_count)
    if len(assignment) < instance.job_count or not every_job:
        for j in range(instance.job_count):
            if j not in assignment:
                violations.append(f"job {j} is unassigned")

    def order(item) -> tuple:  # int job ids ascending, then the rest as given
        return (0, item[0]) if _is_int(item[0]) else (1, 0)

    known = {}
    if every_job and _plain_ids(list(assignment.values()), instance.machine_count):
        known = assignment
    else:
        for j, i in sorted(assignment.items(), key=order):
            if not (_is_int(j) and 0 <= j < instance.job_count):
                violations.append(f"unknown job id {j!r}")
            elif not (_is_int(i) and 0 <= i < instance.machine_count):
                violations.append(f"unknown machine id {i!r}")
            else:
                known[j] = i
    violations.extend(_slot_check(known.values(), known, instance))
    if len(known) < len(assignment):
        return violations, None
    machines = assignment.values()
    totals = _totals(machines, map(sizes.__getitem__, assignment))
    peak = max(totals.values(), default=0)
    return violations, (den, peak, machines, map(sizes.__getitem__, assignment))


def _check_compact(schedule: CompactSchedule, instance: Instance) -> tuple:
    """The checks run on the int loads of the schedule's layout when it
    has one, else on its Fraction loads over their common denominator."""
    violations = []
    den, _sizes, sums = instance._scaled
    if schedule._layout is None:
        rows, scale = schedule.patterns, None
    else:
        rows, scale = schedule._layout
    patterns, counts = _columns(rows, 2)
    widths = list(map(len, patterns))
    classes, scaled = _columns(list(chain.from_iterable(patterns)), 2)
    if scale is None:
        scale, scaled = _over_common_denominator(scaled)
    totals = [0] * instance.class_count
    # checked in bulk first: known classes, positive counts and loads,
    # and patterns within the slot budget that list no class twice leave
    # only the machine budget and the class totals to report
    known = _plain_ids(classes, instance.class_count + 1) and 0 not in classes
    if (
        known
        and set(map(type, counts)) <= {int}
        and min(counts, default=1) > 0
        and min(scaled, default=1) > 0
        and max(widths, default=0) <= instance.slot_budget
        and all(map(eq, map(len, map(dict, patterns)), widths))
    ):
        machines = sum(counts)
        weights = map(mul, chain.from_iterable(map(repeat, counts, widths)), scaled)
        for u, weight in zip(classes, weights):
            totals[u - 1] += weight
    else:
        known, machines = _compact_violations(
            rows, scaled, scale, totals, instance, violations
        )
    if machines > instance.machine_count:
        violations.append(
            f"machine budget exceeded: {machines} machines > "
            f"m={instance.machine_count}"
        )
    common = lcm(scale, den)
    carried = list(map(mul, totals, repeat(common // scale)))
    expected = list(map(mul, sums, repeat(common // den)))
    if carried != expected:
        violations.extend(
            f"class {u} carries {Fraction(total, common)}, "
            f"expected {Fraction(need, common)}"
            for u, (total, need) in enumerate(zip(carried, expected), start=1)
            if total != need
        )
    if not known:
        return violations, None
    # each pattern's load, as differences of the loads' running sums
    ends = list(accumulate(widths, initial=0))
    running = list(accumulate(scaled, initial=0))
    peaks = map(sub, map(running.__getitem__, ends[1:]), map(running.__getitem__, ends))
    return violations, (scale, max(peaks, default=0), None, None)


def _compact_violations(patterns, scaled, scale, totals, instance, violations) -> tuple:
    """(known, machines): whether every class id exists, and the machines
    the patterns of positive integer count take. Reports each pattern's
    violations in pattern order and adds its class loads, the ints
    ``scaled`` over ``scale``, into totals. A pattern of a bad count
    reports that and its unknown class ids only."""
    known = True
    machines = 0
    at = 0
    for pattern, count in patterns:
        loads = scaled[at:at + len(pattern)]
        at += len(pattern)
        fits = [_is_int(u) and 1 <= u <= instance.class_count for u, _load in pattern]
        known = known and all(fits)
        if not _is_int(count) or count < 1:
            violations.append(f"pattern count {count!r} is not a positive integer")
            violations.extend(
                f"unknown class id {u!r}"
                for (u, _load), known_class in zip(pattern, fits)
                if not known_class
            )
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
        for (u, _load), value, known_class in zip(pattern, loads, fits):
            if not known_class:
                violations.append(f"unknown class id {u!r}")
            elif value <= 0:
                violations.append(
                    f"class {u} has non-positive load {Fraction(value, scale)}"
                )
            else:
                totals[u - 1] += count * value
    return known, machines


def _checked(schedule: Schedule, instance: Instance) -> tuple:
    if isinstance(schedule, SplittableSchedule):
        return _check_splittable(schedule, instance)
    if isinstance(schedule, PreemptiveSchedule):
        return _check_preemptive(schedule, instance)
    if isinstance(schedule, NonPreemptiveSchedule):
        return _check_nonpreemptive(schedule, instance)
    if isinstance(schedule, CompactSchedule):
        return _check_compact(schedule, instance)
    raise TypeError(f"not a schedule: {schedule!r}")


def _variant_mismatch(schedule: Schedule, variant) -> list:
    """[] when the schedule belongs to the variant (its own by default),
    else the one violation saying it does not."""
    own = _variant_of(schedule)
    if variant is None:
        return []
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant != own:
        return [f"{type(schedule).__name__} is not a {variant} schedule"]
    return []


def validate(schedule: Schedule, instance: Instance, variant: str = None) -> list:
    """All feasibility violations of the schedule under the given variant's
    rules (empty list means feasible). The variant defaults to the one the
    schedule type belongs to; a mismatch is itself a violation."""
    return _variant_mismatch(schedule, variant) or _checked(schedule, instance)[0]


def _measured(schedule: Schedule, instance: Instance) -> tuple:
    """(violations, measure) of the one check of the schedule. Raises
    InvalidScheduleError with the first unknown-id violation it reported
    when the schedule names an id the instance does not have."""
    violations, measure = _checked(schedule, instance)
    if measure is None:
        raise InvalidScheduleError(
            next(v for v in violations if v.startswith("unknown "))
        )
    return violations, measure


def makespan(schedule: Schedule, instance: Instance) -> Fraction:
    """Maximum total processing time over machines; empty schedules have
    makespan 0. For preemptive schedules this is the latest piece end."""
    _violations, (scale, peak, _machines, _amounts) = _measured(schedule, instance)
    return Fraction(peak, scale)


def machine_loads(schedule: Schedule, instance: Instance) -> dict:
    """Total assigned processing time per machine (machines with pieces
    only), machines in order of first appearance."""
    if isinstance(schedule, CompactSchedule):
        raise TypeError(
            "a CompactSchedule has no machine ids; use expand_compact first"
        )
    _violations, (scale, _peak, machines, amounts) = _measured(schedule, instance)
    return {
        machine: Fraction(total, scale)
        for machine, total in _totals(machines, amounts).items()
    }


def makespan_and_violations(
    schedule: Schedule, instance: Instance, variant: str = None
) -> tuple:
    """``(makespan(schedule, instance), validate(schedule, instance,
    variant))`` from one run of the check behind both. Raises
    InvalidScheduleError on an unknown id, as ``makespan`` does."""
    violations, (scale, peak, _machines, _amounts) = _measured(schedule, instance)
    return Fraction(peak, scale), _variant_mismatch(schedule, variant) or violations


def _require_class_slots(instance: Instance) -> None:
    """Raise StructuralInfeasibleError when C > m*c: each class needs a
    slot, and only m*c exist, so no schedule exists at any makespan."""
    m = instance.machine_count
    c = instance.slot_budget
    if instance.class_count > m * c:
        raise StructuralInfeasibleError(
            f"{instance.class_count} classes need more than m*c = {m * c} class slots"
        )


def lower_bound(instance: Instance, variant: str):
    """(LB, UB) bracket for the optimal makespan of the variant.

    Splittable: LB = total/m, UB = c * max class load. Preemptive and
    non-preemptive: LB = max(p_max, total/m), UB = n * p_max. Raises
    StructuralInfeasibleError when C > m*c (pigeonhole on class slots:
    no schedule exists at any makespan).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    _require_class_slots(instance)
    average = instance.total_load / instance.machine_count
    if variant == SPLITTABLE:
        den, _sizes, sums = instance._scaled
        return average, instance.slot_budget * Fraction(max(sums), den)
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
    violations = _check_compact(schedule, instance)[0]
    if violations:
        raise InvalidScheduleError(violations[0])
    cursor = [0] * instance.class_count  # next job of the class to carve
    left = [Fraction(1)] * instance.job_count  # fraction not yet carved
    pieces = []
    machine = 0
    for pattern, count in schedule.patterns:
        for _ in range(count):
            for u, load in pattern:
                while load > 0:
                    j = instance._class_members[u - 1][cursor[u - 1]]
                    size = instance.processing_times[j]
                    lam = min(left[j], load / size)
                    pieces.append((j, lam, machine))
                    left[j] -= lam
                    load -= lam * size
                    if left[j] == 0:
                        cursor[u - 1] += 1
            machine += 1
    return SplittableSchedule(tuple(pieces))
