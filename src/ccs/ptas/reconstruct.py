"""Turning a feasible configuration-program point into an actual schedule.

The point is the compact program's (``build_program``); the built
program's index maps say where each class's columns sit. Machines are
runs of configurations (configuration index ascending, x_C machines
each). Large classes claim module slots in deterministic order (classes
ascending, module sizes descending, machines ascending), each reading
the modules it uses off ``BuiltProgram.y_columns``; small classes spread
round-robin over the machines of their hosting cell, which keeps
both the per-machine host count within the free slots and the
per-machine hosted volume within leftover plus one small class. A
splittable point is read as counted class-load patterns (a
``CompactSchedule``), at a cost independent of the machine count. A
non-preemptive point places its original jobs into the space their
rounded carriers reserved.

A splittable schedule also unfolds into a preemptive one by slice
decomposition (``unfold_preemptive``), which is how the preemptive scheme
answers.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from fractions import Fraction

from ..core import (
    CCSError,
    CompactSchedule,
    Instance,
    InvalidScheduleError,
    NonPreemptiveSchedule,
    PreemptiveSchedule,
    SPLITTABLE,
    SplittableSchedule,
    expand_compact,
    validate,
)
from ..greedy import round_robin
from .builder import BuiltProgram


def _runs(x, built: BuiltProgram) -> list:
    """(configuration, first machine id, machine count) for every
    configuration the point runs, configuration index ascending."""
    runs = []
    first = 0
    for i in range(built.configurations.count):
        if x[i]:
            runs.append((i, first, x[i]))
            first += x[i]
    if first != built.rounded.machine_count:
        raise CCSError(
            f"point runs {first} machines,"
            f" expected {built.rounded.machine_count}"
        )
    return runs


def _host_assignments(x, built, runs) -> dict:
    """Small class id -> hosting machine id, via round robin per cell.

    round_robin deals the k-th class to bin k mod bins, so a cell hosting
    h classes deals them over its first min(cell size, h) machines only."""
    confs = built.configurations
    cell_classes: dict = {}
    for u, cls in enumerate(built.rounded.classes):
        if not cls.small:
            continue
        z0 = built.z_columns[u]
        z = x[z0 : z0 + len(confs.pairs)]
        chosen = [pos for pos, val in enumerate(z) if val]
        if len(chosen) != 1:
            raise CCSError(f"class {cls.class_id} hosted {len(chosen)} times")
        cell_classes.setdefault(chosen[0], []).append(
            (cls.class_id, cls.jobs[0].scaled_size)
        )
    cell_machines: dict = {}
    for i, first, count in runs:
        pos = confs.pair_position(i)
        if pos in cell_classes:
            slots = cell_machines.setdefault(pos, [])
            need = len(cell_classes[pos]) - len(slots)
            slots.extend(range(first, first + min(count, need)))
    hosts: dict = {}
    for pos in sorted(cell_classes):
        slots = cell_machines.get(pos)
        if not slots:
            raise CCSError(
                f"hosting cell {built.configurations.pairs[pos]} is empty"
            )
        bins = round_robin(cell_classes[pos], len(slots))
        for bin_idx, machine in enumerate(slots):
            for class_id in bins[bin_idx]:
                hosts[class_id] = machine
    return hosts


def _reconstruct_splittable(x, built: BuiltProgram) -> CompactSchedule:
    """The point's per-machine class loads as counted patterns.

    The slots of module g form a pool: machines in id order, each holding
    as many slots as its configuration has copies of g. Large classes, in
    class order, claim their slots from the pools largest module first
    and fill them in that order: full slots, at most one partly filled
    slot, then empty ones. Machines are swept in id order, a stretch at a
    time: every machine up to the next claim boundary, run end or
    small-class host takes its slots from the same claims, so the sweep's
    steps follow the point's support and the class count, not m.
    """
    rounded = built.rounded
    configs = built.configurations.configs
    runs = _runs(x, built)
    # per module, the claims on its slots in claim order, as [owner, slot
    # count]; the owner is (class id, load per slot), or None
    claims = [deque() for _ in range(built.modules.count)]
    for u, cls in enumerate(rounded.classes):
        if cls.small:
            continue
        left = cls.jobs[0].raw_size
        used = [(g, x[col]) for g, col in built.y_columns[u] if x[col]]
        for g, y in reversed(used):
            size = Fraction(built.modules.sizes[g]) / rounded.scale
            full = min(y, left // size)
            part = left - full * size if full < y else 0
            left -= full * size + part
            for claim in ([(cls.class_id, size), full],
                          [(cls.class_id, part), int(part > 0)],
                          [None, y - full - (part > 0)]):
                if claim[1]:
                    claims[g].append(claim)
        if left:
            raise CCSError(f"class {cls.class_id} jobs left over")
    supply = [0] * built.modules.count
    for i, _first, count in runs:
        for g, k in configs[i]:
            supply[g] += k * count
    for g, (pool, have) in enumerate(zip(claims, supply)):
        claimed = sum(count for _owner, count in pool)
        if claimed != have:
            raise CCSError(f"module {g}: {claimed} slots claimed of {have}")
    hosted: dict = {}
    for class_id, machine in _host_assignments(x, built, runs).items():
        raw = rounded.classes[class_id - 1].jobs[0].raw_size
        hosted.setdefault(machine, []).append((class_id, raw))
    stops = sorted(hosted)
    counts: dict = {}
    for i, machine, count in runs:
        vec = configs[i]
        end = machine + count
        while machine < end:
            h = bisect_left(stops, machine)
            step = max(1, min(
                [claims[g][0][1] // k for g, k in vec]
                + [end - machine] + [s - machine for s in stops[h : h + 1]]
            ))
            loads = dict(hosted.get(machine, ()))
            for g, need in vec:
                while need:
                    head = claims[g][0]
                    take = min(need, head[1])
                    if head[0]:
                        u, load = head[0]
                        loads[u] = loads.get(u, 0) + take * load
                    # a step of several machines is taken only where each
                    # of them finds all its slots in the head claim
                    head[1] -= take * step
                    need -= take
                    if not head[1]:
                        claims[g].popleft()
            if loads:
                pattern = tuple(sorted(loads.items()))
                counts[pattern] = counts.get(pattern, 0) + step
            machine += step
    return CompactSchedule(patterns=tuple(counts.items()))


def _reconstruct_nonpreemptive(x, built: BuiltProgram) -> NonPreemptiveSchedule:
    rounded = built.rounded
    runs = _runs(x, built)
    machines = [i for i, _first, count in runs for _ in range(count)]
    values = built.modules.size_values
    slot_pool: dict = {q: deque() for q in values}
    for mach_id, cfg in enumerate(machines):
        for vq, count in built.configurations.configs[cfg]:
            slot_pool[values[vq]].extend([mach_id] * count)
    hosts = _host_assignments(x, built, runs)
    assignment: dict = {}
    sizes = built.modules.sizes
    position = {p: p_pos for p_pos, p in enumerate(rounded.large_sizes)}
    for u, cls in enumerate(rounded.classes):
        if cls.small:
            mach = hosts[cls.class_id]
            for j in cls.jobs[0].job_ids:
                assignment[j] = mach
            continue
        # pools by size position, largest size first, as the jobs are
        pools: dict = {}
        for job in cls.jobs:
            pools.setdefault(position[job.scaled_size], deque()).append(job)
        used = [(g, x[col]) for g, col in built.y_columns[u] if x[col]]
        for g, copies in sorted(used, key=lambda entry: -sizes[entry[0]]):
            # positions descending, as the pools were filled
            module = built.modules.modules[g][::-1]
            for _ in range(copies):
                mach = slot_pool[sizes[g]].popleft()
                for p_pos, k in module:
                    for _n in range(k):
                        for j in pools[p_pos].popleft().job_ids:
                            assignment[j] = mach
        if any(pools.values()):
            raise CCSError(f"class {cls.class_id} jobs left over")
    return NonPreemptiveSchedule(assignment=assignment)


def _augment(rows: list, match_row: list, match_col: dict, root: int) -> None:
    """Extend the matching by one augmenting path from the free row root."""
    parent: dict = {}
    queue = deque([root])
    while queue:
        r = queue.popleft()
        for col in rows[r]:
            if col in parent:
                continue
            parent[col] = r
            if col not in match_col:
                while col is not None:
                    r = parent[col]
                    col, match_row[r] = match_row[r], col
                    match_col[match_row[r]] = r
                return
            queue.append(match_col[col])
    raise CCSError("no perfect matching in a matrix of equal line sums")


def unfold_preemptive(
    instance: Instance, schedule: SplittableSchedule | CompactSchedule
) -> PreemptiveSchedule:
    """Preemptive schedule with the same job-machine loads as a splittable one.

    A CompactSchedule is laid out by ``expand_compact`` first. Raises
    InvalidScheduleError with the first violation when the schedule is
    not a valid splittable one.

    With T = max(p_max, makespan), the job x machine load matrix is padded
    to a square matrix whose rows and columns all sum to T, then perfect
    matchings on its positive entries are peeled off until it is zero
    (slice decomposition, Gonzalez and Sahni 1976). Each matching is one
    time slice in which a job runs on at most one machine and a machine
    runs at most one job, so the result has makespan at most T, and every
    job only runs on machines the splittable schedule put it on.
    """
    if isinstance(schedule, CompactSchedule):
        schedule = expand_compact(schedule, instance)  # validates it
    else:
        violations = validate(schedule, instance, SPLITTABLE)
        if violations:
            raise InvalidScheduleError(violations[0])
    n = instance.job_count
    times = instance.processing_times
    load: dict = {}
    for j, lam, i in schedule.pieces:
        load[j, i] = load.get((j, i), Fraction(0)) + lam * times[j]
    machines = sorted({i for _j, i in load})
    col_of = {i: n + pos for pos, i in enumerate(machines)}
    column_sums = [Fraction(0)] * len(machines)
    # rows: jobs 0..n-1, then one filler row per machine; columns: filler
    # column j per job, then machines at n + position
    rows: list = [{} for _ in range(n + len(machines))]
    for (j, i), value in load.items():
        col = col_of[i]
        rows[j][col] = rows[col][j] = value
        column_sums[col - n] += value
    horizon = max([*times, *column_sums])
    for j in range(n):
        if times[j] < horizon:
            rows[j][j] = horizon - times[j]
    for pos, total in enumerate(column_sums):
        if total < horizon:
            rows[n + pos][n + pos] = horizon - total
    match_row: list = [None] * len(rows)
    match_col: dict = {}
    pieces: list = []
    running: dict = {}
    now = Fraction(0)
    while now < horizon:
        for r, col in enumerate(match_row):
            if col is None:
                _augment(rows, match_row, match_col, r)
        width = min(rows[r][col] for r, col in enumerate(match_row))
        for r, col in enumerate(match_row):
            if r < n and col >= n:
                mach = machines[col - n]
                idx = running.get((r, mach))
                if idx is not None and pieces[idx][3] + pieces[idx][1] == now:
                    pieces[idx][1] += width
                else:
                    running[r, mach] = len(pieces)
                    pieces.append([r, width, mach, now])
            rows[r][col] -= width
            if not rows[r][col]:
                del rows[r][col]
                match_row[r] = None
                del match_col[col]
        now += width
    return PreemptiveSchedule(
        pieces=tuple(
            (j, amount / times[j], mach, start)
            for j, amount, mach, start in pieces
        )
    )


def construct_schedule(x, built: BuiltProgram):
    """Schedule of the original instance from a feasible point x of the
    built compact program. Raises CCSError where the point does not fit
    the program's index maps."""
    width = len(built.program.lower)
    if len(x) != width:
        raise CCSError(f"point has length {len(x)}, expected {width}")
    if built.rounded.params.variant == SPLITTABLE:
        return _reconstruct_splittable(x, built)
    return _reconstruct_nonpreemptive(x, built)
