"""Turning a feasible block-program point into an actual schedule.

Machines are materialized from the configuration counts (configuration
index ascending). Large classes claim module slots in deterministic order
(classes ascending, module sizes descending, machines ascending); small
classes spread round-robin over the machines of their hosting cell, which
keeps both the per-machine host count within the free slots and the
per-machine hosted volume within leftover plus one small class. The
original jobs then pour back into the space their rounded carriers
reserved, in job id order.

A splittable schedule also unfolds into a preemptive one by slice
decomposition (``unfold_preemptive``), which is how the preemptive scheme
answers.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from ..core import (
    Instance,
    NonPreemptiveSchedule,
    PreemptiveSchedule,
    SPLITTABLE,
    SplittableSchedule,
)
from ..greedy import round_robin
from ..nfold import NFoldSolution
from .builder import BuiltProgram


def _machine_table(solution: NFoldSolution, built: BuiltProgram) -> list:
    """Configuration index per machine id."""
    layout = built.layout
    t = built.program.brick_width
    counts = [0] * layout.config_count
    for u in range(built.program.brick_count):
        base = u * t
        for i in range(layout.config_count):
            counts[i] += solution.x[base + i]
    machines = []
    for i, count in enumerate(counts):
        machines.extend([i] * count)
    assert len(machines) == built.rounded.machine_count
    return machines


def _brick_slice(solution, built, u, offset, length):
    base = u * built.program.brick_width + offset
    return solution.x[base : base + length]


def _host_assignments(solution, built, machines) -> dict:
    """Small class id -> hosting machine id, via round robin per cell."""
    layout = built.layout
    confs = built.configurations
    cell_of_config = {}
    for pos, pair in enumerate(confs.pairs):
        for i in confs.groups[pair]:
            cell_of_config[i] = pos
    cell_machines: dict = {}
    for mach_id, cfg in enumerate(machines):
        pos = cell_of_config.get(cfg)
        if pos is not None:
            cell_machines.setdefault(pos, []).append(mach_id)
    cell_classes: dict = {}
    for u, cls in enumerate(built.rounded.classes):
        if not cls.small:
            continue
        z = _brick_slice(solution, built, u, layout.z_offset, layout.pair_count)
        chosen = [pos for pos, val in enumerate(z) if val]
        assert len(chosen) == 1, f"class {cls.class_id} hosted {len(chosen)} times"
        cell_classes.setdefault(chosen[0], []).append(
            (cls.class_id, cls.jobs[0].scaled_size)
        )
    hosts: dict = {}
    for pos in sorted(cell_classes):
        members = cell_classes[pos]
        slots = cell_machines.get(pos, [])
        assert slots, f"hosting cell {built.configurations.pairs[pos]} is empty"
        bins = round_robin(members, len(slots))
        for bin_idx in range(len(slots)):
            for class_id in bins[bin_idx]:
                hosts[class_id] = slots[bin_idx]
    return hosts


def _pour(job_ids, instance, room_list, emit) -> None:
    """Pour the given original jobs (id ascending) into the capacity list.

    room_list holds mutable [capacity, context] cells; emit(job, take,
    context) receives each nonzero piece. Advances through cells in order.
    """
    idx = 0
    for j in sorted(job_ids):
        need = instance.processing_times[j]
        while need > 0:
            while room_list[idx][0] == 0:
                idx += 1
            cell = room_list[idx]
            take = min(need, cell[0])
            emit(j, take, cell[1])
            cell[0] -= take
            need -= take


def _reconstruct_splittable(
    instance: Instance, solution: NFoldSolution, built: BuiltProgram
) -> SplittableSchedule:
    layout = built.layout
    rounded = built.rounded
    machines = _machine_table(solution, built)
    scale = rounded.scale
    slot_pool: dict = {g: deque() for g in range(layout.module_count)}
    for mach_id, cfg in enumerate(machines):
        vec = built.configurations.configs[cfg]
        for g, count in enumerate(vec):
            for _ in range(count):
                slot_pool[g].append(mach_id)
    hosts = _host_assignments(solution, built, machines)
    pieces: list = []
    for u, cls in enumerate(rounded.classes):
        if cls.small:
            mach = hosts[cls.class_id]
            room = [[cls.jobs[0].raw_size, mach]]
        else:
            y = _brick_slice(solution, built, u, layout.y_offset, layout.module_count)
            room = []
            for g in reversed(range(layout.module_count)):
                size_raw = Fraction(built.modules.sizes[g]) / scale
                for _ in range(y[g]):
                    room.append([size_raw, slot_pool[g].popleft()])
        job_ids = [j for job in cls.jobs for j in job.job_ids]
        _pour(
            job_ids,
            instance,
            room,
            lambda j, take, mach: pieces.append(
                (j, take / instance.processing_times[j], mach)
            ),
        )
    return SplittableSchedule(pieces=tuple(pieces))


def _reconstruct_nonpreemptive(
    instance: Instance, solution: NFoldSolution, built: BuiltProgram
) -> NonPreemptiveSchedule:
    layout = built.layout
    rounded = built.rounded
    machines = _machine_table(solution, built)
    values = built.modules.size_values
    slot_pool: dict = {q: deque() for q in values}
    for mach_id, cfg in enumerate(machines):
        vec = built.configurations.configs[cfg]
        for vq, count in enumerate(vec):
            for _ in range(count):
                slot_pool[values[vq]].append(mach_id)
    hosts = _host_assignments(solution, built, machines)
    assignment: dict = {}
    ground = built.modules.ground
    module_order = sorted(
        range(built.modules.count),
        key=lambda g: (-built.modules.sizes[g], g),
    )
    for u, cls in enumerate(rounded.classes):
        if cls.small:
            mach = hosts[cls.class_id]
            for j in cls.jobs[0].job_ids:
                assignment[j] = mach
            continue
        pools = {p: deque() for p in ground}
        for job in cls.jobs:
            pools[job.scaled_size].append(job)
        y = _brick_slice(solution, built, u, layout.y_offset, layout.module_count)
        for g in module_order:
            vec = built.modules.modules[g]
            for _ in range(y[g]):
                mach = slot_pool[built.modules.sizes[g]].popleft()
                for p_pos in reversed(range(len(ground))):
                    for _n in range(vec[p_pos]):
                        job = pools[ground[p_pos]].popleft()
                        for j in job.job_ids:
                            assignment[j] = mach
        assert not any(pools.values()), f"class {cls.class_id} jobs left over"
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
    raise AssertionError("no perfect matching in a matrix of equal line sums")


def unfold_preemptive(
    instance: Instance, schedule: SplittableSchedule
) -> PreemptiveSchedule:
    """Preemptive schedule with the same job-machine loads as a splittable one.

    With T = max(p_max, makespan), the job x machine load matrix is padded
    to a square matrix whose rows and columns all sum to T, then perfect
    matchings on its positive entries are peeled off until it is zero
    (slice decomposition, Gonzalez and Sahni 1976). Each matching is one
    time slice in which a job runs on at most one machine and a machine
    runs at most one job, so the result has makespan at most T, and every
    job only runs on machines the splittable schedule put it on.
    """
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


def construct_schedule(
    instance: Instance, solution: NFoldSolution, built: BuiltProgram
):
    """Schedule of the original instance from a feasible program point."""
    if built.layout.variant == SPLITTABLE:
        return _reconstruct_splittable(instance, solution, built)
    return _reconstruct_nonpreemptive(instance, solution, built)
