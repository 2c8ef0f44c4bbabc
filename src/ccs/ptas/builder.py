"""Assembly of the configuration programs of the splittable and
non-preemptive schemes.

``build_program`` emits the compact program (``ccs.nfold.CompactProgram``)
the solver takes. Columns, in order: one x per configuration (machines
running it); per large class one y per module it can fill, in the module
walk's order, looked up in ``ModuleSet.fillable`` under the class's
(position, count) pairs (every module when splittable); per small class
one z per (size, hosted-count) pair; one slack per host-capacity row,
then one per host-volume row. Rows: the machine row, one link row per
module footprint (configurations supply slots, y columns consume them),
per pair the host-capacity and host-volume rows, then each large class's
demand rows (non-preemptive: one per pair, read with the modules' own
pairs) and each small class's flag row, in class order. Host rows and
their slacks appear only when some class is small: without z columns the
slack alone meets them, since b <= c and h <= bound. The configuration
columns depend on the sets alone and are cached with them
(``ConfigurationSet.columns``).

The variant, the accuracy and the inflated bound are read off the rounded
instance's ``PtasParams`` (``ccs.ptas.rounding``); every count of the
program is read off the module and configuration sets.

``as_nfold`` lays out the same program as the paper's n-fold program, one
brick per class, as a view that is read and never solved (by the
dimension checks and ``--dump-nfold``): every brick has one x per
configuration, one y per module, one z per pair and one slack per shared
inequality row, and the shared rows see only the sum of the x columns over
the bricks. A non-preemptive brick has one demand row per large size,
whether or not its class has jobs of that size, so ``as_nfold`` alone
expands a class's (position, count) pairs. Its rows are sparse, dicts
{column: int} of their entries, since a brick is as wide as the
configuration set.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import SPLITTABLE
# with_top_row_slacks has no caller here; the benchmark's layer trace
# wraps it under this module's name
from ..nfold import CompactProgram, NFoldProgram, with_top_row_slacks
from .rounding import RoundedInstance, piece_cap
from .sets import ConfigurationSet, ModuleSet, enumerate_sets


@dataclass(frozen=True)
class BuiltProgram:
    """The compact program together with everything reconstruction needs.

    ``y_columns[u]`` lists the (module, column) pairs, modules ascending,
    of class u's y columns (empty for a small class); ``z_columns[u]`` is
    the first of small class u's pair columns (None for a large class).
    The x column of configuration i is column i.
    """

    program: CompactProgram
    modules: ModuleSet
    configurations: ConfigurationSet
    rounded: RoundedInstance
    y_columns: tuple
    z_columns: tuple


def _y_cap(rounded: RoundedInstance) -> int:
    """Upper bound of every y column: m for a non-preemptive module, and
    m times ``piece_cap`` for a splittable piece, since each piece is at
    least delta T."""
    m = rounded.machine_count
    if rounded.params.variant != SPLITTABLE:
        return m
    return m * piece_cap(rounded.params.grid, SPLITTABLE)


def build_program(rounded: RoundedInstance) -> BuiltProgram:
    """Assemble the compact configuration program for one rounded
    instance."""
    modules, configurations = enumerate_sets(rounded)
    c = rounded.slot_budget
    m = rounded.machine_count
    link_count = len(modules.size_values)
    pair_count = len(configurations.pairs)
    hosted = any(cls.small for cls in rounded.classes)
    if hosted:
        starts, rows, values = configurations.hosted_columns
        next_row = 1 + link_count + 2 * pair_count
    else:
        starts, rows, values = configurations.columns
        next_row = 1 + link_count
    starts, rows, values = list(starts), list(rows), list(values)
    rhs = [m] + [0] * (next_row - 1)
    upper = [m] * configurations.count
    capacity = 1 + link_count
    volume = capacity + pair_count

    position = {q: g for g, q in enumerate(modules.size_values)}
    link_of = [1 + position[q] for q in modules.sizes]
    splittable = rounded.params.variant == SPLITTABLE
    y_cap = _y_cap(rounded)
    y_columns = []
    z_columns = []
    for u, cls in enumerate(rounded.classes):
        col = len(upper)
        if cls.small:
            for pos in range(pair_count):
                rows += (capacity + pos, volume + pos, next_row)
                values += (1, cls.jobs[0].scaled_size, 1)
                starts.append(len(rows))
            upper += [1] * pair_count
            rhs.append(1)
            next_row += 1
            y_columns.append(())
            z_columns.append(col)
            continue
        fits = []
        if splittable:
            for g, size in enumerate(modules.sizes):
                rows += (link_of[g], next_row)
                values += (-1, size)
                starts.append(len(rows))
                fits.append((g, col + g))
            rhs.append(cls.scaled_load)
            next_row += 1
        else:
            have = rounded.count_vectors[u]
            demand = {}
            for p_pos, count in have:
                demand[p_pos] = next_row
                rhs.append(count)
                next_row += 1
            for g in modules.fillable[have]:
                rows.append(link_of[g])
                values.append(-1)
                for p_pos, k in modules.modules[g]:
                    rows.append(demand[p_pos])
                    values.append(k)
                starts.append(len(rows))
                fits.append((g, col + len(fits)))
        upper += [y_cap] * len(fits)
        y_columns.append(tuple(fits))
        z_columns.append(None)
    if hosted:
        for row in range(capacity, capacity + 2 * pair_count):
            rows.append(row)
            values.append(1)
            starts.append(len(rows))
        upper += [c * m] * pair_count + [rounded.scaled_inflated * m] * pair_count
    program = CompactProgram(
        col_start=starts,
        row_index=rows,
        values=values,
        rhs=rhs,
        lower=[0] * len(upper),
        upper=upper,
    )
    return BuiltProgram(
        program=program,
        modules=modules,
        configurations=configurations,
        rounded=rounded,
        y_columns=tuple(y_columns),
        z_columns=tuple(z_columns),
    )


def as_nfold(built: BuiltProgram) -> NFoldProgram:
    """The built program in the paper's n-fold layout, one brick per class,
    for reading rather than solving.

    Every row is built at the final brick width. Rows that do not depend
    on the class are one object shared by every brick; the top blocks
    differ only in the small load of the host-volume rows."""
    rounded = built.rounded
    modules, configurations = built.modules, built.configurations
    c, m = rounded.slot_budget, rounded.machine_count
    splittable = rounded.params.variant == SPLITTABLE
    pairs = len(configurations.pairs)
    # brick columns: x per configuration, y per module, z per pair, then
    # one slack per host-capacity row and one per host-volume row
    y0 = configurations.count
    z0 = y0 + modules.count
    slack0 = z0 + pairs
    width = slack0 + 2 * pairs
    volume = 1 + len(modules.size_values) + pairs
    top = [{} for _ in range(volume + pairs)]
    starts, rows, values = configurations.hosted_columns
    for i in range(configurations.count):
        for e in range(starts[i], starts[i + 1]):
            top[rows[e]][i] = values[e]
    position = {q: g for g, q in enumerate(modules.size_values)}
    for g, q in enumerate(modules.sizes):
        top[1 + position[q]][y0 + g] = -1
    for pos in range(pairs):
        top[volume - pairs + pos].update({z0 + pos: 1, slack0 + pos: 1})
        top[volume + pos][slack0 + pairs + pos] = 1
    if splittable:
        demand = [{y0 + g: size for g, size in enumerate(modules.sizes)}]
    else:
        demand = [{} for _ in rounded.large_sizes]
        for g, module in enumerate(modules.modules):
            for p_pos, k in module:
                demand[p_pos][y0 + g] = k
    flag = {z0 + pos: 1 for pos in range(pairs)}
    private = tuple(demand + [flag])
    top_of_load: dict = {}
    top_blocks = []
    rhs = [m] + [0] * (len(top) - 1)
    for u, cls in enumerate(rounded.classes):
        load = cls.jobs[0].scaled_size if cls.small else 0
        if load not in top_of_load:
            top_of_load[load] = tuple(top[:volume]) + tuple(
                {**entries, z0 + pos: load}
                for pos, entries in enumerate(top[volume:])
            )
        top_blocks.append(top_of_load[load])
        if splittable:
            rhs.append(0 if cls.small else cls.scaled_load)
        else:
            have = dict(rounded.count_vectors[u])
            rhs.extend(have.get(p, 0) for p in range(len(rounded.large_sizes)))
        rhs.append(cls.xi)
    upper = (
        [m] * configurations.count
        + [_y_cap(rounded)] * modules.count
        + [1] * pairs
        + [c * m] * pairs
        + [rounded.scaled_inflated * m] * pairs
    )
    n = len(rounded.classes)
    return NFoldProgram(
        brick_count=n,
        top_block_rows=len(top),
        diag_block_rows=len(private),
        brick_width=width,
        top_blocks=tuple(top_blocks),
        diag_blocks=(private,) * n,
        rhs=tuple(rhs),
        lower=(0,) * (n * width),
        upper=tuple(upper * n),
        objective=(0,) * (n * width),
    )
