"""Assembly of the block-structured feasibility programs of the
splittable and non-preemptive schemes.

One brick per class. Per-brick variables, in order: one x per
configuration (machines running it), one y per module, one z per
(size, hosted-count) pair; slack columns for the shared inequality rows
are appended per brick at the end.

The x variables of every brick carry the same meaning, and the shared
rows only ever see their sum over the bricks, so any distribution of the
machines across bricks is accepted.

Shared rows: machine count, then one linking row per module footprint,
then per pair the host-capacity row and the host-volume row (both turned
into equalities by slacks). Private rows per brick: the class's demand
rows and the small-flag row.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import CCSError, NONPREEMPTIVE, SPLITTABLE
from ..nfold import NFoldProgram, SparseRow, with_top_row_slacks
from .rounding import RoundedInstance, require_scheme_variant
from .sets import ConfigurationSet, ModuleSet, enumerate_sets


@dataclass(frozen=True)
class ProgramLayout:
    """Column and row offsets of one brick, before and after slacks."""

    variant: str
    config_count: int
    module_count: int
    link_count: int
    pair_count: int
    piece_sizes: tuple = ()

    @property
    def x_offset(self) -> int:
        return 0

    @property
    def y_offset(self) -> int:
        return self.config_count

    @property
    def z_offset(self) -> int:
        return self.config_count + self.module_count

    @property
    def base_width(self) -> int:
        return self.z_offset + self.pair_count

    @property
    def brick_width(self) -> int:
        """Final width: base variables plus one slack per inequality row."""
        return self.base_width + 2 * self.pair_count

    @property
    def top_rows(self) -> int:
        return 1 + self.link_count + 2 * self.pair_count


@dataclass(frozen=True)
class BuiltProgram:
    """A program together with everything reconstruction needs."""

    program: NFoldProgram
    layout: ProgramLayout
    modules: ModuleSet
    configurations: ConfigurationSet
    rounded: RoundedInstance


def _link_rows(layout, modules, configurations):
    """One shared row per module footprint: configurations supply slots,
    y variables consume them."""
    width = layout.base_width
    y0 = layout.y_offset
    rows = []
    if layout.variant == SPLITTABLE:
        for g in range(modules.count):
            entries = {y0 + g: -1}
            for i, vec in enumerate(configurations.configs):
                if vec[g]:
                    entries[i] = vec[g]
            rows.append(SparseRow(width, entries))
    else:
        for vq, q in enumerate(modules.size_values):
            entries = {}
            for i, vec in enumerate(configurations.configs):
                if vec[vq]:
                    entries[i] = vec[vq]
            for g, footprint in enumerate(modules.sizes):
                if footprint == q:
                    entries[y0 + g] = -1
            rows.append(SparseRow(width, entries))
    return rows


def _brick_rows(layout, modules, rounded, cls):
    """Private rows of one class: demand, then the small flag."""
    width = layout.base_width
    y0 = layout.y_offset
    z0 = layout.z_offset
    rows = []
    rhs = []
    xi = cls.xi
    if layout.variant == SPLITTABLE:
        entries = {
            y0 + g: modules.sizes[g] for g in range(modules.count)
        }
        rows.append(SparseRow(width, entries))
        rhs.append(0 if xi else cls.scaled_load)
    else:
        counts = rounded.size_counts(cls.class_id) if not xi else {}
        for p_pos, p in enumerate(layout.piece_sizes):
            entries = {}
            for g, vec in enumerate(modules.modules):
                if vec[p_pos]:
                    entries[y0 + g] = vec[p_pos]
            rows.append(SparseRow(width, entries))
            rhs.append(counts.get(p, 0))
    entries = {z0 + pos: 1 for pos in range(layout.pair_count)}
    rows.append(SparseRow(width, entries))
    rhs.append(xi)
    return rows, rhs


def build_program(
    rounded: RoundedInstance,
    modules: ModuleSet = None,
    configurations: ConfigurationSet = None,
    cap=None,
) -> BuiltProgram:
    """Assemble the full block program for one rounded instance.
    Raises ValueError for the preemptive variant, which has no program of
    its own."""
    variant = require_scheme_variant(rounded.variant)
    if modules is None or configurations is None:
        modules, configurations = enumerate_sets(rounded, cap)
    c = rounded.slot_budget
    m = rounded.machine_count
    k = rounded.params.grid
    bound = rounded.scaled_inflated
    assert bound.denominator == 1
    bound = int(bound)
    piece_sizes = rounded.large_sizes if variant == NONPREEMPTIVE else ()
    link_count = (
        len(modules.size_values) if variant == NONPREEMPTIVE else modules.count
    )
    layout = ProgramLayout(
        variant=variant,
        config_count=configurations.count,
        module_count=modules.count,
        link_count=link_count,
        pair_count=len(configurations.pairs),
        piece_sizes=piece_sizes,
    )
    width = layout.base_width

    machine_row = SparseRow(
        width, {i: 1 for i in range(configurations.count)}
    )
    link = _link_rows(layout, modules, configurations)
    capacity_rows = []
    volume_coeff = {}
    z0 = layout.z_offset
    for pos, (h, b) in enumerate(configurations.pairs):
        members = configurations.groups[(h, b)]
        cap_entries = {z0 + pos: 1}
        for i in members:
            cap_entries[i] = b - c
        capacity_rows.append(SparseRow(width, cap_entries))
        volume_coeff[pos] = (members, h - bound)

    top_blocks = []
    diag_blocks = []
    brick_rhs = []
    lower = []
    upper = []
    y_cap = m * (k + 4) if variant == SPLITTABLE else m
    for cls in rounded.classes:
        small_load = cls.jobs[0].scaled_size if cls.small else 0
        volume_rows = []
        for pos in range(layout.pair_count):
            members, coeff = volume_coeff[pos]
            entries = {}
            if small_load:
                entries[z0 + pos] = small_load
            for i in members:
                entries[i] = coeff
            volume_rows.append(SparseRow(width, entries))
        top_blocks.append(
            tuple([machine_row] + link + capacity_rows + volume_rows)
        )
        rows, rhs = _brick_rows(layout, modules, rounded, cls)
        diag_blocks.append(tuple(rows))
        brick_rhs.extend(rhs)
        lower.extend([0] * width)
        col_upper = [m] * configurations.count + [y_cap] * modules.count
        col_upper += [1] * layout.pair_count
        upper.extend(col_upper)

    rhs = [m] + [0] * (layout.top_rows - 1) + brick_rhs
    program = NFoldProgram(
        brick_count=len(rounded.classes),
        top_block_rows=layout.top_rows,
        diag_block_rows=len(diag_blocks[0]),
        brick_width=width,
        top_blocks=tuple(top_blocks),
        diag_blocks=tuple(diag_blocks),
        rhs=tuple(rhs),
        lower=tuple(lower),
        upper=tuple(upper),
        objective=tuple([0] * (len(rounded.classes) * width)),
    )
    slack_max = {}
    first_capacity = 1 + link_count
    for pos in range(layout.pair_count):
        slack_max[first_capacity + pos] = c * m
        slack_max[first_capacity + layout.pair_count + pos] = bound * m
    program = with_top_row_slacks(program, slack_max)
    return BuiltProgram(
        program=program,
        layout=layout,
        modules=modules,
        configurations=configurations,
        rounded=rounded,
    )


def build_nfold(rounded: RoundedInstance, cap=None) -> NFoldProgram:
    """The block program alone; ``build_program`` keeps the layout."""
    return build_program(rounded, cap=cap).program


def exponential_m_extension(
    program: NFoldProgram,
    class_count: int,
    *,
    configurations: ConfigurationSet,
    layout: ProgramLayout,
) -> NFoldProgram:
    """Append the row that bounds the machines on non-plain configurations.

    With many machines only few of them need a configuration other than
    empty or a single copy of the largest module: at most
    class_count*(class_count + 1)/2 in the splittable variant. The row sums
    the x columns of every other configuration across bricks and caps them
    by that number, then gains its own slack column.
    """
    if layout.variant != SPLITTABLE:
        raise CCSError("the machine-count extension is splittable-only")
    bound = class_count * (class_count + 1) // 2
    zero = tuple([0] * layout.module_count)
    # splittable module sizes ascend, so the largest module sits last
    largest = layout.module_count - 1
    single = tuple(
        1 if g == largest else 0 for g in range(layout.module_count)
    )
    plain = {zero, single}
    nontrivial = [
        i for i, vec in enumerate(configurations.configs) if vec not in plain
    ]
    width = program.brick_width
    row = SparseRow(width, {i: 1 for i in nontrivial})
    r = program.top_block_rows
    top_blocks = tuple(
        tuple(block) + (row,) for block in program.top_blocks
    )
    rhs = (
        program.rhs[:r]
        + (bound,)
        + program.rhs[r:]
    )
    extended = NFoldProgram(
        brick_count=program.brick_count,
        top_block_rows=r + 1,
        diag_block_rows=program.diag_block_rows,
        brick_width=width,
        top_blocks=top_blocks,
        diag_blocks=program.diag_blocks,
        rhs=rhs,
        lower=program.lower,
        upper=program.upper,
        objective=program.objective,
    )
    return with_top_row_slacks(extended, {r: bound})
