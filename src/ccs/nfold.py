"""Block-structured integer programs and their feasibility solver.

A program with N bricks has the constraint matrix

    [ A_1  A_2 ... A_N ]
    [ B_1              ]
    [      B_2         ]
    [           ...    ]
    [              B_N ]

with r rows shared by all bricks (top blocks A_i, each r x t) and s rows
private to each brick (diagonal blocks B_i, each s x t). The right-hand
side stacks the r shared entries first, then the s entries of each brick
in brick order. Variables carry finite integer bounds; the objective is
stored but ignored (the schemes built on top only need feasibility).

solve_feasible fixes the variables the equalities pin in exact integer
arithmetic, aggregates columns that are identical in every row, hands the
rest to the HiGHS mixed-integer solver, and verifies the returned point
exactly, so float arithmetic never leaks into an answer. solve_exhaustive
is the independent ground truth: plain enumeration of the whole variable
box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .core import CCSError, EnumerationCapError

# solve_exhaustive refuses boxes with more points than this
EXHAUSTIVE_CAP = 10**7
# seconds HiGHS may spend on one program; the slowest known solve takes
# about 11 s, so hitting this means a stalled solve
MILP_TIME_LIMIT = 300.0


class InvalidProgramError(CCSError):
    """The program's dimensions or bounds are inconsistent."""


class SparseRow:
    """Immutable integer row of length ``width`` stored by its nonzero
    entries. The scheme builders produce rows with tens of thousands of
    columns and a handful of nonzeros; storing those densely would cost
    gigabytes. Block rows may also be plain tuples of ints; code that
    accepts both walks the nonzeros through ``_row_items``.
    """

    __slots__ = ("width", "entries")

    def __init__(self, width: int, entries: Mapping):
        if not isinstance(width, int) or isinstance(width, bool) or width < 0:
            raise InvalidProgramError(f"bad row width {width!r}")
        cleaned = {}
        for j, v in entries.items():
            if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < width:
                raise InvalidProgramError(f"column {j!r} outside row of width {width}")
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidProgramError(f"row entry {v!r} is not an integer")
            if v:
                cleaned[j] = v
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "entries", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("SparseRow is immutable")

    def items(self):
        """Sorted (column, coefficient) pairs of the nonzeros."""
        return sorted(self.entries.items())

    def __eq__(self, other) -> bool:
        if isinstance(other, SparseRow):
            return self.width == other.width and self.entries == other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.width, tuple(self.items())))

    def __repr__(self) -> str:
        return f"SparseRow({self.width}, {dict(self.items())!r})"


def _row_items(row):
    """(column, coefficient) pairs of a row's nonzeros, any storage, in
    no particular order."""
    if isinstance(row, SparseRow):
        return row.entries.items()
    return [(j, v) for j, v in enumerate(row) if v]


def _row_width(row) -> int:
    """Number of columns of a row, any storage."""
    return row.width if isinstance(row, SparseRow) else len(row)


@dataclass(frozen=True)
class NFoldProgram:
    """Immutable block-structured integer program.

    top_blocks[i] and diag_blocks[i] are the blocks of brick i as tuples
    of rows (possibly zero rows), each row a tuple of ints or a SparseRow.
    rhs lists the shared rows first,
    then each brick's private rows. lower/upper/objective have one entry
    per variable, brick by brick.
    """

    brick_count: int
    top_block_rows: int
    diag_block_rows: int
    brick_width: int
    top_blocks: tuple
    diag_blocks: tuple
    rhs: tuple
    lower: tuple
    upper: tuple
    objective: tuple

    @property
    def total_rows(self) -> int:
        return self.top_block_rows + self.brick_count * self.diag_block_rows

    @property
    def total_columns(self) -> int:
        return self.brick_count * self.brick_width

    @property
    def delta(self) -> int:
        """Largest absolute matrix entry (at least 1 by convention)."""
        best = 1
        for blocks in (self.top_blocks, self.diag_blocks):
            for block in blocks:
                for row in block:
                    for _j, v in _row_items(row):
                        best = max(best, abs(v))
        return best

    @property
    def encoding_length(self) -> int:
        """Bit length of the largest magnitude anywhere in the program."""
        return _encoding_length(self, self.delta)

    def brick_rhs(self, i: int) -> tuple:
        """Private-row right-hand side of brick i (0-based)."""
        r, s = self.top_block_rows, self.diag_block_rows
        return self.rhs[r + i * s : r + (i + 1) * s]


@dataclass(frozen=True)
class NFoldSolution:
    """A feasible point, partitioned into bricks."""

    x: tuple
    brick_width: int

    @property
    def bricks(self) -> tuple:
        t = self.brick_width
        return tuple(
            self.x[i : i + t] for i in range(0, len(self.x), t)
        )


def _encoding_length(program: NFoldProgram, delta: int) -> int:
    """encoding_length given the program's largest matrix entry."""
    best = delta.bit_length()
    for group in (program.rhs, program.lower, program.upper, program.objective):
        for v in group:
            best = max(best, abs(v).bit_length())
    return best


@dataclass(frozen=True)
class StructureReport:
    """validate_structure's verdict on a well-formed program. delta and
    encoding_length walk the whole program, so they are computed on first
    read only."""

    rows: int
    columns: int
    program: NFoldProgram = field(repr=False, compare=False)

    @cached_property
    def delta(self) -> int:
        return self.program.delta

    @cached_property
    def encoding_length(self) -> int:
        return _encoding_length(self.program, self.delta)


def _check_block(block, rows: int, width: int, what: str, seen: set) -> None:
    """Check one block's shape; rows whose id is in ``seen`` (shared with
    a block checked before) are skipped, the others are added to it."""
    if len(block) != rows:
        raise InvalidProgramError(f"{what} has {len(block)} rows, expected {rows}")
    for row in block:
        if id(row) in seen:
            continue
        seen.add(id(row))
        if _row_width(row) != width:
            raise InvalidProgramError(
                f"{what} row has {_row_width(row)} entries, expected {width}"
            )
        if isinstance(row, SparseRow):
            continue  # entries were validated at construction
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidProgramError(f"{what} entry {v!r} is not an integer")


def validate_structure(program: NFoldProgram) -> StructureReport:
    """Check dimensions and bound finiteness; the report gives the sizes,
    and the largest matrix entry and the encoding length on demand. Raises
    InvalidProgramError on any inconsistency."""
    n, r, s, t = (
        program.brick_count,
        program.top_block_rows,
        program.diag_block_rows,
        program.brick_width,
    )
    if n < 1 or r < 0 or s < 0 or t < 1:
        raise InvalidProgramError("brick_count and brick_width must be positive")
    if len(program.top_blocks) != n or len(program.diag_blocks) != n:
        raise InvalidProgramError("need one top and one diagonal block per brick")
    # the builders share row objects across bricks; every block row has
    # width t, so one check per object covers every place it appears
    seen: set = set()
    for i in range(n):
        _check_block(program.top_blocks[i], r, t, f"top block {i}", seen)
        _check_block(program.diag_blocks[i], s, t, f"diagonal block {i}", seen)
    if len(program.rhs) != r + n * s:
        raise InvalidProgramError(
            f"rhs has length {len(program.rhs)}, expected {r + n * s}"
        )
    for name, vec in (
        ("rhs", program.rhs),
        ("lower", program.lower),
        ("upper", program.upper),
        ("objective", program.objective),
    ):
        for v in vec:
            # bool is an int subclass; floats (inf, nan) are rejected here
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidProgramError(f"{name} entry {v!r} is not a finite integer")
    for name, vec in (
        ("lower", program.lower),
        ("upper", program.upper),
        ("objective", program.objective),
    ):
        if len(vec) != n * t:
            raise InvalidProgramError(
                f"{name} has length {len(vec)}, expected {n * t}"
            )
    for lo, hi in zip(program.lower, program.upper):
        if lo > hi:
            raise InvalidProgramError(f"empty variable range [{lo}, {hi}]")
    return StructureReport(
        rows=program.total_rows,
        columns=program.total_columns,
        program=program,
    )


# ---------------------------------------------------------------------------
# evaluation


def constraint_violations(program: NFoldProgram, x: Sequence) -> list:
    """All violated constraints and bounds of the candidate point, as
    human-readable strings; empty means feasible. Exact arithmetic."""
    n, r, s, t = (
        program.brick_count,
        program.top_block_rows,
        program.diag_block_rows,
        program.brick_width,
    )
    out = []
    if len(x) != n * t:
        return [f"point has length {len(x)}, expected {n * t}"]
    for j, (v, lo, hi) in enumerate(zip(x, program.lower, program.upper)):
        if not isinstance(v, int) or isinstance(v, bool):
            out.append(f"x[{j}] = {v!r} is not an integer")
        elif not lo <= v <= hi:
            out.append(f"x[{j}] = {v} outside [{lo}, {hi}]")
    if out:
        return out
    for k in range(r):
        total = sum(
            sum(a * x[i * t + j] for j, a in _row_items(program.top_blocks[i][k]))
            for i in range(n)
        )
        if total != program.rhs[k]:
            out.append(f"shared row {k}: {total} != {program.rhs[k]}")
    for i in range(n):
        base = i * t
        target = program.brick_rhs(i)
        for k in range(s):
            total = sum(
                a * x[base + j] for j, a in _row_items(program.diag_blocks[i][k])
            )
            if total != target[k]:
                out.append(f"brick {i} row {k}: {total} != {target[k]}")
    return out


# ---------------------------------------------------------------------------
# exhaustive oracle


def solve_exhaustive(program: NFoldProgram) -> Optional[NFoldSolution]:
    """Ground truth by full enumeration of the variable box, in ascending
    lexicographic order. None means infeasible. Raises EnumerationCapError
    when the box holds more than 10^7 points."""
    validate_structure(program)
    size = 1
    for lo, hi in zip(program.lower, program.upper):
        size *= hi - lo + 1
        if size > EXHAUSTIVE_CAP:
            raise EnumerationCapError(
                f"variable box exceeds {EXHAUSTIVE_CAP} points"
            )
    cols = program.total_columns
    x = list(program.lower)
    while True:
        if not constraint_violations(program, tuple(x)):
            return NFoldSolution(x=tuple(x), brick_width=program.brick_width)
        j = cols - 1
        while j >= 0 and x[j] == program.upper[j]:
            x[j] = program.lower[j]
            j -= 1
        if j < 0:
            return None
        x[j] += 1


# ---------------------------------------------------------------------------
# presolve and the mixed-integer solve


def _row_maps(program: NFoldProgram):
    """Nonzero maps of the full equality system: per row a {col: coeff}
    dict and per column the list of rows touching it. Row order matches
    constraint_violations: shared rows first, then each brick's rows."""
    n, r, s, t = (
        program.brick_count,
        program.top_block_rows,
        program.diag_block_rows,
        program.brick_width,
    )
    rows: list = [dict() for _ in range(r + n * s)]
    for i in range(n):
        base = i * t
        for k in range(r):
            row = rows[k]
            for j, entry in _row_items(program.top_blocks[i][k]):
                row[base + j] = entry
        for k in range(s):
            row = rows[r + i * s + k]
            for j, entry in _row_items(program.diag_blocks[i][k]):
                row[base + j] = entry
    col_rows: dict = {}
    for ridx, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, []).append(ridx)
    return rows, col_rows


_INFEASIBLE = object()


def _presolve_fix(program: NFoldProgram, rows, col_rows):
    """Iterated exact fixing of pinned variables.

    Rules per equality row over its unfixed columns: residual outside the
    row's interval is infeasible; a single unfixed column is pinned; a
    residual touching either end of the interval pins every column at the
    matching bound. Returns (fixed: {col: value}, residual rhs list) or
    _INFEASIBLE. Pure integer arithmetic throughout.
    """
    resid = list(program.rhs)
    fixed: dict = {}
    unfixed_in_row = [set(row) for row in rows]

    def fix(col: int, value: int):
        fixed[col] = value
        for ridx in col_rows.get(col, ()):
            if col in unfixed_in_row[ridx]:
                resid[ridx] -= rows[ridx][col] * value
                unfixed_in_row[ridx].discard(col)
                dirty.add(ridx)

    dirty = set(range(len(rows)))
    for j, (lo, hi) in enumerate(zip(program.lower, program.upper)):
        if lo == hi:
            fix(j, lo)
    while dirty:
        ridx = dirty.pop()
        cols_here = unfixed_in_row[ridx]
        lo_sum = hi_sum = 0
        for j in cols_here:
            a = rows[ridx][j]
            if a > 0:
                lo_sum += a * program.lower[j]
                hi_sum += a * program.upper[j]
            else:
                lo_sum += a * program.upper[j]
                hi_sum += a * program.lower[j]
        target = resid[ridx]
        if not lo_sum <= target <= hi_sum:
            return _INFEASIBLE
        if not cols_here:
            continue
        if len(cols_here) == 1:
            (j,) = cols_here
            a = rows[ridx][j]
            value, rem = divmod(target, a)
            if rem or not program.lower[j] <= value <= program.upper[j]:
                return _INFEASIBLE
            fix(j, value)
        elif target == lo_sum:
            for j in sorted(cols_here):
                a = rows[ridx][j]
                fix(j, program.lower[j] if a > 0 else program.upper[j])
        elif target == hi_sum:
            for j in sorted(cols_here):
                a = rows[ridx][j]
                fix(j, program.upper[j] if a > 0 else program.lower[j])
    return fixed, resid


def _solve_milp(program: NFoldProgram) -> Optional[NFoldSolution]:
    """Exact presolve, column aggregation and one HiGHS solve; the
    returned point is rounded and verified once in exact integer
    arithmetic, so float arithmetic can never leak through.

    Presolve fixes the variables pinned by equalities; columns identical
    in every row and in the objective are aggregated into one variable
    with summed bounds (cross-brick duplicates: x- and slack columns have
    zero coefficients in the private rows, so their copies collapse)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    rows, col_rows = _row_maps(program)
    state = _presolve_fix(program, rows, col_rows)
    if state is _INFEASIBLE:
        return None
    fixed, resid = state
    cols_total = program.total_columns

    def compose(values: dict) -> Optional[NFoldSolution]:
        x = tuple(
            fixed[j] if j in fixed else values[j] for j in range(cols_total)
        )
        if constraint_violations(program, x):
            raise CCSError("mixed-integer solver returned an infeasible point")
        return NFoldSolution(x=x, brick_width=program.brick_width)

    free = [j for j in range(cols_total) if j not in fixed]
    live_rows = [ridx for ridx, row in enumerate(rows)
                 if any(j not in fixed for j in row)]
    if not free:
        # every variable pinned; the fixing loop already checked each row
        return compose({})

    # aggregate columns sharing every row coefficient and the objective
    groups: dict = {}
    for j in free:
        signature = (
            tuple((ridx, rows[ridx][j]) for ridx in col_rows.get(j, ())),
            program.objective[j],
        )
        groups.setdefault(signature, []).append(j)
    ordered = sorted(groups.values(), key=lambda g: g[0])

    # the solver is handed variables shifted to start at zero: the bundled
    # engine has been seen returning bound-violating "optimal" points when
    # lower bounds are negative, and the shift is an exact identity
    row_of = {ridx: pos for pos, ridx in enumerate(live_rows)}
    row_idx: list = []
    col_idx: list = []
    data: list = []
    base: list = []
    span: list = []
    cost: list = []
    shifted = {ridx: resid[ridx] for ridx in live_rows}
    for gpos, members in enumerate(ordered):
        head = members[0]
        glo = sum(program.lower[j] for j in members)
        gup = sum(program.upper[j] for j in members)
        for ridx in col_rows.get(head, ()):
            if ridx in row_of:
                row_idx.append(row_of[ridx])
                col_idx.append(gpos)
                data.append(float(rows[ridx][head]))
                shifted[ridx] -= rows[ridx][head] * glo
        base.append(glo)
        span.append(gup - glo)
        cost.append(float(program.objective[head] * len(members)))
    matrix = coo_matrix(
        (data, (row_idx, col_idx)), shape=(len(live_rows), len(ordered))
    ).tocsr()
    rhs = np.array([float(shifted[ridx]) for ridx in live_rows])
    # the engine's own presolve has returned bound- and equality-violating
    # "optimal" points and segfaulted on tiny integer-infeasible systems;
    # exact fixing and aggregation above already cover its useful work
    result = milp(
        c=np.array(cost),
        constraints=LinearConstraint(matrix, rhs, rhs),
        integrality=np.ones(len(ordered)),
        bounds=Bounds(
            np.zeros(len(ordered)), np.array(span, dtype=float)
        ),
        options={"presolve": False, "time_limit": MILP_TIME_LIMIT},
    )
    if result.status == 2:  # proven infeasible
        return None
    if result.x is None:
        if result.status == 1:  # a limit stopped it before any point
            raise CCSError(
                "mixed-integer solver found no point within its time limit"
                f" of {MILP_TIME_LIMIT:g} s: {result.message}"
            )
        raise CCSError(f"mixed-integer solver failed: {result.message}")
    values: dict = {}
    for gpos, members in enumerate(ordered):
        amount = base[gpos] + int(round(result.x[gpos]))
        amount = max(min(amount, base[gpos] + span[gpos]), base[gpos])
        rest_lo = base[gpos]
        for j in members:
            rest_lo -= program.lower[j]
            take = max(min(amount - rest_lo, program.upper[j]), program.lower[j])
            values[j] = take
            amount -= take
    return compose(values)


def solve_feasible(program: NFoldProgram) -> Optional[NFoldSolution]:
    """Any feasible point, or None. Deterministic: identical programs give
    identical solutions. Raises CCSError if the mixed-integer solver fails
    or returns a point that does not pass the exact check."""
    validate_structure(program)
    return _solve_milp(program)


# ---------------------------------------------------------------------------
# inequality helper and debug dump


def with_top_row_slacks(
    program: NFoldProgram, slack_max: Mapping[int, int]
) -> NFoldProgram:
    """Convert the given shared rows from <= into equalities.

    Each row in slack_max gains one slack column per brick: coefficient 1 in
    that shared row of every top block, zeros in the diagonal blocks,
    bounds [0, slack_max[row]], zero objective. Splitting the slack across
    bricks keeps the blocks uniform in width.
    """
    rows = sorted(slack_max)
    for k in rows:
        if not 0 <= k < program.top_block_rows:
            raise InvalidProgramError(f"no shared row {k}")
        if slack_max[k] < 0:
            raise InvalidProgramError("slack bound must be nonnegative")
    extra = len(rows)
    width = program.brick_width
    # a row object shared across bricks stays shared: it is widened once
    # per slack position it occupies
    widened: dict = {}

    def widen(row, slack_at=None):
        key = (id(row), slack_at)
        out = widened.get(key)
        if out is None:
            out = widened[key] = _widen(row, slack_at)
        return out

    def _widen(row, slack_at):
        if isinstance(row, SparseRow):
            entries = dict(row.entries)
            if slack_at is not None:
                entries[width + slack_at] = 1
            return SparseRow(width + extra, entries)
        tail = [0] * extra
        if slack_at is not None:
            tail[slack_at] = 1
        return tuple(row) + tuple(tail)

    slack_of_row = {k: e for e, k in enumerate(rows)}
    top_blocks = []
    diag_blocks = []
    for i in range(program.brick_count):
        top_blocks.append(
            tuple(
                widen(row, slack_of_row.get(k))
                for k, row in enumerate(program.top_blocks[i])
            )
        )
        diag_blocks.append(
            tuple(widen(row) for row in program.diag_blocks[i])
        )
    lower = []
    upper = []
    objective = []
    t = program.brick_width
    for i in range(program.brick_count):
        lower.extend(program.lower[i * t : (i + 1) * t])
        lower.extend([0] * extra)
        upper.extend(program.upper[i * t : (i + 1) * t])
        upper.extend(slack_max[k] for k in rows)
        objective.extend(program.objective[i * t : (i + 1) * t])
        objective.extend([0] * extra)
    return NFoldProgram(
        brick_count=program.brick_count,
        top_block_rows=program.top_block_rows,
        diag_block_rows=program.diag_block_rows,
        brick_width=t + extra,
        top_blocks=tuple(top_blocks),
        diag_blocks=tuple(diag_blocks),
        rhs=program.rhs,
        lower=tuple(lower),
        upper=tuple(upper),
        objective=tuple(objective),
    )


def dump_program(program: NFoldProgram) -> str:
    """Textual debug format: `N r s t` header, the top blocks then the
    diagonal blocks row-major in brick order, then rhs, lower, upper and
    objective — one integer per token."""
    lines = [
        f"{program.brick_count} {program.top_block_rows} "
        f"{program.diag_block_rows} {program.brick_width}"
    ]
    for blocks in (program.top_blocks, program.diag_blocks):
        for block in blocks:
            for row in block:
                tokens = ["0"] * _row_width(row)
                for j, v in _row_items(row):
                    tokens[j] = str(v)
                lines.append(" ".join(tokens))
    for vec in (program.rhs, program.lower, program.upper, program.objective):
        lines.append(" ".join(str(v) for v in vec))
    return "\n".join(lines) + "\n"
