"""Integer feasibility programs and their solver.

A CompactProgram is a sparse integer equality system A x = b,
lower <= x <= upper, x integral. It is the one form this module solves,
checks and enumerates; the schemes' configuration programs are built in
it (``ccs.ptas.builder``).

An NFoldProgram is the paper's layout of the same kind of program, built
off the solving path (``ccs.ptas.builder.as_nfold``) to be read: by the
dimension checks and the ``--dump-nfold`` text format. With N bricks its
constraint matrix is

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
A block's rows are dicts {column: int} of their entries, read-only by
convention. Building an NFoldProgram checks it (``validate_structure``);
``flatten`` turns one into the compact form.

solve_feasible makes one HiGHS mixed-integer call and verifies the rounded
point exactly, so float arithmetic never leaks into an answer. It hands the
program to the HiGHS binding scipy ships, ``scipy.optimize._highspy._core``,
the one ``scipy.optimize.milp`` calls: on programs of a few dozen columns,
milp's input checks and result wrapping took longer than HiGHS's solve.
The binding is private to scipy, so no other module imports it. An option
HiGHS rejects raises CCSError instead of leaving HiGHS at its default.
The tests hold it to an independent ground truth, plain enumeration of
the whole variable box (``solve_exhaustive`` in ``tests/conftest.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, islice
from operator import gt
from typing import Mapping, Optional, Sequence

from .core import CCSError, EnumerationCapError, _is_int

# seconds HiGHS may spend on one program. The slowest solve known to
# finish took 18.3 s (a splittable probe at epsilon 1/2); some splittable
# programs at epsilon 1/4 still run into this limit and raise
# EnumerationCapError
MILP_TIME_LIMIT = 300.0


class InvalidProgramError(CCSError):
    """The program's dimensions or bounds are inconsistent."""


@dataclass(frozen=True)
class NFoldProgram:
    """Immutable block-structured integer program, for reading; it is
    solved as ``flatten(program)``. Building one runs validate_structure.

    top_blocks[i] and diag_blocks[i] are the blocks of brick i as tuples
    of rows (possibly zero rows). A row is a dict {column: int} of its
    entries, columns in [0, brick_width), which callers treat as
    read-only: the scheme builders' rows have tens of thousands of columns
    and a handful of nonzeros, and one row object may sit in many blocks.
    rhs lists the shared rows first, then each brick's private rows.
    lower/upper/objective have one entry per variable, brick by brick.
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

    def __post_init__(self):
        # looked up as a module global on every call, where the
        # benchmark's layer trace wraps it
        validate_structure(self)

    @property
    def total_rows(self) -> int:
        return self.top_block_rows + self.brick_count * self.diag_block_rows

    @property
    def total_columns(self) -> int:
        return self.brick_count * self.brick_width


def _check_block(block, rows: int, width: int, what: str, seen: set) -> None:
    """Check one block's shape and its rows' entries; rows whose id is in
    ``seen`` (shared with a block checked before) are skipped, the others
    are added to it."""
    if len(block) != rows:
        raise InvalidProgramError(f"{what} has {len(block)} rows, expected {rows}")
    for row in block:
        if id(row) in seen:
            continue
        seen.add(id(row))
        if not isinstance(row, dict):
            raise InvalidProgramError(f"{what} row {row!r} is not a dict")
        for j, v in row.items():
            if not _is_int(j) or not 0 <= j < width:
                raise InvalidProgramError(f"{what} column {j!r} outside [0, {width})")
            if not _is_int(v):
                raise InvalidProgramError(f"{what} entry {v!r} is not an integer")


def validate_structure(program: NFoldProgram) -> None:
    """Check dimensions, row entries and bound finiteness. Raises
    InvalidProgramError on any inconsistency."""
    for name in ("brick_count", "top_block_rows", "diag_block_rows", "brick_width"):
        value = getattr(program, name)
        if not _is_int(value):
            raise InvalidProgramError(f"{name} {value!r} is not an integer")
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
            if not _is_int(v):
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


# ---------------------------------------------------------------------------
# the compact form


@dataclass(frozen=True)
class CompactProgram:
    """Immutable sparse integer equality system: A x = rhs,
    lower <= x <= upper, x integral.

    A is stored column by column (compressed sparse columns): the entries
    of column j sit at positions col_start[j] .. col_start[j + 1] - 1 of
    row_index (their rows) and values (their coefficients); entries of one
    row in a column add up. Every number is a Python int. The sequences
    are kept as given, without a copy, and read-only by convention: every
    row index is checked to lie in [0, len(rhs)) once, here.
    """

    col_start: Sequence
    row_index: Sequence
    values: Sequence
    rhs: Sequence
    lower: Sequence
    upper: Sequence

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise InvalidProgramError("lower and upper differ in length")
        starts = self.col_start
        if (
            len(starts) != len(self.lower) + 1
            or starts[0] != 0
            or starts[-1] != len(self.row_index)
            or len(self.row_index) != len(self.values)
        ):
            raise InvalidProgramError("column starts do not match the entries")
        # the exact check walks columns by their starts, so starts that
        # decrease would read as another matrix than the solver's
        if any(map(gt, starts, islice(starts, 1, None))):
            raise InvalidProgramError("column starts decrease")
        # the solver would read an index outside [0, rows) as a different
        # matrix, without a word
        rows = self.row_index
        if rows and (min(rows) < 0 or max(rows) >= len(self.rhs)):
            raise InvalidProgramError(
                f"row indices span [{min(rows)}, {max(rows)}],"
                f" outside [0, {len(self.rhs)})"
            )

    @property
    def total_rows(self) -> int:
        return len(self.rhs)

    @property
    def total_columns(self) -> int:
        return len(self.lower)

    def row_totals(self, x) -> list:
        """A x in Python ints; zero entries of x cost one test each."""
        totals = [0] * len(self.rhs)
        starts, rows, values = self.col_start, self.row_index, self.values
        for j, v in enumerate(x):
            if v:
                for e in range(starts[j], starts[j + 1]):
                    totals[rows[e]] += values[e] * v
        return totals


def flatten(program: NFoldProgram) -> CompactProgram:
    """The compact form of a block program: rows are the shared rows, then
    each brick's private rows; brick i's column j is column i*t + j. Zero
    entries are left out."""
    r, s, t = program.top_block_rows, program.diag_block_rows, program.brick_width
    columns = [[] for _ in range(program.total_columns)]
    for i in range(program.brick_count):
        blocks = (program.top_blocks[i], program.diag_blocks[i])
        for offset, block in zip((0, r + i * s), blocks):
            for k, row in enumerate(block):
                for j, v in row.items():
                    if v:
                        columns[i * t + j].append((offset + k, v))
    starts = [0]
    for entries in columns:
        starts.append(starts[-1] + len(entries))
    return CompactProgram(
        col_start=starts,
        row_index=[k for entries in columns for k, _v in entries],
        values=[v for entries in columns for _k, v in entries],
        rhs=program.rhs,
        lower=program.lower,
        upper=program.upper,
    )


# ---------------------------------------------------------------------------
# evaluation


def constraint_violations(program: CompactProgram, x: Sequence) -> list:
    """All violated constraints and bounds of the candidate point, as
    human-readable strings; empty means feasible. Exact arithmetic in
    Python ints."""
    lower, upper = program.lower, program.upper
    if len(x) != len(lower):
        return [f"point has length {len(x)}, expected {len(lower)}"]
    out = []
    for j, (v, lo, hi) in enumerate(zip(x, lower, upper)):
        if not isinstance(v, int) or isinstance(v, bool):
            out.append(f"x[{j}] = {v!r} is not an integer")
        elif not lo <= v <= hi:
            out.append(f"x[{j}] = {v} outside [{lo}, {hi}]")
    if out:
        return out
    return [
        f"row {k}: {total} != {target}"
        for k, (total, target) in enumerate(
            zip(program.row_totals(x), program.rhs)
        )
        if total != target
    ]


# ---------------------------------------------------------------------------
# the mixed-integer solve


def solve_feasible(program: CompactProgram) -> Optional[tuple]:
    """Any feasible point as a tuple of ints, or None. Deterministic:
    identical programs give identical solutions. Raises CCSError if HiGHS
    rejects an option or the program, fails, or returns a point that does
    not pass the exact check, and EnumerationCapError if a bound or
    right-hand side exceeds 2**53 (before the solver runs) or if HiGHS
    stops at ``MILP_TIME_LIMIT`` without a point. A block program is
    solved as ``flatten(program)``.

    One HiGHS solve through the binding scipy ships
    (``scipy.optimize._highspy._core``), which ``scipy.optimize.milp``
    also calls: milp's input checks and result wrapping cost more than
    HiGHS itself on programs of a few dozen columns. The returned point is
    rounded and checked once in exact integer arithmetic, so float
    arithmetic can never leak through. The solver is handed variables
    shifted to start at zero: the bundled engine has been seen returning
    bound-violating "optimal" points when lower bounds are negative, and
    the shift is an exact identity."""
    lower = program.lower
    if not program.total_rows or not program.total_columns:
        # nothing for the solver to search: the box's corner decides
        x = tuple(lower)
        return None if constraint_violations(program, x) else x
    # doubles hold every integer only up to 2**53: past it, the solver
    # would search another program than the one the exact check verifies
    if max(map(abs, chain(lower, program.upper, program.rhs))) > 2**53:
        raise EnumerationCapError("a program bound exceeds 2**53, which the"
                                  " solver's doubles cannot hold exactly")
    import numpy as np
    from scipy.optimize._highspy import _core as highs
    from scipy.sparse import csc_array

    rows, cols = program.total_rows, program.total_columns
    index = np.array(program.row_index, dtype=np.int32)
    starts = np.array(program.col_start, dtype=np.int32)
    rhs = program.rhs
    if any(lower):
        rhs = [b - a for b, a in zip(rhs, program.row_totals(lower))]
    rhs = np.array(rhs, dtype=float)
    matrix = csc_array(
        (np.array(program.values, dtype=float), index, starts),
        shape=(rows, cols),
    )
    # a column may list one row twice; row_totals adds such entries up,
    # so the solver must see their sum too (a no-op check on canonical input)
    matrix.sum_duplicates()
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = cols
    lp.num_row_ = lp.a_matrix_.num_row_ = rows
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = matrix.indptr
    lp.a_matrix_.index_ = matrix.indices
    lp.a_matrix_.value_ = matrix.data
    lp.col_cost_ = np.zeros(cols)
    lp.col_lower_ = np.zeros(cols)
    lp.col_upper_ = np.array(
        [hi - lo for lo, hi in zip(lower, program.upper)], dtype=float
    )
    lp.row_lower_ = lp.row_upper_ = rhs
    lp.integrality_ = [highs.HighsVarType.kInteger] * cols
    # the engine's own presolve has returned bound- and
    # equality-violating "optimal" points and segfaulted on tiny
    # integer-infeasible systems, so it stays off. The feasibility-jump
    # heuristic costs about 10 ms per call before the search starts,
    # most of a call on programs of a few dozen rows. HiGHS logs to the
    # console unless told not to.
    status, point = _run_highs(lp, {
        "log_to_console": False,
        "presolve": "off",
        "time_limit": MILP_TIME_LIMIT,
        "mip_heuristic_run_feasibility_jump": False,
    })
    statuses = highs.HighsModelStatus
    if status == statuses.kInfeasible:
        return None
    if point is None:
        if status == statuses.kTimeLimit:
            raise EnumerationCapError(
                "mixed-integer solver found no point within its time limit"
                f" of {MILP_TIME_LIMIT:g} s"
            )
        raise CCSError(f"mixed-integer solver failed with status {status.name}")
    x = tuple(lo + int(v) for lo, v in zip(lower, np.rint(point).tolist()))
    if constraint_violations(program, x):
        raise CCSError("mixed-integer solver returned an infeasible point")
    return x


def _run_highs(lp, options: Mapping) -> tuple:
    """Solve ``lp`` in a fresh HiGHS instance, so that no solver state
    carries from one probe to the next, with ``options``:
    (model status, column values), the values None when HiGHS holds no
    point. A point is held when the program is solved, or when a time,
    iteration or solution limit stopped the search after one was found.
    Raises CCSError when HiGHS rejects an option or the program."""
    from scipy.optimize._highspy import _core as highs

    solver = highs._Highs()
    ok = highs.HighsStatus.kOk
    for name, value in options.items():
        if solver.setOptionValue(name, value) != ok:
            raise CCSError(f"HiGHS rejected the option {name} = {value!r}")
    if solver.passModel(lp) == highs.HighsStatus.kError:
        raise CCSError("HiGHS rejected the program")
    statuses = highs.HighsModelStatus
    if solver.run() == highs.HighsStatus.kError:
        return solver.getModelStatus(), None
    status = solver.getModelStatus()
    held = status == statuses.kOptimal or (
        status in (statuses.kTimeLimit, statuses.kIterationLimit,
                   statuses.kSolutionLimit)
        and solver.getInfo().objective_function_value != highs.kHighsInf
    )
    return status, solver.getSolution().col_value if held else None


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
    t = program.brick_width
    slack_of_row = {k: e for e, k in enumerate(rows)}
    # a row object shared across bricks stays shared: a row without a
    # slack is kept, and one with a slack is copied once per slack
    # position it occupies
    widened: dict = {}

    def widen(row, at):
        if at is None:
            return row
        key = (id(row), at)
        if key not in widened:
            widened[key] = {**row, t + at: 1}
        return widened[key]

    def stretch(vec, tail):
        return tuple(
            v
            for i in range(program.brick_count)
            for v in (*vec[i * t : (i + 1) * t], *tail)
        )

    return replace(
        program,
        brick_width=t + extra,
        top_blocks=tuple(
            tuple(widen(row, slack_of_row.get(k)) for k, row in enumerate(block))
            for block in program.top_blocks
        ),
        lower=stretch(program.lower, [0] * extra),
        upper=stretch(program.upper, [slack_max[k] for k in rows]),
        objective=stretch(program.objective, [0] * extra),
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
                tokens = ["0"] * program.brick_width
                for j, v in row.items():
                    tokens[j] = str(v)
                lines.append(" ".join(tokens))
    for vec in (program.rhs, program.lower, program.upper, program.objective):
        lines.append(" ".join(str(v) for v in vec))
    return "\n".join(lines) + "\n"
