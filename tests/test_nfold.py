"""Compact and block-program models, feasibility solver, exhaustive
oracle, and the inequality-to-equality slack helper. Block programs are
solved and checked in their compact form, ``flatten(program)``."""

import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import given, settings, strategies as st
from scipy.optimize._highspy._core import HighsModelStatus as STATUS

from ccs import CCSError, EnumerationCapError, nfold
from ccs.nfold import (
    MILP_TIME_LIMIT,
    CompactProgram,
    InvalidProgramError,
    NFoldProgram,
    constraint_violations,
    dump_program,
    flatten,
    solve_feasible,
    validate_structure,
    with_top_row_slacks,
)

from conftest import random_nfold_program, solve_exhaustive


def sparse_rows(program: NFoldProgram, reverse: bool = False) -> NFoldProgram:
    """The same program with every row's entries inserted in ascending (or,
    with reverse, descending) column order."""
    t = program.brick_width

    def convert(block):
        return tuple(
            dict(sorted(row.items(), reverse=reverse)) for row in block
        )

    return replace(
        program,
        top_blocks=tuple(convert(b) for b in program.top_blocks),
        diag_blocks=tuple(convert(b) for b in program.diag_blocks),
    )


def free_pair() -> NFoldProgram:
    """x0 + x1 = 2 over [0, 3]^2: a program HiGHS has to search."""
    return NFoldProgram(
        brick_count=1,
        top_block_rows=1,
        diag_block_rows=0,
        brick_width=2,
        top_blocks=(({0: 1, 1: 1},),),
        diag_blocks=((),),
        rhs=(2,),
        lower=(0, 0),
        upper=(3, 3),
        objective=(0, 0),
    )


def scrambled(program: CompactProgram, rng, shapes: dict) -> CompactProgram:
    """The same program with some columns' entries shuffled, split into
    two entries of one row, or joined by an explicit zero; ``shapes``
    counts the columns changed in each way."""
    starts, rows, values = [0], [], []
    for j in range(program.total_columns):
        lo, hi = program.col_start[j], program.col_start[j + 1]
        entries = list(zip(program.row_index[lo:hi], program.values[lo:hi]))
        if entries and rng.random() < 0.3:
            k, v = entries.pop(rng.randrange(len(entries)))
            part = rng.randint(-3, 3)
            entries += [(k, part), (k, v - part)]
            shapes["split"] += 1
        if rng.random() < 0.2:
            entries.append((rng.randrange(program.total_rows), 0))
            shapes["zero"] += 1
        if len(entries) > 1 and rng.random() < 0.5:
            rng.shuffle(entries)
            shapes["shuffled"] += 1
        rows += [k for k, _v in entries]
        values += [v for _k, v in entries]
        starts.append(len(rows))
    return CompactProgram(
        starts, rows, values, program.rhs, program.lower, program.upper
    )


def milp_point(program: CompactProgram):
    """The point scipy.optimize.milp returns for the program, handed the
    matrix, shift and options solve_feasible hands HiGHS: the reference
    for the direct call. None when milp proves it infeasible."""
    lower, cols = program.lower, program.total_columns
    rhs = [b - a for b, a in zip(program.rhs, program.row_totals(lower))]
    matrix = scipy.sparse.csc_array(
        (
            np.array(program.values, dtype=float),
            np.array(program.row_index, dtype=np.int32),
            np.array(program.col_start, dtype=np.int32),
        ),
        shape=(program.total_rows, cols),
    )
    matrix.sum_duplicates()
    span = [hi - lo for lo, hi in zip(lower, program.upper)]
    with warnings.catch_warnings():
        # milp passes the options it does not list to HiGHS verbatim,
        # and warns that it does
        warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
        result = scipy.optimize.milp(
            c=np.zeros(cols),
            constraints=scipy.optimize.LinearConstraint(matrix, rhs, rhs),
            integrality=np.ones(cols),
            bounds=scipy.optimize.Bounds(np.zeros(cols), span),
            options={
                "presolve": False,
                "time_limit": MILP_TIME_LIMIT,
                "mip_heuristic_run_feasibility_jump": False,
            },
        )
    if result.status == 2:
        return None
    assert result.status == 0, result.message
    return tuple(lo + int(v) for lo, v in zip(lower, np.rint(result.x).tolist()))


ONE = {0: 1}


def one_brick(rhs, lower=0, upper=3) -> NFoldProgram:
    """Single brick, single variable, A = B = (1)."""
    return NFoldProgram(
        brick_count=1,
        top_block_rows=1,
        diag_block_rows=1,
        brick_width=1,
        top_blocks=((ONE,),),
        diag_blocks=((ONE,),),
        rhs=rhs,
        lower=(lower,),
        upper=(upper,),
        objective=(0,),
    )


class TestValidateStructure:
    """Building an NFoldProgram runs validate_structure, so an invalid
    program is refused where it is built."""

    def test_tiny_program_is_valid(self):
        program = one_brick((2, 1))
        assert validate_structure(program) is None
        assert program.total_rows == 2
        assert program.total_columns == 1

    def test_construction_runs_the_check(self, monkeypatch):
        seen = []
        monkeypatch.setattr(nfold, "validate_structure", seen.append)
        program = one_brick((2, 1))
        replace(program, rhs=(3, 1))
        assert len(seen) == 2 and seen[0] is program

    def test_rhs_length_mismatch(self):
        with pytest.raises(InvalidProgramError, match="rhs"):
            one_brick((2, 1, 7))

    def test_crossed_bounds(self):
        with pytest.raises(InvalidProgramError, match="range"):
            one_brick((2, 1), lower=4, upper=3)

    def test_non_integer_entry(self):
        with pytest.raises(InvalidProgramError, match="integer"):
            one_brick((2.0, 1))

    @pytest.mark.parametrize("field,value", [
        ("brick_count", 1.0),
        ("top_block_rows", 1.0),
        ("diag_block_rows", True),
        ("brick_width", True),
    ])
    def test_dimension_must_be_an_int(self, field, value):
        with pytest.raises(InvalidProgramError, match=f"{field} .* not an integer"):
            replace(one_brick((2, 1)), **{field: value})

    def test_dense_row_rejected(self):
        with pytest.raises(InvalidProgramError, match="not a dict"):
            replace(one_brick((2, 1)), top_blocks=(((1,),),))

    @pytest.mark.parametrize("row,message", [
        ({1: 1}, "column 1 outside"),
        ({-1: 1}, "column -1 outside"),
        ({True: 1}, "column True outside"),
        ({0: True}, "entry True is not an integer"),
        ({0: 1.0}, "entry 1.0 is not an integer"),
    ])
    def test_bad_row_entry_rejected(self, row, message):
        with pytest.raises(InvalidProgramError, match=f"diagonal block 0 {message}"):
            replace(one_brick((2, 1)), diag_blocks=((row,),))

    def test_row_of_wrong_width_in_a_later_brick(self):
        # column 2 lies past a brick of width 1
        row = {2: 1}
        with pytest.raises(InvalidProgramError, match="top block 1"):
            replace(
                one_brick((1, 1)),
                brick_count=2,
                top_blocks=((ONE,), (row,)),
                diag_blocks=((ONE,), (ONE,)),
                rhs=(1, 1, 1),
                lower=(0, 0),
                upper=(3, 3),
                objective=(0, 0),
            )

    def test_block_row_count_mismatch(self):
        with pytest.raises(InvalidProgramError, match="rows"):
            NFoldProgram(
                brick_count=1,
                top_block_rows=2,
                diag_block_rows=1,
                brick_width=1,
                top_blocks=((ONE,),),
                diag_blocks=((ONE,),),
                rhs=(2, 2, 1),
                lower=(0,),
                upper=(3,),
                objective=(0,),
            )


class TestSolvers:
    def test_consistent_rows_pin_the_variable(self):
        assert solve_feasible(flatten(one_brick((2, 2)))) == (2,)

    def test_contradicting_rows_are_infeasible(self):
        # the private row forces x = 1, the shared row wants 5
        assert solve_feasible(flatten(one_brick((5, 1)))) is None

    def test_exhaustive_matches_on_the_frozen_pair(self):
        assert solve_exhaustive(flatten(one_brick((2, 2)))) == (2,)
        assert solve_exhaustive(flatten(one_brick((5, 1)))) is None

    def test_exhaustive_refuses_huge_boxes(self):
        with pytest.raises(EnumerationCapError):
            solve_exhaustive(flatten(one_brick((2, 2), lower=0, upper=10**8)))

    def test_determinism(self):
        rng = random.Random(7)
        for _ in range(25):
            program = flatten(random_nfold_program(rng))
            assert solve_feasible(program) == solve_feasible(program)

    def test_entry_order_does_not_change_the_point(self):
        rng = random.Random(13)
        for _ in range(25):
            program = random_nfold_program(rng)
            ascending = solve_feasible(flatten(sparse_rows(program)))
            descending = solve_feasible(
                flatten(sparse_rows(program, reverse=True))
            )
            assert ascending == descending

    def test_time_limit_without_a_point_raises(self, monkeypatch):
        seen = {}

        def stalled(lp, options):
            seen.update(options)
            return STATUS.kTimeLimit, None

        monkeypatch.setattr(nfold, "_run_highs", stalled)
        with pytest.raises(EnumerationCapError,
                           match=f"time limit of {MILP_TIME_LIMIT:g} s"):
            solve_feasible(flatten(free_pair()))
        assert seen["time_limit"] == MILP_TIME_LIMIT

    def test_highs_settings(self, monkeypatch):
        seen = {}
        real = nfold._run_highs

        def spy(lp, options):
            seen.update(options)
            return real(lp, options)

        monkeypatch.setattr(nfold, "_run_highs", spy)
        assert solve_feasible(flatten(free_pair())) is not None
        assert seen == {
            "log_to_console": False,
            "presolve": "off",
            "time_limit": MILP_TIME_LIMIT,
            "mip_heuristic_run_feasibility_jump": False,
        }

    def test_highs_call_emits_no_warning(self, capfd):
        # HiGHS logs to the console unless told not to, and a Python
        # warning would reach every caller
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_feasible(flatten(free_pair())) is not None
        assert capfd.readouterr() == ("", "")

    def test_rejected_option_raises(self, monkeypatch):
        # HiGHS refuses a negative time limit; solving on with its
        # defaults would drop the limit without a word
        monkeypatch.setattr(nfold, "MILP_TIME_LIMIT", -1.0)
        with pytest.raises(CCSError, match="rejected the option time_limit"):
            solve_feasible(flatten(free_pair()))

    def test_time_limit_with_a_point_is_checked_exactly(self, monkeypatch):
        expected = solve_feasible(flatten(free_pair()))
        real = nfold._run_highs

        def limited(lp, options):
            return STATUS.kTimeLimit, real(lp, options)[1]

        monkeypatch.setattr(nfold, "_run_highs", limited)
        assert solve_feasible(flatten(free_pair())) == expected

        def limited_wrong(lp, options):
            status, x = limited(lp, options)
            return status, [0.0] * len(x)

        monkeypatch.setattr(nfold, "_run_highs", limited_wrong)
        with pytest.raises(CCSError, match="infeasible point"):
            solve_feasible(flatten(free_pair()))

    def test_point_matches_scipy_milp(self):
        # the direct HiGHS call solves what scipy.optimize.milp solved
        # with the same options, entry for entry: columns whose entries
        # are shuffled, split into two of one row, or padded with an
        # explicit zero give the same point on both paths
        rng = random.Random(17)
        shapes = {"shuffled": 0, "split": 0, "zero": 0}
        for _ in range(240):
            program = scrambled(flatten(random_nfold_program(rng)), rng, shapes)
            assert solve_feasible(program) == milp_point(program)
        assert min(shapes.values()) >= 50

    def test_decreasing_column_starts_rejected(self):
        # the exact check walks columns by their starts, so decreasing
        # starts would have HiGHS search another matrix than the one
        # checked; the second program's exact check would accept both
        # (1, 0, 0) and (0, 0, 1). Both are refused when built.
        with pytest.raises(InvalidProgramError, match="decrease"):
            CompactProgram(
                [0, 2, 1, 2], [0, 0], [1, 1], rhs=[1], lower=[0] * 3, upper=[1] * 3
            )
        with pytest.raises(InvalidProgramError, match="decrease"):
            CompactProgram(
                [0, 2, 1, 3], [0, 1, 0], [1, 1, 1], rhs=[1, 1],
                lower=[0] * 3, upper=[1] * 3,
            )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_solver_matches_exhaustive(self, seed):
        program = flatten(random_nfold_program(random.Random(seed)))
        truth = solve_exhaustive(program)
        found = solve_feasible(program)
        assert (found is None) == (truth is None)
        if found is not None:
            assert constraint_violations(program, found) == []

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_shared_top_blocks_match_exhaustive(self, seed):
        # one top block shared by every brick: columns that no private row
        # touches are identical across bricks, the shape of the schemes'
        # machine-count columns in their n-fold layout
        program = random_nfold_program(random.Random(seed), max_bricks=3)
        program = flatten(replace(
            program, top_blocks=(program.top_blocks[0],) * program.brick_count
        ))
        truth = solve_exhaustive(program)
        found = solve_feasible(program)
        assert (found is None) == (truth is None)
        if found is not None:
            assert constraint_violations(program, found) == []


class TestCompactProgram:
    def test_matches_the_flattened_block_program(self):
        # x0 + x1 = 2 and x1 - x2 = -1 over [0, 3]^2 x [-1, 2], stored by
        # columns; a negative lower bound exercises the shift to zero
        program = CompactProgram(
            col_start=[0, 1, 3, 4],
            row_index=[0, 0, 1, 1],
            values=[1, 1, 1, -1],
            rhs=[2, -1],
            lower=[0, 0, -1],
            upper=[3, 3, 2],
        )
        x = solve_feasible(program)
        assert isinstance(x, tuple)
        assert constraint_violations(program, x) == []
        assert x[0] + x[1] == 2 and x[1] - x[2] == -1
        assert constraint_violations(program, (2, 0, 0)) == ["row 1: 0 != -1"]
        assert constraint_violations(program, (2, 0, 5)) == ["x[2] = 5 outside [-1, 2]"]

    def test_programs_without_rows_or_columns(self):
        free = CompactProgram([0, 0], [], [], rhs=[], lower=[2], upper=[3])
        assert solve_feasible(free) == (2,)
        empty = CompactProgram([0], [], [], rhs=[0, 1], lower=[], upper=[])
        assert solve_feasible(empty) is None

    def test_empty_box_is_infeasible(self):
        crossed = CompactProgram([0, 0], [], [], rhs=[], lower=[2], upper=[1])
        assert solve_exhaustive(crossed) is None
        assert solve_feasible(crossed) is None

    def test_inconsistent_columns_rejected(self):
        with pytest.raises(InvalidProgramError, match="column starts"):
            CompactProgram([0, 2], [0], [1], rhs=[1], lower=[0], upper=[1])
        with pytest.raises(InvalidProgramError, match="lower and upper"):
            CompactProgram([0, 1], [0], [1], rhs=[1], lower=[0], upper=[])

    def test_entries_of_one_row_in_a_column_add_up(self):
        # column 0 lists row 0 twice: 1*x0 + 1*x0 = 2 over [0, 3]
        program = CompactProgram([0, 2], [0, 0], [1, 1], rhs=[2], lower=[0], upper=[3])
        assert solve_exhaustive(program) == (1,)
        assert constraint_violations(program, (1,)) == []
        assert solve_feasible(program) == (1,)

    @pytest.mark.parametrize("row", [5, -1])
    def test_row_index_outside_the_program_rejected(self, row):
        # x0 = 1 over [0, 1], with the entry's row index out of range: the
        # program is refused when built, before any solve or check reads it
        with pytest.raises(InvalidProgramError, match="outside"):
            CompactProgram([0, 1], [row], [1], rhs=[1], lower=[0], upper=[1])
        with pytest.raises(InvalidProgramError, match="outside"):
            CompactProgram([0, 1], [row], [1], rhs=[], lower=[1], upper=[1])


class TestSlackHelper:
    def test_inequality_becomes_satisfiable_equality(self):
        # shared row reads 2x <= 3 once a slack in [0, 3] absorbs the gap
        program = NFoldProgram(
            brick_count=1,
            top_block_rows=1,
            diag_block_rows=0,
            brick_width=1,
            top_blocks=(({0: 2},),),
            diag_blocks=((),),
            rhs=(3,),
            lower=(0,),
            upper=(5,),
            objective=(0,),
        )
        widened = with_top_row_slacks(program, {0: 3})
        assert widened.brick_width == 2
        assert widened.top_blocks == (({0: 2, 1: 1},),)
        solution = solve_feasible(flatten(widened))
        assert solution is not None
        assert 2 * solution[0] <= 3

    def test_unknown_row_rejected(self):
        with pytest.raises(InvalidProgramError):
            with_top_row_slacks(one_brick((2, 2)), {5: 1})

    def test_shared_rows_stay_shared(self):
        shared = {0: 1, 1: 2}
        private = {1: 1}
        program = NFoldProgram(
            brick_count=3,
            top_block_rows=2,
            diag_block_rows=1,
            brick_width=2,
            top_blocks=((shared, shared),) * 3,
            diag_blocks=((private,),) * 3,
            rhs=(3, 3, 1, 1, 1),
            lower=(0,) * 6,
            upper=(2,) * 6,
            objective=(0,) * 6,
        )
        widened = with_top_row_slacks(program, {1: 4})
        tops, diags = widened.top_blocks, widened.diag_blocks
        for i in (1, 2):
            assert tops[i][0] is tops[0][0]
            assert tops[i][1] is tops[0][1]
            assert diags[i][0] is diags[0][0]
        assert tops[0][0] == {0: 1, 1: 2}
        assert tops[0][1] == {0: 1, 1: 2, 2: 1}
        assert diags[0][0] == {1: 1}

    def test_slacks_keep_bricks_uniform(self):
        rng = random.Random(11)
        program = random_nfold_program(rng, max_bricks=3, max_width=2)
        widened = with_top_row_slacks(program, {0: 4})
        validate_structure(widened)
        assert widened.total_columns == widened.brick_count * widened.brick_width


class TestDump:
    def test_frozen_text(self):
        text = dump_program(one_brick((2, 1)))
        assert text == "1 1 1 1\n1\n1\n2 1\n0\n3\n0\n"

    def test_roundtrip_token_count(self):
        rng = random.Random(3)
        program = random_nfold_program(rng)
        tokens = dump_program(program).split()
        n, r, s, t = program.brick_count, program.top_block_rows, (
            program.diag_block_rows
        ), program.brick_width
        expected = 4 + n * r * t + n * s * t + (r + n * s) + 3 * n * t
        assert len(tokens) == expected
        assert all(int(tok) or True for tok in tokens)
