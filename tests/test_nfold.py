"""Block-program model, feasibility solver, exhaustive oracle, and the
inequality-to-equality slack helper."""

import random
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from ccs import CCSError, EnumerationCapError
from ccs.nfold import (
    MILP_TIME_LIMIT,
    InvalidProgramError,
    NFoldProgram,
    NFoldSolution,
    SparseRow,
    constraint_violations,
    dump_program,
    solve_exhaustive,
    solve_feasible,
    validate_structure,
    with_top_row_slacks,
)

from conftest import random_nfold_program


def sparse_rows(program: NFoldProgram, reverse: bool = False) -> NFoldProgram:
    """The same program with every row stored as a SparseRow whose entries
    were inserted in ascending (or, with reverse, descending) column order."""
    t = program.brick_width

    def convert(block):
        return tuple(
            SparseRow(t, dict(sorted(enumerate(row), reverse=reverse)))
            for row in block
        )

    return replace(
        program,
        top_blocks=tuple(convert(b) for b in program.top_blocks),
        diag_blocks=tuple(convert(b) for b in program.diag_blocks),
    )


def free_pair() -> NFoldProgram:
    """x0 + x1 = 2 over [0, 3]^2: presolve pins nothing, so HiGHS runs."""
    return NFoldProgram(
        brick_count=1,
        top_block_rows=1,
        diag_block_rows=0,
        brick_width=2,
        top_blocks=(((1, 1),),),
        diag_blocks=((),),
        rhs=(2,),
        lower=(0, 0),
        upper=(3, 3),
        objective=(0, 0),
    )


def one_brick(rhs, lower=0, upper=3) -> NFoldProgram:
    """Single brick, single variable, A = B = (1)."""
    return NFoldProgram(
        brick_count=1,
        top_block_rows=1,
        diag_block_rows=1,
        brick_width=1,
        top_blocks=(((1,),),),
        diag_blocks=(((1,),),),
        rhs=rhs,
        lower=(lower,),
        upper=(upper,),
        objective=(0,),
    )


class TestValidateStructure:
    def test_tiny_program_is_valid(self):
        report = validate_structure(one_brick((2, 1)))
        assert report.rows == 2
        assert report.columns == 1
        assert report.delta == 1
        assert report.encoding_length == 2

    def test_rhs_length_mismatch(self):
        with pytest.raises(InvalidProgramError, match="rhs"):
            validate_structure(one_brick((2, 1, 7)))

    def test_crossed_bounds(self):
        with pytest.raises(InvalidProgramError, match="range"):
            validate_structure(one_brick((2, 1), lower=4, upper=3))

    def test_non_integer_entry(self):
        with pytest.raises(InvalidProgramError, match="integer"):
            validate_structure(one_brick((2.0, 1)))

    def test_report_reads_delta_and_encoding_length_on_demand(self):
        rng = random.Random(5)
        for _ in range(20):
            program = random_nfold_program(rng)
            for variant in (program, sparse_rows(program)):
                report = validate_structure(variant)
                assert "delta" not in vars(report)
                assert report.delta == variant.delta
                assert report.encoding_length == variant.encoding_length

    def test_row_of_wrong_width_in_a_later_brick(self):
        row = SparseRow(3, {0: 1})
        program = replace(
            one_brick((1, 1)),
            brick_count=2,
            top_blocks=(((1,),), (row,)),
            diag_blocks=(((1,),), ((1,),)),
            rhs=(1, 1, 1),
            lower=(0, 0),
            upper=(3, 3),
            objective=(0, 0),
        )
        with pytest.raises(InvalidProgramError, match="top block 1"):
            validate_structure(program)

    def test_block_row_count_mismatch(self):
        program = NFoldProgram(
            brick_count=1,
            top_block_rows=2,
            diag_block_rows=1,
            brick_width=1,
            top_blocks=(((1,),),),
            diag_blocks=(((1,),),),
            rhs=(2, 2, 1),
            lower=(0,),
            upper=(3,),
            objective=(0,),
        )
        with pytest.raises(InvalidProgramError, match="rows"):
            validate_structure(program)


class TestSolvers:
    def test_consistent_rows_pin_the_variable(self):
        solution = solve_feasible(one_brick((2, 2)))
        assert solution is not None
        assert solution.x == (2,)

    def test_contradicting_rows_are_infeasible(self):
        # the private row forces x = 1, the shared row wants 5
        assert solve_feasible(one_brick((5, 1))) is None

    def test_exhaustive_matches_on_the_frozen_pair(self):
        found = solve_exhaustive(one_brick((2, 2)))
        assert found is not None and found.x == (2,)
        assert solve_exhaustive(one_brick((5, 1))) is None

    def test_exhaustive_refuses_huge_boxes(self):
        with pytest.raises(EnumerationCapError):
            solve_exhaustive(one_brick((2, 2), lower=0, upper=10**8))

    def test_solutions_partition_into_bricks(self):
        solution = NFoldSolution(x=(1, 2, 3, 4), brick_width=2)
        assert solution.bricks == ((1, 2), (3, 4))

    def test_determinism(self):
        rng = random.Random(7)
        for _ in range(25):
            program = random_nfold_program(rng)
            first = solve_feasible(program)
            second = solve_feasible(program)
            if first is None:
                assert second is None
            else:
                assert second is not None and first.x == second.x

    def test_entry_order_does_not_change_the_point(self):
        rng = random.Random(13)
        for _ in range(25):
            program = random_nfold_program(rng)
            ascending = solve_feasible(sparse_rows(program))
            descending = solve_feasible(sparse_rows(program, reverse=True))
            if ascending is None:
                assert descending is None
            else:
                assert descending is not None and ascending.x == descending.x

    def test_time_limit_without_a_point_raises(self, monkeypatch):
        seen = {}

        def stalled(**kwargs):
            seen.update(kwargs["options"])
            return scipy.optimize.OptimizeResult(
                status=1, x=None, success=False, message="Time limit reached."
            )

        monkeypatch.setattr(scipy.optimize, "milp", stalled)
        with pytest.raises(CCSError, match=f"time limit of {MILP_TIME_LIMIT:g} s"):
            solve_feasible(free_pair())
        assert seen["time_limit"] == MILP_TIME_LIMIT

    def test_time_limit_with_a_point_is_checked_exactly(self, monkeypatch):
        expected = solve_feasible(free_pair())
        real = scipy.optimize.milp

        def limited(**kwargs):
            result = real(**kwargs)
            result.status = 1
            return result

        monkeypatch.setattr(scipy.optimize, "milp", limited)
        assert solve_feasible(free_pair()) == expected

        def limited_wrong(**kwargs):
            result = limited(**kwargs)
            result.x = np.zeros_like(result.x)
            return result

        monkeypatch.setattr(scipy.optimize, "milp", limited_wrong)
        with pytest.raises(CCSError, match="infeasible point"):
            solve_feasible(free_pair())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_solver_matches_exhaustive(self, seed):
        program = random_nfold_program(random.Random(seed))
        truth = solve_exhaustive(program)
        found = solve_feasible(program)
        assert (found is None) == (truth is None)
        if found is not None:
            assert constraint_violations(program, found.x) == []

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_aggregated_columns_match_exhaustive(self, seed):
        # with one top block shared by every brick, columns that no private
        # row touches collapse across bricks before the mixed-integer solve,
        # and the solver has to split their value back over the bricks
        program = random_nfold_program(random.Random(seed), max_bricks=3)
        program = replace(
            program, top_blocks=(program.top_blocks[0],) * program.brick_count
        )
        truth = solve_exhaustive(program)
        found = solve_feasible(program)
        assert (found is None) == (truth is None)
        if found is not None:
            assert constraint_violations(program, found.x) == []


class TestSlackHelper:
    def test_inequality_becomes_satisfiable_equality(self):
        # shared row reads 2x <= 3 once a slack in [0, 3] absorbs the gap
        program = NFoldProgram(
            brick_count=1,
            top_block_rows=1,
            diag_block_rows=0,
            brick_width=1,
            top_blocks=(((2,),),),
            diag_blocks=((),),
            rhs=(3,),
            lower=(0,),
            upper=(5,),
            objective=(0,),
        )
        widened = with_top_row_slacks(program, {0: 3})
        assert widened.brick_width == 2
        assert widened.top_blocks == (((2, 1),),)
        solution = solve_feasible(widened)
        assert solution is not None
        assert 2 * solution.x[0] <= 3

    def test_unknown_row_rejected(self):
        with pytest.raises(InvalidProgramError):
            with_top_row_slacks(one_brick((2, 2)), {5: 1})

    def test_shared_rows_stay_shared(self):
        shared = SparseRow(2, {0: 1, 1: 2})
        private = SparseRow(2, {1: 1})
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
        assert tops[0][0] == SparseRow(3, {0: 1, 1: 2})
        assert tops[0][1] == SparseRow(3, {0: 1, 1: 2, 2: 1})
        assert diags[0][0] == SparseRow(3, {1: 1})

    def test_slacks_keep_bricks_uniform(self):
        rng = random.Random(11)
        program = random_nfold_program(rng, max_bricks=3, max_width=2)
        widened = with_top_row_slacks(program, {0: 4})
        report = validate_structure(widened)
        assert report.columns == widened.brick_count * widened.brick_width


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
