"""Approximation scheme tests: accuracy grid, rounding, enumeration,
block program shape, reconstruction, and the end-to-end driver."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import instances
from ccs import (
    CompactSchedule,
    EnumerationCapError,
    Instance,
    NONPREEMPTIVE,
    PREEMPTIVE,
    SPLITTABLE,
    SplittableSchedule,
    StructuralInfeasibleError,
    lower_bound,
    makespan,
    validate,
)
from ccs.approx import approx_nonpreemptive, approx_splittable
from ccs.core import CCSError, expand_compact
from ccs.nfold import solve_feasible, validate_structure
from ccs.oracle import opt_nonpreemptive, opt_preemptive, opt_splittable
from ccs.ptas import (
    CAP_MESSAGE,
    PtasParams,
    build_program,
    construct_schedule,
    derive_delta,
    enumerate_sets,
    exponential_m_extension,
    inflated_bound,
    preprocess,
    ptas_solve,
    splittable_sets,
    unfold_preemptive,
)
from ccs.ptas.driver import _search_grid, _search_integers

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def probe(instance, guess, delta, variant, cap=None):
    """Build and solve the feasibility program at one guess."""
    params = PtasParams.at_guess(guess, delta, variant)
    rounded = preprocess(instance, params, variant)
    built = build_program(rounded, cap=cap)
    return built, solve_feasible(built.program)


def accepted(instance, delta, variant, cap=None):
    """First feasible guess on the geometric grid above the lower bound."""
    lo, _hi = lower_bound(instance, variant)
    guess = Fraction(lo)
    for _ in range(64):
        built, solution = probe(instance, guess, delta, variant, cap)
        if solution is not None:
            return built, solution
        guess *= 1 + delta
    raise AssertionError(f"no feasible guess for {instance}")


class TestDeriveDelta:
    def test_frozen_values_at_epsilon_one(self):
        assert derive_delta(1, SPLITTABLE) == Fraction(1, 8)
        assert derive_delta(1, NONPREEMPTIVE) == Fraction(1, 9)
        # the preemptive scheme runs at the splittable scheme's accuracy
        with pytest.raises(ValueError, match="ptas_solve"):
            derive_delta(1, PREEMPTIVE)

    def test_scales_inversely_with_epsilon(self):
        assert derive_delta(HALF, SPLITTABLE) == Fraction(1, 16)
        assert derive_delta(THIRD, NONPREEMPTIVE) == Fraction(1, 27)

    def test_domain(self):
        with pytest.raises(ValueError):
            derive_delta(0, SPLITTABLE)
        with pytest.raises(ValueError):
            derive_delta(2, SPLITTABLE)
        with pytest.raises(ValueError):
            derive_delta(-1, NONPREEMPTIVE)
        with pytest.raises(ValueError):
            derive_delta(1, "elastic")

    def test_inflated_bounds(self):
        assert inflated_bound(Fraction(1), HALF, SPLITTABLE) == 3
        assert inflated_bound(Fraction(1), HALF, NONPREEMPTIVE) == 5
        with pytest.raises(ValueError, match="ptas_solve"):
            inflated_bound(Fraction(1), HALF, PREEMPTIVE)

    def test_params_reject_non_unit_fraction(self):
        with pytest.raises(ValueError):
            PtasParams.at_guess(1, Fraction(2, 5), SPLITTABLE)
        with pytest.raises(ValueError):
            PtasParams.at_guess(1, 1, SPLITTABLE)
        assert PtasParams.at_guess(1, THIRD, SPLITTABLE).grid == 3


class TestPreprocess:
    def test_splittable_class_fuses_to_one_job(self):
        # a second class keeps the slot budget at 2 (Instance clamps
        # c down to the class count)
        inst = Instance((3, 4, 6), (1, 1, 2), 2, 2)
        params = PtasParams.at_guess(10, HALF, SPLITTABLE)
        rounded = preprocess(inst, params, SPLITTABLE)
        cls = rounded.classes[0]
        assert not cls.small
        (job,) = cls.jobs
        # load 7 on the coarse grid: 7 * 4/5 = 5.6, up to the next
        # multiple of c = 2 gives 6
        assert job.job_ids == (0, 1) and job.raw_size == 7
        assert job.scaled_size == 6
        assert rounded.scale == Fraction(4, 5)
        assert rounded.scaled_guess == 8
        assert rounded.scaled_slot == 4
        assert rounded.scaled_inflated == 24

    def test_splittable_light_class_is_small(self):
        inst = Instance((1, 1, 1, 9), (1, 1, 1, 2), 1, 2)
        params = PtasParams.at_guess(10, HALF, SPLITTABLE)
        rounded = preprocess(inst, params, SPLITTABLE)
        cls = rounded.classes[0]
        assert cls.small and cls.xi == 1
        # fine grid: ceil(3 * 4/5) = 3
        assert cls.jobs[0].scaled_size == 3

    def test_grouping_fills_chunks_then_merges_leftover(self):
        inst = Instance((1, 1, 1, 1, 1), (1,) * 5, 1, 1)
        params = PtasParams.at_guess(4, HALF, NONPREEMPTIVE)
        rounded = preprocess(inst, params, NONPREEMPTIVE)
        (cls,) = rounded.classes
        assert not cls.small
        descriptors = [(j.job_ids, j.raw_size, j.scaled_size) for j in cls.jobs]
        # chunks (0,1) and (2,3) reach the slot 2, the leftover job 4
        # joins the first chunk (tie on size, lower lead id wins)
        assert descriptors == [((0, 1, 4), 3, 3), ((2, 3), 2, 2)]
        assert rounded.large_sizes == (2, 3)
        assert rounded.size_counts(1) == {3: 1, 2: 1}

    def test_leftover_joins_oversized_job_when_nothing_fits(self):
        inst = Instance((9, 1), (1, 1), 1, 1)
        params = PtasParams.at_guess(4, HALF, NONPREEMPTIVE)
        rounded = preprocess(inst, params, NONPREEMPTIVE)
        (cls,) = rounded.classes
        (job,) = cls.jobs
        assert job.job_ids == (0, 1) and job.raw_size == 10
        assert not cls.small

    def test_single_job_at_slot_boundary_is_small(self):
        inst = Instance((2,), (1,), 1, 1)
        params = PtasParams.at_guess(4, HALF, NONPREEMPTIVE)
        rounded = preprocess(inst, params, NONPREEMPTIVE)
        assert rounded.classes[0].small

    def test_rejects_unknown_variant(self):
        inst = Instance((1,), (1,), 1, 1)
        params = PtasParams.at_guess(1, HALF, SPLITTABLE)
        with pytest.raises(ValueError):
            preprocess(inst, params, "fluid")

    @given(instances(max_jobs=6, max_machines=3, max_budget=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_grouping_conserves_jobs(self, inst):
        params = PtasParams.at_guess(max(inst.processing_times), HALF,
                                     NONPREEMPTIVE)
        rounded = preprocess(inst, params, NONPREEMPTIVE)
        seen = []
        for cls in rounded.classes:
            for job in cls.jobs:
                seen.extend(job.job_ids)
                raw = sum(inst.processing_times[j] for j in job.job_ids)
                assert raw == job.raw_size
                assert job.scaled_size >= job.raw_size * rounded.scale
        assert sorted(seen) == list(range(inst.job_count))


class TestSets:
    def test_splittable_counts_at_half(self):
        mods, confs = splittable_sets(2, 1)
        assert mods.count == 11
        assert mods.sizes == tuple(range(2, 13))
        assert confs.count == 12
        assert confs.slot_cap == 1
        assert len(confs.pairs) == 12

    def test_splittable_counts_at_half_budget_two(self):
        mods, confs = splittable_sets(2, 2)
        assert mods.count == 11
        assert mods.sizes == tuple(2 * level for level in range(2, 13))
        # empty, 11 singles, 25 unordered pairs within the bound 24
        assert confs.count == 37
        assert confs.slot_cap == 2
        assert len(confs.size_set) == 12
        assert len(confs.pairs) == 24
        zero = confs.configs.index(tuple([0] * 11))
        assert zero == 0
        assert confs.groups[(0, 0)] == (0,)

    def test_splittable_module_count_at_eighth(self):
        mods, _confs = splittable_sets(8, 1)
        assert mods.count == 89

    def test_nonpreemptive_single_size_ladder(self):
        inst = Instance((2,), (1,), 1, 1)
        small = preprocess(
            inst, PtasParams.at_guess(4, HALF, NONPREEMPTIVE), NONPREEMPTIVE
        )
        assert small.large_sizes == ()
        params = PtasParams.at_guess(2, HALF, NONPREEMPTIVE)
        rounded = preprocess(Instance((2, 2), (1, 1), 1, 1), params,
                             NONPREEMPTIVE)
        assert rounded.large_sizes == (4,)
        mods, confs = enumerate_sets(rounded)
        # multiples of the single size 4 up to the bound 20, zero included
        assert mods.modules == ((0,), (1,), (2,), (3,), (4,), (5,))
        assert mods.sizes == (0, 4, 8, 12, 16, 20)
        assert confs.count == 7

    def test_cap_stops_enumeration(self):
        with pytest.raises(EnumerationCapError) as err:
            splittable_sets(8, 3, cap=100)
        assert CAP_MESSAGE in str(err.value)

    def test_cap_env_knob(self, monkeypatch):
        monkeypatch.setenv("CCS_ENUM_CAP", "10")
        with pytest.raises(EnumerationCapError):
            splittable_sets(2, 1)
        monkeypatch.setenv("CCS_ENUM_CAP", "ten")
        with pytest.raises(CCSError):
            splittable_sets(2, 1)

    def test_results_are_cached(self):
        first = splittable_sets(2, 1)
        second = splittable_sets(2, 1)
        assert first[0] is second[0] and first[1] is second[1]


def shape_identities(built):
    """The row and column counts the construction promises, computed
    from the enumerated sets alone."""
    layout = built.layout
    mods = built.modules
    confs = built.configurations
    c_star = confs.slot_cap
    value_count = len(confs.size_set)
    r = 1 + layout.link_count + 2 * c_star * value_count
    t = confs.count + mods.count + 3 * c_star * value_count
    if layout.variant == SPLITTABLE:
        s = 2
    else:
        s = len(layout.piece_sizes) + 1
    return r, s, t


class TestProgramShape:
    def test_splittable_dimensions(self):
        inst = Instance((3, 4), (1, 1), 2, 1)
        params = PtasParams.at_guess(8, HALF, SPLITTABLE)
        rounded = preprocess(inst, params, SPLITTABLE)
        built = build_program(rounded)
        program = built.program
        r, s, t = shape_identities(built)
        assert (r, s, t) == (36, 2, 59)
        assert program.top_block_rows == r
        assert program.diag_block_rows == s
        assert program.brick_width == t
        report = validate_structure(program)
        assert report.rows == r + rounded.class_count * s
        assert report.columns == rounded.class_count * t

    def test_nonpreemptive_dimensions(self):
        inst = Instance((2, 2, 2), (1, 2, 3), 3, 1)
        params = PtasParams.at_guess(2, THIRD, NONPREEMPTIVE)
        rounded = preprocess(inst, params, NONPREEMPTIVE)
        built = build_program(rounded)
        r, s, t = shape_identities(built)
        assert (r, s, t) == (13, 2, 21)
        assert built.program.top_block_rows == r
        assert built.program.diag_block_rows == s
        assert built.program.brick_width == t
        validate_structure(built.program)

    def test_preemptive_variant_is_refused(self):
        # the preemptive scheme has no program of its own; ptas_solve
        # answers it through the splittable one
        inst = Instance((2, 2), (1, 1), 2, 1)
        with pytest.raises(ValueError, match="ptas_solve"):
            PtasParams(None, HALF, 2, 5, PREEMPTIVE)
        split = preprocess(inst, PtasParams.at_guess(2, HALF, SPLITTABLE),
                           SPLITTABLE)
        with pytest.raises(ValueError, match="ptas_solve"):
            preprocess(inst, split.params, PREEMPTIVE)
        relabelled = replace(split, variant=PREEMPTIVE)
        with pytest.raises(ValueError, match="ptas_solve"):
            enumerate_sets(relabelled)
        with pytest.raises(ValueError, match="ptas_solve"):
            build_program(relabelled)

    def test_small_class_program_parks_machines_on_empty_config(self):
        inst = Instance((1,), (1,), 1, 1)
        params = PtasParams.at_guess(2, HALF, SPLITTABLE)
        rounded = preprocess(inst, params, SPLITTABLE)
        assert rounded.classes[0].small
        built = build_program(rounded)
        solution = solve_feasible(built.program)
        assert solution is not None
        brick = solution.bricks[0]
        confs = built.configurations
        zero = confs.configs.index(tuple([0] * built.modules.count))
        assert brick[zero] == 1
        pair_pos = confs.pairs.index((0, 0))
        assert brick[built.layout.z_offset + pair_pos] == 1


class TestMachineCountExtension:
    def build(self, inst, guess):
        params = PtasParams.at_guess(guess, HALF, SPLITTABLE)
        rounded = preprocess(inst, params, SPLITTABLE)
        return build_program(rounded)

    def extend(self, built):
        return exponential_m_extension(
            built.program,
            built.rounded.class_count,
            configurations=built.configurations,
            layout=built.layout,
        )

    def test_bound_grows_quadratically(self):
        built = self.build(Instance((4, 4), (1, 1), 2, 1), 4)
        extended = self.extend(built)
        assert extended.rhs[built.program.top_block_rows] == 1
        assert extended.top_block_rows == built.program.top_block_rows + 1
        assert extended.brick_width == built.program.brick_width + 1

        three = self.build(Instance((4, 4, 4), (1, 2, 3), 3, 1), 4)
        assert self.extend(three).rhs[three.program.top_block_rows] == 6

    def test_splittable_only(self):
        inst = Instance((2, 2), (1, 1), 1, 1)
        params = PtasParams.at_guess(4, HALF, NONPREEMPTIVE)
        built = build_program(preprocess(inst, params, NONPREEMPTIVE))
        with pytest.raises(CCSError):
            self.extend(built)

    def test_preserves_feasibility_on_round_loads(self):
        # class loads that fit a single module keep one machine irregular,
        # within the budget of the extra row
        for sizes, labels, m in [
            ((4, 4), (1, 1), 2),
            ((2, 2), (1, 1), 2),
            ((4, 4, 2, 2), (1, 1, 2, 2), 4),
        ]:
            built = self.build(Instance(sizes, labels, m, 1), 4)
            assert solve_feasible(built.program) is not None
            assert solve_feasible(self.extend(built)) is not None

    def test_bound_refuses_two_partial_machines(self):
        # load 13 against machine capacity 12 needs two non-full pieces,
        # but the row only allows one irregular machine for one class:
        # the extended program wrongly rejects this feasible instance
        built = self.build(Instance((6, 7), (1, 1), 2, 1), 4)
        assert solve_feasible(built.program) is not None
        assert solve_feasible(self.extend(built)) is None


def brick_conservation(built, solution):
    """Re-add the demand rows from the raw solution vector."""
    layout = built.layout
    rounded = built.rounded
    for u, cls in enumerate(rounded.classes):
        brick = solution.bricks[u]
        y = brick[layout.y_offset:layout.y_offset + layout.module_count]
        if layout.variant == SPLITTABLE:
            supplied = sum(
                size * count for size, count in zip(built.modules.sizes, y)
            )
            assert supplied == (0 if cls.small else cls.scaled_load)
        else:
            counts = rounded.size_counts(cls.class_id) if not cls.small else {}
            for p_pos, p in enumerate(layout.piece_sizes):
                supplied = sum(
                    vec[p_pos] * count
                    for vec, count in zip(built.modules.modules, y)
                )
                assert supplied == counts.get(p, 0)


class TestReconstruction:
    def check(self, inst, delta, variant, cap=None):
        built, solution = accepted(inst, delta, variant, cap)
        brick_conservation(built, solution)
        schedule = construct_schedule(inst, solution, built)
        assert validate(schedule, inst, variant) == []
        params = built.rounded.params
        assert makespan(schedule, inst) <= params.inflated + delta * params.guess
        return schedule

    @given(instances(max_jobs=5, max_machines=3, max_budget=2, max_size=6))
    @settings(max_examples=12, deadline=None)
    def test_splittable_schedules_stay_under_inflated_bound(self, inst):
        self.check(inst, HALF, SPLITTABLE)

    @given(instances(max_jobs=5, max_machines=3, max_budget=2, max_size=6))
    @settings(max_examples=10, deadline=None)
    def test_nonpreemptive_schedules_stay_under_inflated_bound(self, inst):
        self.check(inst, HALF, NONPREEMPTIVE)

    def test_nonpreemptive_finer_grid(self):
        self.check(Instance((3, 1, 4, 1), (1, 2, 1, 2), 2, 2), THIRD,
                   NONPREEMPTIVE)

    def test_feasibility_is_monotone_in_the_guess(self):
        inst = Instance((3, 1, 4, 1), (1, 2, 1, 2), 2, 2)
        lo, hi = lower_bound(inst, NONPREEMPTIVE)
        first = None
        for guess in range(int(lo), int(hi) + 1):
            _built, solution = probe(inst, guess, HALF, NONPREEMPTIVE)
            if first is None:
                if solution is not None:
                    first = guess
            else:
                assert solution is not None
        assert first is not None

    def test_scaling_leaves_the_scaled_program_alone(self):
        base = Instance((2, 3, 2), (1, 2, 1), 2, 2)
        lifted = Instance((10, 15, 10), (1, 2, 1), 2, 2)
        for variant, guess in ((NONPREEMPTIVE, 3), (SPLITTABLE, 3)):
            params = PtasParams.at_guess(guess, HALF, variant)
            lifted_params = PtasParams.at_guess(5 * guess, HALF, variant)
            a = preprocess(base, params, variant)
            b = preprocess(lifted, lifted_params, variant)
            assert a.scaled_inflated == b.scaled_inflated
            assert a.large_sizes == b.large_sizes
            for ca, cb in zip(a.classes, b.classes):
                assert ca.small == cb.small and ca.xi == cb.xi
                assert [(j.job_ids, j.scaled_size) for j in ca.jobs] == [
                    (j.job_ids, j.scaled_size) for j in cb.jobs
                ]
                assert all(5 * ja.raw_size == jb.raw_size
                           for ja, jb in zip(ca.jobs, cb.jobs))
            _, sol_a = probe(base, guess, HALF, variant)
            _, sol_b = probe(lifted, 5 * guess, HALF, variant)
            assert (sol_a is None) == (sol_b is None)


class TestUnfoldPreemptive:
    @given(instances(max_jobs=7, max_machines=4, max_budget=2, max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_keeps_loads_and_stays_within_the_horizon(self, inst):
        split = approx_splittable(inst)
        if isinstance(split, CompactSchedule):
            split = expand_compact(split, inst)
        schedule = unfold_preemptive(inst, split)
        assert validate(schedule, inst, PREEMPTIVE) == []
        horizon = max(inst.max_processing_time, makespan(split, inst))
        assert makespan(schedule, inst) <= horizon

        def loads(pieces):
            out = {}
            for j, lam, i, *_start in pieces:
                out[j, i] = out.get((j, i), 0) + lam
            return out

        assert loads(schedule.pieces) == loads(split.pieces)

    def test_job_longer_than_any_machine_load(self):
        inst = Instance((8, 1, 1), (1, 2, 3), 3, 2)
        split = SplittableSchedule(
            pieces=((0, HALF, 0), (0, HALF, 1), (1, 1, 2), (2, 1, 2))
        )
        schedule = unfold_preemptive(inst, split)
        assert validate(schedule, inst, PREEMPTIVE) == []
        assert makespan(schedule, inst) == 8


class TestDriver:
    def test_three_classes_three_machines(self):
        inst = Instance((2, 2, 2), (1, 2, 3), 3, 1)
        for variant in (SPLITTABLE, NONPREEMPTIVE):
            schedule = ptas_solve(inst, 1, variant)
            assert validate(schedule, inst, variant) == []
            assert makespan(schedule, inst) == 2

    def test_splittable_ratio_against_oracle(self):
        cases = [
            Instance((5, 3, 4, 2, 6, 1), (1, 2, 1, 2, 1, 2), 3, 2),
            Instance((7, 7, 2), (1, 1, 2), 2, 2),
            Instance((4, 4, 4, 4), (1, 2, 3, 4), 2, 2),
            Instance((9, 1, 1, 1), (1, 2, 2, 2), 2, 1),
        ]
        for inst in cases:
            assert inst.machine_count <= inst.job_count * inst.slot_budget
            schedule = ptas_solve(inst, 1, SPLITTABLE)
            assert validate(schedule, inst, SPLITTABLE) == []
            assert makespan(schedule, inst) <= 2 * opt_splittable(inst)

    def test_nonpreemptive_ratio_against_oracle(self):
        cases = [
            Instance((5, 3, 4, 2, 6, 1), (1, 2, 1, 2, 1, 2), 3, 2),
            Instance((3, 1, 4, 1), (1, 2, 1, 2), 2, 2),
            Instance((6, 5, 4), (1, 2, 3), 3, 1),
            Instance((2, 2, 2, 2, 2), (1, 1, 1, 2, 2), 2, 2),
        ]
        for inst in cases:
            schedule = ptas_solve(inst, 1, NONPREEMPTIVE)
            assert validate(schedule, inst, NONPREEMPTIVE) == []
            value, _ = opt_nonpreemptive(inst)
            assert makespan(schedule, inst) <= 2 * value

    def test_preemptive_coarse_grid(self):
        inst = Instance((2, 2), (1, 1), 2, 1)
        schedule = ptas_solve(inst, None, PREEMPTIVE, delta=HALF)
        assert validate(schedule, inst, PREEMPTIVE) == []
        # guaranteed factor at delta = 1/2 is 1 + 8*delta = 5
        assert makespan(schedule, inst) <= 5 * 2

    def test_preemptive_default_accuracy_overflows_the_cap(self):
        # the preemptive scheme answers at accuracy 1; the cap still
        # surfaces through ptas_solve with its message
        inst = Instance((2, 2), (1, 1), 2, 1)
        schedule = ptas_solve(inst, 1, PREEMPTIVE)
        assert validate(schedule, inst, PREEMPTIVE) == []
        assert makespan(schedule, inst) <= 2 * opt_preemptive(inst)
        with pytest.raises(EnumerationCapError) as err:
            ptas_solve(inst, 1, SPLITTABLE, enum_cap=10)
        assert CAP_MESSAGE in str(err.value)

    def test_preemptive_ratio_against_oracle(self):
        inst = Instance((3, 5, 7, 2), (1, 2, 1, 2), 2, 1)
        assert opt_preemptive(inst) == 10
        for eps in (Fraction(1), HALF):
            schedule = ptas_solve(inst, eps, PREEMPTIVE)
            assert validate(schedule, inst, PREEMPTIVE) == []
            assert makespan(schedule, inst) <= (1 + eps) * 10

    def test_preemptive_jobs_split_across_machines_never_run_in_parallel(self):
        inst = Instance((6, 6, 6), (1, 1, 1), 2, 1)
        schedule = ptas_solve(inst, 1, PREEMPTIVE)
        assert validate(schedule, inst, PREEMPTIVE) == []
        hosts = {}
        for j, _lam, i, _start in schedule.pieces:
            hosts.setdefault(j, set()).add(i)
        assert max(len(machines) for machines in hosts.values()) == 2
        assert makespan(schedule, inst) <= 2 * 9

    def test_preemptive_machines_beyond_job_count(self):
        inst = Instance((4, 9), (1, 2), 10**9, 1)
        report = {}
        schedule = ptas_solve(inst, 1, PREEMPTIVE, report=report)
        assert validate(schedule, inst, PREEMPTIVE) == []
        assert makespan(schedule, inst) == 9
        assert {i for _j, _lam, i, _s in schedule.pieces} <= {0, 1}
        assert report["built"] is None
        assert report["probes"] == []

    def test_preemptive_report_describes_the_splittable_run(self):
        inst = Instance((3, 5, 7, 2), (1, 2, 1, 2), 2, 1)
        report = {}
        ptas_solve(inst, 1, PREEMPTIVE, report=report)
        assert report["built"].layout.variant == SPLITTABLE
        assert report["solution"] is not None
        assert report["guess"] > 0

    def test_feasible_bottom_answers_in_one_probe(self):
        inst = Instance((5, 3, 4, 2, 6, 1), (1, 2, 1, 2, 1, 2), 3, 2)
        floor, _ub = lower_bound(inst, NONPREEMPTIVE)
        warm = makespan(approx_nonpreemptive(inst), inst)
        lo = math.ceil(max(floor, warm / Fraction(7, 3)))
        report = {}
        ptas_solve(inst, 1, NONPREEMPTIVE, report=report)
        assert report["probes"] == [(lo, True)]
        assert report["guess"] == lo

    def test_infeasible_bottom_bisects_to_smallest_feasible_probe(self):
        # from the benchmark's seeded instances, where the bracket bottom
        # is infeasible
        cases = [
            (Instance((7, 5, 1), (2, 2, 1), 2, 1), NONPREEMPTIVE),
            (Instance((8, 2, 3), (2, 2, 1), 2, 1), SPLITTABLE),
        ]
        for inst, variant in cases:
            report = {}
            schedule = ptas_solve(inst, 1, variant, report=report)
            probes = report["probes"]
            assert probes[0][1] is False
            assert len(probes) > 2
            assert len({g for g, _f in probes}) == len(probes)
            feasible = [g for g, f in probes if f]
            assert report["guess"] == min(feasible)
            assert all(g < report["guess"] for g, f in probes if not f)
            assert validate(schedule, inst, variant) == []
            if variant == SPLITTABLE:
                best = opt_splittable(inst)
            else:
                best, _ = opt_nonpreemptive(inst)
            assert makespan(schedule, inst) <= 2 * best

    def test_rejected_safe_guess_raises(self):
        def reject(_guess):
            return None, None

        with pytest.raises(CCSError, match="safe guess 7"):
            _search_integers(reject, 3, 7)
        with pytest.raises(CCSError, match="safe guess 4"):
            _search_integers(reject, 4, 4)
        with pytest.raises(CCSError, match="safe guess 9/4"):
            _search_grid(reject, Fraction(1), Fraction(2), HALF)

    def test_huge_machine_count_compacts(self):
        inst = Instance((2, 3), (1, 2), 10**9, 2)
        clamped = Instance((2, 3), (1, 2), 4, 2)
        big = ptas_solve(inst, 1, SPLITTABLE)
        small = ptas_solve(clamped, 1, SPLITTABLE)
        assert isinstance(big, CompactSchedule)
        assert validate(big, inst) == []
        assert validate(small, clamped) == []
        assert makespan(big, inst) == makespan(small, clamped)

    def test_splittable_makespan_scales_exactly(self):
        base = Instance((5, 3, 4, 2), (1, 2, 1, 2), 2, 2)
        lifted = Instance((15, 9, 12, 6), (1, 2, 1, 2), 2, 2)
        a = ptas_solve(base, 1, SPLITTABLE)
        b = ptas_solve(lifted, 1, SPLITTABLE)
        assert makespan(b, lifted) == 3 * makespan(a, base)

    def test_structural_infeasibility_raises(self):
        inst = Instance((1, 1, 1), (1, 2, 3), 1, 2)
        with pytest.raises(StructuralInfeasibleError):
            ptas_solve(inst, 1, SPLITTABLE)

    def test_argument_validation(self):
        inst = Instance((1,), (1,), 1, 1)
        with pytest.raises(ValueError):
            ptas_solve(inst, 0, SPLITTABLE)
        with pytest.raises(ValueError):
            ptas_solve(inst, 2, SPLITTABLE)
        with pytest.raises(ValueError):
            ptas_solve(inst, None, SPLITTABLE)
        with pytest.raises(ValueError):
            ptas_solve(inst, None, SPLITTABLE, delta=Fraction(2, 3))
        with pytest.raises(ValueError):
            ptas_solve(inst, 1, "fractional")

    def test_delta_override_without_epsilon(self):
        inst = Instance((2, 2, 2), (1, 2, 3), 3, 1)
        schedule = ptas_solve(inst, None, NONPREEMPTIVE, delta=THIRD)
        assert validate(schedule, inst, NONPREEMPTIVE) == []
        assert makespan(schedule, inst) == 2
