"""Acceptance gate: every shipped guarantee exercised end to end.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them all). The random
suites are seeded, so the gate is reproducible.
"""

import random
import time
from fractions import Fraction

import pytest

from ccs import (
    Instance,
    NONPREEMPTIVE,
    PREEMPTIVE,
    SPLITTABLE,
    approx_nonpreemptive,
    approx_preemptive,
    approx_splittable,
    border_search_splittable,
    makespan,
    opt_nonpreemptive,
    opt_preemptive,
    opt_splittable,
    round_robin,
    validate,
)
from ccs.core import EnumerationCapError
from ccs.nfold import (
    NFoldProgram,
    constraint_violations,
    solve_exhaustive,
    solve_feasible,
    validate_structure,
)
from ccs.ptas import PtasParams, build_program, preprocess, ptas_solve


def verdict(tag: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}"
    if detail:
        line += f" ({detail})"
    print(line)


# shared instance suite for the constant-factor and oracle criteria;
# class counts are kept inside the exact oracles' enumeration budgets
def _build_suite(count: int = 300, seed: int = 743047) -> list:
    rng = random.Random(seed)
    suite = []
    for _ in range(count):
        n = rng.randint(1, 8)
        m = rng.randint(1, 4)
        c = rng.randint(1, 3)
        palette = min(n, m * c, 5)
        labels = tuple(rng.randint(1, palette) for _ in range(n))
        sizes = tuple(rng.randint(1, 20) for _ in range(n))
        suite.append(Instance(sizes, labels, m, c))
    return suite


SUITE = _build_suite()
_opt_cache: dict = {}


def opt(idx: int, variant: str) -> Fraction:
    key = (idx, variant)
    if key not in _opt_cache:
        inst = SUITE[idx]
        if variant == SPLITTABLE:
            _opt_cache[key] = opt_splittable(inst)
        elif variant == PREEMPTIVE:
            _opt_cache[key] = opt_preemptive(inst)
        else:
            _opt_cache[key] = opt_nonpreemptive(inst)[0]
    return _opt_cache[key]


def test_criterion_01_round_robin_load_bound():
    rng = random.Random(101)
    start = time.perf_counter()
    violations = 0
    for _ in range(1000):
        n = rng.randint(1, 50)
        bins = rng.randint(1, 8)
        weights = [
            (i, Fraction(rng.randint(1, 60), rng.choice((1, 1, 2, 3))))
            for i in range(n)
        ]
        layout = round_robin(weights, bins)
        lookup = dict(weights)
        heaviest = max(w for _, w in weights)
        total = sum(w for _, w in weights)
        for members in layout.values():
            load = sum((lookup[i] for i in members), Fraction(0))
            if load > Fraction(total, bins) + heaviest:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 5.0
    verdict(
        "criterion 01 cyclic packing: max bin <= total/bins + max weight",
        ok,
        f"1000 lists, {violations} violations, {elapsed:.2f}s",
    )
    assert violations == 0
    assert elapsed < 5.0


def _constant_factor(variant, algorithm, bound, tag):
    start = time.perf_counter()
    invalid = 0
    worst = Fraction(0)
    for idx, inst in enumerate(SUITE):
        schedule = algorithm(inst)
        if validate(schedule, inst, variant):
            invalid += 1
            continue
        ratio = makespan(schedule, inst) / opt(idx, variant)
        worst = max(worst, ratio)
    elapsed = time.perf_counter() - start
    ok = invalid == 0 and worst <= bound and elapsed < 120.0
    verdict(
        tag,
        ok,
        f"{len(SUITE)} instances, worst ratio {worst}, "
        f"{invalid} invalid, {elapsed:.1f}s",
    )
    assert invalid == 0
    assert worst <= bound
    assert elapsed < 120.0


def test_criterion_02_splittable_two_approx():
    _constant_factor(
        SPLITTABLE,
        approx_splittable,
        Fraction(2),
        "criterion 02 splittable constant factor: ratio <= 2, all valid",
    )


def test_criterion_03_preemptive_two_approx():
    _constant_factor(
        PREEMPTIVE,
        approx_preemptive,
        Fraction(2),
        "criterion 03 preemptive constant factor: ratio <= 2, no overlaps",
    )


def test_criterion_04_nonpreemptive_seven_thirds_approx():
    _constant_factor(
        NONPREEMPTIVE,
        approx_nonpreemptive,
        Fraction(7, 3),
        "criterion 04 non-preemptive constant factor: ratio <= 7/3",
    )


def test_criterion_05_threshold_search_never_exceeds_optimum():
    high = 0
    for idx, inst in enumerate(SUITE):
        t_star, _plan = border_search_splittable(inst)
        if t_star > opt(idx, SPLITTABLE):
            high += 1
    verdict(
        "criterion 05 threshold search: T* <= splittable optimum",
        high == 0,
        f"{len(SUITE)} instances, {high} overshoots",
    )
    assert high == 0


def _random_program(rng: random.Random) -> NFoldProgram:
    bricks = rng.randint(1, 4)
    r = rng.randint(1, 2)
    s = rng.randint(1, 2)
    t = rng.randint(1, 5)

    def block(rows):
        return tuple(
            tuple(rng.randint(-3, 3) for _ in range(t)) for _ in range(rows)
        )

    top = tuple(block(r) for _ in range(bricks))
    diag = tuple(block(s) for _ in range(bricks))
    lower = []
    upper = []
    box = 1
    for _ in range(bricks * t):
        lo = rng.randint(-4, 2)
        span = rng.randint(0, 2)
        # keep the ground-truth enumeration quick
        if box * (span + 1) > 1500:
            span = 0
        box *= span + 1
        lower.append(lo)
        upper.append(lo + span)
    if rng.random() < 0.5:
        # right-hand side read off a random in-box point: feasible for sure
        point = [rng.randint(lower[j], upper[j]) for j in range(bricks * t)]
        rhs = []
        for i in range(r):
            rhs.append(
                sum(
                    top[b][i][j] * point[b * t + j]
                    for b in range(bricks)
                    for j in range(t)
                )
            )
        for b in range(bricks):
            for i in range(s):
                rhs.append(
                    sum(diag[b][i][j] * point[b * t + j] for j in range(t))
                )
    else:
        rhs = [rng.randint(-6, 6) for _ in range(r + bricks * s)]
    return NFoldProgram(
        brick_count=bricks,
        top_block_rows=r,
        diag_block_rows=s,
        brick_width=t,
        top_blocks=top,
        diag_blocks=diag,
        rhs=tuple(rhs),
        lower=tuple(lower),
        upper=tuple(upper),
        objective=(0,) * (bricks * t),
    )


def test_criterion_06_block_solver_matches_ground_truth():
    rng = random.Random(606)
    start = time.perf_counter()
    disagreements = 0
    broken = 0
    feasible = 0
    for _ in range(500):
        program = _random_program(rng)
        fast = solve_feasible(program)
        truth = solve_exhaustive(program)
        if (fast is None) != (truth is None):
            disagreements += 1
            continue
        if fast is not None:
            feasible += 1
            if constraint_violations(program, fast.x):
                broken += 1
            if constraint_violations(program, truth.x):
                broken += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and broken == 0 and elapsed < 60.0
    verdict(
        "criterion 06 block solver: verdicts match full enumeration",
        ok,
        f"500 programs, {feasible} feasible, {disagreements} disagreements, "
        f"{broken} broken points, {elapsed:.1f}s",
    )
    assert disagreements == 0
    assert broken == 0
    assert elapsed < 60.0


def _scheme_suite(variant, seed, count=50):
    # the splittable scheme is only within guarantee when machines do not
    # outnumber the usable class slots (n times the normalized budget,
    # which instances clamp to the number of classes present)
    rng = random.Random(seed)
    suite = []
    for _ in range(count):
        n = rng.randint(1, 6)
        c = rng.randint(1, 3)
        if variant == SPLITTABLE:
            labels = tuple(
                rng.randint(1, min(n, 3 * c)) for _ in range(n)
            )
            classes = len(set(labels))
            lo_m = -(-classes // c)
            m = rng.randint(lo_m, max(lo_m, min(3, n * min(c, classes))))
        else:
            m = rng.randint(1, 3)
            labels = tuple(
                rng.randint(1, min(n, m * c)) for _ in range(n)
            )
        sizes = tuple(rng.randint(1, 10) for _ in range(n))
        suite.append(Instance(sizes, labels, m, c))
    return suite


def _oracle_value(inst, variant):
    if variant == SPLITTABLE:
        return opt_splittable(inst)
    if variant == PREEMPTIVE:
        return opt_preemptive(inst)
    return opt_nonpreemptive(inst)[0]


def _scheme_criterion(variant, seed, tag):
    start = time.perf_counter()
    invalid = 0
    capped = 0
    worst = Fraction(0)
    suite = _scheme_suite(variant, seed)
    for inst in suite:
        try:
            schedule = ptas_solve(inst, Fraction(1), variant)
        except EnumerationCapError:
            capped += 1
            continue
        if validate(schedule, inst, variant):
            invalid += 1
            continue
        ratio = makespan(schedule, inst) / _oracle_value(inst, variant)
        worst = max(worst, ratio)
    elapsed = time.perf_counter() - start
    ok = invalid == 0 and capped == 0 and worst <= 2 and elapsed < 600.0
    verdict(
        tag,
        ok,
        f"{len(suite)} instances, worst ratio {worst}, {invalid} invalid, "
        f"{capped} refused at the enumeration cap, {elapsed:.1f}s",
    )
    if capped:
        pytest.fail(
            f"{capped}/{len(suite)} runs refused: at accuracy 1 the "
            "scheme's module and configuration sets outgrew the "
            "enumeration cap, so it stopped instead of answering"
        )
    assert invalid == 0
    assert worst <= 2
    assert elapsed < 600.0


def test_criterion_07a_scheme_splittable_accuracy_one():
    _scheme_criterion(
        SPLITTABLE,
        771,
        "criterion 07a splittable scheme at accuracy 1: valid, ratio <= 2",
    )


def test_criterion_07b_scheme_nonpreemptive_accuracy_one():
    _scheme_criterion(
        NONPREEMPTIVE,
        772,
        "criterion 07b non-preemptive scheme at accuracy 1: valid, "
        "ratio <= 2",
    )


def test_criterion_07c_scheme_preemptive_accuracy_one():
    _scheme_criterion(
        PREEMPTIVE,
        773,
        "criterion 07c preemptive scheme at accuracy 1: valid, ratio <= 2",
    )


def test_criterion_08_program_dimensions_match_closed_forms():
    rng = random.Random(808)
    checked = 0
    wrong = 0
    for variant in (SPLITTABLE, NONPREEMPTIVE):
        delta = Fraction(1, 2)
        for _ in range(6):
            n = rng.randint(1, 5)
            c = rng.randint(1, 2)
            m = rng.randint(1, 3)
            palette = min(n, m * c)
            inst = Instance(
                tuple(rng.randint(1, 8) for _ in range(n)),
                tuple(rng.randint(1, palette) for _ in range(n)),
                m,
                c,
            )
            guess = max(sum(inst.processing_times), 1)
            params = PtasParams.at_guess(guess, delta, variant)
            rounded = preprocess(inst, params, variant)
            built = build_program(rounded)
            program = built.program

            slot_cap = built.configurations.slot_cap
            values = len(built.configurations.size_set)
            rows = 1 + built.layout.link_count + 2 * slot_cap * values
            width = (
                built.configurations.count
                + built.modules.count
                + 3 * slot_cap * values
            )
            if built.layout.variant == SPLITTABLE:
                private = 2
            else:
                private = len(built.layout.piece_sizes) + 1
            checked += 1
            report = validate_structure(program)
            if (
                program.top_block_rows != rows
                or program.diag_block_rows != private
                or program.brick_width != width
                or report.rows != rows + program.brick_count * private
                or report.columns != program.brick_count * width
            ):
                wrong += 1
    verdict(
        "criterion 08 block program dimensions: counts match closed forms",
        wrong == 0,
        f"{checked} programs across both program shapes, {wrong} mismatches",
    )
    assert wrong == 0


def test_criterion_09_huge_machine_count_matches_saturated_run():
    rng = random.Random(909)
    start = time.perf_counter()
    unequal = 0
    for _ in range(20):
        n = rng.randint(1, 4)
        c = rng.randint(1, 2)
        palette = min(n, 2)
        sizes = tuple(rng.randint(1, 8) for _ in range(n))
        labels = tuple(rng.randint(1, palette) for _ in range(n))
        saturated = Instance(sizes, labels, n * c, c)
        huge = Instance(sizes, labels, 10**9, c)
        a = ptas_solve(saturated, Fraction(1), SPLITTABLE)
        b = ptas_solve(huge, Fraction(1), SPLITTABLE)
        if makespan(a, saturated) != makespan(b, huge):
            unequal += 1
    elapsed = time.perf_counter() - start
    verdict(
        "criterion 09 compact machine handling: huge m equals m = n*c",
        unequal == 0,
        f"20 paired runs, {unequal} unequal, {elapsed:.1f}s",
    )
    assert unequal == 0


def test_criterion_10_oracle_dominance():
    broken = 0
    for idx in range(len(SUITE)):
        split = opt(idx, SPLITTABLE)
        preempt = opt(idx, PREEMPTIVE)
        whole = opt(idx, NONPREEMPTIVE)
        if not split <= preempt <= whole:
            broken += 1
    verdict(
        "criterion 10 oracle dominance: splittable <= preemptive <= whole",
        broken == 0,
        f"{len(SUITE)} instances, {broken} violations",
    )
    assert broken == 0
