"""Shared hypothesis strategies, random generators, and fixtures."""

import math
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from ccs import NONPREEMPTIVE, EnumerationCapError, Instance
from ccs.nfold import NFoldProgram
from ccs.ptas import PtasParams, derive_delta, driver, preprocess, sets


@st.composite
def instances(
    draw,
    max_jobs: int = 8,
    max_machines: int = 4,
    max_budget: int = 3,
    max_size: int = 20,
    machines_at_most_n: bool = False,
):
    """Structurally feasible instances (C <= m*c by construction) with
    integer processing times."""
    m = draw(st.integers(1, max_machines))
    c = draw(st.integers(1, max_budget))
    min_jobs = m if machines_at_most_n else 1
    n = draw(st.integers(min_jobs, max(max_jobs, min_jobs)))
    sizes = draw(st.lists(st.integers(1, max_size), min_size=n, max_size=n))
    palette = min(n, m * c)
    labels = draw(st.lists(st.integers(1, palette), min_size=n, max_size=n))
    return Instance(tuple(sizes), tuple(labels), m, c)


@st.composite
def oracle_instances(draw, max_size: int = 20, max_denominator: int = 1):
    """Instances small enough for every exact oracle: class->machine
    eligibility patterns (2^m - 1)^C stay under 10^6 and m^n under 10^7.
    Sizes are a/b with a <= max_size and b <= max_denominator."""
    m = draw(st.integers(1, 4))
    max_classes = {1: 8, 2: 8, 3: 7, 4: 5}[m]
    c = draw(st.integers(1, 3))
    n = draw(st.integers(max(1, -(-m // c)), 8))
    size = st.integers(1, max_size)
    if max_denominator > 1:
        size = st.builds(Fraction, size, st.integers(1, max_denominator))
    sizes = draw(st.lists(size, min_size=n, max_size=n))
    palette = min(n, m * c, max_classes)
    labels = draw(st.lists(st.integers(1, palette), min_size=n, max_size=n))
    return Instance(tuple(sizes), tuple(labels), m, c)


@st.composite
def nonpreemptive_probes(draw):
    """The rounded instance of one non-preemptive probe: an instance of
    at most 6 jobs and 3 classes per machine, epsilon 1 or 1/2, and an
    integral guess in the bracket the driver searches."""
    inst = draw(instances(max_jobs=6, max_machines=3, max_size=10))
    epsilon = draw(st.sampled_from((Fraction(1), Fraction(1, 2))))
    work = driver._clamp(inst, NONPREEMPTIVE)
    _warm, top, bound = driver._certify(work, NONPREEMPTIVE)
    # the certificate, the lowest guess the driver probes, or any above it
    lo, hi = math.ceil(bound), math.ceil(top)
    guess = draw(st.one_of(st.just(lo), st.integers(lo, hi)))
    return nonpreemptive_probe(work, epsilon, guess)


def dense(pairs, length):
    """The vector over ``length`` positions of (position, count) pairs,
    zero elsewhere: a non-preemptive module or a class's job counts
    (``RoundedInstance.count_vectors``) in dense form."""
    vec = [0] * length
    for g, count in pairs:
        vec[g] = count
    return tuple(vec)


def sparse(vec):
    """The (position, count) pairs of the nonzero entries of ``vec``."""
    return tuple((g, count) for g, count in enumerate(vec) if count)


def nonpreemptive_probe(instance, epsilon, guess):
    """The rounded instance the non-preemptive scheme at epsilon builds
    its program from at ``guess``."""
    delta = derive_delta(epsilon, NONPREEMPTIVE)
    return preprocess(instance, PtasParams(delta, guess, NONPREEMPTIVE))


@st.composite
def instances_with_assignment(draw, **kwargs):
    """An instance plus a random feasible job->machine map built by placing
    whole classes onto machines, never more than c classes per machine."""
    instance = draw(instances(**kwargs))
    m = instance.machine_count
    c = instance.slot_budget
    slots_used = [0] * m
    class_machine = {}
    for u in range(1, instance.class_count + 1):
        open_machines = [i for i in range(m) if slots_used[i] < c]
        i = draw(st.sampled_from(open_machines))
        class_machine[u] = i
        slots_used[i] += 1
    assignment = {
        j: class_machine[instance.class_labels[j]]
        for j in range(instance.job_count)
    }
    return instance, assignment


def random_nfold_program(rng, max_bricks: int = 4, max_width: int = 5):
    """Random small block program for solver cross-checks: entries in
    [-3, 3], bounds within [-4, 4], and a variable box kept under 10^4
    points so the exhaustive oracle stays cheap. Half the programs get a
    right-hand side planted from a random in-box point, so feasible and
    infeasible cases both appear often. Rows are drawn densely and stored
    as dicts of their nonzero entries in ascending column order."""
    n = rng.randint(1, max_bricks)
    t = rng.randint(1, max_width)
    r = rng.randint(1, 2)
    s = rng.randint(0, 2)

    def entry():
        return rng.choice((-3, -2, -1, -1, 0, 0, 0, 0, 1, 1, 2, 3))

    top = tuple(
        tuple(tuple(entry() for _ in range(t)) for _ in range(r)) for _ in range(n)
    )
    diag = tuple(
        tuple(tuple(entry() for _ in range(t)) for _ in range(s)) for _ in range(n)
    )
    lower = []
    upper = []
    box = 1
    for _ in range(n * t):
        lo = rng.randint(-2, 1)
        width = rng.randint(0, 3)
        while width and box * (width + 1) > 10_000:
            width -= 1
        box *= width + 1
        lower.append(lo)
        upper.append(lo + width)
    if rng.random() < 0.5:
        seed_point = [rng.randint(lo, hi) for lo, hi in zip(lower, upper)]
        rhs = []
        for k in range(r):
            rhs.append(
                sum(
                    top[i][k][j] * seed_point[i * t + j]
                    for i in range(n)
                    for j in range(t)
                )
            )
        for i in range(n):
            for k in range(s):
                rhs.append(
                    sum(diag[i][k][j] * seed_point[i * t + j] for j in range(t))
                )
    else:
        rhs = [rng.randint(-6, 6) for _ in range(r + n * s)]

    def sparse(blocks):
        return tuple(
            tuple({j: v for j, v in enumerate(row) if v} for row in block)
            for block in blocks
        )

    return NFoldProgram(
        brick_count=n,
        top_block_rows=r,
        diag_block_rows=s,
        brick_width=t,
        top_blocks=sparse(top),
        diag_blocks=sparse(diag),
        rhs=tuple(rhs),
        lower=tuple(lower),
        upper=tuple(upper),
        objective=(0,) * (n * t),
    )


# solve_exhaustive refuses boxes with more points than this
EXHAUSTIVE_CAP = 10**7


def solve_exhaustive(program):
    """Ground truth for the program solver by full enumeration of the
    variable box of a CompactProgram, in ascending lexicographic order:
    the first feasible point, or None. Raises EnumerationCapError when the
    box holds more than EXHAUSTIVE_CAP points."""
    size = 1
    for lo, hi in zip(program.lower, program.upper):
        if hi < lo:
            return None  # an empty box holds no point
        size *= hi - lo + 1
        if size > EXHAUSTIVE_CAP:
            raise EnumerationCapError(
                f"variable box exceeds {EXHAUSTIVE_CAP} points"
            )
    target = list(program.rhs)
    cols = program.total_columns
    x = list(program.lower)
    while True:
        if program.row_totals(x) == target:
            return tuple(x)
        j = cols - 1
        while j >= 0 and x[j] == program.upper[j]:
            x[j] = program.lower[j]
            j -= 1
        if j < 0:
            return None
        x[j] += 1


def certified(instance, variant, epsilon):
    """Whether the scheme's certificate answers ``instance`` at epsilon
    without a program."""
    work = driver._clamp(instance, variant)
    _warm, top, bound = driver._certify(work, variant)
    return driver._within(top, bound, Fraction(epsilon))


def search(instance, variant, epsilon=1):
    """(schedule, record) of the scheme's guess search on ``instance`` at
    epsilon with a stopping rule that never fires, so the search runs
    until its open guesses run out, whether or not the certificate
    answers. ``record`` holds the report entries of ``ptas_solve``."""
    work = driver._clamp(instance, variant)
    with pytest.MonkeyPatch.context() as patch:
        never_certify(patch)
        return driver._search_program(
            work, variant, Fraction(epsilon), *driver._certify(work, variant)
        )


def lower_enum_cap(monkeypatch, cap):
    """Make set enumeration refuse past ``cap`` modules or configurations.
    The splittable sets get a fresh cache, so a set cached under the real
    cap cannot bypass the lowered one."""
    monkeypatch.setattr(sets, "ENUM_CAP", cap)
    sets.splittable_sets.cache_clear()


def never_certify(monkeypatch):
    """Make ``ptas_solve`` search the program on every instance until its
    open guesses run out: the stopping rule's test never passes, so
    neither the certificate nor a raised bound answers."""
    monkeypatch.setattr(driver, "_within", lambda *args: False)
