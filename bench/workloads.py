"""Seeded inputs of the three workloads.

Each workload is a stream drawn in cycles. A cycle visits every stratum
(an instance shape, or a kind of sweep row) once, in one fixed order, with
at most one *heavy* stratum, in rotation, in its middle. Per-call times
differ by two orders of magnitude between strata, so fixing the strata and
their order makes every run of fixed length do the same mix of work; the
run's metrics cover its whole cycles only (``cycle_length``).

Inside a stratum, the scheme instances vary by a factor of ten in time
with their job sizes, and a 30 s run holds only a few hundred of them, so
fresh sizes per seed moved a run's throughput by a quarter. Their sizes and
class structure therefore come from one fixed stream (``BASE_SEED``); the
run's seed draws how each instance is presented: the order of its jobs
and the names of its classes, which a correct solver must be indifferent
to. The sweep rows are drawn by the seed outright: their cost follows
their job count, which is fixed per stratum.
"""

from __future__ import annotations

import itertools
import random

from ccs.cli import GENERATOR_FAMILIES, generate
from ccs.core import NONPREEMPTIVE, SPLITTABLE, Instance
from ccs.oracle import ORACLE_ASSIGNMENT_CAP, ORACLE_PATTERN_CAP

# inputs per run: more than a run at ten times today's speed can use
SCHEME_INSTANCES = 4000
SWEEP_ROWS = 2000
# draws the scheme instances' sizes and classes; the run's seed only
# presents them
BASE_SEED = 1909


def _scheme_strata(budgets) -> list:
    """(n, c, m, classes): n <= 6 jobs on m = 1..3 machines, as in the
    acceptance suites, with every class count that fits m*c slots. An
    instance clamps its slot budget to its class count, so c is clamped
    here too and each distinct stratum is kept once."""
    return sorted({
        (n, min(c, k), m, k)
        for n in range(1, 7)
        for c in budgets
        for m in (1, 2, 3)
        for k in range(1, min(n, m * c) + 1)
    })


def _fixed_order(strata: list) -> list:
    order = list(strata)
    random.Random(0).shuffle(order)
    return order


def _stream(light: list, heavy: list = ()):
    """Endless cycles over the light strata in one fixed order, with the
    next heavy stratum, in rotation, in the middle of each cycle."""
    light, heavy = _fixed_order(light), _fixed_order(heavy)
    half = len(light) // 2
    cycle = 0
    while True:
        yield from light[:half]
        if heavy:
            yield heavy[cycle % len(heavy)]
        yield from light[half:]
        cycle += 1


def _split_heavy(stratum) -> bool:
    # two classes per machine on two or three machines: 0.4 to 2.2 s per
    # instance (one to three probes of about half a second), against 10 to
    # 200 ms for every other stratum
    _n, c, m, _k = stratum
    return c == 2 and m >= 2


def _whole_heavy(stratum) -> bool:
    # the strata whose instances took over 0.3 s (up to 3 s) in profiling;
    # the others average 50 ms and stay under 0.35 s
    n, c, m, _k = stratum
    return (c == 3 and n >= 4) or (c == 2 and n >= 5 and m == 2)


# The splittable scheme stops at c = 2: with three classes per machine one
# instance takes 2.5 to 48 s, as long as a whole run.
_SPLIT = _scheme_strata((1, 2))
_WHOLE = _scheme_strata((1, 2, 3))
STRATA = {
    SPLITTABLE: (
        [s for s in _SPLIT if not _split_heavy(s)],
        [s for s in _SPLIT if _split_heavy(s)],
    ),
    NONPREEMPTIVE: (
        [s for s in _WHOLE if not _whole_heavy(s)],
        [s for s in _WHOLE if _whole_heavy(s)],
    ),
}


def scheme_instances(seed: int, variant: str, count: int = SCHEME_INSTANCES) -> list:
    """Instances for ``ptas_solve(inst, 1, variant)``: sizes 1..10, and
    labels onto exactly the stratum's number of classes, drawn from
    ``BASE_SEED``; ``seed`` permutes each instance's jobs and renames its
    classes. m is not tied to n*c, so some splittable draws have m > n*c,
    where the scheme's guarantee does not hold."""
    base = random.Random(BASE_SEED)
    rng = random.Random(seed)
    out = []
    for n, c, m, k in itertools.islice(_stream(*STRATA[variant]), count):
        labels = list(range(1, k + 1)) + [base.randint(1, k) for _ in range(n - k)]
        base.shuffle(labels)
        sizes = [base.randint(1, 10) for _ in range(n)]
        order = rng.sample(range(n), n)
        names = rng.sample(range(1, k + 1), k)
        out.append(Instance(
            tuple(sizes[j] for j in order),
            tuple(names[labels[j] - 1] for j in order),
            m,
            c,
        ))
    return out


def cycle_length(workload: str) -> int:
    """Calls in one cycle of the workload's stream."""
    if workload == "approx-sweep":
        return len(_SWEEP_STRATA)
    light, heavy = STRATA[SCHEME_VARIANT[workload]]
    return len(light) + (1 if heavy else 0)


SWEEP_VARIANTS = ("split", "preempt", "nonpreempt")
# large rows: two class slots per machine and one of three job counts;
# the splittable rows grow fastest with n (border search and the oracle's
# cap test), up to about 2 s at 1,500 jobs
LARGE_JOBS = (300, 800, 1500)
LARGE_SLOTS = 2
LARGE_PMAX = 100
SMALL_PMAX = 10


def _oracle_answers(inst: Instance) -> bool:
    m, cc, n = inst.machine_count, inst.class_count, inst.job_count
    return (2**m - 1) ** cc <= ORACLE_PATTERN_CAP and m**n <= ORACLE_ASSIGNMENT_CAP


def _large_row(rng: random.Random, family: str, variant: str, n: int) -> str:
    c = LARGE_SLOTS
    if family == "many-singletons":
        # every job is its own class: m*c >= n makes it schedulable, and m
        # never exceeds n (huge machine counts are left out)
        m = n * 11 // (10 * c)
    else:
        m = n // 10
    spec = f"gen:{family}:{rng.randrange(10**6)}:{n}:{m}:{c}:{LARGE_PMAX}"
    return f"{spec} {variant} approx"


def _small_row(rng: random.Random, family: str, variant: str, algo: str) -> str:
    """n <= 8, drawn until the instance is schedulable and the exact
    oracles answer within their caps, so no row is refused."""
    while True:
        n = rng.randint(2, 8)
        m = rng.randint(1, 3)
        c = rng.randint(1, 3)
        seed = rng.randrange(10**6)
        inst = generate(seed, family, n, m, c, (1, SMALL_PMAX))
        if inst.class_count <= m * inst.slot_budget and _oracle_answers(inst):
            return f"gen:{family}:{seed}:{n}:{m}:{c}:{SMALL_PMAX} {variant} {algo}"


_SWEEP_STRATA = [("large", f, v, b) for f in GENERATOR_FAMILIES
                 for v in SWEEP_VARIANTS for b in LARGE_JOBS]
_SWEEP_STRATA += [("small", f, v, a) for f in GENERATOR_FAMILIES
                  for v in SWEEP_VARIANTS for a in ("approx", "exact")]


def sweep_rows(seed: int, count: int = SWEEP_ROWS) -> list:
    """Manifest lines for ``ccs.cli.sweep``. A cycle has 27 large approx
    rows (family x variant x job count) and 18 small rows (family x
    variant x approx/exact)."""
    rng = random.Random(seed)
    rows = []
    for kind, family, variant, extra in itertools.islice(_stream(_SWEEP_STRATA), count):
        if kind == "large":
            rows.append(_large_row(rng, family, variant, extra))
        else:
            rows.append(_small_row(rng, family, variant, extra))
    return rows


SCHEME_VARIANT = {"scheme-split": SPLITTABLE, "scheme-whole": NONPREEMPTIVE}
