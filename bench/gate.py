"""Correctness gate: every output is checked, outside the timed calls.

A *problem* is a wrong result: a schedule that ``validate`` rejects, a
makespan below the lower bound, a ratio above a documented guarantee, or a
sweep whose CSV rows change between two runs of the same manifest. Any
problem makes the benchmark exit nonzero. Refusals are not problems; they
only count as failed calls.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ccs.core import (
    EnumerationCapError,
    NONPREEMPTIVE,
    PREEMPTIVE,
    SPLITTABLE,
    lower_bound,
    makespan,
    validate,
)
from ccs.oracle import opt_nonpreemptive, opt_preemptive, opt_splittable

# the schemes run at epsilon = 1
SCHEME_BOUND = Fraction(2)
APPROX_BOUND = {
    SPLITTABLE: Fraction(2),
    PREEMPTIVE: Fraction(2),
    NONPREEMPTIVE: Fraction(7, 3),
}


def oracle_value(instance, variant: str) -> Optional[Fraction]:
    """Exact optimum, or None when the oracle refuses at its caps."""
    try:
        if variant == SPLITTABLE:
            return opt_splittable(instance)
        if variant == NONPREEMPTIVE:
            return opt_nonpreemptive(instance)[0]
        return opt_preemptive(instance)
    except EnumerationCapError:
        return None


def scheme_guaranteed(instance, variant: str) -> bool:
    """Where the README promises 1 + epsilon: always without splitting,
    and for the splittable scheme only while m <= n*c."""
    if variant != SPLITTABLE:
        return True
    return instance.machine_count <= instance.job_count * instance.slot_budget


def check_scheme(instance, variant: str, schedule) -> tuple:
    """(problems, solved, ratio to the optimum or None, ratio to the lower
    bound) for what ``ptas_solve(instance, 1, variant)`` returned; None
    stands for a refused call."""
    if schedule is None:
        return [], False, None, None
    violations = validate(schedule, instance, variant)
    if violations:
        return [f"invalid schedule: {violations[0]}"], True, None, None
    value = makespan(schedule, instance)
    lb, _ub = lower_bound(instance, variant)
    problems = []
    if value < lb:
        problems.append(f"makespan {value} below the lower bound {lb}")
    opt = oracle_value(instance, variant)
    ratio = None if opt is None else value / opt
    if ratio is not None and ratio > SCHEME_BOUND and scheme_guaranteed(instance, variant):
        problems.append(f"ratio {ratio} above {SCHEME_BOUND}")
    return problems, True, ratio, value / lb


SOLVED = ("yes", "value-only")


def _cell(text: str) -> Optional[Fraction]:
    return Fraction(text) if text else None


def check_row(row: str) -> tuple:
    """(problems, solved, ratio_opt, ratio_lb) for one sweep CSV row."""
    fields = row.split(",")
    instance, variant, algo = fields[0], fields[1], fields[2]
    value, lb, opt = (_cell(f) for f in fields[4:7])
    status = fields[10]
    problems = []
    if status == "no":
        problems.append(f"{instance}: schedule failed validation")
    if status not in SOLVED:
        return problems, False, None, None
    if value < lb:
        problems.append(f"{instance}: makespan {value} below the lower bound {lb}")
    ratio = None if opt is None else value / opt
    if ratio is not None:
        bound = APPROX_BOUND[variant] if algo == "approx" else Fraction(1)
        if ratio > bound:
            problems.append(f"{instance} {algo}: ratio {ratio} above {bound}")
    return problems, True, ratio, value / lb


def without_ms(row: str) -> str:
    """A CSV row with its timing column blanked."""
    fields = row.split(",")
    fields[9] = ""
    return ",".join(fields)


def compare_reruns(first: list, second: list) -> list:
    """Problems where a rerun of the same manifest rows differs."""
    problems = []
    if len(first) != len(second):
        problems.append(f"rerun wrote {len(second)} rows, first run {len(first)}")
    for a, b in zip(first, second):
        if without_ms(a) != without_ms(b):
            problems.append(f"rerun differs: {a!r} then {b!r}")
    return problems
