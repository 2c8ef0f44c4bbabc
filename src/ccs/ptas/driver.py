"""Guess search and the public entry point of the approximation schemes.

The makespan guess is searched over a bracket warmed up by the
constant-factor algorithms: their ratio guarantees pin the optimum between
a fraction of their makespan and the makespan itself. Integral
non-preemptive instances search the integers in that bracket (the optimum
is a sum of job sizes, hence integral); splittable ones walk a geometric
(1 + delta) grid, which costs at most a factor (1 + delta) in the guess.

The search probes the bottom of the bracket first. A feasible guess T
yields a schedule within (1 + epsilon) * T, and the bottom,
max(lower bound, warm makespan / warm ratio), is at most the optimum (so
is its ceiling where the optimum is integral). A feasible bottom therefore
keeps the guarantee whether or not feasibility grows with the guess, and
most instances stop there after one program. Otherwise the safe guess at
the top must be feasible, and bisection above the bottom finds the
smallest feasible guess it meets.

Machine counts beyond what any schedule can use are clamped first: a
splittable schedule never occupies more than n*c machines, a
non-preemptive one never more than n. Splittable results for machine
counts beyond the job count are wrapped compactly.

The preemptive variant reduces to the splittable one, since the preemptive
optimum is max(p_max, splittable optimum): with m >= n every job gets a
machine of its own (makespan p_max, optimal); otherwise the splittable
scheme's schedule is unfolded into time slices by ``unfold_preemptive``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from ..approx import approx_nonpreemptive, approx_splittable
from ..core import (
    CCSError,
    CompactSchedule,
    Instance,
    NONPREEMPTIVE,
    PREEMPTIVE,
    PreemptiveSchedule,
    Rational,
    SPLITTABLE,
    SplittableSchedule,
    VARIANTS,
    lower_bound,
    makespan,
)
from ..nfold import solve_feasible
from .builder import build_program
from .reconstruct import construct_schedule, unfold_preemptive
from .rounding import PtasParams, derive_delta, preprocess

# constant-factor guarantees of the warm-start algorithms: OPT is at least
# makespan/ratio
_WARM_RATIO = {
    SPLITTABLE: Fraction(2),
    NONPREEMPTIVE: Fraction(7, 3),
}

_WARM_ALGO = {
    SPLITTABLE: approx_splittable,
    NONPREEMPTIVE: approx_nonpreemptive,
}


def _clamp(instance: Instance, variant: str):
    """Machine count actually worth modelling."""
    n = instance.job_count
    ceiling = n * instance.slot_budget if variant == SPLITTABLE else n
    m_eff = min(instance.machine_count, ceiling)
    if m_eff == instance.machine_count:
        return instance
    return Instance(
        processing_times=instance.processing_times,
        class_labels=instance.class_labels,
        machine_count=m_eff,
        slot_budget=instance.slot_budget,
    )


class _Prober:
    """Builds and solves the program at a guess, memoized per guess;
    ``probes`` lists (guess, feasible) for every program solved, in order."""

    def __init__(self, work, delta, variant, cap):
        self.work = work
        self.delta = delta
        self.variant = variant
        self.cap = cap
        self.memo: dict = {}
        self.probes: list = []

    def __call__(self, guess: Fraction):
        guess = Fraction(guess)
        hit = self.memo.get(guess)
        if hit is None:
            params = PtasParams.at_guess(guess, self.delta, self.variant)
            rounded = preprocess(self.work, params, self.variant)
            built = build_program(rounded, cap=self.cap)
            solution = solve_feasible(built.program)
            hit = (built, solution)
            self.memo[guess] = hit
            self.probes.append((guess, solution is not None))
        return hit


def _search(probe, guess_at, lo: int, hi: int):
    """Smallest feasible index in [lo, hi] under guess_at, bottom first.

    A feasible lo answers at once. Otherwise hi must be feasible, and
    bisection over (lo, hi] returns the smallest feasible index it meets.
    """
    built, solution = probe(guess_at(lo))
    if solution is not None:
        return (lo, built, solution)
    built, solution = probe(guess_at(hi))
    if solution is None:
        raise CCSError(
            f"feasibility program rejected the safe guess {guess_at(hi)}"
        )
    best = (hi, built, solution)
    lo += 1
    while lo < hi:
        mid = (lo + hi) // 2
        built, solution = probe(guess_at(mid))
        if solution is None:
            lo = mid + 1
        else:
            best = (mid, built, solution)
            hi = mid
    return best


def _search_integers(probe, lo: int, hi: int):
    """Smallest feasible integer guess in [lo, hi]; hi must be feasible
    unless lo is."""
    return _search(probe, lambda g: g, lo, hi)


def _search_grid(probe, lo: Fraction, hi: Fraction, delta: Fraction):
    """Smallest feasible guess on the grid lo*(1+delta)^i covering hi."""
    step = 1 + delta
    if hi <= lo:
        top = 0
    else:
        top = math.ceil(math.log(hi / lo) / math.log(step))
        while lo * step**top < hi:
            top += 1
    exponent, built, solution = _search(
        probe, lambda i: lo * step**i, 0, top
    )
    return (lo * step**exponent, built, solution)


def ptas_solve(
    instance: Instance,
    epsilon: Optional[Rational],
    variant: str,
    *,
    delta: Optional[Rational] = None,
    enum_cap=None,
    report: Optional[dict] = None,
):
    """A schedule within a factor 1 + epsilon of the variant's optimum.

    epsilon must lie in (0, 1]. The keyword delta overrides the derived
    accuracy with a coarser or finer grid 1/k (mainly for experiments);
    epsilon may then be None. A dict passed as ``report`` receives the
    accepted guess and the program it was solved on ("guess", "built",
    "solution"), and under "probes" the (guess, feasible) pair of every
    program solved, in probe order.

    The preemptive variant runs the splittable scheme (delta sets its grid)
    and unfolds the result into time slices; its report describes that
    splittable run. With at least as many machines as jobs it solves no
    program at all, reports None for the first three entries and an empty
    "probes" list.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    scheme = SPLITTABLE if variant == PREEMPTIVE else variant
    if delta is None:
        if epsilon is None:
            raise ValueError("either epsilon or delta is required")
        delta = derive_delta(epsilon, scheme)
    else:
        delta = Fraction(delta)
        if delta.numerator != 1 or delta > Fraction(1, 2):
            raise ValueError(f"delta must be 1/k with k >= 2, got {delta}")
    lower_bound(instance, variant)
    if variant != PREEMPTIVE:
        return _scheme(instance, variant, delta, enum_cap, report)
    if instance.machine_count >= instance.job_count:
        if report is not None:
            report.update(guess=None, built=None, solution=None, probes=[])
        return PreemptiveSchedule(
            pieces=tuple((j, 1, j, 0) for j in range(instance.job_count))
        )
    # m < n <= n*c: the splittable guarantee holds, and
    # max(p_max, its makespan) <= (1 + epsilon) * opt_preemptive
    split = _scheme(instance, SPLITTABLE, delta, enum_cap, report)
    return unfold_preemptive(instance, split)


def _scheme(instance, variant, delta, enum_cap, report):
    """The splittable or non-preemptive scheme at grid delta."""
    work = _clamp(instance, variant)
    floor, _ub = lower_bound(work, variant)
    warm = _WARM_ALGO[variant](work)
    reach = makespan(warm, work)
    assert reach > 0
    lo = max(floor, reach / _WARM_RATIO[variant])
    hi = reach
    probe = _Prober(work, delta, variant, enum_cap)
    integral = all(
        p.denominator == 1 for p in work.processing_times
    )
    if variant != SPLITTABLE and integral:
        _guess, built, solution = _search_integers(
            probe, math.ceil(lo), math.ceil(hi)
        )
    else:
        _guess, built, solution = _search_grid(probe, lo, hi, delta)
    if report is not None:
        report.update(
            guess=_guess, built=built, solution=solution, probes=probe.probes
        )
    # The output always comes from the plain program: runs that clamp to
    # the same effective machine count must produce identical schedules,
    # so the bounded-irregular-machines row is exercised by its own tests
    # rather than rerouted through here.
    schedule = construct_schedule(instance, solution, built)
    if variant == SPLITTABLE and instance.machine_count > instance.job_count:
        if isinstance(schedule, SplittableSchedule):
            schedule = CompactSchedule(
                explicit_machines=schedule,
                trivial_machine_counts={},
                piece_size=Fraction(0),
            )
    return schedule
