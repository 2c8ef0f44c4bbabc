"""Command line front end: instance files, generators, runs and CSV rows.

Instance text format: the first data line is ``n m c``, followed by n job
lines ``p class``. Processing times may be rationals like 5/2. A ``#``
starts a comment, blank lines are skipped.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .approx import (
    approx_nonpreemptive,
    approx_preemptive,
    approx_splittable,
)
from .core import (
    CCSError,
    EnumerationCapError,
    Instance,
    InvalidInstanceError,
    NONPREEMPTIVE,
    PREEMPTIVE,
    SPLITTABLE,
    StructuralInfeasibleError,
    VARIANTS,
    format_rational,
    lower_bound,
    makespan_and_violations,
    parse_rational,
    validate,  # noqa: F401 - the benchmark's traced run wraps ccs.cli.validate
)
from .nfold import dump_program
from .oracle import opt_nonpreemptive, opt_preemptive, opt_splittable
from .ptas import as_nfold, ptas_solve

CSV_HEADER = (
    "instance,variant,algo,epsilon,makespan,lb,opt,ratio_lb,ratio_opt,"
    "ms,feasible"
)
GENERATOR_FAMILIES = ("uniform", "few-large-classes", "many-singletons")
ALGORITHMS = ("approx", "ptas", "exact")
VARIANT_FLAGS = {
    "split": SPLITTABLE,
    "preempt": PREEMPTIVE,
    "nonpreempt": NONPREEMPTIVE,
}

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_CAP = 3
EXIT_PARSE = 4
EXIT_INTERNAL = 10

_APPROX = {
    SPLITTABLE: approx_splittable,
    PREEMPTIVE: approx_preemptive,
    NONPREEMPTIVE: approx_nonpreemptive,
}


class InstanceFormatError(CCSError):
    """Malformed instance file or manifest line."""


def _rational(token: str, where: str) -> Fraction:
    try:
        return parse_rational(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceFormatError(f"{where}: bad number {token!r}") from exc


def _integer(token: str, where: str) -> int:
    value = _rational(token, where)
    if value.denominator != 1:
        raise InstanceFormatError(f"{where}: {token!r} must be an integer")
    return int(value)


def parse_instance(path) -> Instance:
    """Read one instance file; errors carry the offending line number."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body.split()))
    if not rows:
        raise InstanceFormatError(f"{path}: no instance data")
    lineno, head = rows[0]
    where = f"{path}:{lineno}"
    if len(head) != 3:
        raise InstanceFormatError(f"{where}: header must be 'n m c'")
    n, m, c = (_integer(tok, where) for tok in head)
    if n <= 0 or m <= 0 or c <= 0:
        raise InstanceFormatError(f"{where}: n, m and c must be positive")
    if len(rows) - 1 != n:
        raise InstanceFormatError(
            f"{path}: header promises {n} job lines, found {len(rows) - 1}"
        )
    sizes = []
    labels = []
    for lineno, tokens in rows[1:]:
        where = f"{path}:{lineno}"
        if len(tokens) != 2:
            raise InstanceFormatError(f"{where}: job line must be 'p class'")
        p = _rational(tokens[0], where)
        if p <= 0:
            raise InstanceFormatError(f"{where}: processing time must be positive")
        u = _integer(tokens[1], where)
        if u <= 0:
            raise InstanceFormatError(f"{where}: class id must be positive")
        sizes.append(p)
        labels.append(u)
    return Instance(tuple(sizes), tuple(labels), m, c)


def format_instance(instance: Instance) -> str:
    """The text form ``parse_instance`` reads back."""
    lines = [
        f"{instance.job_count} {instance.machine_count} "
        f"{instance.slot_budget}"
    ]
    for j in range(instance.job_count):
        lines.append(
            f"{format_rational(instance.processing_times[j])}"
            f" {instance.class_labels[j]}"
        )
    return "\n".join(lines) + "\n"


def generate(
    seed: int,
    family: str,
    n: int,
    m: int,
    c: int,
    p_range: tuple = (1, 10),
) -> Instance:
    """Deterministic random instance of one family.

    uniform: class labels spread over every available class slot.
    few-large-classes: at most three classes, sizes from the upper half
    of the range. many-singletons: every job is its own class (requires
    n <= m*c to be schedulable; the generator itself does not care).
    """
    if family not in GENERATOR_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    low, high = p_range
    if not 1 <= low <= high:
        raise ValueError(f"bad processing time range {p_range}")
    rng = random.Random(seed)
    if family == "many-singletons":
        labels = list(range(1, n + 1))
        sizes = _uniform_draws(rng, low, high, n)
    elif family == "few-large-classes":
        palette = max(1, min(n, m * c, 3))
        labels = _uniform_draws(rng, 1, palette, n)
        heavy = max(low, (low + high) // 2)
        sizes = _uniform_draws(rng, heavy, high, n)
    else:
        palette = max(1, min(n, m * c))
        labels = _uniform_draws(rng, 1, palette, n)
        sizes = _uniform_draws(rng, low, high, n)
    return Instance(tuple(sizes), tuple(labels), m, c)


def _uniform_draws(rng: random.Random, low: int, high: int, count: int) -> list:
    """``[rng.randint(low, high) for _ in range(count)]`` by the same
    getrandbits calls: ``randint`` draws k = width.bit_length() bits (one
    bit for width 1) and redraws until they fall below the width."""
    width = high - low + 1
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        out.append(low + r)
    return out


@dataclass(frozen=True)
class RunReport:
    """One solved (or refused) instance, ready for a CSV row."""

    instance: str
    variant: str
    algo: str
    epsilon: Optional[Fraction]
    makespan: Optional[Fraction]
    lb: Optional[Fraction]
    opt: Optional[Fraction]
    ratio_lb: Optional[Fraction]
    ratio_opt: Optional[Fraction]
    ms: float
    feasible: str

    def csv(self) -> str:
        def cell(value) -> str:
            return "" if value is None else format_rational(value)

        return ",".join(
            [
                self.instance,
                self.variant,
                self.algo,
                cell(self.epsilon),
                cell(self.makespan),
                cell(self.lb),
                cell(self.opt),
                cell(self.ratio_lb),
                cell(self.ratio_opt),
                f"{self.ms:.3f}",
                self.feasible,
            ]
        )


def _oracle(instance: Instance, variant: str):
    """(optimum, schedule or None); the value-only oracles return no
    schedule."""
    if variant == NONPREEMPTIVE:
        return opt_nonpreemptive(instance)
    if variant == SPLITTABLE:
        return opt_splittable(instance), None
    return opt_preemptive(instance), None


def _no_program(instance: Instance, variant: str, probes: list) -> str:
    """Why ``ptas_solve``, whose report lists ``probes``, answered without
    a feasible program."""
    if variant == PREEMPTIVE and instance.machine_count >= instance.job_count:
        return "m >= n, so every job runs alone and no program was solved"
    if probes:
        return (
            "every program probed was infeasible, and they raised the bound "
            "to within 1 + epsilon of the warm start"
        )
    return (
        "the warm start is within 1 + epsilon of a lower bound, so no "
        "program was solved"
    )


def run(
    instance: Instance,
    algo: str,
    variant: str,
    *,
    epsilon=None,
    label: str = "-",
    dump_nfold=None,
) -> RunReport:
    """Solve one instance with one algorithm and report the outcome.

    The ``feasible`` column distinguishes: yes (validated schedule),
    value-only (exact optimum without a schedule), infeasible (more
    classes than class slots), enum-cap / oracle-cap (the accuracy or
    instance is beyond the enumeration budgets, or the solver ran out of
    time), and no (an output that failed validation, which is a bug).
    An enum-cap row of the schemes shows the best schedule the guess
    search held and, as lb, the larger of the load bound and the bound it
    had proved.
    ``dump_nfold``, a path, receives the accepted program of a ptas run;
    when none is written, one line on stderr says why.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    eps = None
    if algo == "ptas":
        eps = Fraction(epsilon) if epsilon is not None else Fraction(1)
    elif dump_nfold:
        print(f"{dump_nfold} not written: only --algo ptas builds a program",
              file=sys.stderr)

    def report(value, lb, opt, ms, status):
        ratio_lb = None if value is None or not lb else value / lb
        ratio_opt = None if value is None or not opt else value / opt
        return RunReport(
            instance=label,
            variant=variant,
            algo=algo,
            epsilon=eps,
            makespan=value,
            lb=lb,
            opt=opt,
            ratio_lb=ratio_lb,
            ratio_opt=ratio_opt,
            ms=ms,
            feasible=status,
        )

    try:
        lb, _ub = lower_bound(instance, variant)
    except StructuralInfeasibleError:
        return report(None, None, None, 0.0, "infeasible")

    schedule = None
    value = None
    trace: Optional[dict] = {} if algo == "ptas" and dump_nfold else None
    start = time.perf_counter()
    try:
        if algo == "approx":
            schedule = _APPROX[variant](instance)
        elif algo == "ptas":
            schedule = ptas_solve(instance, eps, variant, report=trace)
        else:
            value, schedule = _oracle(instance, variant)
    except EnumerationCapError as exc:
        ms = (time.perf_counter() - start) * 1000
        if exc.schedule is None:
            status = "oracle-cap" if algo == "exact" else "enum-cap"
            return report(None, lb, None, ms, status)
        # a scheme's cap keeps the best schedule it held and the lower
        # bound it proved, which is at least lb for the splittable and
        # non-preemptive schemes but may be below p_max for the preemptive
        value, violations = makespan_and_violations(exc.schedule, instance, variant)
        status = "no" if violations else "enum-cap"
        return report(value, max(lb, exc.bound), None, ms, status)
    ms = (time.perf_counter() - start) * 1000
    if trace is not None and trace["built"] is not None:
        with open(dump_nfold, "w", encoding="utf-8") as handle:
            handle.write(dump_program(as_nfold(trace["built"])))
    elif trace is not None:
        why = _no_program(instance, variant, trace["probes"])
        print(f"{dump_nfold} not written: {why}", file=sys.stderr)

    if schedule is not None:
        value, violations = makespan_and_violations(schedule, instance, variant)
        status = "no" if violations else "yes"
    else:
        status = "value-only"

    if algo == "exact":
        opt = value
    else:
        try:
            opt, _ = _oracle(instance, variant)
        except EnumerationCapError:
            opt = None
    return report(value, lb, opt, ms, status)


_STATUS_EXIT = {
    "yes": EXIT_OK,
    "value-only": EXIT_OK,
    "infeasible": EXIT_INFEASIBLE,
    "enum-cap": EXIT_CAP,
    "oracle-cap": EXIT_CAP,
}


def _parse_source(token: str) -> tuple:
    """Manifest instance source: a file path, or an inline generator spec
    ``gen:family:seed:n:m:c:pmax``."""
    if not token.startswith("gen:"):
        return parse_instance(token), os.path.basename(token)
    parts = token.split(":")
    if len(parts) != 7:
        raise InstanceFormatError(
            f"bad generator spec {token!r}, want gen:family:seed:n:m:c:pmax"
        )
    family = parts[1]
    try:
        seed, n, m, c, pmax = (int(p) for p in parts[2:])
    except ValueError as exc:
        raise InstanceFormatError(f"bad generator spec {token!r}") from exc
    if family not in GENERATOR_FAMILIES:
        raise InstanceFormatError(f"unknown family in {token!r}")
    try:
        return generate(seed, family, n, m, c, (1, pmax)), token
    except InvalidInstanceError as exc:
        raise InstanceFormatError(f"bad generator spec {token!r}: {exc}") from exc


def sweep(manifest_path, out_handle) -> int:
    """Run every manifest line ``source variant algo [epsilon]`` and write
    one CSV row each. Returns the process exit code: parse problems stop
    the sweep, solver statuses are data."""
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            raw_lines = handle.read().splitlines()
    except OSError as exc:
        print(f"cannot read {manifest_path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    out_handle.write(CSV_HEADER + "\n")
    worst = EXIT_OK
    for lineno, raw in enumerate(raw_lines, 1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
        if len(fields) not in (3, 4):
            print(
                f"{manifest_path}:{lineno}: want 'source variant algo"
                " [epsilon]'",
                file=sys.stderr,
            )
            return EXIT_PARSE
        try:
            instance, label = _parse_source(fields[0])
            if fields[1] not in VARIANT_FLAGS:
                raise InstanceFormatError(
                    f"unknown variant {fields[1]!r}, want one of "
                    + ", ".join(sorted(VARIANT_FLAGS))
                )
            variant = VARIANT_FLAGS[fields[1]]
            algo = fields[2]
            eps = Fraction(fields[3]) if len(fields) == 4 else None
            row = run(instance, algo, variant, epsilon=eps, label=label)
        except (InstanceFormatError, ValueError, ZeroDivisionError) as exc:
            print(f"{manifest_path}:{lineno}: {exc}", file=sys.stderr)
            return EXIT_PARSE
        out_handle.write(row.csv() + "\n")
        if row.feasible == "no":
            worst = EXIT_INTERNAL
    return worst


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccs",
        description="class-constrained scheduling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("--variant", choices=sorted(VARIANT_FLAGS),
                       required=True)
    solve.add_argument("--algo", choices=ALGORITHMS, required=True)
    solve.add_argument("--epsilon", default=None,
                       help="accuracy for --algo ptas, e.g. 1 or 1/2")
    solve.add_argument("--dump-nfold", default=None, metavar="PATH",
                       help="write the accepted block program (ptas only)")
    solve.add_argument("instance", help="instance file")

    gen = sub.add_parser("gen", help="write a random instance file")
    gen.add_argument("--family", choices=GENERATOR_FAMILIES, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--c", type=int, required=True)
    gen.add_argument("--pmax", type=int, default=10)
    gen.add_argument("out", help="output file, - for stdout")

    swp = sub.add_parser("sweep", help="run every line of a manifest")
    swp.add_argument("--manifest", required=True)
    swp.add_argument("--out", default="-", help="CSV file, - for stdout")
    return parser


def _cmd_solve(args) -> int:
    try:
        instance = parse_instance(args.instance)
    except InstanceFormatError as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    try:
        eps = Fraction(args.epsilon) if args.epsilon is not None else None
    except (ValueError, ZeroDivisionError):
        print(f"bad epsilon {args.epsilon!r}", file=sys.stderr)
        return EXIT_PARSE
    try:
        row = run(
            instance,
            args.algo,
            VARIANT_FLAGS[args.variant],
            epsilon=eps,
            label=os.path.basename(args.instance),
            dump_nfold=args.dump_nfold,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        # the one file a run writes is the --dump-nfold program
        print(f"cannot write {args.dump_nfold}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(CSV_HEADER)
    print(row.csv())
    return _STATUS_EXIT.get(row.feasible, EXIT_INTERNAL)


def _cmd_gen(args) -> int:
    try:
        instance = generate(
            args.seed, args.family, args.n, args.m, args.c, (1, args.pmax)
        )
    except (ValueError, InvalidInstanceError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE
    text = format_instance(instance)
    return _to_output(args.out, lambda handle: handle.write(text) and EXIT_OK)


def _cmd_sweep(args) -> int:
    return _to_output(args.out, lambda handle: sweep(args.manifest, handle))


def _to_output(path, write) -> int:
    """``write(handle)`` on stdout for ``-``, else on ``path`` opened for
    writing; a path that cannot be opened exits 4 with one line on
    stderr."""
    if path == "-":
        return write(sys.stdout)
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    with handle:
        return write(handle)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"solve": _cmd_solve, "gen": _cmd_gen, "sweep": _cmd_sweep}
    try:
        return handler[args.command](args)
    except CCSError as exc:
        # anything that escapes this far is a bug, not an input problem
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
