"""Class-constrained scheduling toolkit.

Makespan minimization on identical machines where each machine may host jobs
from at most c distinct classes, in three variants (splittable, preemptive,
non-preemptive): constant-factor approximation algorithms, exact oracles for
tiny instances, and (1+epsilon)-schemes built on block-structured integer
programs.
"""

from ccs.approx import (
    approx_nonpreemptive,
    approx_preemptive,
    approx_splittable,
    border_search_splittable,
    nonpreemptive_threshold,
)
from ccs.core import (
    CCSError,
    CompactSchedule,
    EnumerationCapError,
    Instance,
    InvalidInstanceError,
    InvalidScheduleError,
    NONPREEMPTIVE,
    NonPreemptiveSchedule,
    PREEMPTIVE,
    PreemptiveSchedule,
    SPLITTABLE,
    SplittableSchedule,
    StructuralInfeasibleError,
    VARIANTS,
    expand_compact,
    format_rational,
    lower_bound,
    machine_loads,
    makespan,
    parse_rational,
    validate,
)
from ccs.greedy import lpt, round_robin
from ccs.oracle import opt_nonpreemptive, opt_preemptive, opt_splittable

__all__ = [
    "CCSError",
    "approx_nonpreemptive",
    "approx_preemptive",
    "approx_splittable",
    "border_search_splittable",
    "nonpreemptive_threshold",
    "lpt",
    "round_robin",
    "opt_nonpreemptive",
    "opt_preemptive",
    "opt_splittable",
    "CompactSchedule",
    "EnumerationCapError",
    "Instance",
    "InvalidInstanceError",
    "InvalidScheduleError",
    "NONPREEMPTIVE",
    "NonPreemptiveSchedule",
    "PREEMPTIVE",
    "PreemptiveSchedule",
    "SPLITTABLE",
    "SplittableSchedule",
    "StructuralInfeasibleError",
    "VARIANTS",
    "expand_compact",
    "format_rational",
    "lower_bound",
    "machine_loads",
    "makespan",
    "parse_rational",
    "validate",
]

__version__ = "0.1.0"
