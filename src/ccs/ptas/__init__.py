"""Approximation schemes for all three variants via block-structured
integer programming: guess the makespan, round the instance, enumerate
machine configurations, solve the feasibility program, unfold a schedule.
The preemptive scheme answers through the splittable one plus a slice
decomposition.
"""

from .builder import (
    BuiltProgram,
    as_nfold,
    build_program,
)
from .driver import ptas_solve
from .reconstruct import construct_schedule, unfold_preemptive
from .rounding import (
    PtasParams,
    RoundedClass,
    RoundedInstance,
    RoundedJob,
    derive_delta,
    preprocess,
)
from .sets import (
    CAP_MESSAGE,
    ConfigurationSet,
    EnumerationCapError,
    ModuleSet,
    enumerate_sets,
    nonpreemptive_sets,
    splittable_sets,
)

__all__ = [
    "BuiltProgram",
    "CAP_MESSAGE",
    "ConfigurationSet",
    "EnumerationCapError",
    "ModuleSet",
    "PtasParams",
    "RoundedClass",
    "RoundedInstance",
    "RoundedJob",
    "as_nfold",
    "build_program",
    "construct_schedule",
    "derive_delta",
    "enumerate_sets",
    "nonpreemptive_sets",
    "preprocess",
    "ptas_solve",
    "splittable_sets",
    "unfold_preemptive",
]
