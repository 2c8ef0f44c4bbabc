"""Approximation schemes for all three variants via block-structured
integer programming: guess the makespan, round the instance, enumerate
machine configurations, solve the feasibility program, unfold a schedule.
The preemptive scheme answers through the splittable one plus a slice
decomposition.
"""

from .builder import (
    BuiltProgram,
    ProgramLayout,
    build_nfold,
    build_program,
    exponential_m_extension,
)
from .driver import ptas_solve
from .reconstruct import construct_schedule, unfold_preemptive
from .rounding import (
    PtasParams,
    RoundedClass,
    RoundedInstance,
    RoundedJob,
    derive_delta,
    inflated_bound,
    preprocess,
)
from .sets import (
    CAP_MESSAGE,
    ConfigurationSet,
    DEFAULT_ENUM_CAP,
    EnumerationCapError,
    ModuleSet,
    enumerate_sets,
    nonpreemptive_sets,
    resolve_enum_cap,
    splittable_sets,
)

__all__ = [
    "BuiltProgram",
    "CAP_MESSAGE",
    "ConfigurationSet",
    "DEFAULT_ENUM_CAP",
    "EnumerationCapError",
    "ModuleSet",
    "ProgramLayout",
    "PtasParams",
    "RoundedClass",
    "RoundedInstance",
    "RoundedJob",
    "build_nfold",
    "build_program",
    "construct_schedule",
    "derive_delta",
    "enumerate_sets",
    "exponential_m_extension",
    "inflated_bound",
    "nonpreemptive_sets",
    "preprocess",
    "ptas_solve",
    "resolve_enum_cap",
    "splittable_sets",
    "unfold_preemptive",
]
