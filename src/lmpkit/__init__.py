"""Verification and recovery toolkit for first-order necessary optimality
conditions (the local minimum principle) in optimal control problems with
one nonregular mixed state-control constraint."""

from .errors import EvalError, InputError, LmpkitError, NumericalError, ParseError
from .lmp import (
    CheckConfig,
    Directions,
    MultiplierSet,
    Report,
    check_certificate,
)
from .measures import BVFunction, SignedMeasure
from .problem import ProblemDef, TimeGrid, Trajectory, builtin_example
from .recovery import RecoveryConfig, build_program, recover
from .samples import Samples

__version__ = "0.1.0"

__all__ = [
    "BVFunction",
    "CheckConfig",
    "Directions",
    "EvalError",
    "InputError",
    "LmpkitError",
    "MultiplierSet",
    "NumericalError",
    "ParseError",
    "ProblemDef",
    "RecoveryConfig",
    "Report",
    "Samples",
    "SignedMeasure",
    "TimeGrid",
    "Trajectory",
    "build_program",
    "builtin_example",
    "check_certificate",
    "recover",
    "__version__",
]
