"""Hamilton-cycle extension machinery for claw-free graphs.

The package splits into finite-graph primitives (graphcore, families,
conditions), an exhaustive oracle used as test ground truth, the
cycle-extension engine, separator structure analysis, the infinite
construction that chains the extension engine through nested cuts, and
its trace records (trace) with their independent checker (verify).
"""

from .errors import (
    FrontierContamination,
    HamextError,
    InputError,
    InvariantViolation,
    SamplingExhausted,
)
from .graphcore import Cycle, FiniteGraph, LazyGraph

__all__ = [
    "Cycle",
    "FiniteGraph",
    "FrontierContamination",
    "HamextError",
    "InputError",
    "InvariantViolation",
    "LazyGraph",
    "SamplingExhausted",
]

__version__ = "0.1.0"
