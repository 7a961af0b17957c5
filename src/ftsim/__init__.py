"""Discrete-event simulator of a single-node failure in a message-passing
application, with energy-saving strategy selection (DVFS and node sleep)
for the surviving nodes."""

__version__ = "0.1.0"

from .energy import FrequencyLevel, SystemProfile, PhaseEstimate, NodePlan, WaitAction
from .scenario import Scenario, load_scenario, ParseError, ValidationError

__all__ = [
    "FrequencyLevel",
    "SystemProfile",
    "PhaseEstimate",
    "NodePlan",
    "WaitAction",
    "Scenario",
    "load_scenario",
    "ParseError",
    "ValidationError",
]
