"""Discrete-event simulator of a single-node failure in a message-passing
application, with energy-saving strategy selection (DVFS and node sleep)
for the surviving nodes."""

__version__ = "0.1.0"

from .kernel import EventQueue, SimEvent, EventKind, PastTime, EmptyQueue
from .energy import FrequencyLevel, SystemProfile, PhaseEstimate, NodePlan, WaitAction
from .scenario import Scenario, load_scenario, ParseError, ValidationError

__all__ = [
    "EventQueue",
    "SimEvent",
    "EventKind",
    "PastTime",
    "EmptyQueue",
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
