"""End-to-end inference simulation: DRAM input load + NoC drains + compute."""

from .engine import InferenceSimulator, SimConfig
from .results import LayerTimeline, SimulationResult

__all__ = [
    "InferenceSimulator",
    "SimConfig",
    "LayerTimeline",
    "SimulationResult",
]
