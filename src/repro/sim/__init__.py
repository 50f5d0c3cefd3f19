"""End-to-end inference simulation: compute + NoC + (optional) DRAM."""

from .engine import InferenceSimulator, SimConfig
from .results import LayerTimeline, SimulationResult

__all__ = [
    "InferenceSimulator",
    "SimConfig",
    "LayerTimeline",
    "SimulationResult",
]
