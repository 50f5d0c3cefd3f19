"""Per-link NoC profiling: flit counts per router and per output port.

A :class:`NoCProfile` accumulates, across one or many simulated drains on the
same mesh shape, how many flits each router switched and how many left each
router through each output port (LOCAL = ejections at the destination NI).
From those totals ``repro.analysis.heatmap`` renders the ASCII mesh heatmap
and per-link utilization report.

Profiles are collected *after* a drain completes, from the delivered packets'
routes (every flit of a delivered packet traversed every hop of its
precomputed XY route), so the per-cycle simulator hot loops are untouched and
profiling-off behaviour is bit-identical to an uninstrumented engine — the
equivalence suite (``tests/obs/test_nocprof.py``) enforces this, and with
profiling off no :class:`NoCProfile` is built
(``tests/obs/test_disabled_telemetry.py``).

Module-level switches (:func:`enable_noc_profiling`) let the inference engine
attach a process-global accumulator per mesh shape without threading a
profile object through every call site; ``repro-experiments --trace`` turns
this on and exports the accumulated profiles with the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NoCProfile",
    "enable_noc_profiling",
    "disable_noc_profiling",
    "noc_profiling_enabled",
    "global_profile",
    "global_profiles",
    "clear_profiles",
]

_NUM_PORTS = 5  # local/east/west/north/south, matching repro.noc.topology


@dataclass(eq=False)
class NoCProfile:
    """Accumulated per-router / per-link flit counts for one mesh shape."""

    width: int
    height: int
    #: flits leaving router ``n`` through port ``p`` — column 0 (LOCAL) is
    #: ejections; columns 1-4 are link traversals toward E/W/N/S neighbors.
    link_flits: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: flits switched through each router's crossbar (occupancy numerator).
    router_flits: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: total simulated NoC cycles across the accumulated runs.
    cycles: int = 0
    #: number of drains accumulated.
    runs: int = 0

    def __post_init__(self) -> None:
        n = self.width * self.height
        if self.link_flits is None:
            self.link_flits = np.zeros((n, _NUM_PORTS), dtype=np.int64)
        if self.router_flits is None:
            self.router_flits = np.zeros(n, dtype=np.int64)

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    @property
    def total_flit_hops(self) -> int:
        """Link traversals only (excludes ejections), matching NoCStats."""
        return int(self.link_flits[:, 1:].sum())

    def merge(self, other: "NoCProfile") -> None:
        """Fold another profile of the same mesh shape into this one."""
        if (other.width, other.height) != (self.width, self.height):
            raise ValueError(
                f"cannot merge {other.width}x{other.height} profile into "
                f"{self.width}x{self.height}"
            )
        self.link_flits += other.link_flits
        self.router_flits += other.router_flits
        self.cycles += other.cycles
        self.runs += other.runs

    # -- derived views -------------------------------------------------------------

    def link_utilization(self) -> np.ndarray:
        """Flits per cycle on each (router, port) link; zeros when no cycles."""
        if self.cycles == 0:
            return np.zeros_like(self.link_flits, dtype=float)
        return self.link_flits / self.cycles

    def router_occupancy(self) -> np.ndarray:
        """(height, width) grid of crossbar flits per cycle per router."""
        flits = self.router_flits.astype(float)
        if self.cycles:
            flits = flits / self.cycles
        return flits.reshape(self.height, self.width)

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "mesh": [self.width, self.height],
            "cycles": self.cycles,
            "runs": self.runs,
            "link_flits": self.link_flits.tolist(),
            "router_flits": self.router_flits.tolist(),
        }

    @staticmethod
    def from_dict(data: dict) -> "NoCProfile":
        width, height = data["mesh"]
        profile = NoCProfile(
            width=int(width),
            height=int(height),
            cycles=int(data["cycles"]),
            runs=int(data["runs"]),
        )
        link = np.asarray(data["link_flits"], dtype=np.int64)
        router = np.asarray(data["router_flits"], dtype=np.int64)
        if link.shape != profile.link_flits.shape or router.shape != profile.router_flits.shape:
            raise ValueError("profile arrays do not match the mesh shape")
        profile.link_flits = link
        profile.router_flits = router
        return profile


# -- process-global profiling state ----------------------------------------------------

_enabled = False
_profiles: dict[tuple[int, int], NoCProfile] = {}


def enable_noc_profiling() -> None:
    """Make the inference engine attach global per-mesh profile accumulators."""
    global _enabled
    _enabled = True


def disable_noc_profiling() -> None:
    global _enabled
    _enabled = False


def noc_profiling_enabled() -> bool:
    return _enabled


def global_profile(width: int, height: int) -> NoCProfile:
    """The process-global accumulator for one mesh shape (created on demand)."""
    profile = _profiles.get((width, height))
    if profile is None:
        profile = _profiles[(width, height)] = NoCProfile(width, height)
    return profile


def global_profiles() -> list[NoCProfile]:
    """All global accumulators, largest mesh first."""
    return [
        _profiles[k] for k in sorted(_profiles, key=lambda wh: wh[0] * wh[1], reverse=True)
    ]


def clear_profiles() -> None:
    _profiles.clear()


def merge_profile_dict(data: dict) -> NoCProfile:
    """Fold a serialized profile (e.g. shipped back from a worker process)
    into the global accumulator for its mesh shape."""
    incoming = NoCProfile.from_dict(data)
    target = global_profile(incoming.width, incoming.height)
    target.merge(incoming)
    return target
