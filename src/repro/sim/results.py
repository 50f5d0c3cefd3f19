"""Result records of end-to-end inference simulations."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..noc.energy import EnergyBreakdown

__all__ = ["LayerTimeline", "SimulationResult"]


@dataclass
class LayerTimeline:
    """Per-layer timing and energy of one simulated inference pass.

    All cycle counts are in *core* clock cycles.  ``comm_cycles`` is the
    computation-blocking synchronization time before the layer executes;
    ``compute_cycles`` is the busiest core's NFU time.
    """

    layer_name: str
    compute_cycles: int
    comm_cycles: int
    traffic_bytes: int
    flit_hops: int
    noc_energy: EnergyBreakdown
    compute_energy_j: float
    comm_mode: str  # drain path: "cycle" | "scaled-cycle" | "none"

    @property
    def total_cycles(self) -> int:
        """Layer wall time: sync drain, then compute."""
        return self.comm_cycles + self.compute_cycles


@dataclass
class SimulationResult:
    """Timing/energy of a full single-pass inference under one plan."""

    model_name: str
    scheme: str
    num_cores: int
    layers: list[LayerTimeline] = field(default_factory=list)
    # Scheme-independent cost of loading the input image from DRAM and
    # distributing it to every core before the first layer starts.
    input_load_cycles: int = 0
    input_load_energy_j: float = 0.0
    # Drain-time memo accounting: cycle-level drains served from the
    # persistent memo vs actually simulated.  Both stay 0 when no layer
    # moves traffic.
    drain_memo_hits: int = 0
    drain_memo_misses: int = 0

    # -- timing -----------------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        return self.input_load_cycles + sum(l.total_cycles for l in self.layers)

    @property
    def compute_cycles(self) -> int:
        return sum(l.compute_cycles for l in self.layers)

    @property
    def comm_cycles(self) -> int:
        return sum(l.comm_cycles for l in self.layers)

    @property
    def comm_fraction(self) -> float:
        """Fraction of inference latency spent blocked on communication."""
        total = self.total_cycles
        return self.comm_cycles / total if total else 0.0

    def latency_ms(self, clock_ghz: float = 1.0) -> float:
        return self.total_cycles / (clock_ghz * 1e6)

    @property
    def drain_memo_hit_rate(self) -> float:
        """Fraction of memo lookups served from the cache (0 when none)."""
        lookups = self.drain_memo_hits + self.drain_memo_misses
        return self.drain_memo_hits / lookups if lookups else 0.0

    # -- traffic ------------------------------------------------------------------

    @property
    def total_traffic_bytes(self) -> int:
        return sum(l.traffic_bytes for l in self.layers)

    @property
    def total_flit_hops(self) -> int:
        return sum(l.flit_hops for l in self.layers)

    # -- energy -------------------------------------------------------------------

    @property
    def noc_energy_j(self) -> float:
        return sum(l.noc_energy.total_j for l in self.layers)

    @property
    def compute_energy_j(self) -> float:
        return sum(l.compute_energy_j for l in self.layers)

    @property
    def total_energy_j(self) -> float:
        return self.noc_energy_j + self.compute_energy_j + self.input_load_energy_j

    # -- paper metrics ---------------------------------------------------------------

    def speedup_vs(self, baseline: "SimulationResult") -> float:
        """System performance speedup relative to a baseline run."""
        if self.total_cycles == 0:
            raise ValueError("cannot compute speedup of a zero-cycle run")
        return baseline.total_cycles / self.total_cycles

    def traffic_rate_vs(self, baseline: "SimulationResult") -> float:
        """NoC traffic rate: this run's bytes over the baseline's (Table IV)."""
        base = baseline.total_traffic_bytes
        if base == 0:
            return 0.0 if self.total_traffic_bytes == 0 else float("inf")
        return self.total_traffic_bytes / base

    def comm_energy_reduction_vs(self, baseline: "SimulationResult") -> float:
        """1 - E_noc/E_noc_baseline: the paper's 'energy reduction' metric."""
        base = baseline.noc_energy_j
        if base == 0.0:
            return 0.0
        return 1.0 - self.noc_energy_j / base

    def comm_speedup_vs(self, baseline: "SimulationResult") -> float:
        """Communication-only speedup (Fig. 7's 'normalized communication
        performance'); infinite when this run removed all traffic."""
        if self.comm_cycles == 0:
            return float("inf") if baseline.comm_cycles else 1.0
        return baseline.comm_cycles / self.comm_cycles

    def summary(self) -> str:
        """Per-layer breakdown table."""
        lines = [
            f"{self.model_name} [{self.scheme}] on {self.num_cores} cores: "
            f"{self.total_cycles} cycles "
            f"({self.comm_fraction:.1%} communication)"
        ]
        header = (
            f"{'layer':<12} {'compute':>10} {'comm':>10} {'traffic B':>11} {'mode':>12}"
        )
        lines.append(header)
        for l in self.layers:
            lines.append(
                f"{l.layer_name:<12} {l.compute_cycles:>10} {l.comm_cycles:>10} "
                f"{l.traffic_bytes:>11} {l.comm_mode:>12}"
            )
        return "\n".join(lines)
