"""Cycle-level 2-D mesh NoC simulator with DSENT-like energy accounting.

The BookSim2 + DSENT stand-in: wormhole routers with virtual channels and
credit flow control, dimension-ordered routing, burst traffic traces, and a
fast analytical model for full-scale traffic.
"""

from .analytical import AnalyticalEstimate, estimate_drain_cycles, link_loads
from .energy import EnergyBreakdown, NoCEnergyModel
from .network import EnergyEvents, NoCSimulator, NoCStats
from .packet import Flit, NoCConfig, Packet, message_flits, segment_message
from .routing import RouteTables, route_tables, xy_route_path, xy_route_port, xy_route_ports
from .topology import Mesh2D, mesh_dims
from .traffic import (
    TrafficMatrix,
    neighbor_traffic,
    transpose_traffic,
    uniform_random_traffic,
)

__all__ = [
    "Mesh2D",
    "mesh_dims",
    "xy_route_port",
    "xy_route_path",
    "xy_route_ports",
    "RouteTables",
    "route_tables",
    "NoCConfig",
    "Packet",
    "Flit",
    "segment_message",
    "NoCSimulator",
    "NoCStats",
    "EnergyEvents",
    "TrafficMatrix",
    "uniform_random_traffic",
    "transpose_traffic",
    "neighbor_traffic",
    "NoCEnergyModel",
    "EnergyBreakdown",
    "AnalyticalEstimate",
    "estimate_drain_cycles",
    "link_loads",
    "message_flits",
]
