"""Report rendering: tables, mesh heatmaps, Pareto flags, trace summaries."""

from .heatmap import render_mesh_heatmap
from .pareto import pareto_flags
from .tables import format_value, render_table
from .trace_report import phase_breakdown, render_metrics_snapshot, summarize_trace

__all__ = [
    "render_table",
    "format_value",
    "render_mesh_heatmap",
    "pareto_flags",
    "phase_breakdown",
    "render_metrics_snapshot",
    "summarize_trace",
]
