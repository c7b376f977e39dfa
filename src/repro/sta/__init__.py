"""Static timing analysis baseline (the 'l.d.' of Tables II/III)."""

from .graph_delay import (
    TimingAnalysis,
    analyze,
    arrival_times,
    gate_depth,
    topological_delay,
)
from .report import (
    circuit_stats,
    render_table,
    statistics_row,
    timing_report,
)

__all__ = [
    "TimingAnalysis",
    "analyze",
    "arrival_times",
    "gate_depth",
    "topological_delay",
    "circuit_stats",
    "render_table",
    "statistics_row",
    "timing_report",
]
