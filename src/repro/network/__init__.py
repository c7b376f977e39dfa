"""Logic-network substrate: gates, circuits, paths, transforms, netlist I/O."""

from .builder import CircuitBuilder
from .circuit import Circuit, Edit, Node
from .gates import (
    GateType,
    controlling_value,
    evaluate_gate,
    is_inverting,
    noncontrolling_value,
)
from .bench_io import dump_bench, dumps_bench, load_bench, loads_bench
from .check import LintFinding, lint
from .draw import render_cone, render_levels
from .blif_io import dump_blif, dumps_blif, load_blif, loads_blif
from .verilog_io import dump_verilog, dumps_verilog, load_verilog, loads_verilog
from .paths import (
    count_paths,
    enumerate_paths,
    is_statically_sensitizable,
    k_longest_paths,
    longest_path,
    path_length,
    side_inputs,
)
from .transform import (
    apply_speedup,
    insert_wire_delay,
    limit_fanin,
    normalize_delays,
    refined_delay_annotation,
    scale_delays,
)


#: The one netlist format table: file extension -> (reader, writer).
NETLIST_FORMATS = {
    ".bench": (load_bench, dump_bench),
    ".blif": (load_blif, dump_blif),
    ".v": (load_verilog, dump_verilog),
    ".verilog": (load_verilog, dump_verilog),
}


def _netlist_format(path: str):
    lowered = path.lower()
    for suffix, reader_writer in NETLIST_FORMATS.items():
        if lowered.endswith(suffix):
            return reader_writer
    raise ValueError(
        f"cannot infer netlist format of {path!r} "
        "(expected .bench, .blif or .v)"
    )


def load_circuit(path: str) -> Circuit:
    """Load a netlist, choosing the reader by the file extension."""
    return _netlist_format(path)[0](path)


def dump_circuit(circuit: Circuit, path: str) -> None:
    """Write a netlist, choosing the writer by the file extension."""
    _netlist_format(path)[1](circuit, path)


__all__ = [
    "Circuit",
    "Edit",
    "Node",
    "CircuitBuilder",
    "GateType",
    "controlling_value",
    "noncontrolling_value",
    "is_inverting",
    "evaluate_gate",
    "NETLIST_FORMATS",
    "load_circuit",
    "dump_circuit",
    "loads_bench",
    "load_bench",
    "dumps_bench",
    "dump_bench",
    "render_levels",
    "lint",
    "LintFinding",
    "render_cone",
    "loads_blif",
    "load_blif",
    "dumps_blif",
    "dump_blif",
    "loads_verilog",
    "load_verilog",
    "dumps_verilog",
    "dump_verilog",
    "longest_path",
    "path_length",
    "enumerate_paths",
    "count_paths",
    "k_longest_paths",
    "side_inputs",
    "is_statically_sensitizable",
    "normalize_delays",
    "limit_fanin",
    "apply_speedup",
    "scale_delays",
    "refined_delay_annotation",
    "insert_wire_delay",
]
