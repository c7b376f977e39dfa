"""Human-readable timing reports and table rendering.

The benchmark harness uses :func:`render_table` to print Tables I-III in the
paper's layout; :func:`timing_report` mirrors a conventional STA report.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..network.circuit import Circuit
from .graph_delay import analyze


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width ASCII table."""
    columns = [[str(h) for h in headers]] + [
        [str(cell) for cell in row] for row in rows
    ]
    widths = [
        max(len(line[i]) for line in columns) for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rows:
        lines.append(
            " | ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)


def timing_report(
    circuit: Circuit,
    clock_period: Optional[int] = None,
    max_paths: int = 1,
) -> str:
    """A conventional STA report: worst paths, arrival times, slack."""
    from ..network.paths import k_longest_paths

    analysis = analyze(circuit, clock_period)
    lines = [
        f"Timing report for {circuit.name}",
        f"  clock period : {analysis.clock_period}",
        f"  worst slack  : {analysis.worst_slack}",
        "",
    ]
    for rank, (length, path) in enumerate(
        k_longest_paths(circuit, max_paths), start=1
    ):
        lines.append(f"  path #{rank} (graphical length {length}):")
        time = 0
        for name in path:
            node = circuit.node(name)
            time += node.delay
            lines.append(
                f"    {name:<20} {node.gate_type.value:<6} "
                f"delay={node.delay:<3} arrival={time}"
            )
        lines.append("")
    return "\n".join(lines)


def circuit_stats(circuit: Circuit) -> Dict[str, int]:
    """Structural stats: inputs, outputs, gates, literals and the
    longest (topological) path delay."""
    return {
        "inputs": len(circuit.inputs),
        "outputs": len(circuit.outputs),
        "gates": circuit.num_gates,
        "literals": circuit.literal_count(),
        "delay": circuit.topological_delay(),
    }


def statistics_row(circuit: Circuit) -> List[object]:
    """One Table I row: name, inputs, outputs, literals, longest path."""
    stats = circuit_stats(circuit)
    return [
        circuit.name,
        stats["inputs"],
        stats["outputs"],
        stats["literals"],
        stats["delay"],
    ]
