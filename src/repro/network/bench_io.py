"""ISCAS-85 ``.bench`` netlist reader/writer.

The benchmark circuits of Table I are distributed in this format::

    # comment
    INPUT(G1)
    OUTPUT(G17)
    G10 = NAND(G1, G3)
    G17 = NOT(G10)

All gates read with unit delay (the paper's fixed unit gate-delay model);
callers may re-annotate delays afterwards.
"""

from __future__ import annotations

import re
from typing import Dict, List

from .circuit import Circuit
from .gates import GateType

_GATE_RE = re.compile(
    r"^\s*([\w.\[\]$#]+)\s*=\s*([A-Za-z01]+)\s*\(([^)]*)\)\s*$"
)
_IO_RE = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(\s*([\w.\[\]$#]+)\s*\)\s*$")

_TYPE_MAP = {
    "AND": GateType.AND,
    "NAND": GateType.NAND,
    "OR": GateType.OR,
    "NOR": GateType.NOR,
    "NOT": GateType.NOT,
    "INV": GateType.NOT,
    "BUF": GateType.BUF,
    "BUFF": GateType.BUF,
    "XOR": GateType.XOR,
    "XNOR": GateType.XNOR,
    "CONST0": GateType.CONST0,
    "CONST1": GateType.CONST1,
}

_REVERSE_TYPE_MAP: Dict[GateType, str] = {
    GateType.AND: "AND",
    GateType.NAND: "NAND",
    GateType.OR: "OR",
    GateType.NOR: "NOR",
    GateType.NOT: "NOT",
    GateType.BUF: "BUFF",
    GateType.XOR: "XOR",
    GateType.XNOR: "XNOR",
    GateType.CONST0: "CONST0",
    GateType.CONST1: "CONST1",
}


def loads_bench(
    text: str, name: str = "bench", source: str = "<bench>"
) -> Circuit:
    """Parse ``.bench`` text into a :class:`Circuit`.

    Parse diagnostics are prefixed ``source:line:``.  Structural errors —
    cyclic or undriven netlists — surface from :meth:`Circuit.validate`
    with the same messages construction through
    :class:`~repro.network.builder.CircuitBuilder` would raise.
    """
    circuit = Circuit(name)
    outputs: List[str] = []
    pending: List[tuple] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO_RE.match(line)
        if io_match:
            kind, signal = io_match.groups()
            if kind == "INPUT":
                circuit.add_input(signal)
            else:
                outputs.append(signal)
            continue
        gate_match = _GATE_RE.match(line)
        if gate_match:
            target, type_name, arg_text = gate_match.groups()
            type_name = type_name.upper()
            if type_name not in _TYPE_MAP:
                raise ValueError(
                    f"{source}:{line_no}: unknown gate type {type_name!r}"
                )
            fanins = [a.strip() for a in arg_text.split(",") if a.strip()]
            pending.append((target, _TYPE_MAP[type_name], fanins))
            continue
        raise ValueError(f"{source}:{line_no}: cannot parse {raw!r}")
    # Gates may reference signals defined later in the file.
    for target, gate_type, fanins in pending:
        circuit.add_gate(target, gate_type, fanins)
    circuit.set_outputs(outputs)
    circuit.validate()
    return circuit


def load_bench(path: str, name: str = "") -> Circuit:
    with open(path) as handle:
        return loads_bench(handle.read(), name or path, source=path)


def dumps_bench(circuit: Circuit) -> str:
    """Render a circuit as ``.bench`` text (delays are not representable in
    the format and are dropped; the reader restores unit delays)."""
    for node in circuit.nodes():
        # '#' starts a comment on re-read; such names cannot survive a
        # round trip, so refuse to emit them rather than corrupt silently.
        if "#" in node.name or any(ch.isspace() for ch in node.name):
            raise ValueError(
                f"cannot emit BENCH: node name {node.name!r} is not "
                f"representable"
            )
    lines = [f"# {circuit.name}"]
    for name in circuit.inputs:
        lines.append(f"INPUT({name})")
    for name in circuit.outputs:
        lines.append(f"OUTPUT({name})")
    for node_name in circuit.canonical_topological_order():
        node = circuit.node(node_name)
        if node.gate_type == GateType.INPUT:
            continue
        type_name = _REVERSE_TYPE_MAP[node.gate_type]
        args = ", ".join(node.fanins)
        lines.append(f"{node.name} = {type_name}({args})")
    return "\n".join(lines) + "\n"


def dump_bench(circuit: Circuit, path: str) -> None:
    text = dumps_bench(circuit)
    with open(path, "w") as handle:
        handle.write(text)
