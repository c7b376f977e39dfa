"""Structural (gate-level) Verilog subset reader/writer.

Supports the primitive-instance netlist style::

    module c17 (G1, G2, G3, G6, G7, G22, G23);
      input G1, G2, G3, G6, G7;
      output G22, G23;
      wire G10, G11, G16, G19;
      nand #1 U10 (G10, G1, G3);
      nand U11 (G11, G3, G6);
      ...
    endmodule

Primitives: ``and or nand nor xor xnor not buf``; the first port is the
output.  ``#d`` delay annotations map to the gate's fixed propagation
delay — the one circuit-relevant datum the ``.bench``/BLIF formats cannot
carry — and are emitted on write, so Verilog is the lossless interchange
format of this library.
"""

from __future__ import annotations

import re
from typing import List

from .circuit import Circuit
from .gates import GateType

_PRIMITIVES = {
    "and": GateType.AND,
    "nand": GateType.NAND,
    "or": GateType.OR,
    "nor": GateType.NOR,
    "xor": GateType.XOR,
    "xnor": GateType.XNOR,
    "not": GateType.NOT,
    "buf": GateType.BUF,
}

_REVERSE_PRIMITIVES = {v: k for k, v in _PRIMITIVES.items()}

_IDENTIFIER = r"[A-Za-z_][\w$]*"
# A module name is a plain identifier or an escaped one: a backslash,
# then any non-blank characters, ended by a blank.
_MODULE_RE = re.compile(
    rf"module\s+(?:\\(\S+)\s|({_IDENTIFIER}))\s*(?:\(([^)]*)\))?\s*;",
    re.S,
)
_DECL_RE = re.compile(r"\b(input|output|wire)\b([^;]*);", re.S)
_INSTANCE_RE = re.compile(
    r"\b(and|nand|or|nor|xor|xnor|not|buf)\b"
    r"(?:\s*#\s*(\d+))?"
    rf"(?:\s+({_IDENTIFIER}))?"
    r"\s*\(([^)]*)\)\s*;",
    re.S,
)


def _strip_comments(text: str) -> str:
    text = re.sub(r"//[^\n]*", "", text)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return text


def _split_names(decl: str) -> List[str]:
    return [name.strip() for name in decl.split(",") if name.strip()]


def loads_verilog(text: str) -> Circuit:
    """Parse one structural Verilog module into a :class:`Circuit`."""
    text = _strip_comments(text)
    module = _MODULE_RE.search(text)
    if module is None:
        raise ValueError("no module declaration found")
    name = module.group(1) or module.group(2)
    body = text[module.end():]
    end = body.find("endmodule")
    if end < 0:
        raise ValueError("missing endmodule")
    body = body[:end]

    inputs: List[str] = []
    outputs: List[str] = []
    for kind, decl in _DECL_RE.findall(body):
        names = _split_names(decl)
        if kind == "input":
            inputs.extend(names)
        elif kind == "output":
            outputs.extend(names)
        # wires carry no information the instances don't.

    circuit = Circuit(name)
    for pi in inputs:
        circuit.add_input(pi)
    instance_count = 0
    for prim, delay, __, ports in _INSTANCE_RE.findall(body):
        port_names = _split_names(ports)
        if len(port_names) < 2:
            raise ValueError(f"{prim} instance needs an output and inputs")
        out, fanins = port_names[0], port_names[1:]
        gate_type = _PRIMITIVES[prim]
        if gate_type in (GateType.NOT, GateType.BUF) and len(fanins) != 1:
            raise ValueError(f"{prim} takes exactly one input")
        circuit.add_gate(
            out, gate_type, fanins, int(delay) if delay else 1
        )
        instance_count += 1
    if instance_count == 0:
        raise ValueError("module contains no primitive instances")
    circuit.set_outputs(outputs)
    circuit.validate()
    return circuit


def load_verilog(path: str) -> Circuit:
    with open(path) as handle:
        return loads_verilog(handle.read())


def _module_name(name: str) -> str:
    """``name`` as written after ``module``: a name that is not a plain
    identifier (a BENCH file is named by its path) is escaped."""
    if re.fullmatch(_IDENTIFIER, name):
        return name
    if not name or re.search(r"\s|//|/\*", name):
        raise ValueError(
            f"cannot emit Verilog: module name {name!r} is not representable"
        )
    return f"\\{name} "


def dumps_verilog(circuit: Circuit) -> str:
    """Render the circuit as a structural Verilog module (with ``#delay``
    annotations preserving the timing model)."""
    unsupported = [
        node.name
        for node in circuit.nodes()
        if node.gate_type not in _REVERSE_PRIMITIVES
        and node.gate_type != GateType.INPUT
    ]
    if unsupported:
        raise ValueError(
            f"gates without a Verilog primitive: {unsupported[:3]}"
        )
    ports = circuit.inputs + circuit.outputs
    lines = [f"module {_module_name(circuit.name)} ({', '.join(ports)});"]
    if circuit.inputs:
        lines.append(f"  input {', '.join(circuit.inputs)};")
    if circuit.outputs:
        lines.append(f"  output {', '.join(circuit.outputs)};")
    wires = [
        node.name
        for node in circuit.nodes()
        if node.gate_type != GateType.INPUT
        and node.name not in circuit.outputs
    ]
    if wires:
        lines.append(f"  wire {', '.join(wires)};")
    for index, node_name in enumerate(circuit.topological_order()):
        node = circuit.node(node_name)
        if node.gate_type == GateType.INPUT:
            continue
        prim = _REVERSE_PRIMITIVES[node.gate_type]
        delay = f" #{node.delay}" if node.delay != 1 else ""
        ports = ", ".join([node.name] + list(node.fanins))
        lines.append(f"  {prim}{delay} U{index} ({ports});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def dump_verilog(circuit: Circuit, path: str) -> None:
    text = dumps_verilog(circuit)
    with open(path, "w") as handle:
        handle.write(text)
