"""Berkeley Logic Interchange Format (BLIF) subset reader/writer.

Supports the combinational core of BLIF: ``.model``, ``.inputs``,
``.outputs``, ``.names`` (single-output covers with both on-set and off-set
conventions) and ``.end``.  ``.names`` functions are synthesised into
AND/OR/NOT gates because the circuit model is a mapped gate network.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .circuit import Circuit
from .gates import GateType


def _synthesize_cover(
    circuit: Circuit,
    target: str,
    fanins: List[str],
    rows: List[Tuple[str, str]],
    where: str = "",
) -> None:
    """Create gates realising the single-output cover ``rows`` at ``target``.

    Each row is ``(input_pattern, output_value)`` with pattern chars 0/1/-.
    All-'1' output rows form an SOP; all-'0' rows define the complement.
    ``where`` is the ``source:line`` location of the ``.names`` header,
    prefixed onto parse diagnostics.
    """
    if not rows:
        circuit.add_gate(target, GateType.CONST0, ())
        return
    out_values = {value for __, value in rows}
    if len(out_values) != 1:
        raise ValueError(
            f"{where}.names {target}: mixed on-set/off-set cover"
        )
    invert = out_values == {"0"}
    if not fanins:
        # Constant: a single row with empty pattern.
        gate = GateType.CONST0 if invert else GateType.CONST1
        circuit.add_gate(target, gate, ())
        return
    for pattern, __ in rows:
        if len(pattern) != len(fanins):
            raise ValueError(
                f"{where}.names {target}: row {pattern!r} arity mismatch"
            )

    # Canonical cover shapes map straight onto mapped gates.  Recognising
    # them keeps import(export(c)) a structural fixpoint: the writer emits
    # exactly these shapes, so re-importing does not grow helper layers.
    if len(rows) == 1:
        pattern = rows[0][0]
        if set(pattern) == {"1"}:
            if len(fanins) == 1:
                gate = GateType.NOT if invert else GateType.BUF
            else:
                gate = GateType.NAND if invert else GateType.AND
            circuit.add_gate(target, gate, fanins)
            return
        if set(pattern) == {"0"}:
            if len(fanins) == 1:
                gate = GateType.BUF if invert else GateType.NOT
            else:
                gate = GateType.OR if invert else GateType.NOR
            circuit.add_gate(target, gate, fanins)
            return
    one_hot = [
        fanins[pattern.index("1")]
        for pattern, __ in rows
        if pattern.count("1") == 1 and pattern.count("-") == len(pattern) - 1
    ]
    if len(one_hot) == len(rows) > 1:
        gate = GateType.NOR if invert else GateType.OR
        circuit.add_gate(target, gate, one_hot)
        return

    # General SOP path.  Helper names use '$', which BLIF tokenises as an
    # ordinary identifier character ('#' would start a comment on re-read).
    def literal(net: str, positive: bool) -> str:
        if positive:
            return net
        inv_name = f"{target}$inv${net}"
        if inv_name not in circuit:
            circuit.add_gate(inv_name, GateType.NOT, [net])
        return inv_name

    product_names: List[str] = []
    for row_index, (pattern, __) in enumerate(rows):
        literals = [
            literal(net, ch == "1")
            for net, ch in zip(fanins, pattern)
            if ch != "-"
        ]
        if not literals:
            # Tautological row.
            const = f"{target}$const1${row_index}"
            circuit.add_gate(const, GateType.CONST1, ())
            literals = [const]
        if len(rows) == 1 and len(literals) > 1:
            # A single product row: the target IS the product gate.
            gate = GateType.NAND if invert else GateType.AND
            circuit.add_gate(target, gate, literals)
            return
        if len(literals) == 1:
            product_names.append(literals[0])
        else:
            product = f"{target}$and${row_index}"
            circuit.add_gate(product, GateType.AND, literals)
            product_names.append(product)

    if len(product_names) == 1:
        gate = GateType.NOT if invert else GateType.BUF
        circuit.add_gate(target, gate, product_names)
    else:
        final_type = GateType.NOR if invert else GateType.OR
        circuit.add_gate(target, final_type, product_names)


def loads_blif(text: str, source: str = "<blif>") -> Circuit:
    """Parse a combinational BLIF model into a :class:`Circuit`.

    Parse diagnostics are prefixed ``source:line:`` (the physical line of
    the offending construct; continuation lines report their first
    physical line).  Structural errors — cyclic or undriven netlists —
    surface from :meth:`Circuit.validate` with the same messages
    construction through :class:`~repro.network.builder.CircuitBuilder`
    would raise.
    """
    model_name = "blif"
    inputs: List[str] = []
    outputs: List[str] = []
    # covers: (target, fanins, rows, source-line of the .names header)
    covers: List[Tuple[str, List[str], List[Tuple[str, str]], int]] = []
    current: Optional[Tuple[str, List[str], List[Tuple[str, str]], int]] = (
        None
    )

    # Join continuation lines, remembering each logical line's first
    # physical line number.
    logical_lines: List[Tuple[int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if logical_lines and logical_lines[-1][1].endswith("\\"):
            start, joined = logical_lines[-1]
            logical_lines[-1] = (start, joined[:-1] + " " + line.strip())
        else:
            logical_lines.append((line_no, line.strip()))

    for line_no, line in logical_lines:
        tokens = line.split()
        if tokens[0] == ".model":
            model_name = tokens[1] if len(tokens) > 1 else model_name
        elif tokens[0] == ".inputs":
            inputs.extend(tokens[1:])
        elif tokens[0] == ".outputs":
            outputs.extend(tokens[1:])
        elif tokens[0] == ".names":
            if len(tokens) < 2:
                raise ValueError(
                    f"{source}:{line_no}: .names needs a target signal"
                )
            current = (tokens[-1], tokens[1:-1], [], line_no)
            covers.append(current)
        elif tokens[0] == ".end":
            current = None
        elif tokens[0].startswith("."):
            raise ValueError(
                f"{source}:{line_no}: unsupported BLIF construct "
                f"{tokens[0]!r}"
            )
        else:
            if current is None:
                raise ValueError(
                    f"{source}:{line_no}: cover row outside .names: "
                    f"{line!r}"
                )
            if len(tokens) == 1:
                # Constant row: output value only.
                current[2].append(("", tokens[0]))
            else:
                current[2].append((tokens[0], tokens[1]))

    circuit = Circuit(model_name)
    for name in inputs:
        circuit.add_input(name)
    for target, fanins, rows, line_no in covers:
        _synthesize_cover(
            circuit, target, fanins, rows, where=f"{source}:{line_no}: "
        )
    circuit.set_outputs(outputs)
    circuit.validate()
    return circuit


def load_blif(path: str) -> Circuit:
    with open(path) as handle:
        return loads_blif(handle.read(), source=path)


_COVER_FOR_TYPE: Dict[GateType, str] = {}


def _gate_rows(gate: GateType, arity: int) -> List[str]:
    """BLIF cover rows for a gate (single-output convention)."""
    if gate == GateType.AND:
        return ["1" * arity + " 1"]
    if gate == GateType.NAND:
        return ["1" * arity + " 0"]
    if gate == GateType.OR:
        return [
            "-" * i + "1" + "-" * (arity - i - 1) + " 1" for i in range(arity)
        ]
    if gate == GateType.NOR:
        return ["0" * arity + " 1"]
    if gate == GateType.NOT:
        return ["0 1"]
    if gate == GateType.BUF:
        return ["1 1"]
    if gate in (GateType.XOR, GateType.XNOR):
        rows = []
        want_odd = gate == GateType.XOR
        for m in range(1 << arity):
            bits = [(m >> (arity - 1 - i)) & 1 for i in range(arity)]
            if (sum(bits) % 2 == 1) == want_odd:
                rows.append("".join(str(b) for b in bits) + " 1")
        return rows
    if gate == GateType.CONST1:
        return [" 1"]
    if gate == GateType.CONST0:
        return []
    raise ValueError(f"cannot emit BLIF for {gate}")


def _check_name(kind: str, name: str) -> None:
    """Refuse a name that cannot survive a round trip rather than corrupt
    it silently: on re-read a blank splits it, '#' starts a comment, a
    trailing backslash continues the line, and an empty name is no
    token at all."""
    if (not name or "#" in name or name.endswith("\\")
            or any(ch.isspace() for ch in name)):
        raise ValueError(
            f"cannot emit BLIF: {kind} name {name!r} is not representable"
        )


def dumps_blif(circuit: Circuit) -> str:
    """Render the circuit as BLIF (delays are not representable)."""
    _check_name("model", circuit.name)
    for node in circuit.nodes():
        _check_name("node", node.name)
    lines = [f".model {circuit.name}"]
    lines.append(".inputs " + " ".join(circuit.inputs))
    lines.append(".outputs " + " ".join(circuit.outputs))
    for node_name in circuit.canonical_topological_order():
        node = circuit.node(node_name)
        if node.gate_type == GateType.INPUT:
            continue
        lines.append(".names " + " ".join(list(node.fanins) + [node.name]))
        for row in _gate_rows(node.gate_type, len(node.fanins)):
            lines.append(row.strip() if node.gate_type == GateType.CONST1 else row)
    lines.append(".end")
    return "\n".join(lines) + "\n"


def dump_blif(circuit: Circuit, path: str) -> None:
    text = dumps_blif(circuit)
    with open(path, "w") as handle:
        handle.write(text)
