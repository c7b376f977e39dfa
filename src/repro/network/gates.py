"""Gate primitives: types, controlling values, and evaluation.

Terminology follows Sec. II of the paper: a *controlling value* at a gate
input determines the gate output regardless of the other inputs (0 for
AND/NAND, 1 for OR/NOR); the *noncontrolling value* is its complement.  XOR
and XNOR have no controlling value — every input change matters.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence


class GateType(str, Enum):
    """The gate library of the circuit model."""

    INPUT = "INPUT"
    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    NOT = "NOT"
    BUF = "BUF"
    XOR = "XOR"
    XNOR = "XNOR"
    CONST0 = "CONST0"
    CONST1 = "CONST1"


#: Gate types that take exactly one fanin.
UNARY_GATES = {GateType.NOT, GateType.BUF}
#: Gate types that take no fanins.
SOURCE_GATES = {GateType.INPUT, GateType.CONST0, GateType.CONST1}
#: Gate types with a controlling input value.
CONTROLLED_GATES = {GateType.AND, GateType.NAND, GateType.OR, GateType.NOR}


def validate_arity(gate_type: GateType, name: str, num_fanins: int) -> None:
    """Raise ValueError unless ``num_fanins`` is legal for ``gate_type``.

    This is the single arity contract shared by node construction
    (:class:`repro.network.circuit.Node`), the scalar evaluator, and the
    word-level kernel (:mod:`repro.sim.wordsim`): all paths reject a
    malformed gate with the same message instead of silently folding a
    zero-fanin AND/XOR into a constant.
    """
    if gate_type in SOURCE_GATES:
        if num_fanins:
            raise ValueError(f"{gate_type} node {name!r} takes no fanins")
    elif gate_type in UNARY_GATES:
        if num_fanins != 1:
            raise ValueError(f"{gate_type} node {name!r} needs 1 fanin")
    elif num_fanins < 1:
        raise ValueError(f"gate {name!r} needs at least one fanin")


def controlling_value(gate_type: GateType) -> Optional[bool]:
    """The controlling input value of the gate, or None (XOR family, unary)."""
    if gate_type in (GateType.AND, GateType.NAND):
        return False
    if gate_type in (GateType.OR, GateType.NOR):
        return True
    return None


def noncontrolling_value(gate_type: GateType) -> Optional[bool]:
    value = controlling_value(gate_type)
    return None if value is None else not value


def is_inverting(gate_type: GateType) -> bool:
    """True if the gate complements its AND/OR/identity core."""
    return gate_type in (GateType.NAND, GateType.NOR, GateType.NOT, GateType.XNOR)


def evaluate_gate(gate_type: GateType, inputs: Sequence[bool]) -> bool:
    """Boolean output of the gate for concrete input values."""
    if gate_type == GateType.CONST0:
        return False
    if gate_type == GateType.CONST1:
        return True
    if gate_type == GateType.BUF:
        return bool(inputs[0])
    if gate_type == GateType.NOT:
        return not inputs[0]
    if gate_type == GateType.AND:
        return all(inputs)
    if gate_type == GateType.NAND:
        return not all(inputs)
    if gate_type == GateType.OR:
        return any(inputs)
    if gate_type == GateType.NOR:
        return not any(inputs)
    if gate_type == GateType.XOR:
        return sum(map(bool, inputs)) % 2 == 1
    if gate_type == GateType.XNOR:
        return sum(map(bool, inputs)) % 2 == 0
    raise ValueError(f"cannot evaluate gate type {gate_type}")
