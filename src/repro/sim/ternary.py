"""Three-valued (0/1/X) logic and conservative bounded-delay simulation.

Ternary algebras accommodate the uncertainty interval of bounded gate delays
(Sec. IV, citing Seger-Bryant [15]).  :func:`bounded_transition_analysis`
computes, for one concrete vector pair, the guaranteed value of every node on
every unit interval when each gate's delay may lie anywhere in
``[d_l, d_u]`` — the concrete counterpart of the symbolic analysis in
:mod:`repro.core.bounded`, used to cross-validate it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..network.circuit import Circuit
from ..network.gates import GateType

#: Ternary values.
ZERO, ONE, X = 0, 1, 2

Bounds = Callable[[str], Tuple[int, int]]


def monotone_bounds(circuit: Circuit) -> Bounds:
    """The monotone-speedup model [13]: every gate delay in [0, d]."""

    def bounds(name: str) -> Tuple[int, int]:
        return 0, circuit.node(name).delay

    return bounds


def fixed_bounds(circuit: Circuit) -> Bounds:
    """Degenerate bounds [d, d] (the fixed-delay model)."""

    def bounds(name: str) -> Tuple[int, int]:
        d = circuit.node(name).delay
        return d, d

    return bounds


def ternary_not(a: int) -> int:
    if a == X:
        return X
    return 1 - a


#: The gate families :func:`ternary_gate` tells apart by membership, and
#: the members that invert their family's value.
_AND_FAMILY = (GateType.AND, GateType.NAND)
_OR_FAMILY = (GateType.OR, GateType.NOR)
_XOR_FAMILY = (GateType.XOR, GateType.XNOR)
_INVERTING = (GateType.NAND, GateType.NOR, GateType.XNOR)


def ternary_gate(gate_type: GateType, inputs: Sequence[int]) -> int:
    """Ternary gate evaluation: controlling values dominate X."""
    if gate_type in _AND_FAMILY:
        if ZERO in inputs:
            result = ZERO
        elif X in inputs:
            result = X
        else:
            result = ONE
    elif gate_type in _OR_FAMILY:
        if ONE in inputs:
            result = ONE
        elif X in inputs:
            result = X
        else:
            result = ZERO
    elif gate_type in _XOR_FAMILY:
        result = X if X in inputs else sum(inputs) % 2
    elif gate_type == GateType.BUF:
        return inputs[0]
    elif gate_type == GateType.NOT:
        return ternary_not(inputs[0])
    elif gate_type == GateType.CONST0:
        return ZERO
    elif gate_type == GateType.CONST1:
        return ONE
    else:
        raise ValueError(f"cannot evaluate gate type {gate_type}")
    return ternary_not(result) if gate_type in _INVERTING else result


def ternary_settle(circuit: Circuit, inputs: Dict[str, int]) -> Dict[str, int]:
    """Ternary steady state (inputs may be 0/1/X)."""
    values: Dict[str, int] = {}
    for name in circuit.topological_order():
        node = circuit.node(name)
        if node.gate_type == GateType.INPUT:
            values[name] = inputs[name]
        else:
            values[name] = ternary_gate(
                node.gate_type, [values[f] for f in node.fanins]
            )
    return values


def bounded_transition_analysis(
    circuit: Circuit,
    v_prev: Dict[str, bool],
    v_next: Dict[str, bool],
    bounds: Optional[Bounds] = None,
    horizon: Optional[int] = None,
) -> Dict[str, List[int]]:
    """Guaranteed node values on each unit interval for one vector pair.

    Returns ``grid[name][t]`` = ternary value of ``name`` guaranteed to hold
    throughout the interval ``[t, t+1)`` (for ``0 <= t <= horizon``) under
    *every* admissible delay assignment — including delays that vary from
    event to event, which makes the analysis conservative but safe.

    The output's bounded transition delay for this pair is the last ``t``
    where the output's interval value changes or is X
    (:func:`pair_bounded_delay`).
    """
    bounds = bounds or monotone_bounds(circuit)
    # One walk into slot lists (topological order): gate type, fanin
    # slots, delay bounds and the settled v_-1 value of every node.
    order = circuit.topological_order()
    slots = {name: slot for slot, name in enumerate(order)}
    nodes = [circuit.node(name) for name in order]
    fanins = [[slots[f] for f in node.fanins] for node in nodes]
    is_input = [node.gate_type == GateType.INPUT for node in nodes]
    ranges = [
        (0, 0) if source else bounds(name)
        for name, source in zip(order, is_input)
    ]
    settled_prev = circuit.evaluate(v_prev)
    initial = [ONE if settled_prev[name] else ZERO for name in order]

    # Horizon: longest path with upper-bound delays.
    upper_levels = [0] * len(order)
    for slot, slot_fanins in enumerate(fanins):
        upper_levels[slot] = ranges[slot][1] + max(
            (upper_levels[f] for f in slot_fanins), default=0
        )
    if horizon is None:
        horizon = max(
            (upper_levels[slots[o]] for o in circuit.outputs), default=0
        ) + 1

    # rows[slot][pad + t] is the value on interval t; the first ``pad``
    # entries hold the settled v_-1 value, so a fanin read at tau < 0
    # needs no branch.
    pad = max((hi for __, hi in ranges), default=0)
    rows: List[List[int]] = []
    for slot, name in enumerate(order):
        if is_input[slot]:
            now = ONE if v_next[name] else ZERO
        else:
            now = X
        rows.append([initial[slot]] * pad + [now] * (horizon + 1))

    for slot, node in enumerate(nodes):
        if is_input[slot]:
            continue
        gate_type = node.gate_type
        fanin_rows = [rows[f] for f in fanins[slot]]
        row = rows[slot]
        d_lo, d_hi = ranges[slot]
        for t in range(pad, pad + horizon + 1):
            result = None
            for tau in range(t - d_hi, t - d_lo + 1):
                out = ternary_gate(gate_type, [r[tau] for r in fanin_rows])
                # The meet: agreeing values stay, disagreement gives X.
                if result is None:
                    result = out
                elif out != result:
                    result = X
                if result == X:
                    break
            row[t] = X if result is None else result
    return {name: rows[slot][pad:] for slot, name in enumerate(order)}


def pair_bounded_delay(
    circuit: Circuit,
    v_prev: Dict[str, bool],
    v_next: Dict[str, bool],
    bounds: Optional[Bounds] = None,
) -> int:
    """Last time an output may still be transitioning for this vector pair:
    the largest ``t`` such that the output is not guaranteed stable across
    the boundary between intervals ``t-1`` and ``t`` (0 if always stable)."""
    grid = bounded_transition_analysis(circuit, v_prev, v_next, bounds)
    worst = 0
    settled_prev = circuit.evaluate(v_prev)
    for out in circuit.outputs:
        values = grid[out]
        previous = ONE if settled_prev[out] else ZERO
        for t, value in enumerate(values):
            stable = value != X and value == previous
            if not stable:
                worst = max(worst, t)
            previous = value if value != X else X
    return worst
