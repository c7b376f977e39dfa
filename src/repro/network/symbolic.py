"""Build engine-level Boolean functions from circuit cones.

Shared helper for everything that needs "the function computed by node X"
in a chosen variable space: FSM next-state constraints, settle functions,
functional equivalence checks between circuits.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from ..sim.wordsim import program_for
from .circuit import Circuit
from .gates import GateType, gate_function


def circuit_function(
    engine,
    circuit: Circuit,
    root: str,
    input_var: Optional[Callable[[str], int]] = None,
) -> int:
    """The steady-state function of node ``root`` as an engine handle.

    ``input_var`` maps a primary-input name to its variable handle
    (default: ``engine.var(name)``) — pass a suffixing mapper to build the
    function over e.g. the ``@-`` half of the doubled space.
    """
    return circuit_functions(engine, circuit, [root], input_var)[root]


def circuit_functions(
    engine,
    circuit: Circuit,
    roots: Iterable[str],
    input_var: Optional[Callable[[str], int]] = None,
) -> Dict[str, int]:
    """Functions for several roots, sharing the traversal.

    The walk runs over the circuit's compiled program: the roots' cone is
    marked over the fanin slots, then built in slot order, which is
    ``circuit.topological_order()``.
    """
    if input_var is None:
        input_var = engine.var
    roots = list(roots)
    program = program_for(circuit)
    nodes = program.nodes
    cone = set()
    stack = [program.slots[root] for root in roots]
    while stack:
        slot = stack.pop()
        if slot not in cone:
            cone.add(slot)
            stack.extend(nodes[slot][1])
    memo: Dict[int, int] = {}
    for slot in sorted(cone):
        gate_type, fanins = nodes[slot]
        if gate_type == GateType.INPUT:
            memo[slot] = input_var(program.order[slot])
        else:
            memo[slot] = gate_function(
                engine, gate_type, [memo[f] for f in fanins]
            )
    return {root: memo[program.slots[root]] for root in roots}


def circuits_equivalent(engine, left: Circuit, right: Circuit) -> bool:
    """Combinational equivalence of two circuits with identical input and
    output names (a miter check on the chosen engine)."""
    if set(left.inputs) != set(right.inputs):
        raise ValueError("input name sets differ")
    if left.outputs != right.outputs:
        raise ValueError("output name lists differ")
    left_fns = circuit_functions(engine, left, left.outputs)
    right_fns = circuit_functions(engine, right, right.outputs)
    for out in left.outputs:
        if not engine.equiv(left_fns[out], right_fns[out]):
            return False
    return True
