"""Zero-delay functional simulation, one vector at a time.

The *settle* step of the single-stepping transition mode (Sec. III): before
``v_0`` is applied, every node carries its stable value under ``v_-1``.
Many vectors at once settle as the bit lanes of the word-level kernel,
:mod:`repro.sim.wordsim`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..network.circuit import Circuit


def settle(circuit: Circuit, input_values: Dict[str, bool]) -> Dict[str, bool]:
    """Stable value of every node under one input vector."""
    return circuit.evaluate(input_values)


def settle_outputs(circuit: Circuit, input_values: Dict[str, bool]) -> Dict[str, bool]:
    return circuit.evaluate_outputs(input_values)


def all_input_vectors(circuit: Circuit) -> List[Dict[str, bool]]:
    """Every input assignment (exponential; for tests on small circuits)."""
    inputs = circuit.inputs
    result = []
    for m in range(1 << len(inputs)):
        result.append(
            {name: bool((m >> i) & 1) for i, name in enumerate(inputs)}
        )
    return result


def functional_sequence(
    circuit: Circuit, vectors: Sequence[Dict[str, bool]]
) -> List[Dict[str, bool]]:
    """Settled outputs for each vector of a sequence (the single-stepping
    reference against which clocked operation is compared, Theorem 3.1)."""
    return [circuit.evaluate_outputs(v) for v in vectors]
