"""The vectorized Boolean kernel: bit-parallel word-level simulation.

This is the repository's single word-level evaluator.  A *word* is an
integer whose bit lanes are independent input vectors: one pass over the
gates evaluates every lane at once, so N vectors cost one traversal of
the circuit plus O(N) bitwise work instead of N scalar ``settle``
traversals.

Each signal is one arbitrary-width Python int; CPython's big-int bitwise
ops are C loops over 30-bit limbs, so even a batch of thousands of lanes
costs one pass of C-level word operations per gate.

The kernel is the circuit's compiled form, :class:`CircuitProgram`
(:meth:`CircuitProgram.simulate`), and it is shared: the event-driven
timing simulator (:mod:`repro.sim.event_sim`) runs its event loop over
the same integer slots and gate table, plus the program's fanout lists
and delays, and settles the ``v_-1`` states of its lane replays here
(:class:`repro.sim.event_sim.LaneReplay`: ``certify``'s step-3 replays
and the Monte Carlo samples of :mod:`repro.core.statistical`); the
symbolic analyses of :mod:`repro.core` walk it too, so each circuit
revision is compiled once for all of them.  :func:`simulate_words`,
:func:`batch_settle` and :func:`batch_settle_outputs` are the
circuit-level entry points.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..network.circuit import Circuit
from ..network.gates import GateType, validate_arity
from ..runtime.metrics import METRICS

#: Default lane width — the historical 64-bit ``simulate_words`` unit.
WORD_BITS = 64

#: Gate kinds of the compiled program (dispatch resolved once per circuit,
#: not per call): a gate's value is its kind's function of the fanin
#: values — AND, OR, parity, or the single fanin itself — complemented
#: when the gate inverts.  Constants are fanin-less ANDs (the empty AND
#: is true).
ALL, ANY, PARITY, ONE = range(4)
_KINDS = {
    GateType.CONST0: (ALL, True),
    GateType.CONST1: (ALL, False),
    GateType.BUF: (ONE, False),
    GateType.NOT: (ONE, True),
    GateType.AND: (ALL, False),
    GateType.NAND: (ALL, True),
    GateType.OR: (ANY, False),
    GateType.NOR: (ANY, True),
    GateType.XOR: (PARITY, False),
    GateType.XNOR: (PARITY, True),
}


def pack_vectors(
    vectors: Sequence[Dict[str, bool]], inputs: Sequence[str]
) -> Dict[str, int]:
    """Pack scalar vectors into input words: bit lane ``i`` of each word
    carries ``vectors[i]``'s value for that input."""
    words: Dict[str, int] = {}
    num_bytes = (len(vectors) + 7) >> 3
    for name in inputs:
        buf = bytearray(num_bytes)
        for lane, vector in enumerate(vectors):
            try:
                value = vector[name]
            except KeyError:
                raise ValueError(
                    f"vector {lane} is missing a value for primary input "
                    f"{name!r}"
                ) from None
            if value:
                buf[lane >> 3] |= 1 << (lane & 7)
        words[name] = int.from_bytes(bytes(buf), "little")
    return words


def unpack_word(word: int, count: int) -> List[bool]:
    """The first ``count`` bit lanes of a word as scalar values."""
    data = int(word).to_bytes((count + 7) >> 3 or 1, "little")
    return [bool((data[i >> 3] >> (i & 7)) & 1) for i in range(count)]


class CircuitProgram:
    """A circuit compiled over integer slots, once per revision.

    Slot ``i`` is the ``i``-th node of ``circuit.topological_order()``, so
    every gate's fanins have smaller slots than the gate.  Gate dispatch
    is resolved here, and compiling validates the circuit
    (``circuit.validate()``): every gate's arity is checked up front with
    the same errors :class:`~repro.network.circuit.Node` raises at
    construction — a corrupted zero-fanin gate is rejected, never folded
    into a constant — so whatever holds a revision's program holds a
    validated revision.

    * ``gates`` — ``(kind, inverting, fanin slots)`` per slot (None for
      primary inputs): what the word-level kernel (:meth:`simulate`,
      :meth:`run`), the event loop of :mod:`repro.sim.event_sim` and the
      symbolic analyses of :mod:`repro.core` evaluate;
    * ``fanouts`` — the distinct fanout slots per slot, and ``delays`` —
      the gate delay per slot: the rest of the event loop's view;
    * ``num_gates``, ``input_order`` and the fixed-delay
      ``early``/``late`` windows (:meth:`windows`): what the symbolic
      analyses read besides.
    """

    def __init__(self, circuit: Circuit):
        circuit.validate()
        self.circuit = circuit
        self.order = circuit.topological_order()
        slots = {name: index for index, name in enumerate(self.order)}
        gates: List[Optional[tuple]] = []
        fanouts: List[List[int]] = [[] for __ in self.order]
        delays: List[int] = []
        for slot, name in enumerate(self.order):
            node = circuit.node(name)
            validate_arity(node.gate_type, name, len(node.fanins))
            delays.append(node.delay)
            if node.gate_type == GateType.INPUT:
                gates.append(None)
                continue
            kind = _KINDS.get(node.gate_type)
            if kind is None:
                raise ValueError(
                    f"cannot simulate gate type {node.gate_type}"
                )
            fanins = tuple(slots[f] for f in node.fanins)
            gates.append(kind + (fanins,))
            for fanin in dict.fromkeys(fanins):
                fanouts[fanin].append(slot)
        self.slots = slots
        self.gates = gates
        self.fanouts = [tuple(slots_out) for slots_out in fanouts]
        self.delays = delays
        self.num_gates = len(gates) - gates.count(None)
        self.outputs = circuit.outputs
        self.output_slots = [slots[name] for name in self.outputs]
        self.inputs = circuit.inputs
        self.input_slots = [slots[name] for name in self.inputs]
        self.input_order = canonical_input_order(circuit)
        self.early, self.late = self.windows(delays, delays, {})

    def windows(self, lo: Sequence[int], hi: Sequence[int],
                input_times: Dict[str, int]) -> Tuple[List[int], List[int]]:
        """The Lemma 5.1 windows ``(early, late)`` per slot: gate delays in
        ``[lo, hi]``, each input clocked at its ``input_times`` entry or 0."""
        early: List[int] = []
        late: List[int] = []
        for slot, gate in enumerate(self.gates):
            if gate is None:
                first = last = input_times.get(self.order[slot], 0)
            elif not gate[2]:  # a constant
                first = last = 0
            else:
                fanins = gate[2]
                first = lo[slot] + min([early[f] for f in fanins])
                last = hi[slot] + max([late[f] for f in fanins])
            early.append(first)
            late.append(last)
        return early, late

    def run(self, values: List[int], mask: int) -> None:
        """Evaluate the gate table in place over ``values``, one word per
        slot with the inputs' loaded, each lane masked to ``mask``."""
        for slot, gate in enumerate(self.gates):
            if gate is None:
                continue
            kind, inverting, fanins = gate
            if not fanins:  # a constant: the empty AND
                word = mask
            else:
                word = values[fanins[0]]
                if kind == ALL:
                    for f in fanins[1:]:
                        word &= values[f]
                elif kind == ANY:
                    for f in fanins[1:]:
                        word |= values[f]
                elif kind == PARITY:
                    for f in fanins[1:]:
                        word ^= values[f]
            if inverting:
                word ^= mask
            values[slot] = word

    def value(self, vector: Dict[str, bool], name: str) -> bool:
        """The value node ``name`` settles to under one total input vector,
        read off a one-lane :meth:`run` (counted as no ``wordsim`` batch)."""
        values = [0] * len(self.order)
        for input_name, slot in zip(self.inputs, self.input_slots):
            values[slot] = 1 if vector[input_name] else 0
        self.run(values, 1)
        return bool(values[self.slots[name]])

    def simulate(
        self, input_words: Dict[str, int], width: int = WORD_BITS
    ) -> Dict[str, int]:
        """Word value of every node: bit lane ``i`` of each word is the
        settled value under the vector in lane ``i`` of the inputs.

        ``width`` is the number of live lanes; input and result words are
        masked to it (the historical 64-bit ``simulate_words`` contract).
        Missing or unknown input names raise a ValueError naming them.
        """
        if width < 1:
            raise ValueError("width must be at least 1")
        mask = (1 << width) - 1
        values = [0] * len(self.order)
        for name, slot in zip(self.inputs, self.input_slots):
            try:
                values[slot] = int(input_words[name]) & mask
            except KeyError:
                raise ValueError(
                    f"missing value for primary input {name!r} of "
                    f"circuit {self.circuit.name!r}"
                ) from None
        if len(input_words) > len(self.input_slots):
            extra = sorted(set(input_words) - set(self.inputs))
            if extra:
                raise ValueError(
                    f"unknown inputs {extra} for circuit "
                    f"{self.circuit.name!r}: not primary inputs"
                )
        self.run(values, mask)
        METRICS.incr("wordsim.batches")
        METRICS.incr("wordsim.lanes", width)
        METRICS.incr("wordsim.gate_ops", len(self.order) - len(self.inputs))
        return dict(zip(self.order, values))


def program_for(circuit: Circuit) -> CircuitProgram:
    """The compiled program of a circuit's current revision.

    Compilation is O(gates); batch callers such as the Monte Carlo loop
    and every event replay reuse the program.  The circuit keeps it next
    to its other derived structures (topological order, fanout map), and
    every journalled edit — like any structural change outside the
    journal — drops it, so the next call compiles the new revision.
    """
    program = circuit._program
    if program is None:
        program = circuit._program = CircuitProgram(circuit)
    return program


def canonical_input_order(circuit: Circuit) -> List[str]:
    """Primary inputs in cone-traversal first-touch order.

    The engines' internal state (BDD variable order, AIG signature
    streams) follows variable *creation* order, and ``sat_one`` witnesses
    depend on that state.  The analyses pre-declare their variables in
    this order so the state is a function of the circuit content alone —
    a fresh analysis in a worker process reproduces the exact witnesses
    of a serial run (see :mod:`repro.runtime.parallel`).

    Declaration order (``circuit.inputs``) would be just as deterministic
    but is a *bad* BDD order for arithmetic circuits (e.g. all ``a`` bits
    before all ``b`` bits on an adder explodes the node count); the DFS
    cone order interleaves related inputs the way the lazy function build
    touches them.  Inputs outside every output cone are appended in
    declaration order.
    """
    primary = set(circuit.inputs)
    seen: set = set()
    order: List[str] = []
    for out in circuit.outputs:
        stack = [out]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            if name in primary:
                order.append(name)
            else:
                stack.extend(reversed(circuit.node(name).fanins))
    for name in circuit.inputs:
        if name not in seen:
            order.append(name)
    return order


def simulate_words(
    circuit: Circuit, input_words: Dict[str, int], width: int = WORD_BITS
) -> Dict[str, int]:
    """Bit-parallel simulation: each input carries a ``width``-bit word
    (64 by default); every bit lane is an independent vector.  Runs
    :meth:`CircuitProgram.simulate` on the circuit's current program."""
    return program_for(circuit).simulate(input_words, width=width)


def batch_settle(
    circuit: Circuit,
    vectors: Sequence[Dict[str, bool]],
    names: Optional[Sequence[str]] = None,
) -> List[Dict[str, bool]]:
    """``[settle(circuit, v) for v in vectors]`` in one kernel pass, bit
    for bit, restricted to ``names`` when given."""
    vectors = list(vectors)
    if not vectors:
        return []
    program = program_for(circuit)
    width = len(vectors)
    words = program.simulate(
        pack_vectors(vectors, program.inputs), width=width
    )
    if names is None:
        names = program.order
    per_name = {name: unpack_word(words[name], width) for name in names}
    return [
        {name: per_name[name][lane] for name in names}
        for lane in range(width)
    ]


def batch_settle_outputs(
    circuit: Circuit, vectors: Sequence[Dict[str, bool]]
) -> List[Dict[str, bool]]:
    """``[settle_outputs(circuit, v) for v in vectors]`` in one pass."""
    return batch_settle(circuit, vectors, names=circuit.outputs)
