"""Finite-state-machine model.

The second benchmark set of Table I consists of "state encoded, optimized
and mapped finite state machine controllers from the MCNC FSM benchmark
set".  This module is the symbolic-table FSM substrate: transitions carry
input *patterns* (0/1/-) as in KISS2, next states, and output patterns.

Delay analysis of an FSM's combinational logic restricts the admissible
vectors (Sec. VI): floating vectors are ``i@s`` with ``s`` reachable, and
transition vector pairs ``<i1@s1, i2@s2>`` must satisfy
``s2 = next_state(s1, i1)`` — built in :mod:`repro.fsm.constraints`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple


@dataclass(frozen=True)
class FsmTransition:
    """One row of the symbolic state table."""

    inputs: str       # pattern over primary inputs: '0', '1' or '-'
    state: str
    next_state: str
    outputs: str      # pattern over outputs: '0', '1' or '-'

    def matches(self, input_bits: Sequence[bool]) -> bool:
        if len(input_bits) != len(self.inputs):
            raise ValueError("input width mismatch")
        return all(
            ch == "-" or (ch == "1") == bool(bit)
            for ch, bit in zip(self.inputs, input_bits)
        )


class Fsm:
    """A Mealy machine given by a symbolic transition table.

    Rows are matched first-to-last; unspecified (state, input) combinations
    go to the reset state with all outputs 0 (an explicit completion —
    KISS2 leaves them don't-care; choosing the all-zero reset code makes
    the completion exactly what a sum-of-products realisation of the rows
    produces, see :mod:`repro.fsm.synth`).
    """

    def __init__(
        self,
        name: str,
        num_inputs: int,
        num_outputs: int,
        states: Sequence[str],
        reset_state: str,
        transitions: Sequence[FsmTransition],
    ):
        self.name = name
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.states: List[str] = list(states)
        self.reset_state = reset_state
        self.transitions: List[FsmTransition] = list(transitions)
        self.validate()

    def validate(self) -> None:
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise ValueError("duplicate state names")
        if self.reset_state not in state_set:
            raise ValueError(f"reset state {self.reset_state!r} unknown")
        for row in self.transitions:
            if len(row.inputs) != self.num_inputs:
                raise ValueError(f"row {row} has wrong input width")
            if len(row.outputs) != self.num_outputs:
                raise ValueError(f"row {row} has wrong output width")
            if row.state not in state_set or row.next_state not in state_set:
                raise ValueError(f"row {row} references unknown state")
            for ch in row.inputs + row.outputs:
                if ch not in "01-":
                    raise ValueError(f"bad pattern character {ch!r}")

    # ------------------------------------------------------------------
    def step(
        self, state: str, input_bits: Sequence[bool]
    ) -> Tuple[str, List[bool]]:
        """(next state, output bits) under first-match row semantics."""
        for row in self.transitions:
            if row.state == state and row.matches(input_bits):
                outputs = [ch == "1" for ch in row.outputs]
                return row.next_state, outputs
        return self.reset_state, [False] * self.num_outputs

    def next_state(self, state: str, input_bits: Sequence[bool]) -> str:
        return self.step(state, input_bits)[0]

    def reachable_states(self) -> List[str]:
        """States reachable from reset following live table rows (the
        default completion only ever returns to reset, which is reachable
        by definition, so row-level BFS is exact up to row liveness)."""
        seen: Set[str] = {self.reset_state}
        frontier = [self.reset_state]
        rows_by_state: Dict[str, List[FsmTransition]] = {}
        for row in self.transitions:
            rows_by_state.setdefault(row.state, []).append(row)
        while frontier:
            state = frontier.pop()
            for row in rows_by_state.get(state, []):
                if self._row_is_live(state, row, rows_by_state):
                    if row.next_state not in seen:
                        seen.add(row.next_state)
                        frontier.append(row.next_state)
        return [s for s in self.states if s in seen]

    def _row_is_live(
        self,
        state: str,
        row: FsmTransition,
        rows_by_state: Dict[str, List[FsmTransition]],
    ) -> bool:
        """True if some input vector actually selects this row, i.e. the
        earlier rows of the same state do not shadow it completely.

        Shadowing is a covering problem; rows with at most 12 free bits are
        checked exactly by enumeration, wider rows use the sufficient
        single-row subsumption test and are otherwise assumed live (an
        over-approximation of reachability, flagged in the docstring of
        :meth:`reachable_states`)."""
        earlier = []
        for other in rows_by_state.get(state, []):
            if other is row:
                break
            earlier.append(other)
        if not earlier:
            return True
        # Sufficient shadow check: some earlier row subsumes this pattern.
        for other in earlier:
            if _pattern_subsumes(other.inputs, row.inputs):
                return False
        # Exact check when few free bits, else assume live.
        free = [i for i, ch in enumerate(row.inputs) if ch == "-"]
        if len(free) <= 12:
            base = [ch == "1" for ch in row.inputs]
            for mask in range(1 << len(free)):
                bits = list(base)
                for j, pos in enumerate(free):
                    bits[pos] = bool((mask >> j) & 1)
                if not any(other.matches(bits) for other in earlier):
                    return True
            return False
        return True

    def simulate(
        self, input_sequence: Sequence[Sequence[bool]]
    ) -> List[Tuple[str, List[bool]]]:
        """Run the machine from reset; returns (state-after, outputs) per
        input vector."""
        state = self.reset_state
        trace = []
        for bits in input_sequence:
            state, outputs = self.step(state, bits)
            trace.append((state, outputs))
        return trace

    def __repr__(self) -> str:
        return (
            f"Fsm({self.name!r}, i={self.num_inputs}, o={self.num_outputs}, "
            f"states={len(self.states)}, rows={len(self.transitions)})"
        )


def _pattern_subsumes(general: str, specific: str) -> bool:
    """True if every vector matching ``specific`` also matches ``general``."""
    for g, s in zip(general, specific):
        if g != "-" and s != g:
            return False
    return True
