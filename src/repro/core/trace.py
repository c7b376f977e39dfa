"""Event-chain tracing: which path did the certification pair excite?

The transition-delay computation "outputs a vector sequence which excites
an event along the longest sensitizable path" (Sec. VIII).  Given the
vector pair, this module replays it and walks the causal chain backwards —
an event at a gate with delay ``d`` at time ``t`` is caused by a fanin
event at time ``t - d`` — recovering the sensitized path itself, so
reports can show *which* path sets the clock period, not just the number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..network.circuit import Circuit
from ..network.gates import GateType
from ..runtime.metrics import METRICS
from ..sim.event_sim import EventSimulator, TransitionResult
from .vectors import VectorPair


@dataclass
class EventChain:
    """A causal chain of events ending at a primary output."""

    #: (node name, event time, new value), input-side first.
    events: List[Tuple[str, int, bool]]

    @property
    def path(self) -> List[str]:
        return [name for name, __, __ in self.events]

    @property
    def end_time(self) -> int:
        return self.events[-1][1]

    def render(self) -> str:
        parts = [
            f"{name}@{time}{'↑' if value else '↓'}"
            for name, time, value in self.events
        ]
        return " -> ".join(parts)


def trace_critical_chain(
    circuit: Circuit,
    pair: VectorPair,
    output: Optional[str] = None,
    result: Optional[TransitionResult] = None,
) -> Optional[EventChain]:
    """The causal event chain ending at the last event of ``output``
    (default: the output with the latest event).  Returns None when the
    pair produces no output event at all."""
    if result is None:
        with METRICS.span("trace.replay"):
            result = EventSimulator(circuit).simulate_transition(
                pair.v_prev, pair.v_next
            )
    METRICS.incr("trace.chains")
    waveforms = result.waveforms
    if output is None:
        candidates = [
            (waveforms[out].last_event_time or -1, out)
            for out in circuit.outputs
        ]
        latest, output = max(candidates)
        if latest < 0:
            return None
    end_time = waveforms[output].last_event_time
    if end_time is None:
        return None

    chain: List[Tuple[str, int, bool]] = []
    node_name, time = output, end_time
    while True:
        chain.append((node_name, time, waveforms[node_name].value_at(time)))
        node = circuit.node(node_name)
        if node.gate_type == GateType.INPUT or not node.fanins:
            break
        cause_time = time - node.delay
        cause = None
        for fanin in node.fanins:
            if cause_time in waveforms[fanin].transition_times():
                cause = fanin
                break
        if cause is None:
            # The event was produced by simultaneous earlier causes that
            # the batching collapsed; stop at the gate.
            break
        node_name, time = cause, cause_time
    chain.reverse()
    return EventChain(chain)


def describe_certificate_path(circuit: Circuit, certificate) -> str:
    """Human-readable account of a transition certificate's critical
    chain (used by reports and the CLI)."""
    if certificate.pair is None:
        return "no output event is excitable"
    chain = trace_critical_chain(
        circuit, certificate.pair, output=certificate.output
    )
    if chain is None:
        return "the pair excites no event at the critical output"
    lines = [
        f"critical chain (settles at {chain.end_time}):",
        f"  {chain.render()}",
    ]
    return "\n".join(lines)
