"""Fig. 2 — transition delay below floating delay under ANY speedup.

Regenerates every number of Secs. IV-B/IV-C: floating delay 5 with witness
<a=1>, longest path 6 (so Theorem 3.1 certifies periods above 3), fixed
transition delay 0, no integer monotone speedup producing an event past
omega/2, and a stable output when clocked at 4 — below the floating delay.
"""

import itertools

from repro.core import (
    compute_floating_delay,
    compute_transition_delay,
    theorem31_min_period,
    validate_period_by_simulation,
)
from repro.network import apply_speedup
from repro.sim import EventSimulator
from repro.circuits import build_circuit

from .common import render_rows, write_result


def analyse():
    circuit = build_circuit("fig2")
    floating = compute_floating_delay(circuit)
    transition = compute_transition_delay(circuit, upper=floating.delay)
    gates = [n.name for n in circuit.nodes() if n.fanins]
    worst_speedup = 0
    for delays in itertools.product([0, 1], repeat=len(gates)):
        sped = apply_speedup(circuit, dict(zip(gates, delays)))
        sim = EventSimulator(sped)
        for prev in (False, True):
            for nxt in (False, True):
                worst_speedup = max(
                    worst_speedup,
                    sim.measure_pair_delay({"a": prev}, {"a": nxt}),
                )
    clock4 = validate_period_by_simulation(circuit, 4, num_vectors=60)
    return circuit, floating, transition, worst_speedup, clock4


def test_fig2():
    circuit, floating, transition, worst_speedup, clock4 = analyse()
    rows = [
        ["longest graphical path (omega)", circuit.topological_delay()],
        ["floating delay", floating.delay],
        ["floating witness", str(floating.witness)],
        ["transition delay (single stepping)", transition.delay],
        ["worst event over all integer speedups", worst_speedup],
        ["Theorem 3.1 certified min period", theorem31_min_period(circuit, 0)],
        ["clock period 4 empirically valid", clock4.ok],
    ]
    write_result(
        "fig2_monotone_speedup",
        render_rows("Fig. 2 analysis", rows, ["quantity", "value"]),
    )
    assert circuit.topological_delay() == 6
    assert floating.delay == 5 and floating.witness == {"a": True}
    assert transition.delay == 0
    assert worst_speedup < floating.delay     # the paper's headline claim
    assert worst_speedup <= 3                 # sup is omega/2 = 3
    assert clock4.ok
