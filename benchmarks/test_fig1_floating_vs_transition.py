"""Fig. 1 — the two-level glitch-chain example.

Regenerates the paper's Sec. IV-B analysis: on the pair <1100, 0000> the
products glitch in sequence (g2 then g3) and mask the slow product's rise;
a monotone speedup of the input buffers restores the floating-delay event.
"""

from repro.core import (
    compute_bounded_transition_delay,
    compute_floating_delay,
    compute_transition_delay,
)
from repro.sim import EventSimulator
from repro.circuits import build_circuit, fig1_vector_pair

from .common import render_rows, write_result


def analyse():
    circuit = build_circuit("fig1")
    floating = compute_floating_delay(circuit)
    transition = compute_transition_delay(circuit, upper=floating.delay)
    bounded = compute_bounded_transition_delay(circuit)
    sim = EventSimulator(circuit)
    prev, nxt = fig1_vector_pair()
    observed = sim.simulate_transition(prev, nxt)
    return circuit, floating, transition, bounded, observed


def test_fig1():
    circuit, floating, transition, bounded, observed = analyse()
    rows = [
        ["l.d.", circuit.topological_delay()],
        ["f.d.", floating.delay],
        ["t.d. (fixed)", transition.delay],
        ["t.d. (bounded [0,d])", bounded.delay],
        ["<1100,0000> observed settle", observed.delay],
        ["g2 glitch", str(observed.waveforms["g2"].events)],
        ["g3 glitch", str(observed.waveforms["g3"].events)],
        ["g1 rise", str(observed.waveforms["g1"].events)],
    ]
    text = render_rows("Fig. 1 analysis", rows, ["quantity", "value"])
    text += "\n\n" + observed.waveforms.render(
        ["a", "b", "g1", "g2", "g3", "f"], horizon=7
    )
    write_result("fig1_floating_vs_transition", text)
    assert floating.delay == 5
    assert observed.delay == 3            # masked by the glitch chain
    assert bounded.delay == floating.delay  # speedups restore equality
