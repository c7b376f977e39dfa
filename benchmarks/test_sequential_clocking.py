"""Sequential clocking — Theorem 3.1 on an actual synchronous machine.

The sticky-bit controller's constrained transition delay (7) sits below
its floating delay (8).  Clocking the gate-level machine with real state
feedback shows: the certified period 7 preserves the exact table
behaviour while period 4 (above omega/2 = 4 is required, so 4 is NOT
certified) corrupts the trajectory — the whole point of computing the
transition delay instead of the floating delay.
"""

import random

from repro.boolfn import BddEngine
from repro.core import (
    compute_floating_delay,
    compute_transition_delay,
    theorem31_min_period,
)
from repro.fsm import (
    SequentialSimulator,
    reachable_states_constraint,
    reference_trace,
    smallest_working_period,
    transition_pair_constraint,
)
from repro.circuits import build_fsm_logic

from .common import render_rows, write_result


def run():
    logic = build_fsm_logic("sticky")
    circuit = logic.circuit
    floating = compute_floating_delay(
        circuit, engine=BddEngine(),
        constraint=reachable_states_constraint(logic),
    )
    transition = compute_transition_delay(
        circuit, engine=BddEngine(), upper=floating.delay,
        constraint=transition_pair_constraint(logic),
    )
    tau = theorem31_min_period(circuit, transition.delay)
    rng = random.Random(13)
    stimulus = [[bool(rng.getrandbits(1))] for __ in range(60)]
    reference = reference_trace(logic.fsm, stimulus)
    verdicts = {}
    for period in (tau, floating.delay, 3):
        trace = SequentialSimulator(logic, period).run(stimulus)
        verdicts[period] = trace.matches_reference(reference)
    empirical = smallest_working_period(logic, stimulus)
    rows = [
        ["omega (l.d.)", circuit.topological_delay()],
        ["floating delay (reachable)", floating.delay],
        ["transition delay (sequential pairs)", transition.delay],
        ["Theorem 3.1 certified period", tau],
        [f"clocked @ {tau} matches table", verdicts[tau]],
        [f"clocked @ {floating.delay} matches table",
         verdicts[floating.delay]],
        ["clocked @ 3 matches table", verdicts[3]],
        ["smallest empirically working period", empirical],
    ]
    return rows, floating, transition, tau, verdicts, empirical


def test_sequential_clocking():
    rows, floating, transition, tau, verdicts, empirical = run()
    write_result(
        "sequential_clocking",
        render_rows(
            "Sequential clocking of the sticky-bit controller",
            rows,
            ["quantity", "value"],
        ),
    )
    assert transition.delay == floating.delay - 1
    assert tau == transition.delay        # t.d. 7 > omega/2 = 4
    assert verdicts[tau]                  # certified period works
    assert not verdicts[3]                # below omega/2: corrupted
    assert empirical <= tau