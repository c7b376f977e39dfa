"""Ablation — does logic optimization affect the transition delay?

The paper closes Sec. VI with: "We are currently experimenting with
random-logic circuits to see if logic optimization affects the transition
delay of a circuit."  This ablation runs that experiment on our FSM
controllers: the same machine synthesised (a) as a raw two-level cover,
(b) cube-merged ("optimized"), and (c) mapped to 2- and 4-input gates.
"""

from repro.core import compute_floating_delay, compute_transition_delay
from repro.fsm import (
    reachable_states_constraint,
    synthesize,
    transition_pair_constraint,
)
from repro.circuits.mcnc import build_fsm

from .common import render_rows, write_result


def run_variant(tag, fsm, optimize, fanin_limit):
    logic = synthesize(fsm, optimize=optimize, fanin_limit=fanin_limit)
    circuit = logic.circuit
    floating = compute_floating_delay(
        circuit, constraint=reachable_states_constraint(logic)
    )
    transition = compute_transition_delay(
        circuit,
        upper=floating.delay,
        constraint=transition_pair_constraint(logic),
    )
    return [
        tag,
        circuit.num_gates,
        circuit.literal_count(),
        circuit.topological_delay(),
        floating.delay,
        transition.delay,
    ]


def run_all():
    fsm = build_fsm("sand")
    return [
        run_variant("two-level raw", fsm, optimize=False, fanin_limit=None),
        run_variant("two-level merged", fsm, optimize=True, fanin_limit=None),
        run_variant("mapped fanin<=4", fsm, optimize=True, fanin_limit=4),
        run_variant("mapped fanin<=2", fsm, optimize=True, fanin_limit=2),
    ]


def test_optimization_ablation():
    rows = run_all()
    write_result(
        "ablation_optimization",
        render_rows(
            "Logic-optimization ablation (paper Sec. VI, work in progress)",
            rows,
            ["variant", "gates", "literals", "l.d.", "f.d.", "t.d."],
        ),
    )
    for __, __, __, ld, fd, td in rows:
        assert td <= fd <= ld
    # Optimization must not increase the literal count; mapping deepens.
    assert rows[1][2] <= rows[0][2]
    assert rows[3][3] >= rows[2][3]
