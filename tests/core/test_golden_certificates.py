"""Golden certificates: the exact answers of the symbolic delay analyses.

``golden_certificates.json`` holds, per case, what the floating,
transition and bounded delay computations and the certification-pair
collection return — delay, critical output, settle value, witness vector
or pair, ``#check`` — and the ``*.checks``/``*.functions_built`` counters
they fold into :data:`~repro.runtime.metrics.METRICS`, on each engine.
A change to the searches, the probe policy or the engine set-up that
moves one witness, one check or one built function fails here, not only
one that moves a delay.  Every recorded witness is also replayed on the
event simulator, so a re-recorded file holds only witnesses that show
what their records claim.

The cases cover the Table II circuits and the figure circuits on the
``bdd``, ``sat`` and ``auto`` engines (c1908 on ``sat`` and ``auto``),
two FSM controllers under their Sec. VI constraints, staggered
``input_times`` and degenerate ``fixed_delay_bounds``.

Re-record only on a commit whose analyses are trusted::

    PYTHONPATH=src python -m tests.core.test_golden_certificates
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.circuits import build_circuit, build_fsm_logic
from repro.core import (
    collect_certification_pairs,
    compute_bounded_transition_delay,
    compute_floating_delay,
    compute_transition_delay,
    fixed_delay_bounds,
    format_vector,
)
from repro.fsm import reachable_states_constraint, transition_pair_constraint
from repro.runtime.cache import DelayCache
from repro.runtime.metrics import metrics_scope
from repro.sim.event_sim import EventSimulator
from repro.sim.ternary import fixed_bounds, pair_bounded_delay

GOLDEN_PATH = Path(__file__).with_name("golden_certificates.json")

NO_CACHE = DelayCache(enabled=False)

CIRCUITS = [
    "c17", "c432", "c499", "c880", "fig1", "fig2", "fig5", "csa8",
    "alu8skip", "mult4", "cmp64",
]
ENGINES = ["bdd", "sat", "auto"]
FSMS = ["sticky", "planet"]
#: Staggered clock times for c17's inputs (Sec. V-C).
C17_INPUT_TIMES = {"G1": 0, "G2": 1, "G3": 3, "G6": 2, "G7": 5}


def pair_record(pair, inputs):
    return [format_vector(pair.v_prev, inputs),
            format_vector(pair.v_next, inputs)]


def cert_record(cert, inputs) -> dict:
    record = {
        "delay": cert.delay,
        "output": cert.output,
        "value": cert.value,
        "checks": cert.checks,
    }
    if cert.witness is not None:
        record["witness"] = format_vector(cert.witness, inputs)
    if cert.pair is not None:
        record["pair"] = pair_record(cert.pair, inputs)
    if cert.extra:
        record["extra"] = cert.extra
    return record


def analyses(circuit, engine, floating_constraint=None, constraint=None,
             input_times=None, bounds=None) -> dict:
    """Every analysis of one circuit on one engine, and the counters they
    fold into a fresh metrics scope."""
    inputs = circuit.inputs
    with metrics_scope() as metrics:
        floating = compute_floating_delay(
            circuit, engine_name=engine, constraint=floating_constraint,
            input_times=input_times, cache=NO_CACHE,
        )
        transition = compute_transition_delay(
            circuit, engine_name=engine, constraint=constraint,
            input_times=input_times, cache=NO_CACHE,
        )
        transition_fd = compute_transition_delay(
            circuit, engine_name=engine, upper=floating.delay,
            constraint=constraint, input_times=input_times, cache=NO_CACHE,
        )
        bounded = compute_bounded_transition_delay(
            circuit, bounds=bounds, engine_name=engine,
            constraint=constraint, input_times=input_times, cache=NO_CACHE,
        )
        pairs = collect_certification_pairs(
            circuit, engine_name=engine, constraint=constraint,
            input_times=input_times, cache=NO_CACHE,
        )
    counters = {
        name: value
        for name, value in sorted(metrics.snapshot()["counters"].items())
        if name.endswith((".checks", ".functions_built"))
    }
    return {
        "floating": cert_record(floating, inputs),
        "transition": cert_record(transition, inputs),
        "transition_upper_fd": cert_record(transition_fd, inputs),
        "bounded": cert_record(bounded, inputs),
        "pairs": {
            out: [t, pair_record(pair, inputs)]
            for out, (t, pair) in pairs.items()
        },
        "counters": counters,
    }


def fsm_case(name: str, engine: str):
    def build():
        logic = build_fsm_logic(name)
        return analyses(
            logic.circuit, engine,
            floating_constraint=reachable_states_constraint(logic),
            constraint=transition_pair_constraint(logic),
        )
    return build


def circuit_case(name: str, engine: str, **options):
    return lambda: analyses(build_circuit(name), engine, **options)


CASES = {}
for _name in CIRCUITS:
    for _engine in ENGINES:
        CASES[f"{_name}/{_engine}"] = circuit_case(_name, _engine)
for _engine in ("sat", "auto"):
    CASES[f"c1908/{_engine}"] = circuit_case("c1908", _engine)
for _name in FSMS:
    for _engine in ENGINES:
        CASES[f"{_name}/constrained/{_engine}"] = fsm_case(_name, _engine)
for _engine in ("bdd", "sat"):
    CASES[f"c17/input-times/{_engine}"] = circuit_case(
        "c17", _engine, input_times=C17_INPUT_TIMES
    )
CASES["c432/fixed-delay-bounds/auto"] = lambda: analyses(
    build_circuit("c432"), "auto",
    bounds=fixed_delay_bounds(build_circuit("c432")),
)


def case_circuit(case: str):
    """The circuit a case analyses, and the input times it clocks."""
    name = case.split("/")[0]
    if name in FSMS:
        circuit = build_fsm_logic(name).circuit
    else:
        circuit = build_circuit(name)
    input_times = C17_INPUT_TIMES if "/input-times/" in case else None
    return circuit, input_times


def parse_vector(bits: str, inputs) -> dict:
    return {name: bit == "1" for name, bit in zip(inputs, bits)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_certificates_match_golden(golden, case):
    got = json.loads(json.dumps(CASES[case]()))
    want = golden[case]
    for part in want:
        assert got[part] == want[part], f"{case}: {part} differs"
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_witnesses_replay(golden, case):
    """Each recorded witness replays on the event simulator: a transition
    pair to exactly its delay, at its output too; a certification pair to
    exactly its time at its own output; a floating witness settles its
    output to the recorded value.  A bounded pair attains exactly its
    delay on the ternary simulator under the case's bounds; with clocked
    inputs, which that reference does not model, it replays under the
    nominal delays to at most its delay."""
    circuit, input_times = case_circuit(case)
    inputs = circuit.inputs
    simulator = EventSimulator(circuit)
    want = golden[case]

    def vectors(pair):
        return tuple(parse_vector(bits, inputs) for bits in pair)

    def replay(pair):
        return simulator.simulate_transition(
            *vectors(pair), input_times=input_times
        )

    for part in ("transition", "transition_upper_fd"):
        cert = want[part]
        if "pair" in cert:
            result = replay(cert["pair"])
            assert result.delay == cert["delay"], f"{case}: {part}"
            last = result.waveforms[cert["output"]].last_event_time
            assert last == cert["delay"], f"{case}: {part} output"
    for out, (time, pair) in want["pairs"].items():
        last = replay(pair).waveforms[out].last_event_time
        assert last == time, f"{case}: pairs[{out}]"
    bounded = want["bounded"]
    if "pair" in bounded and input_times is not None:
        assert replay(bounded["pair"]).delay <= bounded["delay"], case
    elif "pair" in bounded:
        bounds = (
            fixed_bounds(circuit) if "/fixed-delay-bounds/" in case else None
        )
        attained = pair_bounded_delay(
            circuit, *vectors(bounded["pair"]), bounds
        )
        assert attained == bounded["delay"], f"{case}: bounded"
    floating = want["floating"]
    if "witness" in floating:
        settled = circuit.evaluate(parse_vector(floating["witness"], inputs))
        assert settled[floating["output"]] == floating["value"], case


def record() -> None:
    lines = [
        f"{json.dumps(name)}: "
        f"{json.dumps(build(), sort_keys=True, separators=(',', ':'))}"
        for name, build in CASES.items()
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    record()
