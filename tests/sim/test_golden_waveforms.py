"""Golden waveforms: every node's full event list over a fixed set of replays.

``golden_waveforms.json`` holds, per case, the waveforms of every replay
(key order, initial value and events of every node) — verbatim for small
cases, as a digest for large ones — so a change to the event simulator
that moves one event anywhere fails here, not only one that moves a
``.delay``.  The cases cover single-stepping replays (exhaustive pairs on
c17 and the figure circuits, the zero-delay NAND glitch filter, staggered
``input_times``), clocked simulation, the sequential state-feedback loop
(injections merged into drained timestamps) and the per-output
certification pairs of c432, csa8 and c880.

Re-record only on a commit whose simulator is trusted::

    PYTHONPATH=src python -m tests.sim.test_golden_waveforms
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.circuits import build_circuit, build_fsm_logic
from repro.circuits.figures import fig3_circuit
from repro.core import collect_certification_pairs, monte_carlo_delay
from repro.fsm.sequential import SequentialSimulator
from repro.network import CircuitBuilder
from repro.runtime.cache import DelayCache
from repro.sim import EventSimulator, all_input_vectors, batch_settle

GOLDEN_PATH = Path(__file__).with_name("golden_waveforms.json")

#: Cases whose records take at most this many JSON bytes are stored
#: verbatim (a mismatch then names the replay); larger ones as a digest.
VERBATIM_BYTES = 16_000


def waveform_record(waveforms):
    """One replay as ``[[name, initial, [[time, value], ...]], ...]`` in
    the waveform set's key order."""
    return [
        [name, waveforms[name].initial,
         [[t, v] for t, v in waveforms[name].events]]
        for name in waveforms
    ]


def compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def digest(value) -> str:
    return hashlib.sha256(compact(value).encode()).hexdigest()


def glitch_nand():
    """Two inputs through a zero-delay NAND, then a unit-delay buffer."""
    b = CircuitBuilder("glitch")
    a, bb = b.inputs("a", "b")
    n = b.nand(a, bb, name="n", delay=0)
    g = b.buf(n, name="g", delay=1)
    b.output(g)
    return b.build()


def random_vectors(circuit, count, seed):
    rng = random.Random(seed)
    return [
        {name: bool(rng.getrandbits(1)) for name in circuit.inputs}
        for __ in range(count)
    ]


def all_pairs(circuit, input_times=None):
    simulator = EventSimulator(circuit)
    vectors = all_input_vectors(circuit)
    return [
        waveform_record(simulator.simulate_transition(
            prev, nxt, input_times=input_times
        ).waveforms)
        for prev in vectors
        for nxt in vectors
    ]


def staggered_c17():
    circuit = build_circuit("c17")
    times = {"G1": 0, "G2": 1, "G3": 3, "G6": 2, "G7": 5}
    vectors = random_vectors(circuit, 65, seed=17)
    simulator = EventSimulator(circuit)
    return [
        waveform_record(simulator.simulate_transition(
            prev, nxt, input_times=times
        ).waveforms)
        for prev, nxt in zip(vectors, vectors[1:])
    ]


def clocked_c17():
    circuit = build_circuit("c17")
    vectors = random_vectors(circuit, 16, seed=3)
    simulator = EventSimulator(circuit)
    records = []
    for period in (1, 2, 3):
        result = simulator.simulate_clocked(vectors, period)
        records.append(
            [waveform_record(result.waveforms), result.sampled]
        )
    return records


def sequential_sticky():
    """The state-feedback loop: every cycle's injection lands on the
    timestamp the previous ``advance`` drained, so it is merged."""
    logic = build_fsm_logic("sticky")
    rng = random.Random(5)
    sequence = [
        [bool(rng.getrandbits(1)) for __ in logic.input_names]
        for __ in range(24)
    ]
    records = []
    for period in (3, 5, 8):
        machine = SequentialSimulator(logic, period)
        sessions = []
        open_session = machine._simulator.session

        def capture(inputs):
            sessions.append(open_session(inputs))
            return sessions[-1]

        machine._simulator.session = capture
        trace = machine.run(sequence)
        records.append([
            waveform_record(sessions[0].waveforms),
            trace.states, trace.outputs,
        ])
    return records


def certification_pairs(name):
    """Per-output certification pairs, replayed from scalar settles and
    from one word-level batch settle (the two must agree)."""
    circuit = build_circuit(name)
    found = collect_certification_pairs(
        circuit, cache=DelayCache(enabled=False)
    )
    pairs = [pair for __, pair in found.values()]
    simulator = EventSimulator(circuit)
    scalar = [
        waveform_record(
            simulator.simulate_transition(p.v_prev, p.v_next).waveforms
        )
        for p in pairs
    ]
    initials = batch_settle(circuit, [p.v_prev for p in pairs])
    batched = [
        waveform_record(simulator.simulate_transition(
            p.v_prev, p.v_next, initial=initial
        ).waveforms)
        for p, initial in zip(pairs, initials)
    ]
    assert batched == scalar
    return scalar


def monte_carlo_c432():
    circuit = build_circuit("c432")
    found = collect_certification_pairs(
        circuit, cache=DelayCache(enabled=False)
    )
    pairs = [pair for __, pair in found.values()]
    return monte_carlo_delay(circuit, pairs, num_samples=8, seed=11).samples


CASES = {
    "c17/all-pairs": lambda: all_pairs(build_circuit("c17")),
    "fig1/all-pairs": lambda: all_pairs(build_circuit("fig1")),
    "fig2/all-pairs": lambda: all_pairs(build_circuit("fig2")),
    "fig5/all-pairs": lambda: all_pairs(build_circuit("fig5")),
    "glitch-nand/all-pairs": lambda: all_pairs(glitch_nand()),
    "fig3/input-times": lambda: all_pairs(*fig3_circuit()),
    "c17/input-times": staggered_c17,
    "c17/clocked": clocked_c17,
    "sticky/sequential": sequential_sticky,
    "c432/certification-pairs": lambda: certification_pairs("c432"),
    "csa8/certification-pairs": lambda: certification_pairs("csa8"),
    "c880/certification-pairs": lambda: certification_pairs("c880"),
    "c432/monte-carlo": monte_carlo_c432,
}


def case_entry(records) -> dict:
    entry = {"replays": len(records), "digest": digest(records)}
    if len(compact(records)) <= VERBATIM_BYTES:
        entry["records"] = records
    return entry


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_waveforms_match_golden(golden, case):
    want = golden[case]
    records = json.loads(json.dumps(CASES[case]()))
    assert len(records) == want["replays"]
    if "records" in want:
        for index, (got, expected) in enumerate(
            zip(records, want["records"])
        ):
            assert got == expected, f"{case}: replay {index} differs"
    assert digest(records) == want["digest"], case


def record() -> None:
    lines = [
        f"{json.dumps(name)}: {compact(case_entry(build()))}"
        for name, build in CASES.items()
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    record()
