"""Property: random journal-edit sequences, incremental == from-scratch.

Circuits and edits both come from the shared fuzz corpus generators
(:mod:`repro.fuzz.generate` / :mod:`repro.fuzz.scenario`) — the same
draws ``trued fuzz`` sweeps, so a divergence found here is directly
expressible as a fuzz scenario and vice versa."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits.generators import random_logic
from repro.fuzz.generate import random_gate_circuit
from repro.fuzz.scenario import apply_edits, random_edit
from repro.incremental import IncrementalTimingEngine, KINDS, cold_query
from repro.runtime import WorkerPool
from repro.runtime.fingerprint import cone_fingerprint, cone_shape


def assert_cone_maps_current(engine, circuit):
    """The cone memberships, shapes and keys the engine keeps between
    queries are those a from-scratch walk of the edited circuit gives."""
    for out, (fanin, shape, gates) in engine._members.items():
        assert fanin == circuit.transitive_fanin([out])
        assert (shape, gates) == cone_shape(circuit, out)
        assert all(gate is circuit.node(gate.name) for gate in gates)
    for out, (key, tokens) in engine._keys.items():
        assert key == cone_fingerprint(circuit, out)
        for kind, token in tokens.items():
            assert token == engine.cache.token_for(key, kind)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 50),
    edit_seed=st.integers(0, 10_000),
    num_edits=st.integers(1, 4),
)
def test_random_edit_sequences_match_cold_rebuild(
    seed, edit_seed, num_edits
):
    circuit = random_gate_circuit(
        seed, num_inputs=5, num_gates=15, max_delay=2, num_outputs=3
    )
    engine = IncrementalTimingEngine(circuit)
    for kind in ("transition", "floating"):
        engine.query(kind)
        assert_cone_maps_current(engine, circuit)
    rng = random.Random(f"prop-edit:{edit_seed}")
    for __ in range(num_edits):
        edit = random_edit(circuit, rng, max_delay=3)
        if edit is not None:
            apply_edits(circuit, [edit])
        circuit.validate()
        # Floating re-queries start from the last served floating delay
        # when only delay edits reached the output since.
        for kind in ("transition", "floating"):
            assert engine.query(kind).record_json() == (
                cold_query(circuit, kind).record_json()
            )
            assert_cone_maps_current(engine, circuit)
    # After the whole sequence every kind agrees with a fresh rebuild.
    for kind in KINDS:
        assert engine.query(kind).record_json() == (
            cold_query(circuit, kind).record_json()
        )
        assert_cone_maps_current(engine, circuit)


@pytest.fixture
def pool4():
    """A caller-owned pool of 4 workers, as the query service keeps."""
    pool = WorkerPool(jobs=4)
    yield pool
    pool.close()


@pytest.mark.parametrize("kind", ["floating", "transition"])
def test_fixed_edit_sequence_matches_cold_rebuild_at_jobs_4(kind, pool4):
    """The sharded route under a fixed what-if session: jobs=4 equals the
    serial from-scratch rebuild byte for byte, and after delay-only edits
    (which bound the floating searches) it makes the serial engine's
    checks on the same cones."""
    circuit = random_logic(
        num_inputs=8, num_gates=80, num_outputs=6, seed=23
    )
    engine = IncrementalTimingEngine(circuit, pool=pool4)
    serial = IncrementalTimingEngine(circuit)
    engine.query(kind)
    serial.query(kind)
    gates = circuit.gate_names()
    circuit.set_delay(gates[3], 3)
    circuit.replace_gate(gates[40], delay=0)
    fanins = list(circuit.node(gates[60]).fanins)
    fanins[-1] = circuit.inputs[1]
    circuit.rewire(gates[60], fanins)
    incremental = engine.query(kind)
    cold = cold_query(circuit, kind)  # serial reference
    assert incremental.record_json() == cold.record_json()
    serial.query(kind)  # serves the answers the sharded engine serves

    for step_a, step_b in ((2, 0), (1, -1), (-2, 2)):
        for step, edited in ((step_a, gates[5:15]), (step_b, gates[20:30])):
            for gate in edited:
                delay = circuit.node(gate).delay
                circuit.set_delay(gate, max(0, delay + step))
        sharded, expected = engine.query(kind), serial.query(kind)
        assert sharded.record_json() == expected.record_json()
        assert sharded.record_json() == (
            cold_query(circuit, kind).record_json()
        )
        assert sharded.stats["evaluated_cones"] > 1
        for field in ("checks", "evaluated_cones"):
            assert sharded.stats[field] == expected.stats[field]
