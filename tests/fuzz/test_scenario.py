"""Scenario layer: deterministic streams, serialisation, materialise."""

import random

from repro.fuzz.scenario import (
    CORNER_KINDS,
    Corner,
    Scenario,
    apply_edits,
    materialize,
    random_edit,
    scenario_for,
    scenario_stream,
    snapshot_circuit,
)
from repro.runtime.fingerprint import circuit_fingerprint

from tests.helpers import c17


class TestDeterminism:
    def test_same_seed_same_scenario(self):
        a = scenario_for(13, 2)
        b = scenario_for(13, 2)
        assert a == b
        assert circuit_fingerprint(materialize(a)) == (
            circuit_fingerprint(materialize(b))
        )

    def test_different_indices_differ(self):
        a = scenario_for(13, 0)
        b = scenario_for(13, 1)
        assert a.scenario_id != b.scenario_id
        assert a != b

    def test_stream_matches_pointwise_draws(self):
        streamed = scenario_stream(seed=4, count=5)
        assert [s.scenario_id for s in streamed] == [
            f"s4x{i}" for i in range(5)
        ]
        assert streamed[3] == scenario_for(4, 3)

    def test_corner_kinds_drawn_from_catalog(self):
        kinds = {
            scenario_for(1, i).corner.kind for i in range(30)
        }
        assert kinds <= set(CORNER_KINDS)
        assert len(kinds) >= 3  # the draw actually mixes corners


class TestSerialisation:
    def test_round_trip_dict(self):
        scenario = scenario_for(7, 1)
        data = scenario.to_dict()
        back = Scenario.from_dict(data)
        assert back == scenario
        # The dict is JSON-plain: no tuples, no custom objects.
        import json

        assert json.loads(json.dumps(data)) == data

    def test_corner_round_trip(self):
        corner = Corner(kind="clocked", options=(("skew", 2),))
        assert Corner.from_dict(corner.to_dict()) == corner
        assert corner.option("skew", 0) == 2
        assert corner.option("missing", 9) == 9


class TestMaterialise:
    def test_journal_starts_empty(self):
        scenario = scenario_for(3, 0)
        circuit = materialize(scenario)
        assert circuit.journal_length == 0
        circuit.validate()

    def test_delays_applied(self):
        scenario = scenario_for(3, 0)
        circuit = materialize(scenario)
        for name, delay in scenario.delays.items():
            assert circuit.node(name).delay == delay

    def test_snapshot_round_trips(self):
        original = materialize(scenario_for(9, 2))
        bench_text, delays = snapshot_circuit(original)
        clone = materialize(
            Scenario(
                scenario_id="t",
                seed=0,
                circuit_name=original.name,
                bench_text=bench_text,
                delays=delays,
                corner=Corner(kind="fixed", options=()),
                edits=(),
            )
        )
        assert circuit_fingerprint(clone) == circuit_fingerprint(original)


class TestEdits:
    def test_random_edit_applies(self):
        circuit = materialize(scenario_for(5, 0))
        rng = random.Random("edit-test")
        applied = 0
        for __ in range(20):
            edit = random_edit(circuit, rng)
            if edit is None:
                continue
            applied += apply_edits(circuit, [edit])
            circuit.validate()
        assert applied > 0

    def test_apply_edits_skips_invalid(self):
        circuit = materialize(scenario_for(5, 1))
        bad = {"op": "set_delay", "name": "no_such_gate", "delay": 3}
        assert apply_edits(circuit, [bad]) == 0

    def test_apply_edits_skips_malformed_entries(self):
        """A hand-edited ``.repro.json`` may hold an entry with a list
        name, none at all, or one that is not an object: each is skipped
        as inapplicable, the circuit keeps its delays, and the valid edit
        after them still applies."""
        circuit = c17()
        edit = {"op": "set_delay", "name": ["G10"], "delay": 1}
        nameless = {"op": "set_delay", "delay": 1}
        delays = {node.name: node.delay for node in circuit.nodes()}
        assert apply_edits(circuit, [edit, nameless, "set_delay"]) == 0
        assert {node.name: node.delay for node in circuit.nodes()} == delays
        valid = {"op": "set_delay", "name": "G10", "delay": 4}
        assert apply_edits(circuit, [edit, valid, nameless]) == 1
        assert circuit.node("G10").delay == 4

    def test_scenario_edits_apply_to_materialised(self):
        # Every edit recorded in a scenario was drawn against the same
        # evolving circuit, so replaying them must succeed.
        for index in range(6):
            scenario = scenario_for(21, index, max_edits=4)
            circuit = materialize(scenario)
            apply_edits(circuit, scenario.edits)
            circuit.validate()
