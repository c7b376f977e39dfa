"""Golden shrinker test: a planted divergence shrinks to a minimal,
replayable scenario that still contains the triggering XOR gate."""

import json

import pytest

from repro.fuzz.oracle import edited_circuit, run_oracle
from repro.fuzz.runner import (
    REPRO_VERSION,
    load_repro,
    replay_repro,
    run_sweep,
    write_repro,
)
from repro.fuzz.scenario import scenario_for
from repro.fuzz.shrink import scenario_size, shrink_scenario
from repro.network.gates import GateType


def xor_count(scenario):
    return sum(
        node.gate_type in (GateType.XOR, GateType.XNOR)
        for node in edited_circuit(scenario).nodes()
    )


def planted_scenario(seed=42, limit=10):
    for index in range(limit):
        scenario = scenario_for(seed, index)
        if not run_oracle(scenario, "incremental", plant="xor").ok:
            return scenario
    pytest.fail("no planted failure found")


class TestShrink:
    def fails(self, scenario):
        return not run_oracle(scenario, "incremental", plant="xor").ok

    def test_golden_planted_divergence_shrinks_small(self):
        scenario = planted_scenario()
        result = shrink_scenario(scenario, self.fails)
        final = result.scenario
        # Still failing, dramatically smaller, and the cause survives:
        # at least one XOR/XNOR gate remains (the plant triggers on it).
        assert self.fails(final)
        assert result.final_size < result.original_size
        assert xor_count(final) >= 1
        circuit = edited_circuit(final)
        assert circuit.num_gates <= 4
        assert tuple(final.edits) == ()
        assert final.corner.kind == "fixed"

    def test_shrink_is_deterministic(self):
        scenario = planted_scenario()
        a = shrink_scenario(scenario, self.fails)
        b = shrink_scenario(scenario, self.fails)
        assert a.scenario == b.scenario
        assert a.evaluations == b.evaluations

    def test_shrink_rejects_passing_input(self):
        scenario = scenario_for(42, 0)
        with pytest.raises(ValueError):
            shrink_scenario(scenario, lambda s: False)

    def test_scenario_size_orders_by_gates_first(self):
        big = scenario_for(42, 0)
        assert scenario_size(big) > (0, 0, 0, 0, 0)


class TestReproEnvelope:
    def test_sweep_writes_replayable_repro(self, tmp_path):
        report = run_sweep(
            seed=42,
            count=6,
            oracles=("incremental",),
            plant="xor",
            out_dir=str(tmp_path),
            shrink_budget=120,
        )
        assert report.failures
        assert report.repro_paths
        for path in report.repro_paths:
            envelope = json.loads(open(path).read())
            assert envelope["format"] == "trued-fuzz-repro"
            assert envelope["version"] == REPRO_VERSION == 2
            assert envelope["failure"]["ok"] is False
            reproduced, verdicts = replay_repro(path)
            assert reproduced
            assert verdicts and not verdicts[0].ok

    def test_repro_shrunk_scenario_is_small(self, tmp_path):
        report = run_sweep(
            seed=42,
            count=6,
            oracles=("incremental",),
            plant="xor",
            out_dir=str(tmp_path),
            shrink_budget=120,
        )
        envelope = load_repro(report.repro_paths[0])
        from repro.fuzz.scenario import Scenario

        scenario = Scenario.from_dict(envelope["scenario"])
        assert edited_circuit(scenario).num_gates <= 4
        assert envelope["shrink"]["evaluations"] > 0

    def test_write_load_round_trip(self, tmp_path):
        from repro.fuzz.runner import _repro_envelope

        scenario = planted_scenario()
        verdict = run_oracle(scenario, "incremental", plant="xor")
        path = str(tmp_path / "x.repro.json")
        envelope = _repro_envelope(
            scenario, verdict, ("incremental",), "xor", None
        )
        write_repro(path, envelope)
        loaded = load_repro(path)
        assert loaded["scenario"]["scenario_id"] == scenario.scenario_id
        assert replay_repro(path)[0]

    def test_load_rejects_version_1(self, tmp_path):
        """Version 1 wrote ``replace_gate``'s type as ``gate``, which the
        serve edit format would replay as another edit."""
        path = tmp_path / "old.repro.json"
        path.write_text(
            json.dumps({"format": "trued-fuzz-repro", "version": 1})
        )
        with pytest.raises(ValueError, match="repro version 1 .*re-run"):
            load_repro(str(path))

    def test_load_rejects_foreign_format(self, tmp_path):
        path = tmp_path / "bad.repro.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            load_repro(str(path))
