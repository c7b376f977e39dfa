"""Differential oracles: all four pass on healthy scenarios, verdict
shape, and the planted divergence is caught by the incremental oracle."""

import pytest

from repro.fuzz.oracle import (
    ORACLES,
    OracleVerdict,
    run_oracle,
    run_scenario,
)
from repro.fuzz.runner import run_sweep
from repro.fuzz.scenario import Scenario, scenario_for

from tests.helpers import counted_checks, result_cache_off


@pytest.fixture(scope="module")
def scenario():
    return scenario_for(42, 0)


class TestHealthyScenarios:
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_oracle_passes(self, scenario, oracle):
        verdict = run_oracle(scenario, oracle)
        assert verdict.ok, verdict.detail
        assert verdict.oracle == oracle
        assert verdict.scenario_id == scenario.scenario_id

    def test_run_scenario_covers_all_in_order(self, scenario):
        verdicts = run_scenario(scenario)
        assert [v.oracle for v in verdicts] == list(ORACLES)
        assert all(v.ok for v in verdicts)

    def test_subset_selection(self, scenario):
        verdicts = run_scenario(scenario, oracles=("wordsim",))
        assert [v.oracle for v in verdicts] == ["wordsim"]

    def test_jobs_oracle_with_shards(self):
        # A couple of scenarios through the jobs oracle at oracle_jobs=2:
        # the sharded path must agree with serial byte for byte.
        for index in range(2):
            verdict = run_oracle(
                scenario_for(42, index), "jobs", oracle_jobs=2
            )
            assert verdict.ok, verdict.detail

    def test_jobs_oracle_passes_when_no_output_transitions(self):
        # XOR(a, a) never changes, so there are no pairs to replay.
        quiet = Scenario(
            "quiet", 1, "quiet", "INPUT(a)\nOUTPUT(z)\nz = XOR(a, a)\n"
        )
        verdict = run_oracle(quiet, "jobs", oracle_jobs=2)
        assert verdict.ok
        assert verdict.detail == "pairs=0"


def test_fixed_seed_sweep_passes_with_pinned_checks(monkeypatch):
    """Six seed-5 scenarios through all four oracles pass, for exactly
    these checks.  An increase is a regression; a decrease is
    re-recorded in a commit of its own."""
    result_cache_off(monkeypatch)
    with counted_checks() as checks:
        report = run_sweep(seed=5, count=6, shrink_failures=False)
    assert report.ok, report.verdict_text()
    assert checks == {"floating.checks": 385, "transition.checks": 491}


class TestVerdictShape:
    def test_verdict_line_format(self, scenario):
        verdict = run_oracle(scenario, "wordsim")
        line = verdict.verdict_line()
        sid, oracle, status, detail = line.split("\t")
        assert sid == scenario.scenario_id
        assert oracle == "wordsim"
        assert status == "PASS"

    def test_round_trip_dict(self, scenario):
        verdict = run_oracle(scenario, "cache")
        back = OracleVerdict.from_dict(verdict.to_dict())
        assert back == verdict

    def test_unknown_oracle_rejected(self, scenario):
        with pytest.raises(ValueError):
            run_oracle(scenario, "astrology")


class TestPlantedDivergence:
    def test_plant_fails_incremental_iff_xor_present(self):
        from repro.fuzz.oracle import edited_circuit
        from repro.network.gates import GateType

        hits = 0
        for index in range(8):
            scenario = scenario_for(42, index)
            circuit = edited_circuit(scenario)
            has_xor = any(
                node.gate_type in (GateType.XOR, GateType.XNOR)
                for node in circuit.nodes()
            )
            verdict = run_oracle(scenario, "incremental", plant="xor")
            assert verdict.ok == (not has_xor), scenario.scenario_id
            hits += int(has_xor)
        assert hits > 0  # the sweep actually exercised the plant

    def test_failure_captures_checks_and_metrics(self):
        for index in range(8):
            scenario = scenario_for(42, index)
            verdict = run_oracle(scenario, "incremental", plant="xor")
            if not verdict.ok:
                assert verdict.expected != verdict.actual
                assert isinstance(verdict.metrics, dict)
                return
        pytest.fail("no planted failure in the first 8 scenarios")

    def test_plant_does_not_leak_into_other_oracles(self):
        scenario = scenario_for(42, 0)
        for oracle in ("jobs", "wordsim", "cache"):
            assert run_oracle(scenario, oracle, plant="xor").ok
