"""Runner + collate: measured values, determinism, and caching."""

import json
import time
from pathlib import Path

import pytest

from repro.characterize import (
    load_spec,
    normalized,
    parse_spec,
    plan_jobs,
    run_plan,
    run_spec,
    validate_datasheet,
)
from repro.characterize.runner import execute_payload
from repro.runtime.cache import DelayCache

from tests.helpers import counted_checks, result_cache_off


FIGURES_SPEC = (
    Path(__file__).resolve().parents[2] / "examples"
    / "characterize_figures.toml"
)

#: ``*.checks`` of one cold run of ``FIGURES_SPEC``, at any jobs count.
#: An increase is a regression; a decrease is re-recorded in a commit of
#: its own.
FIGURES_COLD_CHECKS = {
    "floating.checks": 14, "transition.checks": 4, "bounded.checks": 7,
}


def small_document():
    return {
        "spec": {"id": "rt", "circuits": ["fig1", "fig5"]},
        "corners": {
            "fixed": {"kind": "fixed"},
            "skewed": {"kind": "clocked", "skew": 1},
            "speedup": {"kind": "bounded"},
            "mc": {"kind": "statistical", "samples": 12, "seed": 7},
        },
        "parameter": [
            {"id": "tau", "kind": "clock_period", "max": 5},
            {"id": "fs", "kind": "floating_slack", "min": 0},
            {"id": "ts", "kind": "transition_slack", "min": 0},
            {"id": "tau-skew", "kind": "clock_period", "max": 6,
             "corner": "skewed"},
            {"id": "bd", "kind": "bounded_delay", "max": 5},
            {"id": "cov", "kind": "fault_coverage", "min": 0.5,
             "paths": 2},
            {"id": "y", "kind": "yield", "min": 0.1},
        ],
    }


def canonical(document):
    return json.dumps(normalized(document), sort_keys=True)


class TestExecutePayload:
    def test_certify_result_shape(self):
        result = execute_payload({
            "circuit": "fig1", "analysis": "certify",
            "engine": "auto", "options": {},
        })
        assert result["topological"] == 5
        assert result["floating"] == 5
        assert result["transition"] == 5
        assert result["min_period"] == 5
        assert result["verdict"] == "CERTIFIED"
        assert result["checks"] > 0

    def test_monte_carlo_no_activity_circuit_is_graceful(self):
        # fig2's output never transitions: no pairs, empty samples, and a
        # note — not an exception.
        result = execute_payload({
            "circuit": "fig2", "analysis": "monte_carlo",
            "engine": "auto",
            "options": {"model": "uniform", "spread": 1,
                        "samples": 4, "seed": 1},
        })
        assert result["pairs_used"] == 0
        assert result["samples"] == []
        assert "no certification pairs" in result["note"]

    def test_unknown_analysis_raises(self):
        with pytest.raises(ValueError, match="unknown characterize"):
            execute_payload({
                "circuit": "fig1", "analysis": "wavelet",
                "engine": "auto", "options": {},
            })


class TestRunSpec:
    def test_datasheet_validates_and_passes(self):
        document = run_spec(parse_spec(small_document()))
        assert validate_datasheet(document) == []
        assert document["verdict"] == "PASS"
        by_id = {p["id"]: p for p in document["parameters"]}
        assert by_id["tau"]["rows"][0]["measured"] == 5
        assert by_id["fs"]["rows"][0]["measured"] == 0
        # Yield rows carry the gamma..delta curve of Sec. VII.
        yrow = by_id["y"]["rows"][0]
        assert yrow["gamma"] <= yrow["delta"]
        assert yrow["curve"][0][0] == yrow["gamma"]
        assert yrow["curve"][-1][0] == yrow["delta"]

    def test_failing_target_fails_datasheet(self):
        document = small_document()
        document["parameter"] = [
            {"id": "tau", "kind": "clock_period", "max": 1},
        ]
        sheet = run_spec(parse_spec(document))
        assert sheet["verdict"] == "FAIL"
        assert sheet["parameters"][0]["pass"] is False
        assert sheet["counters"]["parameters_passed"] == 0

    def test_jobs_invariance(self):
        spec = parse_spec(small_document())
        serial = run_spec(spec, jobs=1)
        sharded = run_spec(spec, jobs=3)
        assert canonical(serial) == canonical(sharded)

    def test_warm_cache_reproduces_and_hits(self):
        spec = parse_spec(small_document())
        cache = DelayCache(enabled=True)
        cold = run_spec(spec, jobs=1, cache=cache)
        warm = run_spec(spec, jobs=4, cache=cache)
        assert canonical(cold) == canonical(warm)
        assert cold["provenance"]["cache"]["job_hits"] == 0
        assert warm["provenance"]["cache"]["job_hits"] == len(
            cold["jobs"]
        )
        assert warm["provenance"]["cache"]["hits"] > 0
        assert warm["provenance"]["cache"]["misses"] == 0

    def test_provenance_is_the_only_nondeterminism(self):
        spec = parse_spec(small_document())
        document = run_spec(spec)
        assert "provenance" in document
        stripped = normalized(document)
        assert "provenance" not in stripped
        # normalized() must not mutate its input.
        assert "provenance" in document


    def test_figures_spec_cold_warm_and_sharded(self, tmp_path, monkeypatch):
        """``examples/characterize_figures.toml`` end to end: it passes;
        a warm rerun serves every job from the cache, reproduces the
        normalized datasheet, makes no checks and takes under half the
        cold time (a hit skips the whole analysis, so the margin is
        wide); jobs=4 without a cache gives the same datasheet for the
        same checks."""
        result_cache_off(monkeypatch)
        spec = load_spec(FIGURES_SPEC)
        cache = DelayCache(cache_dir=str(tmp_path))

        with counted_checks() as cold_checks:
            start = time.perf_counter()
            cold = run_spec(spec, jobs=1, cache=cache)
            cold_s = time.perf_counter() - start
        assert cold["verdict"] == "PASS"
        assert cold["provenance"]["cache"]["job_hits"] == 0

        with counted_checks() as warm_checks:
            start = time.perf_counter()
            warm = run_spec(spec, jobs=1, cache=cache)
            warm_s = time.perf_counter() - start
        assert canonical(warm) == canonical(cold)
        assert warm["provenance"]["cache"]["job_hits"] == len(cold["jobs"])
        assert warm["provenance"]["cache"]["hits"] > 0
        assert warm_s < cold_s / 2

        with counted_checks() as sharded_checks:
            sharded = run_spec(spec, jobs=4, cache=None)
        assert canonical(sharded) == canonical(cold)

        assert cold_checks == FIGURES_COLD_CHECKS
        assert warm_checks == {}
        assert sharded_checks == FIGURES_COLD_CHECKS


class TestRunPlan:
    def test_results_keyed_by_job_id(self):
        spec = parse_spec(small_document())
        plan = plan_jobs(spec)
        results = run_plan(spec, plan)
        assert set(results) == {job.job_id for job in plan}

    def test_cache_serves_subset_reruns(self):
        # A second spec sharing circuits + corners reuses cached jobs even
        # though its parameter set differs: keys are content-addressed.
        cache = DelayCache(enabled=True)
        spec = parse_spec(small_document())
        run_plan(spec, plan_jobs(spec), cache=cache)
        document = small_document()
        document["spec"]["id"] = "rt2"
        document["parameter"] = [
            {"id": "tau", "kind": "clock_period", "max": 5},
        ]
        spec2 = parse_spec(document)
        plan2 = plan_jobs(spec2)
        from repro.runtime.metrics import METRICS

        before = METRICS.counter("characterize.job_cache_hits")
        run_plan(spec2, plan2, cache=cache)
        assert METRICS.counter(
            "characterize.job_cache_hits"
        ) - before == len(plan2)
