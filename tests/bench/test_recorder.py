"""BenchRecorder measurement semantics: repeats, counters, profiling."""

import pytest

from repro.bench.profiling import profile_block
from repro.bench.recorder import BenchRecorder, peak_rss_kb
from repro.runtime import METRICS
from repro.runtime.fingerprint import circuit_fingerprint

from tests.helpers import c17


def test_warmup_runs_are_discarded_and_repeats_recorded():
    calls = []
    recorder = BenchRecorder("demo")
    result = recorder.run("case", lambda: calls.append(1) or len(calls),
                          repeats=3, warmup=2)
    assert len(calls) == 5          # 2 warmup + 3 recorded
    assert result == 5              # last invocation's return value
    (case,) = recorder.record()["cases"]
    assert len(case["samples"]) == 3


def test_counter_deltas_and_checks_rollup():
    METRICS.reset()

    def work():
        METRICS.incr("transition.checks", 7)
        METRICS.incr("floating.checks", 2)
        METRICS.incr("cache.memory_hits", 3)
        METRICS.incr("cache.misses", 1)

    recorder = BenchRecorder("demo")
    recorder.run("case", work)
    (case,) = recorder.record()["cases"]
    assert case["checks"] == 9
    assert case["counters"]["transition.checks"] == 7
    assert case["cache"] == {"hits": 3, "misses": 1, "hit_rate": 0.75}
    assert case["peak_rss_kb"] == pytest.approx(peak_rss_kb(), rel=0.5)


def test_pre_existing_counters_do_not_leak_into_the_case():
    METRICS.reset()
    METRICS.incr("transition.checks", 1000)
    recorder = BenchRecorder("demo")
    recorder.run("case", lambda: METRICS.incr("transition.checks", 5))
    (case,) = recorder.record()["cases"]
    assert case["checks"] == 5


def test_circuit_fingerprint_matches_the_runtime_cache_key():
    circuit = c17()
    recorder = BenchRecorder("demo")
    recorder.run("case", lambda: None, circuit=circuit)
    (case,) = recorder.record()["cases"]
    assert case["fingerprint"] == circuit_fingerprint(circuit)


def test_measure_exposes_elapsed_and_records_one_sample():
    recorder = BenchRecorder("demo")
    with recorder.measure("inline") as measurement:
        total = sum(range(1000))
    assert total == 499500
    assert measurement.elapsed > 0
    (case,) = recorder.record()["cases"]
    assert case["samples"] == [pytest.approx(measurement.elapsed, abs=1e-6)]


def test_failed_measure_block_records_no_sample():
    recorder = BenchRecorder("demo")
    with pytest.raises(RuntimeError):
        with recorder.measure("inline"):
            raise RuntimeError("measured code failed")
    assert recorder._cases["inline"].samples == []


def test_invalid_repeats_rejected():
    with pytest.raises(ValueError):
        BenchRecorder("demo", repeats=0)


def test_cprofile_mode_captures_in_package_frames():
    from repro.core import compute_transition_delay

    circuit = c17()
    with profile_block("cprofile") as frames:
        compute_transition_delay(circuit)
    assert frames, "expected at least one in-package frame"
    assert all(frame["site"].startswith("repro/") for frame in frames)
    assert frames == sorted(
        frames, key=lambda f: (-f["cumulative_ms"], f["site"])
    )
    assert len(frames) <= 10


def test_profile_block_rejects_unknown_mode():
    for mode in ("flamegraph", "spans"):
        with pytest.raises(ValueError, match="unknown profile mode"):
            with profile_block(mode):
                pass


def test_profile_off_modes_yield_empty_frames():
    for mode in (None, "", "off"):
        with profile_block(mode) as frames:
            pass
        assert frames == []


def test_profiled_case_lands_in_the_record():
    from repro.core import compute_floating_delay

    circuit = c17()
    recorder = BenchRecorder("demo", profile="cprofile")
    recorder.run("case", lambda: compute_floating_delay(circuit),
                 circuit=circuit)
    (case,) = recorder.record()["cases"]
    assert case.get("profile")
    assert {"site", "calls", "cumulative_ms", "own_ms"} <= set(
        case["profile"][0]
    )
    # Frame call counts are span attributes, never counters.
    assert "calls" not in case["counters"]
