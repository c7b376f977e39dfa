"""Sharded execution equals serial execution, result for result.

These tests spin up real worker processes (jobs=2) on small circuits, so
they double as a determinism check of the canonical engine variable order:
a worker process must find the *same* witness pairs as the serial path.
"""

from pathlib import Path

import pytest

from repro.characterize import load_spec, plan_jobs, run_plan
from repro.circuits import build_circuit
from repro.core import (
    PathFaultGenerator,
    certify,
    collect_certification_pairs,
    monte_carlo_delay,
    uniform_variation,
)
from repro.fuzz import run_sweep
from repro.incremental import IncrementalTimingEngine
from repro.runtime import (
    TASK_KINDS,
    DelayCache,
    WorkerPool,
    metrics_scope,
    resolve_jobs,
)
from repro.runtime.parallel import _chunk_round_robin, sample_seed, shard_map

from tests.helpers import c17, counted_checks, result_cache_off

FIGURES_SPEC = (
    Path(__file__).resolve().parents[2] / "examples"
    / "characterize_figures.toml"
)


def test_resolve_jobs_normalises():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) >= 1          # all cores
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(8, task_count=3) == 3
    assert resolve_jobs(2, task_count=0) == 1


def test_round_robin_chunking_partitions_in_order():
    chunks = _chunk_round_robin(["a", "b", "c", "d", "e"], 2)
    assert chunks == [["a", "c", "e"], ["b", "d"]]
    assert _chunk_round_robin(["x"], 4) == [["x"]]


def test_sample_seed_is_stable_and_distinct():
    assert sample_seed(97, 0) == "mc:97:0"
    assert sample_seed(97, 0) != sample_seed(97, 1)
    assert sample_seed(97, 1) != sample_seed(98, 1)


def test_certification_pairs_on_c880_make_no_checks(monkeypatch):
    """The per-output queries on a medium circuit move no ``*.checks``
    counter (pairs count SAT probes under ``pairs.sat_probes``)."""
    result_cache_off(monkeypatch)
    with counted_checks() as checks:
        collect_certification_pairs(build_circuit("c880"))
    assert checks == {}


def c17_monte_carlo_context():
    """A picklable ``monte-carlo`` context: c17, its certification
    pairs, a seed and the spec of the default delay model."""
    circuit = c17()
    pairs = [p for __, p in collect_certification_pairs(circuit).values()]
    return circuit, pairs, 7, uniform_variation(1).spec


def test_monte_carlo_is_jobs_count_invariant():
    circuit = c17()
    pairs = [p for __, p in collect_certification_pairs(circuit).values()]
    kwargs = dict(
        num_samples=12, delay_model=uniform_variation(1), seed=11
    )
    with metrics_scope() as serial_metrics:
        monte_carlo_delay(circuit, pairs, jobs=1, **kwargs)
    with metrics_scope() as sharded_metrics:
        two = monte_carlo_delay(circuit, pairs, jobs=2, **kwargs)
    three = monte_carlo_delay(circuit, pairs, jobs=3, **kwargs)
    assert two.samples == three.samples
    assert two.max == three.max
    assert serial_metrics.counter("monte_carlo.samples") == (
        sharded_metrics.counter("monte_carlo.samples")
    ) == 12


def test_fault_coverage_sharded_matches_serial():
    circuit = c17()
    # The serial route counts the probes of this call only, not those of
    # the generator's earlier calls.
    generator = PathFaultGenerator(circuit)
    generator.generate_for_longest_paths(1, jobs=1)
    with metrics_scope() as serial_metrics:
        serial = generator.generate_for_longest_paths(3, jobs=1)
    with metrics_scope() as sharded_metrics:
        sharded = PathFaultGenerator(circuit).generate_for_longest_paths(
            3, jobs=2
        )
    assert serial_metrics.counter("faults.sat_probes") == (
        sharded_metrics.counter("faults.sat_probes")
    ) == 6
    assert serial.total == sharded.total
    assert len(serial.tests) == len(sharded.tests)
    for a, b in zip(serial.tests, sharded.tests):
        assert str(a.fault) == str(b.fault)
        assert a.pair.v_prev == b.pair.v_prev
        assert a.pair.v_next == b.pair.v_next
    assert [str(f) for f in serial.untestable] == [
        str(f) for f in sharded.untestable
    ]


def test_consecutive_runs_number_their_tasks_from_zero(monkeypatch):
    """Task indices restart at 0 in every run: under ``crash:0`` each of
    two runs on one warm pool loses its own task 0 and still returns the
    jobs=1 result, in one pool round whose failed chunks finish
    in-process.  The serve crash replays rely on this (every query's
    first round degrades the same way)."""
    context = c17_monte_carlo_context()
    serial = shard_map("monte-carlo", context, range(6), 1)
    monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:0")
    pool = WorkerPool(2)
    try:
        for __ in range(2):
            rounds = pool.stats()["rounds"]
            with metrics_scope() as metrics:
                assert shard_map(
                    "monte-carlo", context, range(6), 2, pool=pool
                ) == serial
            # Numbering carried over from the first run would give the
            # second run tasks 2 and 3, and the fault would not fire.
            # (The crash may also take the other chunk down with the
            # pool.)
            assert metrics.counter("parallel.chunk_failures") >= 1
            assert metrics.counter("transport.degraded") == 1
            assert metrics.counter("parallel.serial_fallback_items") >= 3
            assert "parallel.retries" not in metrics.snapshot()["counters"]
            assert pool.stats()["rounds"] == rounds + 1
    finally:
        pool.close()


def test_unknown_label_is_rejected_before_any_round_runs():
    """`shard_map` only runs registered task kinds, so an unknown label
    is a caller error raised in the parent: the pool runs no round and
    starts no worker."""
    pool = WorkerPool(jobs=2)
    try:
        with pytest.raises(ValueError, match="unknown shard task kind"):
            shard_map("not-a-real-label", None, [1, 2, 3], 2, pool=pool)
        assert pool.stats()["rounds"] == 0
        assert pool.builds == 0
    finally:
        pool.close()


def test_caller_owned_pool_is_neither_closed_nor_rebuilt():
    """A pool the caller passes in serves each run and is left open for
    the next one (the query service keeps one for its lifetime)."""
    context = c17_monte_carlo_context()
    pool = WorkerPool(jobs=2)
    try:
        first = shard_map("monte-carlo", context, range(6), 2, pool=pool)
        second = shard_map("monte-carlo", context, range(6), 2, pool=pool)
        assert first == second
        stats = pool.stats()
        assert stats["rounds"] == 2
        assert stats["restarts"] == 0
        assert stats["live"] is True
    finally:
        pool.close()


def _run_label(label: str, jobs: int) -> None:
    """One run of the ``label`` fan-out through its public caller."""
    if label == "faults":
        PathFaultGenerator(build_circuit("c432")).generate_for_longest_paths(
            4, jobs=jobs
        )
    elif label == "cones":
        # The engine shards only over a pool its caller owns.
        pool = WorkerPool(jobs) if jobs != 1 else None
        try:
            IncrementalTimingEngine(
                build_circuit("rand210"), cache=DelayCache(enabled=False),
                pool=pool,
            ).query("transition")
        finally:
            if pool is not None:
                pool.close()
    elif label == "monte-carlo":
        pairs = [p for __, p in collect_certification_pairs(c17()).values()]
        monte_carlo_delay(c17(), pairs, num_samples=8, jobs=jobs)
    elif label == "characterize":
        spec = load_spec(FIGURES_SPEC)
        run_plan(spec, plan_jobs(spec), jobs=jobs)
    else:
        run_sweep(seed=5, count=3, jobs=jobs, shrink_failures=False)


#: Counters whose value may depend on the route: each worker settles
#: its own chunk.
ROUTE_DEPENDENT_PREFIXES = ("wordsim.",)
#: The runtime's own accounting of pool rounds.
RUNTIME_PREFIXES = ("parallel.", "transport.")


@pytest.mark.parametrize("label", sorted(TASK_KINDS))
def test_every_label_records_the_same_counts_at_any_jobs(label, monkeypatch):
    """Each fan-out runs one worker on both routes, so ``jobs=2`` records
    every counter ``jobs=1`` records, with the same ``#check``, SAT
    probe, sample and cone-check counts (a sharded what-if query used to
    drop ``transition.checks`` and ``transition.functions_built``)."""
    result_cache_off(monkeypatch)
    recorded = {}
    for jobs in (1, 2):
        with metrics_scope() as metrics:
            _run_label(label, jobs)
        recorded[jobs] = metrics.snapshot()
    serial = recorded[1]["counters"]
    sharded = {
        name: value for name, value in recorded[2]["counters"].items()
        if not name.startswith(RUNTIME_PREFIXES)
    }
    assert set(serial) == set(sharded)
    assert set(recorded[1]["gauges"]) == set(recorded[2]["gauges"])
    same = {
        name for name in serial
        if not name.startswith(ROUTE_DEPENDENT_PREFIXES)
    }
    assert {name: sharded[name] for name in same} == {
        name: serial[name] for name in same
    }
    assert any(
        name.endswith((".checks", ".sat_probes")) for name in same
    ), serial
    if label == "cones":
        assert serial["transition.checks"] == 75
    if label == "monte-carlo":
        assert serial["monte_carlo.samples"] == 8


def test_certify_records_the_same_counts_at_any_jobs(monkeypatch):
    """``jobs`` shards only certify's Monte Carlo follow-up; its pairs
    come from its own transition analysis on every route, so ``jobs=2``
    records the counters ``jobs=1`` does, with the same values."""
    result_cache_off(monkeypatch)
    recorded = {}
    for jobs in (1, 2):
        with metrics_scope() as metrics:
            certify(build_circuit("c432"), statistical_samples=8, jobs=jobs)
        recorded[jobs] = {
            name: value
            for name, value in metrics.snapshot()["counters"].items()
            if not name.startswith(RUNTIME_PREFIXES + ROUTE_DEPENDENT_PREFIXES)
        }
    assert recorded[2] == recorded[1]
    assert recorded[1]["floating.checks"] == 1
    assert recorded[1]["floating.functions_built"] == 48
    assert recorded[1]["monte_carlo.samples"] == 8
