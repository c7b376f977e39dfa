"""Sharded execution equals serial execution, result for result.

These tests spin up real worker processes (jobs=2) on small circuits, so
they double as a determinism check of the canonical engine variable order:
a worker process must find the *same* witness pairs as the serial path.
"""

import pytest

from repro.circuits import build_circuit
from repro.core import (
    PathFaultGenerator,
    collect_certification_pairs,
    monte_carlo_delay,
    uniform_variation,
)
from repro.runtime import LocalPoolTransport, metrics_scope, resolve_jobs
from repro.runtime.parallel import _chunk_round_robin, sample_seed, shard_map

from tests.helpers import c17, counted_checks, result_cache_off, shard_pairs


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


def test_sharded_certification_pairs_match_serial(monkeypatch):
    result_cache_off(monkeypatch)
    circuit = c17()
    with metrics_scope() as serial_metrics:
        serial = collect_certification_pairs(circuit, jobs=1)
    with metrics_scope() as sharded_metrics:
        sharded = shard_pairs(circuit, jobs=2)
    # Both routes count the same SAT probes under the same name.
    assert serial_metrics.counter("pairs.sat_probes") == (
        sharded_metrics.counter("pairs.sat_probes")
    ) == 2
    assert list(sharded) == list(serial)  # declaration order preserved
    for out in serial:
        t_serial, pair_serial = serial[out]
        t_sharded, pair_sharded = sharded[out]
        assert t_serial == t_sharded
        assert pair_serial.v_prev == pair_sharded.v_prev
        assert pair_serial.v_next == pair_sharded.v_next


def test_sharded_pairs_match_serial_on_c880(monkeypatch):
    """A medium circuit at jobs=1 and jobs=4: the same pairs, and no
    ``*.checks`` counter moves on either route (pairs count SAT probes
    under ``pairs.sat_probes``)."""
    result_cache_off(monkeypatch)
    circuit = build_circuit("c880")
    with counted_checks() as serial_checks:
        serial = collect_certification_pairs(circuit, jobs=1)
    with counted_checks() as sharded_checks:
        sharded = collect_certification_pairs(circuit, jobs=4)
    assert serial_checks == sharded_checks == {}
    assert list(sharded) == list(serial)
    for out in serial:
        assert sharded[out][0] == serial[out][0], out
        assert sharded[out][1].v_prev == serial[out][1].v_prev, out
        assert sharded[out][1].v_next == serial[out][1].v_next, out


def test_collect_pairs_jobs_parameter_dispatches_identically():
    circuit = c17()
    serial = collect_certification_pairs(circuit, jobs=1)
    parallel = collect_certification_pairs(circuit, jobs=2)
    assert serial.keys() == parallel.keys()
    for out in serial:
        assert serial[out][0] == parallel[out][0]
        assert serial[out][1].v_prev == parallel[out][1].v_prev
        assert serial[out][1].v_next == parallel[out][1].v_next


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
    two runs loses its own task 0 and still returns the jobs=1 result.
    The serve crash replays rely on this (every query's first round
    degrades the same way)."""
    circuit = c17()
    serial = collect_certification_pairs(circuit, jobs=1)
    monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:0")
    for __ in range(2):
        with metrics_scope() as metrics:
            assert shard_pairs(circuit, jobs=2, retries=0) == serial
        # Numbering carried over from the first run would give the
        # second run tasks 2 and 3, and the fault would not fire.  (The
        # crash may also take the other chunk down with the pool.)
        assert metrics.counter("parallel.chunk_failures") >= 1
        assert metrics.counter("transport.degraded") == 1


def test_unknown_label_is_rejected_before_any_round_runs():
    """`shard_map` only runs registered task kinds, so an unknown label
    is a caller error raised in the parent: the pool runs no round and
    starts no worker."""
    pool = LocalPoolTransport(jobs=2)
    try:
        with pytest.raises(ValueError, match="unknown shard task kind"):
            shard_map("not-a-real-label", None, [1, 2, 3], 2, transport=pool)
        assert pool.stats()["rounds"] == 0
        assert pool.builds == 0
    finally:
        pool.close()


def test_caller_owned_pool_is_neither_closed_nor_rebuilt():
    """A pool the caller passes in serves each run and is left open for
    the next one (the query service keeps one for its lifetime)."""
    circuit = c17()
    context = (circuit, "auto", None)
    outputs = list(circuit.outputs)
    pool = LocalPoolTransport(jobs=2)
    try:
        first = shard_map("pairs", context, outputs, 2, transport=pool)
        second = shard_map("pairs", context, outputs, 2, transport=pool)
        assert first == second
        stats = pool.stats()
        assert stats["rounds"] == 2
        assert stats["restarts"] == 0
        assert stats["live"] is True
    finally:
        pool.close()
