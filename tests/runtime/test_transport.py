"""The worker pool every sharded round runs on (`WorkerPool` in
`runtime/parallel.py`).

A round runs each chunk as one pool task and, on the caller's thread,
folds every completed chunk into the recorder and counts and traces
every failed one.  These tests pin that round: per-chunk outcome
coverage, the failure events and counters, reuse after failure, sizing,
the SIGTERM mask its workers are forked under, and its accounting.
"""

import multiprocessing
import os
import signal

import pytest

from repro.runtime import METRICS, WorkerPool, metrics_scope
from repro.runtime import parallel as parallel_module

from tests.helpers import sharding_policy


def _square_worker(context, values):
    METRICS.incr("sq.items", len(values))
    return [v * v for v in values]


def _run(pool, chunks, worker=_square_worker):
    return pool.run_round("sq", worker, None, chunks)


def _events(metrics):
    return metrics.root.events


def test_local_round_covers_every_task_exactly_once():
    pool = WorkerPool(jobs=2)
    try:
        chunks = [[(0, 1), (3, 2)], [(1, 3)], [(2, 4), (4, 5), (5, 6)]]
        with metrics_scope() as metrics:
            results, failed = _run(pool, chunks)
        assert failed == []
        assert sorted(results) == [
            (0, 1), (1, 9), (2, 16), (3, 4), (4, 25), (5, 36)
        ]
        spans = metrics.root.children
        assert [span.name for span in spans] == ["sq.chunk"] * 3
        assert [span.attrs["chunk"] for span in spans] == [0, 1, 2]
        assert [span.attrs["items"] for span in spans] == [2, 1, 3]
        assert spans[2].counters == {"sq.items": 3}
        assert spans[2].attrs["worker"] > 0
        assert metrics.counter("sq.items") == 6
        assert _events(metrics) == []
    finally:
        pool.close()


def test_local_pool_is_reused_across_rounds():
    pool = WorkerPool(jobs=1)
    try:
        _run(pool, [[(0, 1)]])
        executor = pool._executor
        _run(pool, [[(0, 2)]])
        assert pool._executor is executor
    finally:
        pool.close()


def test_local_jobs_zero_means_all_cores():
    """`WorkerPool(0)` follows `--jobs 0`: one worker per core."""
    assert WorkerPool(jobs=0).jobs == (os.cpu_count() or 1)
    assert WorkerPool(jobs=-3).jobs == (os.cpu_count() or 1)
    assert WorkerPool(jobs=2).jobs == 2


def test_local_pool_is_sized_to_jobs_not_to_the_first_round():
    """A long-lived pool whose first round has one task still runs
    `jobs` workers, so later, wider rounds get them all."""
    pool = WorkerPool(jobs=3)
    try:
        _run(pool, [[(0, 1)]])
        assert pool._executor._max_workers == 3
    finally:
        pool.close()


#: The real initializer, kept before any test swaps the module's name.
_DETACH = parallel_module._detach_worker_signals
_STARTUP_MASK = None


def _recording_initializer():
    global _STARTUP_MASK
    _STARTUP_MASK = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    _DETACH()


def _signal_state_worker(context, items):
    return [
        signal.SIGTERM in _STARTUP_MASK,
        signal.SIGTERM in signal.pthread_sigmask(signal.SIG_BLOCK, []),
        signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
    ]


@pytest.mark.skipif(
    not hasattr(signal, "pthread_sigmask"), reason="needs POSIX signal masks"
)
def test_local_workers_are_forked_with_sigterm_blocked_until_detached(
    monkeypatch,
):
    """A terminate that reaches a worker before its initializer resets
    the inherited signal plumbing must stay pending, not run the
    parent's handler (an asyncio server's wakeup fd would shut the
    server down).  The initializer lifts the block, so terminate still
    kills a hung worker, and the caller's own mask is left as it was."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers are not forked from the caller")
    monkeypatch.setattr(
        parallel_module, "_detach_worker_signals", _recording_initializer
    )
    caller_mask = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    pool = WorkerPool(jobs=1)
    try:
        results, failed = _run(
            pool, [[(0, "a"), (1, "b"), (2, "c")]], _signal_state_worker
        )
        assert failed == []
        assert sorted(results) == [(0, True), (1, False), (2, True)]
        assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == caller_mask
    finally:
        pool.close()


def test_local_stats_count_rounds_failures_and_restarts(monkeypatch):
    pool = WorkerPool(jobs=1)
    try:
        assert pool.stats() == {
            "jobs": 1, "live": False, "rounds": 0, "restarts": 0,
            "degraded_rounds": 0,
        }
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:0")
        _run(pool, [[(0, 1)]])
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        _run(pool, [[(0, 2)]])
        assert pool.stats() == {
            "jobs": 1, "live": True, "rounds": 2, "restarts": 1,
            "degraded_rounds": 1,
        }
    finally:
        pool.close()
    assert pool.stats()["live"] is False


def test_local_crash_reports_worker_died_and_rebuilds(monkeypatch):
    """A crashed worker yields `worker-died`, never a partial result,
    kills the executor, and the next round runs on a rebuilt one."""
    monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:0")
    pool = WorkerPool(jobs=1)
    try:
        with metrics_scope() as metrics:
            results, failed = _run(pool, [[(0, 1)]])
        assert results == []
        assert failed == [[(0, 1)]]
        assert _events(metrics) == [
            {"event": "worker-died", "label": "sq", "chunk": 0, "items": 1}
        ]
        assert metrics.counter("parallel.chunk_failures") == 1
        assert metrics.counter("parallel.pool_restarts") == 1
        assert metrics.root.children == []
        assert pool._executor is None  # killed, rebuilt lazily
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        results, failed = _run(pool, [[(1, 7)]])
        assert failed == []
        assert results == [(1, 49)]
    finally:
        pool.close()


def test_local_timeout_reports_timeout(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_INJECT", "hang:0")
    monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "5")
    pool = WorkerPool(jobs=1)
    try:
        with sharding_policy(0.5), metrics_scope() as metrics:
            results, failed = _run(pool, [[(0, 1)]])
        assert results == []
        assert failed == [[(0, 1)]]
        assert _events(metrics) == [
            {"event": "chunk-timeout", "label": "sq", "chunk": 0, "items": 1}
        ]
        assert metrics.counter("parallel.chunk_timeouts") == 1
        assert metrics.counter("parallel.pool_restarts") == 1
        assert pool._executor is None
    finally:
        pool.close()


def _explosive_worker(context, items):
    if items == ["boom"]:
        raise RuntimeError("boom payload")
    return items


def test_local_worker_exception_fails_only_that_chunk():
    """A worker that raises fails its own chunk as a `chunk-error` that
    carries the error text; the workers are alive, so the executor is
    kept."""
    pool = WorkerPool(jobs=2)
    try:
        with metrics_scope() as metrics:
            results, failed = _run(
                pool, [[(0, "ok")], [(1, "boom")]], _explosive_worker
            )
        assert results == [(0, "ok")]
        assert failed == [[(1, "boom")]]
        (event,) = _events(metrics)
        assert {key: event[key] for key in ("event", "label", "chunk")} == {
            "event": "chunk-error", "label": "sq", "chunk": 1,
        }
        assert "boom payload" in event["error"]
        assert metrics.counter("parallel.chunk_failures") == 1
        assert metrics.counter("parallel.pool_restarts") == 0
        assert [span.attrs["chunk"] for span in metrics.root.children] == [0]
        assert pool.stats()["live"] is True
    finally:
        pool.close()
