"""The local process pool every sharded round runs on
(`runtime/transport.py`).

The pool owns *where* a round of chunk tasks runs; the sharded runner
owns everything that makes sharding safe.  These tests pin the pool's
side of that split: per-task outcome coverage, reuse after failure,
sizing, and its accounting.
"""

import multiprocessing
import os
import signal

import pytest

from repro.runtime import METRICS
from repro.runtime import transport as transport_module
from repro.runtime.transport import TIMEOUT, WORKER_DIED, LocalPoolTransport


def _square_worker(context, values):
    METRICS.incr("sq.items", len(values))
    return [v * v for v in values]


def _payload(chunk):
    return None, chunk


def _run(transport, tasks, timeout=None, fault=None):
    return transport.run_round(
        _square_worker, _payload, tasks, timeout, fault
    )


# ----------------------------------------------------------------------
# LocalPoolTransport
# ----------------------------------------------------------------------
def test_local_round_covers_every_task_exactly_once():
    transport = LocalPoolTransport(jobs=2)
    try:
        tasks = [(0, [1, 2]), (1, [3]), (2, [4, 5, 6])]
        completed, failed = _run(transport, tasks)
        assert failed == []
        assert sorted(c.index for c in completed) == [0, 1, 2]
        by_index = {c.index: c for c in completed}
        assert by_index[2].result == [16, 25, 36]
        assert by_index[2].counters == {"sq.items": 3}
        assert by_index[2].worker > 0
    finally:
        transport.close()


def test_local_pool_is_reused_across_rounds():
    transport = LocalPoolTransport(jobs=1)
    try:
        _run(transport, [(0, [1])])
        pool = transport._pool
        _run(transport, [(1, [2])])
        assert transport._pool is pool
    finally:
        transport.close()


def test_local_jobs_zero_means_all_cores():
    """`LocalPoolTransport(0)` follows `--jobs 0`: one worker per core."""
    assert LocalPoolTransport(jobs=0).jobs == (os.cpu_count() or 1)
    assert LocalPoolTransport(jobs=-3).jobs == (os.cpu_count() or 1)
    assert LocalPoolTransport(jobs=2).jobs == 2


def test_local_pool_is_sized_to_jobs_not_to_the_first_round():
    """A long-lived transport whose first round has one task still runs
    `jobs` workers, so later, wider rounds get them all."""
    transport = LocalPoolTransport(jobs=3)
    try:
        _run(transport, [(0, [1])])
        assert transport._pool._max_workers == 3
    finally:
        transport.close()


#: The real initializer, kept before any test swaps the module's name.
_DETACH = transport_module._detach_worker_signals
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
        transport_module, "_detach_worker_signals", _recording_initializer
    )
    caller_mask = signal.pthread_sigmask(signal.SIG_BLOCK, [])
    transport = LocalPoolTransport(jobs=1)
    try:
        completed, failed = transport.run_round(
            _signal_state_worker, _payload, [(0, [])], None, None,
        )
        assert failed == []
        assert completed[0].result == [True, False, True]
        assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == caller_mask
    finally:
        transport.close()


def test_local_stats_count_rounds_failures_restarts_and_drains():
    from repro.runtime.faults import parse_fault_spec

    transport = LocalPoolTransport(jobs=1)
    try:
        assert transport.stats() == {
            "jobs": 1, "live": False, "rounds": 0, "restarts": 0,
            "degraded_rounds": 0, "drains": 0,
        }
        _run(transport, [(0, [1])], fault=parse_fault_spec("crash:0"))
        _run(transport, [(0, [2])])
        transport.drain()
        assert transport.stats() == {
            "jobs": 1, "live": True, "rounds": 2, "restarts": 1,
            "degraded_rounds": 1, "drains": 1,
        }
    finally:
        transport.close()
    assert transport.stats()["live"] is False


def test_local_crash_reports_worker_died_and_rebuilds(monkeypatch):
    """A crashed worker yields `worker-died`, never a partial result,
    and the next round runs on a rebuilt pool."""
    monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:0")
    from repro.runtime.faults import parse_fault_spec

    fault = parse_fault_spec("crash:0")
    transport = LocalPoolTransport(jobs=1)
    try:
        completed, failed = _run(transport, [(0, [1])], fault=fault)
        assert completed == []
        assert [(i, reason) for i, __, reason in failed] == [
            (0, WORKER_DIED)
        ]
        assert transport._pool is None  # condemned, rebuilt lazily
        completed, failed = _run(transport, [(1, [7])])
        assert failed == []
        assert completed[0].result == [49]
    finally:
        transport.close()


def test_local_timeout_reports_timeout(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "5")
    from repro.runtime.faults import parse_fault_spec

    fault = parse_fault_spec("hang:0")
    transport = LocalPoolTransport(jobs=1)
    try:
        completed, failed = _run(
            transport, [(0, [1])], timeout=0.5, fault=fault
        )
        assert completed == []
        assert [(i, reason) for i, __, reason in failed] == [(0, TIMEOUT)]
    finally:
        transport.close()


def _explosive_worker(context, items):
    if items == ["boom"]:
        raise RuntimeError("boom payload")
    return items


def test_local_worker_exception_fails_only_that_chunk():
    transport = LocalPoolTransport(jobs=2)
    try:
        completed, failed = transport.run_round(
            _explosive_worker,
            _payload,
            [(0, ["ok"]), (1, ["boom"])],
            None,
            None,
        )
        assert [c.index for c in completed] == [0]
        assert len(failed) == 1
        index, __, reason = failed[0]
        assert index == 1
        assert "boom payload" in reason
        assert reason not in (TIMEOUT, WORKER_DIED)
    finally:
        transport.close()
