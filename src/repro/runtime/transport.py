"""The in-host process pool a round of sharded chunk tasks runs on.

:mod:`repro.runtime.parallel` owns *what* a sharded run means — round-
robin chunking, the per-round timeout, in-process completion of failed
chunks, and the deterministic merge.  This module
owns :class:`LocalPoolTransport`, the ``ProcessPoolExecutor`` the rounds
run on, rebuilt when workers die or hang; one instance can also live
across runs (the query service's warm pool).

The pool's job is deliberately narrow: run one round of ``(index,
chunk)`` tasks and report, per task, either a :class:`ChunkResult` or a
failure reason.  Everything that makes sharding *safe* — failure
accounting, degrade-to-serial, metrics folding, span attribution — stays
in the caller, on the caller's thread, so jobs=N returns byte-identical
results to jobs=1, or degrades to computing them in-process.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from concurrent.futures import CancelledError, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .faults import inject_worker_fault
from .metrics import METRICS, metrics_scope

#: Failure reasons the pool reports for a task that produced no
#: result this round.  ``TIMEOUT`` and ``WORKER_DIED`` are the two
#: infrastructure failures (mapped to ``parallel.chunk_timeouts`` /
#: ``parallel.chunk_failures`` by the caller); anything else is treated
#: as a chunk error and carried verbatim into the trace event.
TIMEOUT = "timeout"
WORKER_DIED = "worker-died"


@dataclass
class ChunkResult:
    """One completed chunk, with enough provenance to attribute it."""

    index: int
    chunk: list
    result: object
    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, int] = field(default_factory=dict)
    worker: int = 0
    elapsed: float = 0.0


#: A task that failed this round: ``(index, chunk, reason)``.
FailedTask = Tuple[int, list, str]


def resolve_jobs(jobs: Optional[int], task_count: Optional[int] = None) -> int:
    """Normalise a ``--jobs`` value: ``0``/``None``/negative mean "all
    cores"; never more workers than tasks."""
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    jobs = max(1, int(jobs))
    if task_count is not None:
        jobs = min(jobs, max(1, task_count))
    return jobs


def _detach_worker_signals() -> None:
    """Pool-worker initializer: drop the parent's signal plumbing.

    A worker forked from an asyncio server (``trued serve --tcp`` /
    ``--socket``) inherits the event loop's wakeup fd on CPython before
    3.12.  When :func:`_kill_pool` terminated such a worker, its SIGTERM
    was written into the server's self-pipe and the server ran its own
    SIGTERM handler: one failed round shut the whole server down.  A
    forked worker also inherits the parent's Python-level SIGTERM
    handler, which would turn :func:`_kill_pool`'s terminate into a
    no-op for a hung worker; the default disposition lets it die.

    Workers are forked with SIGTERM blocked (:func:`_sigterm_blocked`),
    so a terminate that lands before this initializer runs — the pool
    breaking while a worker still starts up — stays pending instead of
    reaching the inherited plumbing.  Unblocking it here, after the
    reset, delivers it with the default disposition.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})


@contextmanager
def _sigterm_blocked():
    """Block SIGTERM in the calling thread while the pool forks workers
    from it; they inherit the mask until :func:`_detach_worker_signals`
    lifts it.  A SIGTERM for this process meanwhile is delivered to
    another thread or, once the mask is restored, to this one."""
    if not hasattr(signal, "pthread_sigmask"):
        yield
        return
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def _call_worker(args):
    """Pool entry point (runs in the worker process): apply any injected
    fault for this task, then clock ``worker(context, items)`` under a
    fresh recorder and return its counters and gauges with the results.
    Pool processes are reused, so the scope makes each chunk's accounting
    fold back into the parent exactly once."""
    worker, task_index, fault, (context, items) = args
    inject_worker_fault(fault, task_index)
    with metrics_scope() as chunk_metrics:
        start = time.perf_counter()
        result = worker(context, items)
        elapsed = time.perf_counter() - start
    snapshot = chunk_metrics.snapshot()
    return (
        os.getpid(), elapsed, result,
        snapshot["counters"], snapshot["gauges"],
    )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool that may hold hung or dead workers: terminate its
    processes (a hung worker never drains the call queue on its own), then
    abandon the executor without waiting."""
    try:
        processes = list((pool._processes or {}).values())
    except Exception:
        processes = []
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


class LocalPoolTransport:
    """The in-host ``ProcessPoolExecutor`` substrate.

    ``jobs`` is the worker count (``0`` = all cores, as
    :func:`resolve_jobs`).  The pool is built lazily at that size and
    survives across rounds, and across sharded runs when the caller owns
    the transport (the query service keeps one for its lifetime).  A
    round that sees a dead or hung worker kills the pool
    (``parallel.pool_restarts``) and the next round rebuilds it — a hung
    worker never drains the call queue on its own, so the only safe
    recovery is a fresh pool.

    Rounds are serialised under a lock, so one transport can serve
    concurrent callers (the multi-client server's sessions): the
    kill/rebuild bookkeeping stays race-free and results do not depend
    on how many callers share the pool.
    """

    def __init__(self, jobs: int):
        self.jobs = resolve_jobs(jobs)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.RLock()
        self.rounds = 0
        self.builds = 0
        self.degraded_rounds = 0
        self.drains = 0

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_detach_worker_signals
            )
            self.builds += 1
        return self._pool

    def run_round(
        self,
        worker,
        make_payload,
        tasks: Sequence[Tuple[int, list]],
        timeout: Optional[float],
        fault,
    ) -> Tuple[List[ChunkResult], List[FailedTask]]:
        """Run one round of ``(index, chunk)`` tasks, each as
        ``worker(*make_payload(chunk))`` with ``make_payload`` returning
        ``(context, items)``; return ``(completed, failed)``, covering
        every task exactly once.  The pool stays usable after any
        failure: the next round rebuilds it.
        """
        with self._lock:
            self.rounds += 1
            completed, failed = self._run_round(
                worker, make_payload, tasks, timeout, fault
            )
            if failed:
                self.degraded_rounds += 1
            return completed, failed

    def _run_round(self, worker, make_payload, tasks, timeout, fault):
        pool = self._ensure_pool()
        futures: Dict[object, Tuple[int, list]] = {}
        completed: List[ChunkResult] = []
        failed: List[FailedTask] = []
        pool_dead = False
        try:
            # The first submit forks the pool's workers.
            with _sigterm_blocked():
                for index, chunk in tasks:
                    future = pool.submit(
                        _call_worker,
                        (worker, index, fault, make_payload(chunk)),
                    )
                    futures[future] = (index, chunk)
        except BrokenProcessPool:
            pool_dead = True
            submitted = {index for index, __ in futures.values()}
            failed.extend(
                (index, chunk, WORKER_DIED)
                for index, chunk in tasks
                if index not in submitted
            )
        __, not_done = wait(futures, timeout=timeout)
        for future, (index, chunk) in futures.items():
            if future in not_done:
                pool_dead = True
                failed.append((index, chunk, TIMEOUT))
                continue
            try:
                pid, elapsed, result, counters, gauges = future.result()
            except (BrokenProcessPool, CancelledError):
                pool_dead = True
                failed.append((index, chunk, WORKER_DIED))
            except Exception as error:
                failed.append((index, chunk, repr(error)))
            else:
                completed.append(
                    ChunkResult(
                        index=index, chunk=chunk, result=result,
                        counters=counters, gauges=gauges,
                        worker=pid, elapsed=elapsed,
                    )
                )
        if pool_dead:
            METRICS.incr("parallel.pool_restarts")
            _kill_pool(pool)
            self._pool = None
        return completed, failed

    def drain(self) -> None:
        """Block until no round is in flight (a no-op on an idle pool).

        Reloading a query-service session calls this before detaching
        its engine, so no worker is still evaluating cones of a circuit
        the session no longer serves.  The workers stay warm: draining
        is about round completion, not teardown.
        """
        with self._lock:
            self.drains += 1
            METRICS.incr("transport.drains")

    def stats(self) -> Dict[str, object]:
        """Pool accounting, reported by the service ``stats`` and server
        ``server_stats`` ops.  ``degraded_rounds`` counts rounds in which
        some task failed; ``restarts`` counts pool builds after the
        first."""
        return {
            "jobs": self.jobs,
            "live": self._pool is not None,
            "rounds": self.rounds,
            "restarts": max(0, self.builds - 1),
            "degraded_rounds": self.degraded_rounds,
            "drains": self.drains,
        }

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
