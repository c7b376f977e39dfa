"""Fault-tolerant process-pool sharding for the embarrassingly parallel
delay queries.

Five fan-outs are independent per item; each is one :data:`TASK_KINDS`
label run through the one entry point, :func:`shard_map`:

* ``faults`` — per-path / per-direction delay-fault tests
  (``PathFaultGenerator.generate_for_longest_paths``),
* ``cones`` — per-output dirty-cone queries of the incremental engine,
* ``monte-carlo`` — per-sample Monte Carlo replays
  (``monte_carlo_delay``),
* ``characterize`` — characterization jobs (``run_plan``),
* ``fuzz`` — fuzz scenarios (``run_sweep``).

Each label's worker is the only implementation of its fan-out:
``worker(context, items)`` takes the context shared by the whole run and
a list of items, returns one result per item, and records its counters
into :data:`~repro.runtime.metrics.METRICS` like any other code.  When
``jobs`` resolves to 1 — ``jobs=1``, a single item, or a caller whose
context cannot be pickled — :func:`shard_map` simply calls the worker
in-process on all items, so ``jobs=1`` *is* the serial run.

Otherwise the items are split round-robin into chunks, one task each of
a :class:`WorkerPool` round: the caller's long-lived pool when it passes
one, otherwise a pool built for the run and closed after it.  The pool's
entry point runs the worker under a fresh
:func:`~repro.runtime.metrics.metrics_scope` and sends that scope's
counters and gauges back with the results; the parent folds each chunk
with one :meth:`~repro.runtime.metrics.Metrics.add_span` call — counters
added and gauges max-folded into the totals and onto a per-chunk span
tagged with the worker's pid — and merges results by item index.
Worker processes rebuild their analyses from the pickled context, with
engines built in a canonical variable order (the analyses pre-declare
the input variables in cone-traversal first-touch order, see
:func:`repro.sim.wordsim.canonical_input_order`, computed on the full
circuit rather than the worker's chunk), so a worker finds the *same*
witnesses as the in-process run and ``jobs=1`` and ``jobs=N`` runs are
result-identical.

Execution is *fault-tolerant*: the round runs under the per-round
wall-clock timeout that :func:`set_execution_policy` sets
(``--timeout``), and the items of every chunk that failed or timed out
then run through the worker in-process, under a
``<label>.serial-fallback`` span.  A ``jobs=N`` run therefore never
produces less than the serial run: worker death degrades throughput,
not results.  Every failure and the degradation are counted in
:data:`~repro.runtime.metrics.METRICS` and recorded as events on the
innermost open span; the deterministic fault hooks in
:mod:`repro.runtime.faults` exercise each path in CI.
"""

from __future__ import annotations

import os
import random
import signal
import time
from concurrent.futures import (
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .faults import inject_worker_fault, worker_fault
from .metrics import METRICS, metrics_scope, record_sat_probes


def resolve_jobs(jobs: Optional[int], task_count: Optional[int] = None) -> int:
    """Normalise a ``--jobs`` value: ``0``/``None``/negative mean "all
    cores"; never more workers than tasks."""
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    jobs = max(1, int(jobs))
    if task_count is not None:
        jobs = min(jobs, max(1, task_count))
    return jobs


def _chunk_round_robin(items: Sequence, jobs: int) -> List[list]:
    """Round-robin split — balances the typical "neighbouring outputs cost
    alike" workload better than contiguous slabs."""
    chunks = [list(items[i::jobs]) for i in range(jobs)]
    return [chunk for chunk in chunks if chunk]


# ----------------------------------------------------------------------
# Execution policy (CLI --timeout sets the process default)
# ----------------------------------------------------------------------
_POLICY: Dict[str, object] = {"timeout": None}


def set_execution_policy(timeout: Optional[float] = None) -> Dict[str, object]:
    """Set the process-wide per-round wall-clock limit of sharded runs,
    in seconds (``None`` or ``<= 0`` disables it)."""
    _POLICY["timeout"] = timeout if timeout and timeout > 0 else None
    return dict(_POLICY)


def execution_policy() -> Dict[str, object]:
    return dict(_POLICY)


# ----------------------------------------------------------------------
# The worker pool
# ----------------------------------------------------------------------
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
    worker, task, fault, context, items = args
    inject_worker_fault(fault, task)
    with metrics_scope() as chunk_metrics:
        start = time.perf_counter()
        result = worker(context, items)
        elapsed = time.perf_counter() - start
    snapshot = chunk_metrics.snapshot()
    return (
        os.getpid(), elapsed, result,
        snapshot["counters"], snapshot["gauges"],
    )


def _kill_pool(executor: ProcessPoolExecutor) -> None:
    """Hard-stop an executor that may hold hung or dead workers:
    terminate its processes (a hung worker never drains the call queue on
    its own), then abandon it without waiting."""
    try:
        processes = list((executor._processes or {}).values())
    except Exception:
        processes = []
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


class WorkerPool:
    """The process pool sharded rounds run on: ``jobs`` workers (``0`` =
    all cores, as :func:`resolve_jobs`).

    The executor is built lazily at that size and survives across
    rounds, and across sharded runs when the caller owns the pool (the
    query service keeps one for its lifetime).  A round that sees a dead
    or hung worker kills the executor (``parallel.pool_restarts``) and
    the next round rebuilds it — a hung worker never drains the call
    queue on its own, so the only safe recovery is a fresh executor.

    Rounds are not serialised: one pool must not run two at once.  Its
    callers never do — the multi-client server runs every request on one
    executor thread, and the stdio loop is single-threaded.
    """

    def __init__(self, jobs: int):
        self.jobs = resolve_jobs(jobs)
        self._executor: Optional[ProcessPoolExecutor] = None
        self.rounds = 0
        self.builds = 0
        self.degraded_rounds = 0

    def run_round(
        self, label: str, worker, context, chunks: Sequence[list]
    ) -> Tuple[list, List[list]]:
        """Run ``worker(context, items)`` on each chunk of ``(index,
        item)`` entries as one pool task, numbered by its position in
        ``chunks`` (what fault injection keys on), under the execution
        policy's timeout.

        On the caller's thread, each completed chunk is folded into
        :data:`~repro.runtime.metrics.METRICS` as a ``<label>.chunk``
        span, and each failed one is counted and traced as a
        ``chunk-timeout``, ``worker-died`` or ``chunk-error`` event.
        Returns ``(results, failed)``: every completed item's ``(index,
        result)`` and the failed chunks, in task order.  The pool stays
        usable after any failure: the next round rebuilds the executor.
        """
        self.rounds += 1
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_detach_worker_signals
            )
            self.builds += 1
        fault = worker_fault()
        futures: List[Future] = []
        try:
            # The first submit forks the executor's workers.
            with _sigterm_blocked():
                for task, chunk in enumerate(chunks):
                    futures.append(self._executor.submit(
                        _call_worker,
                        (worker, task, fault, context,
                         [item for __, item in chunk]),
                    ))
        except BrokenProcessPool as error:
            # The executor broke mid-submission: the rest never ran.
            for __ in chunks[len(futures):]:
                lost = Future()
                lost.set_exception(error)
                futures.append(lost)
        __, not_done = wait(futures, timeout=_POLICY["timeout"])
        results: list = []
        failed: List[list] = []
        dead = False
        for task, (chunk, future) in enumerate(zip(chunks, futures)):
            trace = {"label": label, "chunk": task, "items": len(chunk)}
            if future in not_done:
                dead = True
                METRICS.incr("parallel.chunk_timeouts")
                METRICS.event("chunk-timeout", **trace)
                failed.append(chunk)
                continue
            try:
                pid, elapsed, result, counters, gauges = future.result()
            except (BrokenProcessPool, CancelledError):
                dead = True
                METRICS.incr("parallel.chunk_failures")
                METRICS.event("worker-died", **trace)
                failed.append(chunk)
            except Exception as error:
                METRICS.incr("parallel.chunk_failures")
                METRICS.event("chunk-error", **trace, error=repr(error))
                failed.append(chunk)
            else:
                METRICS.add_span(
                    f"{label}.chunk", elapsed, counters=counters,
                    gauges=gauges, chunk=task, items=len(chunk), worker=pid,
                )
                results.extend(
                    zip([index for index, __ in chunk], result)
                )
        if dead:
            METRICS.incr("parallel.pool_restarts")
            _kill_pool(self._executor)
            self._executor = None
        if failed:
            self.degraded_rounds += 1
        return results, failed

    def stats(self) -> Dict[str, object]:
        """Pool accounting, reported by the service ``stats`` and server
        ``server_stats`` ops.  ``degraded_rounds`` counts rounds in which
        some task failed; ``restarts`` counts executor builds after the
        first."""
        return {
            "jobs": self.jobs,
            "live": self._executor is not None,
            "rounds": self.rounds,
            "restarts": max(0, self.builds - 1),
            "degraded_rounds": self.degraded_rounds,
        }

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


# ----------------------------------------------------------------------
# The fault-tolerant sharded runner
# ----------------------------------------------------------------------
def _run_sharded(
    label: str,
    worker,
    context,
    items: Sequence[Tuple[int, object]],
    jobs: int,
    pool: Optional[WorkerPool],
) -> list:
    """Run ``worker`` over round-robin chunks of the indexed ``items`` in
    one pool round, then finish every failed chunk's items in-process.

    Returns every item's ``(index, result)`` in completion order;
    :func:`shard_map` restores item order.

    Task numbers count from 0 in every run, so an injected fault fires
    once per run.  ``pool`` is a caller-owned pool, used and left open;
    without one the run builds a ``jobs``-worker pool and closes it after
    the round.
    """
    chunks = _chunk_round_robin(items, jobs)
    owned = pool is None
    if owned:
        pool = WorkerPool(jobs)
    try:
        results, failed = pool.run_round(label, worker, context, chunks)
    finally:
        if owned:
            pool.close()
    if failed:
        # Whatever failed runs through the worker in this process, so
        # jobs=N can never return less than the serial run (a genuine
        # error raises here exactly as it would have serially).
        remainder = [entry for chunk in failed for entry in chunk]
        METRICS.incr("parallel.serial_fallback_items", len(remainder))
        METRICS.incr("transport.degraded")
        METRICS.event("degrade-serial", label=label, items=len(remainder))
        with METRICS.span(f"{label}.serial-fallback", items=len(remainder)):
            result = worker(context, [item for __, item in remainder])
        results.extend(zip([index for index, __ in remainder], result))
    return results


def shard_map(
    label: str,
    context,
    items: Sequence,
    jobs: int,
    *,
    pool: Optional[WorkerPool] = None,
) -> list:
    """Run the ``label`` task kind over ``items`` across workers.

    Returns one result per item, in item order, whatever the chunking
    or degradation — so the list equals the in-process run for
    every ``jobs`` value.  ``context`` is what every item of the run
    shares (a circuit, an engine name, a config).  ``jobs`` is the worker
    count (``0`` = all cores, never more than items); when it resolves to
    1 the worker runs in this process on all items, with no pool,
    pickling or metrics scope, so a caller whose context cannot be
    pickled passes ``jobs=1``.  Otherwise context and items must pickle;
    the round's timeout is the process-wide execution policy's,
    ``pool`` is an optional caller-owned :class:`WorkerPool`, the run is
    timed as the ``parallel.<label>`` span and its chunks as
    ``<label>.chunk`` spans.
    """
    worker = TASK_KINDS.get(label)
    if worker is None:
        raise ValueError(
            f"unknown shard task kind {label!r} "
            f"(expected one of {sorted(TASK_KINDS)})"
        )
    items = list(items)
    jobs = resolve_jobs(jobs, len(items))
    if jobs == 1:
        return worker(context, items)
    with METRICS.span(f"parallel.{label}"):
        merged = _run_sharded(
            label, worker, context, list(enumerate(items)), jobs, pool
        )
    merged.sort(key=lambda entry: entry[0])
    return [result for __, result in merged]


# ----------------------------------------------------------------------
# The task kinds: worker(context, items) -> [result per item]
# ----------------------------------------------------------------------
def _fault_worker(generator, tasks):
    """The context is a :class:`~repro.core.delay_fault.PathFaultGenerator`
    (the caller's own in-process; a pool worker unpickles a fresh one);
    items are ``(path, rising, strength-value, strong)``; a result is
    ``(fault, test-or-None)``.  Records the SAT probes of this call as
    ``faults.sat_probes``."""
    from ..core.delay_fault import PathFault, TestStrength

    probes_before = getattr(generator.engine, "num_sat_checks", 0)
    outcomes = []
    for path, rising, strength_value, strong in tasks:
        fault = PathFault(list(path), rising)
        outcomes.append(
            (fault, generator.generate(
                fault, TestStrength(strength_value), strong
            ))
        )
    record_sat_probes("faults", generator.engine, since=probes_before)
    return outcomes


def _cone_worker(context, cones):
    """The context is ``(delay kind, engine name)``; items are ``(cone,
    upper)``: an extracted single-output cone circuit
    (:func:`repro.incremental.cones.extract_cone`) and the floating-delay
    bound its search starts from (None for none); a result is the cone's
    :class:`~repro.core.vectors.DelayCertificate`."""
    kind, engine_name = context
    from ..incremental.cones import evaluate_cone

    results = []
    for cone, upper in cones:
        result = evaluate_cone(cone, kind, engine_name, upper)
        METRICS.incr("incremental.cone_checks", result.checks)
        results.append(result)
    return results


def sample_seed(seed: int, index: int) -> str:
    """Seed of the ``index``-th Monte Carlo sub-stream.

    String seeds hash through SHA-512 inside :class:`random.Random`, so
    sub-streams are deterministic across processes and platforms (int
    tuple hashing would work too, but string seeding is explicit about
    not depending on ``PYTHONHASHSEED`` semantics).
    """
    return f"mc:{seed}:{index}"


def _monte_carlo_worker(context, samples):
    """The context is ``(circuit, pairs, seed, model)``, the model being
    a delay model or its picklable ``spec`` tuple; items are sample
    indices; a result is that sample's delay, drawn from its own seeded
    sub-stream, so the sample list is independent of chunking."""
    circuit, pairs, seed, model = context
    from ..core.statistical import _SampleReplay, resolve_delay_model

    delay_model = (
        resolve_delay_model(model) if isinstance(model, tuple) else model
    )
    # The circuit validates, and the pairs settle and pack as lane words,
    # once per call: none of it depends on delays, so every sample only
    # draws its delays and runs.
    replay = _SampleReplay(circuit, pairs)
    return [
        replay.sample(delay_model, random.Random(sample_seed(seed, sample)))
        for sample in samples
    ]


def _characterize_worker(spec_id, jobs):
    """The context is the spec id; items are
    :func:`repro.characterize.runner.job_payload` dicts (each names its
    registry circuit, so payloads stay small); a result is the job's
    result dict.  Caching is the caller's job."""
    from ..characterize.runner import execute_payload

    results = []
    for job in jobs:
        with METRICS.span(
            "characterize.job", spec=spec_id, corner=job["corner"],
            job=job["job_id"],
        ):
            results.append(execute_payload(job))
    return results


def _fuzz_worker(config, scenarios):
    """The context is the oracle config (``oracles``, ``plant``); items
    are self-contained :class:`~repro.fuzz.scenario.Scenario` cases; a
    result is the scenario's ordered
    :class:`~repro.fuzz.oracle.OracleVerdict` list."""
    from ..fuzz.oracle import run_scenario

    results = []
    for scenario in scenarios:
        with METRICS.span("fuzz.oracles"):
            results.append(run_scenario(scenario, **config))
    return results


#: Label -> worker for every fan-out :func:`shard_map` runs.  The labels
#: name the run spans (``parallel.<label>``), chunk spans (``<label>.chunk``)
#: and fault-injection trace events.
TASK_KINDS: Dict[str, Callable] = {
    "faults": _fault_worker,
    "cones": _cone_worker,
    "monte-carlo": _monte_carlo_worker,
    "characterize": _characterize_worker,
    "fuzz": _fuzz_worker,
}
