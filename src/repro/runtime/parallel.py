"""Fault-tolerant process-pool sharding for the embarrassingly parallel
delay queries.

Six fan-outs are independent per item; each is one :data:`TASK_KINDS`
label run through the one entry point, :func:`shard_map`:

* ``pairs`` — per-output certification pairs
  (``collect_certification_pairs``),
* ``faults`` — per-path / per-direction delay-fault tests
  (``PathFaultGenerator.generate_for_longest_paths``),
* ``cones`` — per-output dirty-cone queries of the incremental engine,
* ``monte-carlo`` — per-sample Monte Carlo replays
  (``monte_carlo_delay``),
* ``characterize`` — characterization jobs (``run_plan``),
* ``fuzz`` — fuzz scenarios (``run_sweep``).

Each worker process rebuilds its analysis from a pickled :class:`Circuit`
— engines are constructed with a canonical variable order (the analyses
pre-declare the input variables in cone-traversal first-touch order, see
:func:`repro.sim.wordsim.canonical_input_order`, computed on the full
circuit rather than the worker's chunk), so a worker finds the *same*
witnesses as a serial run.  ``jobs=1`` always takes the
caller's serial path; sharded results are merged deterministically
(outputs in declaration order, faults and samples by original index), so
``jobs=1`` and ``jobs=N`` runs are result-identical.

Execution is *fault-tolerant*: chunks are submitted as one round of
tasks with a per-round wall-clock timeout, a failed or timed-out chunk
is retried as single-item tasks (isolating a poison item — a BDD blowup
kills only its own retry, not its chunk-mates), and once the bounded
retries are exhausted the remaining items run serially in-process.  A
``jobs=N`` run therefore never produces less than the serial run:
worker death degrades throughput, not results.  Every degradation step
is counted in :data:`~repro.runtime.metrics.METRICS` and recorded as an
event on its innermost open span; the deterministic fault hooks in
:mod:`repro.runtime.faults` exercise each path in CI.

Each round runs on a :class:`~repro.runtime.transport.LocalPoolTransport`
(:mod:`repro.runtime.transport`): the caller's long-lived pool when it
passes one, otherwise a pool built for the run and closed after it.

Every worker takes ``(context, [(index, item), ...])`` — the context
shared by the whole run, then its chunk of indexed items — and returns
``([(index, result), ...], counters, gauges)``.  The parent folds each
chunk with one :meth:`~repro.runtime.metrics.Metrics.add_span` call —
counters added and gauges max-folded into the totals and onto a
per-chunk span tagged with the worker's pid — and merges results by
index.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .faults import worker_fault
from .metrics import METRICS, engine_peak_nodes
from .transport import (
    TIMEOUT,
    WORKER_DIED,
    ChunkResult,
    LocalPoolTransport,
    resolve_jobs,
)


def _chunk_round_robin(items: Sequence, jobs: int) -> List[list]:
    """Round-robin split — balances the typical "neighbouring outputs cost
    alike" workload better than contiguous slabs."""
    chunks = [list(items[i::jobs]) for i in range(jobs)]
    return [chunk for chunk in chunks if chunk]


# ----------------------------------------------------------------------
# Execution policy (CLI --timeout / --retries set the process defaults)
# ----------------------------------------------------------------------
_UNSET = object()
_POLICY: Dict[str, object] = {"timeout": None, "retries": 1}


def set_execution_policy(timeout=_UNSET, retries=_UNSET) -> Dict[str, object]:
    """Set process-wide defaults for sharded execution.

    ``timeout`` is the per-round wall-clock limit in seconds (``None`` or
    ``<= 0`` disables it); ``retries`` is the number of resubmission
    rounds before degrading to in-process serial execution.
    """
    if timeout is not _UNSET:
        _POLICY["timeout"] = timeout
    if retries is not _UNSET:
        _POLICY["retries"] = 1 if retries is None else max(0, int(retries))
    return dict(_POLICY)


def execution_policy() -> Dict[str, object]:
    return dict(_POLICY)


def _resolve_policy(
    timeout: Optional[float], retries: Optional[int]
) -> Tuple[Optional[float], int]:
    if timeout is None:
        timeout = _POLICY["timeout"]
    if timeout is not None and timeout <= 0:
        timeout = None
    if retries is None:
        retries = _POLICY["retries"]
    return timeout, max(0, int(retries))


# ----------------------------------------------------------------------
# The fault-tolerant sharded runner
# ----------------------------------------------------------------------
def _harvest_chunk(
    chunk_result: ChunkResult, label: str, results: list
) -> None:
    """Fold one completed chunk into the recorder and the result list
    (always on the caller's thread — the pool never touches METRICS for
    completed work)."""
    METRICS.add_span(
        f"{label}.chunk", chunk_result.elapsed,
        counters=chunk_result.counters, gauges=chunk_result.gauges,
        chunk=chunk_result.index, items=len(chunk_result.chunk),
        worker=chunk_result.worker,
    )
    results.extend(chunk_result.result)


def _record_failure(index: int, chunk: list, reason: str, label: str) -> None:
    """Count and trace one failed task as a chunk-timeout, worker-died
    or chunk-error event."""
    if reason == TIMEOUT:
        METRICS.incr("parallel.chunk_timeouts")
        METRICS.event(
            "chunk-timeout", label=label, chunk=index, items=len(chunk)
        )
    elif reason == WORKER_DIED:
        METRICS.incr("parallel.chunk_failures")
        METRICS.event(
            "worker-died", label=label, chunk=index, items=len(chunk)
        )
    else:
        METRICS.incr("parallel.chunk_failures")
        METRICS.event(
            "chunk-error", label=label, chunk=index, items=len(chunk),
            error=reason,
        )


def _run_sharded(
    label: str,
    worker,
    items: Sequence,
    make_payload,
    jobs: int,
    timeout: Optional[float],
    retries: Optional[int],
    transport: Optional[LocalPoolTransport],
) -> list:
    """Run ``worker`` over round-robin chunks of ``items`` with timeouts,
    poison-isolation retries, and serial degradation.

    ``make_payload(chunk)`` rebuilds a worker payload for any sub-list of
    ``items`` (needed to re-chunk on retry).  Returns every chunk's
    ``(index, result)`` entries in completion order; :func:`shard_map`
    restores item order.

    Task indices — what fault injection keys on — count from 0 in every
    run, and retry tasks continue the numbering, so an injected fault
    fires once per run.  ``transport`` is a caller-owned pool, used and
    left open; without one the run builds a ``jobs``-worker pool and
    closes it afterwards.
    """
    timeout, retries = _resolve_policy(timeout, retries)
    chunks = _chunk_round_robin(items, jobs)
    if not chunks:
        return []
    fault = worker_fault()
    tasks: List[Tuple[int, list]] = list(enumerate(chunks))
    next_index = len(tasks)
    results: list = []
    failed: List[Tuple[int, list, str]] = []
    owned = transport is None
    if owned:
        transport = LocalPoolTransport(jobs)
    try:
        for attempt in range(retries + 1):
            completed, failed = transport.run_round(
                worker, make_payload, tasks, timeout, fault
            )
            for chunk_result in completed:
                _harvest_chunk(chunk_result, label, results)
            for index, chunk, reason in failed:
                _record_failure(index, chunk, reason, label)
            if not failed:
                return results
            if attempt == retries:
                break
            # Poison isolation: resubmit each failing chunk item by item,
            # so one pathological item can only take down its own retry.
            failed.sort(key=lambda task: task[0])
            tasks = []
            for __, chunk, __reason in failed:
                for item in chunk:
                    tasks.append((next_index, [item]))
                    next_index += 1
            METRICS.incr("parallel.retries", len(tasks))
            METRICS.event(
                "retry", label=label, attempt=attempt + 1, tasks=len(tasks)
            )
        # Degradation of last resort: whatever still fails after the retry
        # budget runs serially in this process, so jobs=N can never return
        # less than the serial run (a genuine error raises here exactly as
        # it would have serially).
        failed.sort(key=lambda task: task[0])
        remainder = [item for __, chunk, __reason in failed for item in chunk]
        METRICS.incr("parallel.serial_fallback_items", len(remainder))
        METRICS.incr("transport.degraded")
        METRICS.event("degrade-serial", label=label, items=len(remainder))
        start = time.perf_counter()
        result, counters, gauges = worker(make_payload(remainder))
        METRICS.add_span(
            f"{label}.serial-fallback", time.perf_counter() - start,
            counters=counters, gauges=gauges, items=len(remainder),
        )
        results.extend(result)
        return results
    finally:
        if owned:
            transport.close()


def shard_map(
    label: str,
    context,
    items: Sequence,
    jobs: int,
    *,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    transport: Optional[LocalPoolTransport] = None,
) -> list:
    """Run the ``label`` task kind over ``items`` across workers.

    Returns one result per item, in item order, whatever the chunking,
    retries, or degradation — so the list equals the serial computation
    for every ``jobs`` value.  ``context`` is what every item of the run
    shares (a circuit, an engine name, a config); it and the items must
    pickle.  ``jobs`` is the worker count (``0`` = all cores, never more
    than items); ``timeout``/``retries`` default to the process-wide
    execution policy; ``transport`` is an optional caller-owned pool.
    The run is timed as the ``parallel.<label>`` span and its chunks as
    ``<label>.chunk`` spans.
    """
    worker = TASK_KINDS.get(label)
    if worker is None:
        raise ValueError(
            f"unknown shard task kind {label!r} "
            f"(expected one of {sorted(TASK_KINDS)})"
        )
    indexed = list(enumerate(items))

    def make_payload(chunk):
        return (context, list(chunk))

    with METRICS.span(f"parallel.{label}"):
        merged = _run_sharded(
            label, worker, indexed, make_payload,
            resolve_jobs(jobs, len(indexed)), timeout, retries, transport,
        )
    merged.sort(key=lambda entry: entry[0])
    return [result for __, result in merged]


# ----------------------------------------------------------------------
# The task kinds: worker(payload) with payload = (context, [(index, item)])
# ----------------------------------------------------------------------
def _engine_counters(prefix: str, engine) -> Dict[str, int]:
    return {f"{prefix}.sat_probes": getattr(engine, "num_sat_checks", 0)}


def _engine_gauges(engine) -> Dict[str, int]:
    """Worker-side high-water marks, folded max-wise by the parent."""
    peak = engine_peak_nodes(engine)
    return {} if peak is None else {"boolfn.peak_nodes": peak}


def _pairs_worker(payload):
    """Items are primary outputs; a result is ``(time, pair)``, or
    ``None`` for an output that can never transition."""
    (circuit, engine_name, input_times), tasks = payload
    from ..core.transition import fresh_certification_pairs

    analysis, pairs = fresh_certification_pairs(
        circuit, engine_name, input_times, [out for __, out in tasks]
    )
    counters = _engine_counters("pairs", analysis.engine)
    counters["pairs.functions_built"] = analysis.num_functions()
    return (
        [(index, pairs.get(out)) for index, out in tasks],
        counters,
        _engine_gauges(analysis.engine),
    )


def _fault_worker(payload):
    """Items are ``(path, rising, strength-value, strong)``; a result is
    ``(fault, test-or-None)``."""
    (circuit, engine_name), tasks = payload
    from ..core.delay_fault import PathFault, PathFaultGenerator, TestStrength

    generator = PathFaultGenerator(circuit, engine_name=engine_name)
    results = []
    for index, (path, rising, strength_value, strong) in tasks:
        fault = PathFault(list(path), rising)
        test = generator.generate(
            fault, TestStrength(strength_value), strong
        )
        results.append((index, (fault, test)))
    return (
        results,
        _engine_counters("faults", generator.engine),
        _engine_gauges(generator.engine),
    )


def _cone_worker(payload):
    """Items are ``(cone, upper)``: an extracted single-output cone circuit
    (:func:`repro.incremental.cones.extract_cone`) and the floating-delay
    bound its search starts from (None for none); a result is the cone's
    :class:`~repro.incremental.cones.ConeResult`."""
    (kind, engine_name), tasks = payload
    from ..incremental.cones import evaluate_cone

    results = []
    checks = 0
    for index, (cone, upper) in tasks:
        result = evaluate_cone(cone, kind, engine_name, upper)
        checks += result.checks
        results.append((index, result))
    return results, {"incremental.cone_checks": checks}, {}


def sample_seed(seed: int, index: int) -> str:
    """Seed of the ``index``-th Monte Carlo sub-stream.

    String seeds hash through SHA-512 inside :class:`random.Random`, so
    sub-streams are deterministic across processes and platforms (int
    tuple hashing would work too, but string seeding is explicit about
    not depending on ``PYTHONHASHSEED`` semantics).
    """
    return f"mc:{seed}:{index}"


def _monte_carlo_worker(payload):
    """Items are sample indices; a result is that sample's delay, drawn
    from its own seeded sub-stream, so the sample list is independent of
    chunking (the serial path draws the same sub-streams)."""
    (circuit, pairs, seed, model_spec), tasks = payload
    from ..core.statistical import (
        resolve_delay_model,
        sample_delay_once,
        settle_pair_initials,
    )

    from .metrics import metrics_scope

    delay_model = resolve_delay_model(model_spec)
    samples = []
    # A scoped instance isolates this chunk's counters (pool processes are
    # reused), so the wordsim accounting folds back exactly once.
    with metrics_scope() as chunk_metrics:
        # One bit-parallel settle of all pairs' v_-1 states per worker
        # chunk; settled values are delay-independent, so every sample
        # reuses them.
        initials = settle_pair_initials(circuit, pairs)
        for index, sample in tasks:
            rng = random.Random(sample_seed(seed, sample))
            samples.append(
                (
                    index,
                    sample_delay_once(
                        circuit, pairs, delay_model, rng, initials=initials
                    ),
                )
            )
    return samples, chunk_metrics.snapshot()["counters"], {}


def _characterize_worker(payload):
    """Items are :func:`repro.characterize.runner.job_payload` dicts (each
    names its registry circuit, so payloads stay small); a result is the
    job's result dict.  Caching is the parent's job."""
    __, tasks = payload
    from ..characterize.runner import execute_payload

    from .metrics import metrics_scope

    # Scoped counters: pool processes are reused across chunks, so the
    # chunk's wordsim/engine accounting must fold back exactly once.
    with metrics_scope() as chunk_metrics:
        results = [(index, execute_payload(job)) for index, job in tasks]
    return results, chunk_metrics.snapshot()["counters"], {}


def _fuzz_worker(payload):
    """Items are ``Scenario.to_dict`` payloads (self-contained, with
    embedded BENCH text); the context is the oracle config (``oracles``,
    ``oracle_jobs``, ``plant``); a result is the scenario's ordered
    verdict-dict list."""
    config, tasks = payload
    from ..fuzz.runner import execute_scenario_payload

    from .metrics import metrics_scope

    with metrics_scope() as chunk_metrics:
        results = [
            (index, execute_scenario_payload(scenario_data, config))
            for index, scenario_data in tasks
        ]
    return results, chunk_metrics.snapshot()["counters"], {}


#: Label -> worker for every fan-out :func:`shard_map` runs.  The labels
#: name the run spans (``parallel.<label>``), chunk spans (``<label>.chunk``)
#: and fault-injection trace events.
TASK_KINDS: Dict[str, Callable] = {
    "pairs": _pairs_worker,
    "faults": _fault_worker,
    "cones": _cone_worker,
    "monte-carlo": _monte_carlo_worker,
    "characterize": _characterize_worker,
    "fuzz": _fuzz_worker,
}
