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

Otherwise the items are split round-robin into chunks, one pool task
each.  The pool's entry point runs the worker under a fresh
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

Execution is *fault-tolerant*: the chunks run as one round of pool
tasks under the per-round wall-clock timeout that
:func:`set_execution_policy` sets (``--timeout``), and the items of every
chunk that failed or timed out then run through the worker in-process,
under a ``<label>.serial-fallback`` span.  A ``jobs=N`` run therefore
never produces less than the serial run: worker death degrades
throughput, not results.  Every failure and the degradation are counted
in :data:`~repro.runtime.metrics.METRICS` and recorded as events on the
innermost open span; the deterministic fault hooks in
:mod:`repro.runtime.faults` exercise each path in CI.

Each round runs on a :class:`~repro.runtime.transport.LocalPoolTransport`
(:mod:`repro.runtime.transport`): the caller's long-lived pool when it
passes one, otherwise a pool built for the run and closed after it.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .faults import worker_fault
from .metrics import METRICS, record_sat_probes
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
    indices = [index for index, __ in chunk_result.chunk]
    results.extend(zip(indices, chunk_result.result))


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
    context,
    items: Sequence[Tuple[int, object]],
    jobs: int,
    transport: Optional[LocalPoolTransport],
) -> list:
    """Run ``worker`` over round-robin chunks of the indexed ``items`` in
    one pool round, then finish every failed chunk's items in-process.

    Returns every item's ``(index, result)`` in completion order;
    :func:`shard_map` restores item order.

    Task indices — what fault injection keys on — count from 0 in every
    run, so an injected fault fires once per run.  ``transport`` is a
    caller-owned pool, used and left open; without one the run builds a
    ``jobs``-worker pool and closes it after the round.
    """

    def make_payload(chunk):
        return context, [item for __, item in chunk]

    tasks = list(enumerate(_chunk_round_robin(items, jobs)))
    owned = transport is None
    if owned:
        transport = LocalPoolTransport(jobs)
    try:
        completed, failed = transport.run_round(
            worker, make_payload, tasks, _POLICY["timeout"], worker_fault()
        )
    finally:
        if owned:
            transport.close()
    results: list = []
    for chunk_result in completed:
        _harvest_chunk(chunk_result, label, results)
    for index, chunk, reason in failed:
        _record_failure(index, chunk, reason, label)
    if failed:
        # Whatever failed runs through the worker in this process, so
        # jobs=N can never return less than the serial run (a genuine
        # error raises here exactly as it would have serially).
        failed.sort(key=lambda task: task[0])
        remainder = [item for __, chunk, __reason in failed for item in chunk]
        METRICS.incr("parallel.serial_fallback_items", len(remainder))
        METRICS.incr("transport.degraded")
        METRICS.event("degrade-serial", label=label, items=len(remainder))
        with METRICS.span(f"{label}.serial-fallback", items=len(remainder)):
            result = worker(*make_payload(remainder))
        results.extend(zip([index for index, __ in remainder], result))
    return results


def shard_map(
    label: str,
    context,
    items: Sequence,
    jobs: int,
    *,
    transport: Optional[LocalPoolTransport] = None,
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
    ``transport`` is an optional caller-owned pool, the run is timed as
    the ``parallel.<label>`` span and its chunks as ``<label>.chunk``
    spans.
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
            label, worker, context, list(enumerate(items)), jobs, transport
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
    :class:`~repro.incremental.cones.ConeResult`."""
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
