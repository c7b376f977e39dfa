"""Production runtime services: fingerprinting, caching, sharding, metrics.

The delay computations in :mod:`repro.core` are pure functions of the
circuit content plus a handful of parameters.  This package exploits that:

* :mod:`repro.runtime.fingerprint` — canonical content hash of a
  :class:`~repro.network.circuit.Circuit`, so analyses are keyable;
* :mod:`repro.runtime.cache` — two-tier (memory LRU + optional disk)
  result cache keyed by ``(fingerprint, kind, engine, constraint, params)``;
* :mod:`repro.runtime.parallel` — :func:`shard_map`, the one
  fault-tolerant sharder for every per-item fan-out (one round on a
  :class:`WorkerPool` under a timeout; failed chunks finish in-process)
  over the :data:`TASK_KINDS` registry;
* :mod:`repro.runtime.metrics` — the one recorder threaded through the
  cores: counters, gauges and timed spans, kept both as flat totals
  (``--metrics``, the e2e harness's layer records) and as the span
  tree with worker attribution and failure/degradation events
  (``--trace``);
* :mod:`repro.runtime.faults` — deterministic fault injection
  (``REPRO_FAULT_INJECT``) so every degradation path is exercised in CI.
"""

from .cache import (
    CACHE_SCHEMA,
    DelayCache,
    configure_cache,
    constraint_cache_id,
    get_cache,
    resolve_cache,
)
from .faults import FaultSpec, parse_fault_spec
from .fingerprint import (
    circuit_fingerprint,
    circuit_signature,
    cone_fingerprint,
    params_token,
)
from .metrics import (
    GLOBAL_METRICS,
    METRICS,
    Metrics,
    Span,
    current_metrics,
    metrics_scope,
)
from .parallel import (
    TASK_KINDS,
    WorkerPool,
    execution_policy,
    resolve_jobs,
    set_execution_policy,
    shard_map,
)

__all__ = [
    "CACHE_SCHEMA",
    "DelayCache",
    "configure_cache",
    "constraint_cache_id",
    "get_cache",
    "resolve_cache",
    "FaultSpec",
    "parse_fault_spec",
    "circuit_fingerprint",
    "circuit_signature",
    "cone_fingerprint",
    "params_token",
    "GLOBAL_METRICS",
    "METRICS",
    "Metrics",
    "Span",
    "current_metrics",
    "metrics_scope",
    "TASK_KINDS",
    "WorkerPool",
    "execution_policy",
    "resolve_jobs",
    "set_execution_policy",
    "shard_map",
]
