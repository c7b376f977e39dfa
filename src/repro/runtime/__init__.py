"""Production runtime services: fingerprinting, caching, sharding, metrics.

The delay computations in :mod:`repro.core` are pure functions of the
circuit content plus a handful of parameters.  This package exploits that:

* :mod:`repro.runtime.fingerprint` — canonical content hash of a
  :class:`~repro.network.circuit.Circuit`, so analyses are keyable;
* :mod:`repro.runtime.cache` — two-tier (memory LRU + optional disk)
  result cache keyed by ``(fingerprint, kind, engine, constraint, params)``;
* :mod:`repro.runtime.parallel` — :func:`shard_map`, the one
  fault-tolerant sharder for every per-item fan-out (per-chunk
  timeouts, poison-isolation retries, serial degradation) over the
  :data:`TASK_KINDS` registry;
* :mod:`repro.runtime.transport` — :class:`LocalPoolTransport`, the
  in-host process pool every sharded round runs on;
* :mod:`repro.runtime.metrics` — the one recorder threaded through the
  cores: counters, gauges and timed spans, kept both as flat totals
  (``--metrics``, the e2e harness's layer records) and as the span
  tree with worker attribution and retry/degradation events
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
    circuit_merkle_root,
    circuit_signature,
    cone_fingerprint,
    node_cone_fingerprints,
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
    execution_policy,
    set_execution_policy,
    shard_map,
)
from .transport import ChunkResult, LocalPoolTransport, resolve_jobs

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
    "circuit_merkle_root",
    "circuit_signature",
    "cone_fingerprint",
    "node_cone_fingerprints",
    "params_token",
    "GLOBAL_METRICS",
    "METRICS",
    "Metrics",
    "Span",
    "current_metrics",
    "metrics_scope",
    "TASK_KINDS",
    "execution_policy",
    "set_execution_policy",
    "shard_map",
    "ChunkResult",
    "LocalPoolTransport",
    "resolve_jobs",
]
