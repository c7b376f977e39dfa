"""The multi-client async timing server (``trued serve --tcp`` /
``--socket``).

:mod:`repro.incremental.service` answers one client over stdio.  This
package puts an asyncio front-end on the same JSON-lines protocol so
*many* concurrent sessions multiplex over one process — and over one
shared :class:`~repro.runtime.parallel.WorkerPool` and one shared
content-addressed :class:`~repro.runtime.cache.DelayCache`:

* :mod:`repro.serve.server` — :class:`TimingServer`: per-session circuit
  namespaces (each connection owns a
  :class:`~repro.incremental.service.QueryService` with its own
  :class:`~repro.incremental.engine.IncrementalTimingEngine`), a bounded
  admission queue with explicit ``busy`` backpressure, cross-client
  request coalescing keyed on circuit content fingerprints, and a
  session-scoped recorder (:func:`~repro.runtime.metrics.metrics_scope`);
* :mod:`repro.serve.loadgen` — the ``trued loadgen`` client fleet:
  N concurrent scripted sessions with p50/p95/p99 latency, throughput,
  and coalescing accounting.
"""

__all__ = [
    "LoadReport",
    "default_script",
    "run_loadgen",
    "ServerStats",
    "TimingServer",
    "run_server",
]

_EXPORTS = {
    "LoadReport": "loadgen",
    "default_script": "loadgen",
    "run_loadgen": "loadgen",
    "ServerStats": "server",
    "TimingServer": "server",
    "run_server": "server",
}


def __getattr__(name):
    # Lazy re-exports (PEP 562): `serve.framing` is imported by
    # `incremental.service` (the shared JSON-lines framing lives here),
    # and eagerly importing `.server` from this package __init__ would
    # close that loop into a cycle — `.server` itself imports
    # `incremental.service` for QueryService.
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
