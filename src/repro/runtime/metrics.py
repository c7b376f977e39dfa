"""One recorder for counters, gauges, spans and events.

A :class:`Metrics` instance keeps two views of the same accounting:

* flat totals — named counters, max-gauges and cumulative wall time per
  span name (``snapshot()``, the ``--metrics`` report, the e2e
  harness's layer records);
* the span tree — nested timed regions, each holding the counters,
  gauges and events recorded while it was the innermost open span, plus
  the pre-measured chunk spans of worker processes (``--trace`` JSON,
  the ``--metrics`` outline).

Every call writes both views at once, so summing the counters over the
tree gives exactly the totals.  Instrumented code uses the one
context-scoped proxy :data:`METRICS`: it resolves, per call, to the
instance installed in the current :mod:`contextvars` context — by
default the process-global :data:`GLOBAL_METRICS`, which the CLI resets
once per invocation.  :func:`metrics_scope` installs another instance
where isolation is the point: each timing-server session, and each
sharded chunk in a pool worker, whose counters travel back with its
results.

Everything is plain dict arithmetic — cheap enough to stay enabled
unconditionally.  Schemas are in ``docs/RUNTIME.md``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional


class Span:
    """One node of the trace tree.

    ``elapsed`` is wall-clock seconds; ``counters``/``gauges`` hold the
    accounting attributed to exactly this span (children carry their own);
    ``events`` are point-in-time markers (retries, timeouts, degradations).
    """

    __slots__ = (
        "name", "attrs", "counters", "gauges", "events", "children",
        "elapsed",
    )

    def __init__(self, name: str, attrs: Optional[dict] = None) -> None:
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs or {})
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, int] = {}
        self.events: List[dict] = []
        self.children: List["Span"] = []
        self.elapsed = 0.0

    def to_dict(self) -> dict:
        data: Dict[str, object] = {
            "name": self.name,
            "elapsed_ms": round(self.elapsed * 1000, 3),
        }
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        if self.counters:
            data["counters"] = dict(self.counters)
        if self.gauges:
            data["gauges"] = dict(self.gauges)
        if self.events:
            data["events"] = [dict(event) for event in self.events]
        data["children"] = [child.to_dict() for child in self.children]
        return data


def _add(totals: Dict[str, int], name: str, amount: int) -> None:
    totals[name] = totals.get(name, 0) + amount


def _raise(gauges: Dict[str, int], name: str, value: int) -> None:
    if value > gauges.get(name, 0):
        gauges[name] = value


class Metrics:
    """Flat totals and the span tree, written together.

    The root span, named ``session``, opens at construction (or
    :meth:`reset`) and is closed at export time, so it always covers
    every span recorded in between.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, int] = {}
        self._phases: Dict[str, float] = {}
        self._root = Span("session")
        self._started = time.perf_counter()
        self._stack: List[Span] = [self._root]

    @property
    def root(self) -> Span:
        return self._root

    # -- counters and gauges (totals + the innermost open span) -------
    def incr(self, name: str, amount: int = 1) -> None:
        _add(self._counters, name, amount)
        _add(self._stack[-1].counters, name, amount)

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge_max(self, name: str, value: int) -> None:
        """Raise a high-water mark (e.g. peak BDD nodes)."""
        _raise(self._gauges, name, value)
        _raise(self._stack[-1].gauges, name, value)

    def gauge(self, name: str) -> int:
        return self._gauges.get(name, 0)

    # -- spans and events ---------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Time the block as a child of the innermost open span; on close
        (exceptions included) its wall time also adds to the flat total
        for ``name``."""
        child = Span(name, attrs)
        self._stack[-1].children.append(child)
        self._stack.append(child)
        start = time.perf_counter()
        try:
            yield child
        finally:
            elapsed = time.perf_counter() - start
            child.elapsed += elapsed
            self._phases[name] = self._phases.get(name, 0.0) + elapsed
            self._stack.pop()

    def phase_seconds(self, name: str) -> float:
        """Cumulative wall time of every closed span named ``name``."""
        return self._phases.get(name, 0.0)

    def add_span(
        self,
        name: str,
        elapsed: float,
        counters: Optional[Dict[str, int]] = None,
        gauges: Optional[Dict[str, int]] = None,
        **attrs,
    ) -> Span:
        """Attach an already-measured child span — a worker chunk clocked
        in another process — and fold its counters (added) and gauges
        (max) into the totals and onto that span only.

        Its time stays out of the per-name totals: chunks of one round
        overlap, so their sum is not wall time.
        """
        child = Span(name, attrs)
        child.elapsed = float(elapsed)
        for counter, amount in (counters or {}).items():
            _add(self._counters, counter, amount)
            _add(child.counters, counter, amount)
        for gauge, value in (gauges or {}).items():
            _raise(self._gauges, gauge, value)
            _raise(child.gauges, gauge, value)
        self._stack[-1].children.append(child)
        return child

    def event(self, name: str, **attrs) -> None:
        """Record a point-in-time marker on the innermost open span."""
        self._stack[-1].events.append({"event": name, **attrs})

    # -- reporting ----------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "phases": dict(self._phases),
        }

    def report(self) -> str:
        """Aligned plain-text report of the totals, stable order for
        golden output."""
        lines = ["runtime metrics"]
        if self._counters:
            lines.append("  counters:")
            width = max(len(k) for k in self._counters)
            for name in sorted(self._counters):
                lines.append(f"    {name:<{width}}  {self._counters[name]}")
        if self._gauges:
            lines.append("  gauges:")
            width = max(len(k) for k in self._gauges)
            for name in sorted(self._gauges):
                lines.append(f"    {name:<{width}}  {self._gauges[name]}")
        if self._phases:
            lines.append("  phases:")
            width = max(len(k) for k in self._phases)
            for name in sorted(self._phases):
                lines.append(
                    f"    {name:<{width}}  {self._phases[name]*1000:.1f} ms"
                )
        if len(lines) == 1:
            lines.append("  (no activity recorded)")
        return "\n".join(lines)

    def finalize(self) -> Span:
        """Close the root over everything recorded so far (idempotent —
        the root only ever grows)."""
        self._root.elapsed = time.perf_counter() - self._started
        return self._root

    def export(self, path) -> None:
        """Write the tree as JSON (the ``--trace FILE`` document)."""
        document = json.dumps(self.finalize().to_dict(), indent=2)
        with open(path, "w") as handle:
            handle.write(document + "\n")

    def render(self) -> str:
        """Indented plain-text tree (the ``--metrics`` outline)."""
        self.finalize()
        lines = ["execution trace"]

        def describe(mapping: Dict[str, object]) -> str:
            return ", ".join(f"{k}={v}" for k, v in sorted(mapping.items()))

        def walk(span: Span, depth: int) -> None:
            pad = "  " * depth
            line = f"{pad}{span.name}  {span.elapsed * 1000:.1f} ms"
            if span.attrs:
                line += f"  [{describe(span.attrs)}]"
            lines.append(line)
            for name, value in sorted(span.counters.items()):
                lines.append(f"{pad}  . {name} = {value}")
            for name, value in sorted(span.gauges.items()):
                lines.append(f"{pad}  ^ {name} = {value}")
            for event in span.events:
                rest = {k: v for k, v in event.items() if k != "event"}
                line = f"{pad}  ! {event['event']}"
                if rest:
                    line += f"  [{describe(rest)}]"
                lines.append(line)
            for child in span.children:
                walk(child, depth + 1)

        walk(self._root, 1)
        return "\n".join(lines)


#: The default (process-global) recorder; the CLI resets it per
#: invocation.  Worker processes have their own (discarded) instance.
GLOBAL_METRICS = Metrics()

#: The recorder of the *current execution context*; everything outside an
#: explicit :func:`metrics_scope` resolves to :data:`GLOBAL_METRICS`.
_METRICS_VAR: ContextVar[Metrics] = ContextVar(
    "repro_metrics", default=GLOBAL_METRICS
)


def current_metrics() -> Metrics:
    """The :class:`Metrics` instance the proxy resolves to right now."""
    return _METRICS_VAR.get()


@contextmanager
def metrics_scope(metrics: Optional[Metrics] = None) -> Iterator[Metrics]:
    """Install ``metrics`` (default: a fresh instance) as :data:`METRICS`
    for the duration of the block, in this context only.

    Scopes nest, and — because the backing store is a
    :class:`~contextvars.ContextVar` — concurrent asyncio tasks or
    threads that each enter their own scope record into disjoint
    instances.  A new thread starts outside every scope: it must enter
    the scope itself, which is what the timing server's compute
    executor does per session.
    """
    metrics = metrics if metrics is not None else Metrics()
    token = _METRICS_VAR.set(metrics)
    try:
        yield metrics
    finally:
        _METRICS_VAR.reset(token)


class _MetricsProxy:
    """Context-resolving face of the recorder.

    Attribute access — ``METRICS.incr``, ``METRICS.span``,
    ``METRICS.snapshot`` — forwards to :func:`current_metrics`, so every
    call site records into the session's instance when one is scoped,
    and into :data:`GLOBAL_METRICS` otherwise.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        return getattr(_METRICS_VAR.get(), name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<METRICS proxy -> {_METRICS_VAR.get()!r}>"


#: Context-scoped recorder proxy (see module docstring).
METRICS = _MetricsProxy()


def _record_peak_nodes(engine) -> None:
    """Raise the ``boolfn.peak_nodes`` high-water mark to the engine
    manager's node count, when the engine exposes one."""
    manager = getattr(engine, "manager", None)
    num_nodes = getattr(manager, "num_nodes", None)
    if callable(num_nodes):  # method-style managers
        num_nodes = num_nodes()
    if isinstance(num_nodes, int):
        METRICS.gauge_max("boolfn.peak_nodes", num_nodes)


def record_sat_probes(prefix: str, engine, since: int = 0) -> None:
    """Fold the SAT probes ``engine`` made since its count stood at
    ``since`` into :data:`METRICS` as ``<prefix>.sat_probes``, and its
    node count into the ``boolfn.peak_nodes`` high-water mark (the
    certification pairs and the ``faults`` fan-out, which count engine
    probes rather than a query's checks)."""
    METRICS.incr(
        f"{prefix}.sat_probes", getattr(engine, "num_sat_checks", 0) - since
    )
    _record_peak_nodes(engine)


def record_engine_metrics(kind: str, engine, functions: int, checks: int) -> None:
    """Fold one delay computation's accounting into :data:`METRICS`."""
    METRICS.incr(f"{kind}.checks", checks)
    METRICS.incr(f"{kind}.functions_built", functions)
    _record_peak_nodes(engine)
