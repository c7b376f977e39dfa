"""The long-lived what-if timing query service (``repro serve``).

A JSON-lines request loop: one request object per line in, one response
object per line out.  :func:`serve_stdio` runs one session over stdio;
the multi-client front-end (:mod:`repro.serve`, ``--tcp`` / ``--socket``)
runs one :class:`QueryService` per connection.

Requests (``op`` selects the action)::

    {"op": "load", "netlist": "path/to/c17.bench"}
    {"op": "load", "bench": "INPUT(a)\\n..."}        # inline netlist text
    {"op": "edit", "edits": [{"op": "set_delay", "name": "g1", "delay": 3},
                             {"op": "rewire", "name": "g2", "fanins": ["a"]},
                             {"op": "replace_gate", "name": "g3",
                              "gate_type": "nand"},
                             {"op": "remove_gate", "name": "g4"}]}
    {"op": "query", "kind": "floating"}              # or transition/topological
    {"op": "certify"}                                # per-output vector pairs
    {"op": "stats"}                                  # engine + pool accounting
    {"op": "shutdown"}

Responses are ``{"id", "ok", "result" | "error", "elapsed_ms"}``.  Every
field except ``elapsed_ms`` is deterministic (request ids are counters,
not clocks; records come from the incremental engine, whose answers are
execution-route-invariant), so scripted sessions can be diffed against
golden files after stripping ``elapsed_ms`` — that is exactly what the CI
serve-protocol job does.

The service keeps an :class:`~repro.incremental.engine.IncrementalTimingEngine`
attached to the loaded circuit across requests, so an edit/query session
pays only for dirty cones, and a caller-owned
:class:`~repro.runtime.transport.LocalPoolTransport` (``--jobs N``) keeps
worker processes warm between requests.  Signals (SIGINT/SIGTERM) and
the ``shutdown`` op both end the stdio loop gracefully: the in-flight
request completes before the loop returns.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from typing import Dict, Optional

from ..core.transition import collect_certification_pairs
from ..network import load_circuit, loads_bench
from ..network.circuit import Circuit
from ..network.gates import GateType
from ..runtime.cache import DelayCache
from ..runtime.metrics import METRICS
from ..runtime.transport import LocalPoolTransport
from ..serve.framing import (
    ProtocolError,
    iter_request_lines,
    prepare_unix_socket_path,
    send_json_line,
)
from .cones import KINDS
from .engine import IncrementalTimingEngine

__all__ = [
    "QueryService",
    "ServiceError",
    "iter_request_lines",
    "prepare_unix_socket_path",
    "serve_stream",
    "serve_stdio",
]


# A malformed or unserviceable request (reported, never fatal).  This is
# the framing layer's exception type so endpoint-lifecycle failures (a
# live socket refusing takeover in prepare_unix_socket_path) and bad
# requests surface through one catchable class.
ServiceError = ProtocolError


class QueryService:
    """Request dispatch and session state for one serve loop.

    With ``jobs != 1`` dirty cones shard over ``transport`` (``None``
    builds a pool per query) with a ``timeout``-second round limit.  The
    service is latency-first: a failed round is not retried, its cones
    finish in-process.
    """

    def __init__(
        self,
        engine_name: str = "auto",
        jobs: int = 1,
        transport: Optional[LocalPoolTransport] = None,
        cache: Optional[DelayCache] = None,
        timeout: Optional[float] = None,
    ):
        self.engine_name = engine_name
        self.jobs = jobs
        self.transport = transport
        self.timeout = timeout
        #: Cone-result cache handed to every engine this service builds.
        #: ``None`` keeps the engine's private per-load default; the
        #: multi-client server passes one shared content-addressed cache
        #: so sessions analysing overlapping cones reuse each other's
        #: results.
        self.cache = cache
        self.engine: Optional[IncrementalTimingEngine] = None
        self._requests = 0
        self._reloads = 0
        self._shutdown = False

    @property
    def shutdown_requested(self) -> bool:
        return self._shutdown

    def preload(self, path: str) -> Dict[str, object]:
        """Load a netlist before the request loop starts (CLI --netlist)."""
        return self._op_load({"netlist": path})

    def request_shutdown(self) -> None:
        self._shutdown = True

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def allocate_id(self) -> str:
        """Allocate the next request id (a deterministic counter).

        The async front-end allocates ids at line-arrival time — before a
        request waits in the admission queue or coalesces onto another
        session's in-flight computation — so a session's ids always
        reflect its own request order, exactly as on a single-client
        transport.
        """
        self._requests += 1
        return f"req-{self._requests:06d}"

    def handle_line(
        self, line: str, trace_id: Optional[str] = None
    ) -> Dict[str, object]:
        """One request line in, one response object out (never raises)."""
        if trace_id is None:
            trace_id = self.allocate_id()
        start = time.perf_counter()
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ServiceError("request must be a JSON object")
            op = request.get("op")
            with METRICS.span("service.request", id=trace_id, op=str(op)):
                result = self._dispatch(request)
            response: Dict[str, object] = {
                "id": trace_id, "ok": True, "result": result,
            }
        except (ServiceError, ValueError, KeyError, OSError) as error:
            METRICS.incr("service.errors")
            response = {"id": trace_id, "ok": False, "error": str(error)}
        response["elapsed_ms"] = round(
            (time.perf_counter() - start) * 1000, 3
        )
        return response

    def _dispatch(self, request: Dict[str, object]):
        op = request.get("op")
        handler = {
            "load": self._op_load,
            "edit": self._op_edit,
            "query": self._op_query,
            "certify": self._op_certify,
            "stats": self._op_stats,
            "shutdown": self._op_shutdown,
        }.get(op)
        if handler is None:
            raise ServiceError(f"unknown op {op!r}")
        return handler(request)

    def _require_engine(self) -> IncrementalTimingEngine:
        if self.engine is None:
            raise ServiceError("no circuit loaded (send a 'load' first)")
        return self.engine

    # -- ops -----------------------------------------------------------
    def _op_load(self, request):
        if "netlist" in request:
            circuit = load_circuit(str(request["netlist"]))
        elif "bench" in request:
            circuit = loads_bench(str(request["bench"]))
        else:
            raise ServiceError("load needs 'netlist' (path) or 'bench' (text)")
        if self.engine is not None:
            # Reloading replaces the engine while warm-pool rounds for the
            # previous circuit could still be in flight (the async server
            # shares one pool across sessions): drain the pool so no
            # worker is left computing cones of the detached circuit, and
            # drop the old engine's memo so its references die with it.
            if self.transport is not None:
                self.transport.drain()
            self.engine.invalidate()
            self._reloads += 1
            METRICS.incr("service.reloads")
        self.engine = IncrementalTimingEngine(
            circuit,
            engine_name=self.engine_name,
            jobs=self.jobs,
            cache=self.cache,
            transport=self.transport,
            timeout=self.timeout,
            retries=0,
        )
        return {
            "circuit": circuit.name,
            "inputs": len(circuit.inputs),
            "outputs": len(circuit.outputs),
            "gates": circuit.num_gates,
        }

    def _op_edit(self, request):
        engine = self._require_engine()
        edits = request.get("edits")
        if not isinstance(edits, list):
            raise ServiceError("edit needs an 'edits' list")
        circuit = engine.circuit
        applied = 0
        for edit in edits:
            self._apply_edit(circuit, edit)
            applied += 1
        return {"applied": applied, "revision": circuit.revision}

    @staticmethod
    def _apply_edit(circuit: Circuit, edit) -> None:
        if not isinstance(edit, dict):
            raise ServiceError("each edit must be a JSON object")
        op = edit.get("op")
        name = edit.get("name")
        if not isinstance(name, str):
            raise ServiceError("each edit needs a 'name'")
        if op == "set_delay":
            circuit.set_delay(name, int(edit["delay"]))
        elif op == "rewire":
            circuit.rewire(name, [str(f) for f in edit["fanins"]])
        elif op == "replace_gate":
            gate_type = edit.get("gate_type")
            fanins = edit.get("fanins")
            delay = edit.get("delay")
            circuit.replace_gate(
                name,
                gate_type=None if gate_type is None else GateType(gate_type),
                fanins=None if fanins is None else [str(f) for f in fanins],
                delay=None if delay is None else int(delay),
            )
        elif op == "remove_gate":
            circuit.remove_gate(name)
        else:
            raise ServiceError(f"unknown edit op {op!r}")

    def _op_query(self, request):
        engine = self._require_engine()
        kind = request.get("kind", "transition")
        if kind not in KINDS:
            raise ServiceError(
                f"unknown delay kind {kind!r} (expected one of {KINDS})"
            )
        result = engine.query(kind)
        return {"record": result.record, "stats": result.stats}

    def _op_certify(self, request):
        engine = self._require_engine()
        circuit = engine.circuit
        pairs = collect_certification_pairs(
            circuit, engine_name=self.engine_name
        )
        inputs = circuit.inputs
        rendered = {}
        for out in circuit.outputs:
            if out not in pairs:
                continue
            t, pair = pairs[out]
            rendered[out] = {
                "time": t,
                "pair": [
                    "".join("1" if pair.v_prev[n] else "0" for n in inputs),
                    "".join("1" if pair.v_next[n] else "0" for n in inputs),
                ],
            }
        return {"pairs": rendered}

    def _op_stats(self, request):
        result: Dict[str, object] = {
            "requests": self._requests,
            # Counted explicitly: a reload swaps in a fresh engine (and a
            # fresh circuit revision), so without this the accounting
            # would silently restart from zero mid-session.
            "reloads": self._reloads,
            "jobs": self.jobs,
            "engine_name": self.engine_name,
            "counters": {
                name: METRICS.counter(name)
                for name in (
                    "incremental.dirty_nodes",
                    "incremental.reused_cones",
                    "incremental.evaluated_cones",
                    "incremental.cone_cache_hits",
                    "incremental.cone_checks",
                    "service.errors",
                )
            },
        }
        if self.engine is not None:
            result["circuit"] = self.engine.circuit.name
            result["revision"] = self.engine.circuit.revision
        if self.transport is not None:
            result["pool"] = self.transport.stats()
        return result

    def _op_shutdown(self, request):
        self._shutdown = True
        return {"stopping": True}


# ----------------------------------------------------------------------
# The stdio loop (JSON-lines framing shared via repro.serve.framing)
# ----------------------------------------------------------------------
def serve_stream(service: QueryService, reader, writer) -> None:
    """Drive the request loop over text streams."""
    for line in iter_request_lines(reader):
        if not line.strip():
            continue
        send_json_line(writer, service.handle_line(line))
        if service.shutdown_requested:
            break


def _install_signal_handlers(service: QueryService) -> None:
    def handler(signum, frame):
        service.request_shutdown()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, handler)
        except (ValueError, OSError):
            # Not the main thread (tests drive serve_stream directly).
            pass


def serve_stdio(service: QueryService) -> int:
    _install_signal_handlers(service)
    serve_stream(service, sys.stdin, sys.stdout)
    return 0
