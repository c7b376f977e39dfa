"""``TimingServer`` — asyncio TCP/unix front-end for the query service.

One process serves many concurrent JSON-lines sessions (the protocol is
exactly the single-client one in :mod:`repro.incremental.service`; see
``docs/INCREMENTAL.md`` for framing).  The moving parts:

* **Per-session namespaces.**  Every accepted connection owns a
  :class:`~repro.incremental.service.QueryService` — its own loaded
  circuit, engine, request-id counter — plus a session-scoped
  :class:`~repro.runtime.metrics.Metrics` installed via contextvars
  around every computation, so concurrent sessions never interleave
  counter deltas or trace spans.  Responses on one connection are
  byte-identical to the same script on a single-client transport.

* **Bounded admission with backpressure.**  Requests that need compute
  enter a FIFO queue drained by one executor thread, so no two requests
  run at once on the shared :class:`~repro.runtime.cache.DelayCache` or
  the shared :class:`~repro.runtime.parallel.WorkerPool`, which runs one
  round at a time: parallelism lives *inside* a request, across the
  dirty cones sharded over that pool.  When ``max_pending`` requests
  are already queued or executing, new compute requests are rejected
  immediately with ``{"ok": false, "error": "busy", "busy": true}`` —
  no request id is consumed, so a client can simply retry.  This is the bounded-concurrency manager
  shape: admit, queue, run-behind-a-semaphore, shed load explicitly
  instead of stalling the socket.

* **Cross-client request coalescing.**  ``query``/``certify`` answers
  are pure functions of (circuit content fingerprint, kind, engine), so
  when such a request arrives while an *identical* one is already in
  flight for any session, it does not enqueue a second computation — it
  awaits the leader's result, which fans out to every waiter.  Waiters
  are marked with ``"coalesced": 1`` inside the volatile ``stats``
  payload; the deterministic ``record`` is byte-identical to what the
  waiter would have computed itself.

Shutdown: the ``shutdown`` op (from any session) stops the whole server
gracefully — in-flight requests complete, the pool closes, sockets
close, a unix socket file is unlinked (stale files from a hard-killed
predecessor are probe-detected and removed at bind time, see
:func:`~repro.serve.framing.prepare_unix_socket_path`).
"""

from __future__ import annotations

import asyncio
import copy
import json
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..incremental.service import QueryService
from ..runtime.cache import DelayCache
from ..runtime.fingerprint import circuit_fingerprint
from ..runtime.metrics import Metrics, metrics_scope
from ..runtime.parallel import WorkerPool
from .framing import MAX_LINE_BYTES, prepare_unix_socket_path


@dataclass
class ServerStats:
    """Process-level accounting (sessions/admission/coalescing), distinct
    from the per-session counters the ``stats`` op reports."""

    sessions_opened: int = 0
    sessions_active: int = 0
    requests: int = 0
    busy_rejections: int = 0
    coalesce_hits: int = 0
    coalesce_leaders: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "sessions_opened": self.sessions_opened,
            "sessions_active": self.sessions_active,
            "requests": self.requests,
            "busy_rejections": self.busy_rejections,
            "coalesce_hits": self.coalesce_hits,
            "coalesce_leaders": self.coalesce_leaders,
        }


class _Session:
    """One connection's namespace: service state + observability scope."""

    __slots__ = ("name", "service", "metrics")

    def __init__(self, name: str, service: QueryService) -> None:
        self.name = name
        self.service = service
        self.metrics = Metrics()


@dataclass
class _Job:
    """One admitted compute request waiting in the queue."""

    session: _Session
    line: str
    trace_id: str
    key: Optional[tuple]
    done: "asyncio.Future" = field(repr=False, default=None)


class TimingServer:
    """Multiplex many JSON-lines sessions over shared pool and cache."""

    def __init__(
        self,
        engine_name: str = "auto",
        jobs: int = 1,
        max_pending: int = 64,
        cache: Optional[DelayCache] = None,
        preload: Optional[str] = None,
    ) -> None:
        self.engine_name = engine_name
        self.max_pending = max(1, int(max_pending))
        #: Shared across sessions: cone results are content-addressed, so
        #: one client's computation warms every other client's cache.
        self.cache = cache if cache is not None else DelayCache()
        #: The pool every session's dirty cones shard over (``jobs != 1``).
        self.pool = WorkerPool(jobs) if jobs != 1 else None
        self.preload = preload
        self.stats_counters = ServerStats()
        self._pending = 0
        self._inflight: Dict[tuple, asyncio.Future] = {}
        self._queue: Optional[asyncio.Queue] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._worker_task: Optional[asyncio.Task] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._writers: set = set()
        self._unix_path: Optional[str] = None
        self._stopping: Optional[asyncio.Event] = None
        self._session_count = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        unix_path: Optional[str] = None,
    ) -> None:
        """Bind the requested transports and start the compute thread."""
        if host is None and unix_path is None:
            raise ValueError("start() needs a TCP host/port, a unix path, "
                             "or both")
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._queue = asyncio.Queue()
        self._stopping = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="trued-serve"
        )
        self._worker_task = loop.create_task(self._worker_loop())
        if host is not None:
            server = await asyncio.start_server(
                self._handle_connection, host, port or 0,
                limit=MAX_LINE_BYTES,
            )
            self._servers.append(server)
        if unix_path is not None:
            prepare_unix_socket_path(unix_path)
            server = await asyncio.start_unix_server(
                self._handle_connection, unix_path, limit=MAX_LINE_BYTES,
            )
            self._servers.append(server)
            self._unix_path = unix_path

    @property
    def tcp_address(self) -> Optional[Tuple[str, int]]:
        """The bound TCP ``(host, port)`` (after :meth:`start`)."""
        for server in self._servers:
            for sock in server.sockets or []:
                name = sock.getsockname()
                if isinstance(name, tuple) and len(name) >= 2:
                    return (name[0], name[1])
        return None

    def request_shutdown(self) -> None:
        if self._stopping is not None:
            self._stopping.set()

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` op (or :meth:`request_shutdown`)."""
        await self._stopping.wait()
        await self.stop()

    async def stop(self) -> None:
        """Graceful teardown: finish queued work, then release everything."""
        if self._stopping is not None:
            self._stopping.set()
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        if self._worker_task is not None:
            await self._queue.join()
            self._queue.put_nowait(None)
            await asyncio.gather(self._worker_task, return_exceptions=True)
            self._worker_task = None
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._unix_path is not None and os.path.exists(self._unix_path):
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
            self._unix_path = None
        if self.pool is not None:
            self.pool.close()

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def _open_session(self) -> _Session:
        self._session_count += 1
        self.stats_counters.sessions_opened += 1
        self.stats_counters.sessions_active += 1
        service = QueryService(
            engine_name=self.engine_name, pool=self.pool, cache=self.cache
        )
        return _Session(f"session-{self._session_count:04d}", service)

    async def _handle_connection(self, reader, writer) -> None:
        session = self._open_session()
        self._writers.add(writer)
        try:
            if self.preload:
                await self._run_in_executor(
                    session, lambda: session.service.preload(self.preload)
                )
            while not self._stopping.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace")
                # readline() returns a final unterminated line at EOF
                # as-is (no trailing newline) — it is serviced like any
                # other, so a client that forgets the last "\n" still
                # gets its answer before the connection closes.
                if not text.strip():
                    continue
                response = await self._serve_line(session, text)
                payload = json.dumps(response, sort_keys=True) + "\n"
                writer.write(payload.encode("utf-8"))
                try:
                    await writer.drain()
                except ConnectionError:
                    break
                if session.service.shutdown_requested:
                    self.request_shutdown()
                    break
        finally:
            self.stats_counters.sessions_active -= 1
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # Request path: coalesce -> admit -> queue -> executor
    # ------------------------------------------------------------------
    async def _serve_line(self, session: _Session, line: str) -> dict:
        request = self._parse(line)
        op = request.get("op") if isinstance(request, dict) else None
        if op == "server_stats":
            # Answered inline: process-level accounting must stay
            # readable even when the compute queue is saturated.
            self.stats_counters.requests += 1
            return {
                "id": session.service.allocate_id(),
                "ok": True,
                "result": self.stats(),
                "elapsed_ms": 0.0,
            }
        key = self._coalesce_key(session, request)
        if key is not None:
            leader = self._inflight.get(key)
            if leader is not None:
                return await self._await_leader(session, key, leader)
        if self._pending >= self.max_pending:
            # Shed load explicitly: no id is consumed, the session's
            # counter stays aligned with its *serviced* requests.
            self.stats_counters.busy_rejections += 1
            return {
                "id": None,
                "ok": False,
                "busy": True,
                "error": "busy",
                "pending": self._pending,
                "max_pending": self.max_pending,
                "elapsed_ms": 0.0,
            }
        trace_id = session.service.allocate_id()
        job = _Job(session=session, line=line, trace_id=trace_id, key=key,
                   done=self._loop.create_future())
        self._pending += 1
        if key is not None:
            self.stats_counters.coalesce_leaders += 1
            self._inflight[key] = self._loop.create_future()
        await self._queue.put(job)
        return await job.done

    async def _await_leader(
        self, session: _Session, key: tuple, leader: asyncio.Future
    ) -> dict:
        """Coalesced path: adopt the in-flight computation's outcome."""
        trace_id = session.service.allocate_id()
        self.stats_counters.requests += 1
        self.stats_counters.coalesce_hits += 1
        session.metrics.incr("serve.coalesced_requests")
        start = time.perf_counter()
        status, payload = await asyncio.shield(leader)
        response: Dict[str, object] = {"id": trace_id, "ok": status == "ok"}
        if status == "ok":
            result = copy.deepcopy(payload)
            if isinstance(result, dict) and isinstance(
                result.get("stats"), dict
            ):
                result["stats"]["coalesced"] = 1
            response["result"] = result
        else:
            response["error"] = payload
        response["elapsed_ms"] = round(
            (time.perf_counter() - start) * 1000, 3
        )
        return response

    async def _worker_loop(self) -> None:
        while True:
            job = await self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            try:
                response = await self._run_in_executor(
                    job.session,
                    lambda: job.session.service.handle_line(
                        job.line, job.trace_id
                    ),
                )
            except Exception as error:  # handle_line never raises; belt
                response = {
                    "id": job.trace_id,
                    "ok": False,
                    "error": f"internal error: {error!r}",
                    "elapsed_ms": 0.0,
                }
            self._pending -= 1
            self.stats_counters.requests += 1
            self._resolve_inflight(job, response)
            if not job.done.done():
                job.done.set_result(response)
            self._queue.task_done()

    def _resolve_inflight(self, job: _Job, response: dict) -> None:
        """Fan the leader's outcome out to every coalesced waiter.  The
        key is removed *before* resolving, so requests arriving after
        completion start a fresh computation (they would otherwise adopt
        an arbitrarily old result)."""
        if job.key is None:
            return
        future = self._inflight.pop(job.key, None)
        if future is None or future.done():
            return
        if response.get("ok"):
            future.set_result(("ok", copy.deepcopy(response.get("result"))))
        else:
            future.set_result(("error", response.get("error")))

    async def _run_in_executor(self, session: _Session, fn):
        """Run ``fn`` on a compute thread under the session's recorder
        scope (contextvars do not cross thread boundaries on their own)."""

        def scoped():
            with metrics_scope(session.metrics):
                return fn()

        return await self._loop.run_in_executor(self._executor, scoped)

    # ------------------------------------------------------------------
    # Coalescing keys
    # ------------------------------------------------------------------
    @staticmethod
    def _parse(line: str):
        try:
            return json.loads(line)
        except ValueError:
            return None  # the service reports the parse error itself

    def _coalesce_key(self, session: _Session, request) -> Optional[tuple]:
        """Content key for deduplicatable requests, else ``None``.

        Only pure queries coalesce: their answers are functions of
        (circuit content, kind, engine) alone.  ``load``/``edit`` mutate
        session state and always run; malformed requests run so the
        owning session reports its own error.
        """
        if not isinstance(request, dict):
            return None
        engine = session.service.engine
        if engine is None:
            return None
        op = request.get("op")
        if op == "query":
            kind = request.get("kind", "transition")
            return (
                "query",
                circuit_fingerprint(engine.circuit),
                str(kind),
                session.service.engine_name,
            )
        if op == "certify":
            return (
                "certify",
                circuit_fingerprint(engine.circuit),
                session.service.engine_name,
            )
        return None

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Process-level stats (the ``server_stats`` protocol op)."""
        result: Dict[str, object] = dict(self.stats_counters.to_dict())
        result["admission"] = {
            "pending": self._pending,
            "max_pending": self.max_pending,
        }
        result["coalesce_in_flight"] = len(self._inflight)
        if self.pool is not None:
            result["pool"] = self.pool.stats()
        return result


def run_server(
    engine_name: str = "auto",
    jobs: int = 1,
    tcp: Optional[Tuple[str, int]] = None,
    unix_path: Optional[str] = None,
    max_pending: int = 64,
    preload: Optional[str] = None,
    announce=None,
) -> int:
    """Blocking entry point for ``trued serve --tcp`` / ``--socket``.

    ``announce(address_string)`` is called once per bound transport —
    the CLI prints to stderr so stdout stays free, and tests capture the
    ephemeral port.
    """

    async def main() -> None:
        server = TimingServer(
            engine_name=engine_name,
            jobs=jobs,
            max_pending=max_pending,
            preload=preload,
        )
        host, port = tcp if tcp is not None else (None, None)
        await server.start(host=host, port=port, unix_path=unix_path)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except (NotImplementedError, ValueError):
                pass
        if announce is not None:
            address = server.tcp_address
            if address is not None:
                announce(f"tcp://{address[0]}:{address[1]}")
            if unix_path is not None:
                announce(f"unix://{unix_path}")
        await server.serve_forever()

    asyncio.run(main())
    return 0
