"""Distributed shard transport: chunk rounds over ``trued worker`` hosts.

The wire protocol is **specified in prose first** in
``docs/DISTRIBUTED.md`` — this module implements that spec and the
worker-protocol tests in ``tests/runtime/test_remote.py`` hold it there.
In one paragraph: the parent keeps a long-lived JSON-lines connection
(:mod:`repro.serve.framing`) to each worker; chunk *payloads and
results never ride the wire* — they travel through the shared
content-addressed :class:`~repro.runtime.cache.DelayCache` directory
(NFS or local disk), and the socket carries only artifact tokens, job
labels, counters, and provenance.  A request names a job kind (a
:data:`~repro.runtime.parallel.TASK_KINDS` label — the worker's job
catalogue *is* that registry), the task index (fault injection keys on
it, exactly as in-host), the payload token, and the active fault spec;
the response carries the result token plus the worker's
counters/gauges/host/pid for span attribution.

Failure containment is inherited, not reimplemented: this transport only
*reports* per-task outcomes (:class:`~repro.runtime.transport.ChunkResult`
or a failure reason) and :mod:`repro.runtime.parallel` applies the same
per-round timeout / bounded-retry / poison-isolation / degrade-to-serial
machinery it applies to the local pool — a lost worker, a hung socket,
or a corrupt result artifact can cost throughput, never results.

Threads in this module do socket I/O *only*.  Artifact pushes/fetches
and all recording happen on the calling thread, because
:data:`~repro.runtime.metrics.METRICS` is context-scoped and does not
follow into helper threads.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..serve.framing import (
    ProtocolError,
    bound_unix_socket,
    connect_endpoint,
    format_endpoint,
    parse_endpoint,
    read_json_line,
    send_json_line,
)
from .cache import DelayCache, resolve_cache
from .faults import inject_worker_fault, parse_fault_spec, result_corruption_fault
from .metrics import METRICS
from .parallel import TASK_KINDS
from .transport import TIMEOUT, WORKER_DIED, ChunkResult, ShardTransport

#: Version negotiated in the hello handshake (docs/DISTRIBUTED.md §4.1).
#: Bump on any incompatible message or artifact change; a parent refuses
#: a worker speaking a different version.  Version 2: every payload
#: artifact is ``(context, [(index, item), ...])`` and every result
#: artifact ``[(index, result), ...]``, whatever the job label.
PROTOCOL_VERSION = 2


# ----------------------------------------------------------------------
# Parent side: the transport
# ----------------------------------------------------------------------
class _WorkerLink:
    """One long-lived connection to a worker (docs/DISTRIBUTED.md §4.1)."""

    def __init__(self, endpoint: Tuple[str, ...], connect_timeout: float):
        self.endpoint = endpoint
        self.sock = connect_endpoint(endpoint, timeout=connect_timeout)
        self.rfile = self.sock.makefile("r", encoding="utf-8")
        self.wfile = self.sock.makefile("w", encoding="utf-8")
        send_json_line(self.wfile, {"op": "hello", "protocol": PROTOCOL_VERSION})
        hello = read_json_line(self.rfile)
        if not hello or not hello.get("ok"):
            raise ProtocolError(
                f"worker {format_endpoint(endpoint)} rejected hello: {hello!r}"
            )
        if hello.get("protocol") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"worker {format_endpoint(endpoint)} speaks protocol "
                f"{hello.get('protocol')!r}, expected {PROTOCOL_VERSION}"
            )
        self.host = str(hello.get("host", "remote"))
        self.pid = int(hello.get("pid", 0))

    def close(self) -> None:
        for stream in (self.rfile, self.wfile, self.sock):
            try:
                stream.close()
            except OSError:
                pass


def _drive_link(link, assigned, fault_text, label, deadline, outcomes):
    """Per-link thread body: send each assigned chunk request, read each
    reply.  Socket I/O only — no metrics, no cache access (context-scoped
    observability does not follow into threads).  Appends
    ``(index, chunk, status, reply)`` with status ``"ok"``/``TIMEOUT``/
    ``WORKER_DIED`` to ``outcomes``; once the link fails, the rest of its
    queue fails with it (requests are serviced in order on one socket).
    """
    dead_reason = None
    for index, chunk, token in assigned:
        if dead_reason is not None:
            outcomes.append((index, chunk, dead_reason, None))
            continue
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                dead_reason = TIMEOUT
                outcomes.append((index, chunk, TIMEOUT, None))
                continue
        try:
            link.sock.settimeout(remaining)
            send_json_line(
                link.wfile,
                {
                    "op": "chunk",
                    "job": label,
                    "task": index,
                    "payload": token,
                    "fault": fault_text,
                },
            )
            reply = read_json_line(link.rfile)
        except (socket.timeout, TimeoutError):
            # The worker may still be computing; its socket state is
            # unknowable now, so the link is condemned and the parent
            # reconnects next round.
            dead_reason = TIMEOUT
            outcomes.append((index, chunk, TIMEOUT, None))
            continue
        except (OSError, ProtocolError):
            dead_reason = WORKER_DIED
            outcomes.append((index, chunk, WORKER_DIED, None))
            continue
        if reply is None:
            # Clean EOF mid-round: the worker process died (e.g. an
            # injected crash — os._exit closes the socket).
            dead_reason = WORKER_DIED
            outcomes.append((index, chunk, WORKER_DIED, None))
            continue
        outcomes.append((index, chunk, "ok", reply))
    if dead_reason is not None:
        link.dead = True


class RemoteTransport(ShardTransport):
    """Chunk rounds over long-lived socket workers (docs/DISTRIBUTED.md).

    Requires a disk-backed cache shared with every worker — payloads and
    results are exchanged as content-addressed artifacts, the wire only
    carries tokens.  Connections are established lazily and re-established
    per round after a drop (``transport.reconnects``); a round with no
    reachable worker fails every task, which the sharded runner turns
    into retries and, ultimately, in-process serial degradation
    (``transport.degraded``) — never into a partial result.
    """

    name = "remote"

    def __init__(
        self,
        hosts: Sequence[str],
        cache: Optional[DelayCache] = None,
        connect_timeout: float = 5.0,
    ):
        if not hosts:
            raise ValueError("remote transport needs at least one endpoint")
        self.endpoints = [parse_endpoint(spec) for spec in hosts]
        self.connect_timeout = connect_timeout
        self.cache = resolve_cache(cache)
        if self.cache.cache_dir is None:
            # Result caching may be off (--no-cache) while the transport
            # still needs the shared directory for artifacts: fall back
            # to an artifact-only store on REPRO_CACHE_DIR (artifact ops
            # ignore the enabled flag — they are transport payloads, not
            # memoised results).
            directory = os.environ.get("REPRO_CACHE_DIR") or None
            if directory:
                self.cache = DelayCache(cache_dir=directory, enabled=False)
            else:
                raise ValueError(
                    "remote transport requires a shared disk cache "
                    "directory (--cache DIR or REPRO_CACHE_DIR) reachable "
                    "by every worker"
                )
        self._links: Dict[int, _WorkerLink] = {}
        self._ever_linked: set = set()

    # -- connection management (caller thread) -------------------------
    def _ensure_links(self) -> List[_WorkerLink]:
        links = []
        for slot, endpoint in enumerate(self.endpoints):
            link = self._links.get(slot)
            if link is not None and not getattr(link, "dead", False):
                links.append(link)
                continue
            if link is not None:
                link.close()
                del self._links[slot]
            try:
                link = _WorkerLink(endpoint, self.connect_timeout)
            except (OSError, ProtocolError):
                METRICS.incr("transport.connect_failures")
                continue
            if slot in self._ever_linked:
                METRICS.incr("transport.reconnects")
            self._ever_linked.add(slot)
            self._links[slot] = link
            links.append(link)
        return links

    # -- the round ------------------------------------------------------
    def run_round(self, worker, make_payload, tasks, timeout, fault, label):
        METRICS.incr("transport.rounds")
        links = self._ensure_links()
        if not links:
            return [], [
                (index, chunk, WORKER_DIED) for index, chunk in tasks
            ]
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        fault_text = None if fault is None else f"{fault.kind}:{fault.target}"
        # Push payload artifacts (caller thread — cache metrics land in
        # the calling context).
        staged = []
        for index, chunk in tasks:
            token = self.cache.put_artifact(make_payload(chunk))
            METRICS.incr("transport.artifact_pushes")
            staged.append((index, chunk, token))
        # Round-robin assignment over live links, one I/O thread each.
        queues: List[List[Tuple[int, list, str]]] = [[] for __ in links]
        for position, item in enumerate(staged):
            queues[position % len(links)].append(item)
        outcomes: List[List[tuple]] = [[] for __ in links]
        threads = []
        for link, assigned, sink in zip(links, queues, outcomes):
            if not assigned:
                continue
            thread = threading.Thread(
                target=_drive_link,
                args=(link, assigned, fault_text, label, deadline, sink),
                daemon=True,
            )
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join()
        # Harvest (caller thread): fetch result artifacts, build results.
        completed: List[ChunkResult] = []
        failed: List[Tuple[int, list, str]] = []
        for link, sink in zip(links, outcomes):
            for index, chunk, status, reply in sink:
                if status != "ok":
                    failed.append((index, chunk, status))
                    continue
                if not reply.get("ok"):
                    failed.append(
                        (index, chunk,
                         str(reply.get("error", "worker error")))
                    )
                    continue
                token = str(reply.get("result", ""))
                try:
                    result = self.cache.get_artifact(token)
                except (KeyError, ValueError):
                    # Missing or corrupt (now quarantined as `.bad` and
                    # counted under cache.disk_corrupt by the cache).
                    failed.append(
                        (index, chunk,
                         f"corrupt or missing result artifact "
                         f"{token[:12]}...")
                    )
                    continue
                METRICS.incr("transport.artifact_fetches")
                METRICS.incr("transport.remote_chunks")
                completed.append(
                    ChunkResult(
                        index=index, chunk=chunk, result=result,
                        counters=dict(reply.get("counters") or {}),
                        gauges=dict(reply.get("gauges") or {}),
                        worker=int(reply.get("pid", 0)),
                        host=str(reply.get("host", link.host)),
                        elapsed=float(reply.get("elapsed_ms", 0.0)) / 1000.0,
                    )
                )
            if getattr(link, "dead", False):
                METRICS.incr("transport.worker_failures")
        return completed, failed

    def close(self) -> None:
        for link in self._links.values():
            link.close()
        self._links.clear()


# ----------------------------------------------------------------------
# Worker side: `trued worker`
# ----------------------------------------------------------------------
def _handle_request(request: dict, cache: DelayCache) -> Tuple[dict, bool]:
    """Dispatch one request; returns ``(response, keep_running)``.

    Op semantics are specified in docs/DISTRIBUTED.md §4; each branch
    cites its section.
    """
    op = request.get("op")
    if op == "hello":  # §4.1
        return (
            {
                "ok": True,
                "protocol": PROTOCOL_VERSION,
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "jobs": sorted(TASK_KINDS),
            },
            True,
        )
    if op == "ping":  # §4.4 (health checks / CI readiness probes)
        return (
            {"ok": True, "pong": True, "pid": os.getpid()},
            True,
        )
    if op == "shutdown":  # §4.5
        return ({"ok": True, "stopping": True}, False)
    if op == "chunk":  # §4.2 / §4.3
        return _handle_chunk(request, cache), True
    return ({"ok": False, "error": f"unknown op {op!r}"}, True)


def _handle_chunk(request: dict, cache: DelayCache) -> dict:
    label = request.get("job")
    fn = TASK_KINDS.get(label)
    task = int(request.get("task", -1))
    if fn is None:
        return {"ok": False, "task": task, "error": f"unknown job {label!r}"}
    token = str(request.get("payload", ""))
    try:
        payload = cache.get_artifact(token)
    except (KeyError, ValueError):
        # §3.3: the parent treats this as a failed chunk and retries.
        return {
            "ok": False,
            "task": task,
            "error": f"missing payload artifact {token[:12]}...",
        }
    spec = parse_fault_spec(request.get("fault") or "")
    # §5: crash faults os._exit here — the parent sees EOF, never a
    # partial reply; hang faults sleep past the round deadline.
    inject_worker_fault(spec, task)
    start = time.perf_counter()
    try:
        result, counters, gauges = fn(payload)
    except Exception as error:
        return {"ok": False, "task": task, "error": repr(error)}
    elapsed = time.perf_counter() - start
    out_token = cache.put_artifact(result)
    if result_corruption_fault(spec, task):
        # §5: scribble over the pushed artifact *after* the honest
        # compute — the parent's fetch quarantines it and retries.
        cache.artifact_path(out_token).write_bytes(
            b"\x00repro-corrupt-result\x00"
        )
    return {
        "ok": True,
        "task": task,
        "result": out_token,
        "counters": counters,
        "gauges": gauges,
        "host": socket.gethostname(),
        "pid": os.getpid(),
        "elapsed_ms": round(elapsed * 1000, 3),
    }


def _serve_connection(connection: socket.socket, cache: DelayCache) -> bool:
    """Service one parent connection to EOF; False when shutdown was
    requested."""
    with connection:
        rfile = connection.makefile("r", encoding="utf-8")
        wfile = connection.makefile("w", encoding="utf-8")
        while True:
            try:
                request = read_json_line(rfile)
            except ProtocolError as error:
                send_json_line(wfile, {"ok": False, "error": str(error)})
                continue
            except OSError:
                return True
            if request is None:
                return True
            if not request:
                continue
            try:
                response, keep_running = _handle_request(request, cache)
            except Exception as error:  # a bug must not kill the worker
                response, keep_running = (
                    {"ok": False, "error": repr(error)},
                    True,
                )
            try:
                send_json_line(wfile, response)
            except OSError:
                return True
            if not keep_running:
                return False


def _accept_loop(server: socket.socket, cache: DelayCache) -> int:
    """Accept parent connections one at a time until shutdown.

    One connection at a time is deliberate (§2): a worker is a single
    sequential compute process — parallelism comes from running more
    workers, and the parent's round-robin assignment, not from
    concurrency inside one worker.
    """
    server.settimeout(1.0)
    while True:
        try:
            connection, __ = server.accept()
        except socket.timeout:
            continue
        except OSError:
            return 0
        if not _serve_connection(connection, cache):
            return 0


def run_worker(
    endpoint_spec: str,
    cache_dir: Optional[str] = None,
    announce=None,
) -> int:
    """Run a shard worker until a ``shutdown`` op or SIGINT.

    Binds the endpoint (``HOST:PORT`` — port ``0`` picks a free one — or
    a unix socket path with the shared stale-probe/refuse-takeover/
    unlink-on-exit lifecycle from :mod:`repro.serve.framing`), announces
    ``WORKER READY <endpoint> pid=<pid>`` on ``announce`` (default
    stdout; tests and CI parse it to learn the bound port), then services
    chunk jobs.  ``cache_dir`` must name the artifact store shared with
    the parent.
    """
    if announce is None:
        announce = sys.stdout
    directory = cache_dir or os.environ.get("REPRO_CACHE_DIR") or None
    if not directory:
        raise ValueError(
            "worker needs the shared artifact store: pass --cache DIR "
            "or set REPRO_CACHE_DIR"
        )
    cache = DelayCache(cache_dir=directory, enabled=True)
    endpoint = parse_endpoint(endpoint_spec)
    if endpoint[0] == "unix":
        with bound_unix_socket(endpoint[1], backlog=1) as server:
            print(
                f"WORKER READY {format_endpoint(endpoint)} "
                f"pid={os.getpid()}",
                file=announce,
                flush=True,
            )
            try:
                return _accept_loop(server, cache)
            except KeyboardInterrupt:
                return 0
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((endpoint[1], endpoint[2]))
        server.listen(1)
        bound = ("tcp", endpoint[1], server.getsockname()[1])
        print(
            f"WORKER READY {format_endpoint(bound)} pid={os.getpid()}",
            file=announce,
            flush=True,
        )
        try:
            return _accept_loop(server, cache)
        except KeyboardInterrupt:
            return 0
    finally:
        server.close()
