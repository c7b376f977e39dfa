"""The multi-client asyncio server: protocol, admission, coalescing."""

import asyncio
import json
import socket
import threading

import pytest

from repro.incremental.service import QueryService
from repro.runtime.metrics import GLOBAL_METRICS
from repro.serve import TimingServer, default_script, run_loadgen
from repro.serve.loadgen import percentile

from tests.helpers import C17_BENCH, counted_checks


async def _request(reader, writer, payload) -> dict:
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    return json.loads(await reader.readline())


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Protocol basics over real TCP
# ----------------------------------------------------------------------
def test_tcp_roundtrip_load_query_stats():
    async def scenario():
        server = TimingServer()
        await server.start(host="127.0.0.1", port=0)
        try:
            host, port = server.tcp_address
            reader, writer = await asyncio.open_connection(host, port)
            loaded = await _request(
                reader, writer, {"op": "load", "bench": C17_BENCH}
            )
            queried = await _request(
                reader, writer, {"op": "query", "kind": "transition"}
            )
            stats = await _request(reader, writer, {"op": "stats"})
            writer.close()
            return loaded, queried, stats
        finally:
            await server.stop()

    loaded, queried, stats = run(scenario())
    assert loaded["ok"] and loaded["id"] == "req-000001"
    assert queried["result"]["record"]["delay"] == 3
    # The session's protocol stats are its own, not the process's.
    assert stats["result"]["requests"] == 3
    assert stats["result"]["reloads"] == 0


def test_final_line_without_newline_is_serviced():
    """Regression: a client that omits the trailing newline on its last
    request (then half-closes) must still get that request's answer."""

    async def scenario():
        server = TimingServer()
        await server.start(host="127.0.0.1", port=0)
        try:
            host, port = server.tcp_address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write((json.dumps(
                {"op": "load", "bench": C17_BENCH}) + "\n").encode())
            # Last request: NO trailing newline, then EOF.
            writer.write(json.dumps(
                {"op": "query", "kind": "transition"}).encode())
            writer.write_eof()
            await writer.drain()
            responses = []
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                responses.append(json.loads(raw))
            writer.close()
            return responses
        finally:
            await server.stop()

    responses = run(scenario())
    assert len(responses) == 2
    assert responses[1]["ok"]
    assert responses[1]["result"]["record"]["delay"] == 3


def test_shutdown_op_stops_the_whole_server():
    async def scenario():
        server = TimingServer()
        await server.start(host="127.0.0.1", port=0)
        host, port = server.tcp_address
        reader, writer = await asyncio.open_connection(host, port)
        response = await _request(reader, writer, {"op": "shutdown"})
        writer.close()
        await asyncio.wait_for(server.serve_forever(), timeout=30)
        return response

    response = run(scenario())
    assert response["result"] == {"stopping": True}


# ----------------------------------------------------------------------
# Admission control: bounded queue, explicit busy
# ----------------------------------------------------------------------
def test_busy_backpressure_consumes_no_request_id(monkeypatch):
    """With max_pending=1 and the single worker blocked, a second
    session's compute request is shed with ``busy`` — and because no id
    was consumed, the retry after release gets the next sequential id."""
    hold = threading.Event()
    release = threading.Event()
    original = QueryService.handle_line

    def gated(self, line, trace_id=None):
        if '"transition"' in line:
            hold.set()
            release.wait(timeout=60)
        return original(self, line, trace_id)

    monkeypatch.setattr(QueryService, "handle_line", gated)

    async def scenario():
        server = TimingServer(max_pending=1, workers=1)
        await server.start(host="127.0.0.1", port=0)
        try:
            host, port = server.tcp_address
            r1, w1 = await asyncio.open_connection(host, port)
            r2, w2 = await asyncio.open_connection(host, port)
            await _request(r1, w1, {"op": "load", "bench": C17_BENCH})
            # Occupy the only slot (blocks inside the worker thread).
            blocked = asyncio.create_task(
                _request(r1, w1, {"op": "query", "kind": "transition"})
            )
            await asyncio.get_running_loop().run_in_executor(
                None, hold.wait, 60
            )
            busy = await _request(
                r2, w2, {"op": "load", "bench": C17_BENCH}
            )
            release.set()
            await blocked
            retried = await _request(
                r2, w2, {"op": "load", "bench": C17_BENCH}
            )
            stats = await _request(r2, w2, {"op": "server_stats"})
            w1.close(), w2.close()
            return busy, retried, stats
        finally:
            release.set()
            await server.stop()

    busy, retried, stats = run(scenario())
    assert busy == {
        "id": None, "ok": False, "busy": True, "error": "busy",
        "pending": 1, "max_pending": 1, "elapsed_ms": 0.0,
    }
    assert retried["ok"] and retried["id"] == "req-000001"
    assert stats["result"]["busy_rejections"] == 1


# ----------------------------------------------------------------------
# Cross-client coalescing
# ----------------------------------------------------------------------
def test_identical_inflight_queries_coalesce(monkeypatch):
    """Two sessions with the same circuit issue the same query while the
    leader is still computing: exactly one computation runs; the waiter
    adopts its record (marked ``coalesced`` in volatile stats only)."""
    dispatched = []
    hold = threading.Event()
    release = threading.Event()
    original = QueryService.handle_line

    def gated(self, line, trace_id=None):
        if '"transition"' in line:
            dispatched.append(trace_id)
            hold.set()
            release.wait(timeout=60)
        return original(self, line, trace_id)

    monkeypatch.setattr(QueryService, "handle_line", gated)

    async def scenario():
        server = TimingServer(workers=1)
        await server.start(host="127.0.0.1", port=0)
        try:
            host, port = server.tcp_address
            r1, w1 = await asyncio.open_connection(host, port)
            r2, w2 = await asyncio.open_connection(host, port)
            await _request(r1, w1, {"op": "load", "bench": C17_BENCH})
            await _request(r2, w2, {"op": "load", "bench": C17_BENCH})
            leader = asyncio.create_task(
                _request(r1, w1, {"op": "query", "kind": "transition"})
            )
            await asyncio.get_running_loop().run_in_executor(
                None, hold.wait, 60
            )
            waiter = asyncio.create_task(
                _request(r2, w2, {"op": "query", "kind": "transition"})
            )
            # The waiter must be registered before the leader resolves.
            while server.stats()["coalesce_hits"] == 0:
                await asyncio.sleep(0.005)
            release.set()
            first, second = await asyncio.gather(leader, waiter)
            stats = await _request(r1, w1, {"op": "server_stats"})
            w1.close(), w2.close()
            return first, second, stats
        finally:
            release.set()
            await server.stop()

    first, second, stats = run(scenario())
    assert len(dispatched) == 1  # one computation, two answers
    assert first["result"]["record"] == second["result"]["record"]
    # Per-session ids: each session allocated its own second id.
    assert first["id"] == second["id"] == "req-000002"
    assert second["result"]["stats"]["coalesced"] == 1
    assert "coalesced" not in first["result"]["stats"]
    assert stats["result"]["coalesce_hits"] == 1
    assert stats["result"]["coalesce_leaders"] == 1


def test_completed_queries_do_not_coalesce_later_ones():
    """Coalescing is strictly in-flight dedup: a query arriving after
    the identical one completed starts a fresh computation (which may
    hit the cone cache, but never adopts a stale response)."""

    async def scenario():
        server = TimingServer()
        await server.start(host="127.0.0.1", port=0)
        try:
            host, port = server.tcp_address
            reader, writer = await asyncio.open_connection(host, port)
            await _request(reader, writer, {"op": "load", "bench": C17_BENCH})
            one = await _request(
                reader, writer, {"op": "query", "kind": "transition"}
            )
            two = await _request(
                reader, writer, {"op": "query", "kind": "transition"}
            )
            writer.close()
            return one, two, server.stats()
        finally:
            await server.stop()

    one, two, stats = run(scenario())
    assert one["result"]["record"] == two["result"]["record"]
    assert stats["coalesce_hits"] == 0
    assert stats["coalesce_in_flight"] == 0


# ----------------------------------------------------------------------
# Session-scoped observability
# ----------------------------------------------------------------------
def test_sessions_do_not_touch_global_metrics():
    """Engine counters recorded during server requests land in the
    session's Metrics, never in the process-global singleton: no
    ``*.checks`` counter of the global recorder moves."""
    before = GLOBAL_METRICS.counter("incremental.cone_checks")

    async def scenario():
        server = TimingServer()
        await server.start(host="127.0.0.1", port=0)
        try:
            host, port = server.tcp_address
            reader, writer = await asyncio.open_connection(host, port)
            await _request(reader, writer, {"op": "load", "bench": C17_BENCH})
            await _request(
                reader, writer, {"op": "query", "kind": "transition"}
            )
            stats = await _request(reader, writer, {"op": "stats"})
            writer.close()
            return stats
        finally:
            await server.stop()

    with counted_checks() as checks:
        stats = run(scenario())
    # The session saw its own engine activity...
    assert stats["result"]["counters"]["incremental.cone_checks"] > 0
    # ...and the global singleton saw none of it.
    assert GLOBAL_METRICS.counter("incremental.cone_checks") == before
    assert checks == {}


def test_sessions_share_the_delay_cache():
    """Cone results are content-addressed, so a second session loading
    the same circuit serves its queries from the shared cache."""

    async def scenario():
        server = TimingServer()
        await server.start(host="127.0.0.1", port=0)
        try:
            host, port = server.tcp_address
            r1, w1 = await asyncio.open_connection(host, port)
            await _request(r1, w1, {"op": "load", "bench": C17_BENCH})
            await _request(r1, w1, {"op": "query", "kind": "transition"})
            w1.close()
            r2, w2 = await asyncio.open_connection(host, port)
            await _request(r2, w2, {"op": "load", "bench": C17_BENCH})
            warmed = await _request(
                r2, w2, {"op": "query", "kind": "transition"}
            )
            w2.close()
            return warmed
        finally:
            await server.stop()

    warmed = run(scenario())
    assert warmed["result"]["stats"]["cone_cache_hits"] == 2
    assert warmed["result"]["stats"]["checks"] == 0


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
def test_loadgen_self_hosted_coalesces_and_is_deterministic():
    report = run_loadgen(
        default_script(C17_BENCH, queries=4),
        clients=3,
        server=TimingServer(),
    )
    assert report.clients == 3
    assert report.requests == 15 and report.errors == 0
    assert report.coalesce_hits > 0
    # Determinism across concurrent sessions: identical scripts produce
    # identical per-session responses (ids, records — everything but the
    # wall-clock and coalescing-accounting fields).
    def normalised(session):
        out = []
        for response in session:
            response = json.loads(json.dumps(response))
            response.pop("elapsed_ms", None)
            result = response.get("result")
            if isinstance(result, dict):
                result.pop("stats", None)
            out.append(response)
        return out

    reference = normalised(report.responses[0])
    for session in report.responses[1:]:
        assert normalised(session) == reference


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 99) == 5.0
    assert percentile([], 50) == 0.0
    assert percentile([7.5], 99) == 7.5


# ----------------------------------------------------------------------
# Unix socket front-end
# ----------------------------------------------------------------------
def test_async_unix_socket_and_stale_file_recovery(tmp_path):
    path = str(tmp_path / "serve.sock")
    # A stale socket file from a hard-killed predecessor must not block
    # the bind: the connect probe detects nothing is listening.
    stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    stale.bind(path)
    stale.close()  # closed without unlink -> stale file left behind

    async def scenario():
        server = TimingServer()
        await server.start(unix_path=path)
        try:
            reader, writer = await asyncio.open_unix_connection(path)
            await _request(reader, writer, {"op": "load", "bench": C17_BENCH})
            response = await _request(
                reader, writer, {"op": "query", "kind": "transition"}
            )
            writer.close()
            return response
        finally:
            await server.stop()

    response = run(scenario())
    assert response["result"]["record"]["delay"] == 3
    import os

    assert not os.path.exists(path)  # stop() unlinked the socket


def test_live_unix_socket_refuses_second_server(tmp_path):
    path = str(tmp_path / "serve.sock")

    async def scenario():
        first = TimingServer()
        await first.start(unix_path=path)
        try:
            second = TimingServer()
            with pytest.raises(Exception) as excinfo:
                await second.start(unix_path=path)
            return str(excinfo.value)
        finally:
            await first.stop()

    message = run(scenario())
    assert "listening" in message
