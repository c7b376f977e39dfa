"""The distributed shard transport against the docs/DISTRIBUTED.md spec.

Two layers of coverage.  The raw-socket tests speak the worker protocol
by hand — a real `trued worker` subprocess on one side, a test-owned
socket on the other — and hold every op to its section of the spec
(docs/DISTRIBUTED.md §4).  The end-to-end tests drive `shard_map`
through `RemoteTransport` against one- and two-worker fleets and assert
the headline guarantee of §5: byte-identical results to `--jobs 1`
through crashes, corrupt artifacts, and total fleet loss.

Crash faults here always run inside *subprocess* workers — an injected
`os._exit` in a threaded in-process worker would take pytest with it.
"""

import io
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core import collect_certification_pairs
from repro.runtime.cache import DelayCache
from repro.runtime.metrics import metrics_scope
from repro.runtime.parallel import TASK_KINDS, shard_map
from repro.runtime.remote import (
    PROTOCOL_VERSION,
    RemoteTransport,
    _handle_request,
    run_worker,
)
from repro.serve.framing import (
    connect_endpoint,
    parse_endpoint,
    read_json_line,
    send_json_line,
)

from tests.helpers import c17, shard_pairs


# ----------------------------------------------------------------------
# Worker fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def store(tmp_path):
    """The shared artifact store directory (docs/DISTRIBUTED.md §3)."""
    directory = tmp_path / "store"
    directory.mkdir()
    return str(directory)


def _spawn_worker(store):
    """Start a real `trued worker` subprocess on a free port and parse
    its `WORKER READY tcp://...` announce line (docs/DISTRIBUTED.md §6).
    """
    env = dict(os.environ)
    env.pop("REPRO_FAULT_INJECT", None)
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--tcp",
            "127.0.0.1:0",
            "--cache",
            store,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    announce = process.stdout.readline().strip()
    assert announce.startswith("WORKER READY tcp://"), announce
    endpoint = announce.split()[2]
    assert f"pid={process.pid}" in announce
    return process, endpoint


@pytest.fixture
def worker(store):
    process, endpoint = _spawn_worker(store)
    yield endpoint
    process.terminate()
    process.wait(timeout=10)


@pytest.fixture
def fleet(store):
    """Two workers sharing one artifact store."""
    spawned = [_spawn_worker(store) for __ in range(2)]
    yield [endpoint for __, endpoint in spawned]
    for process, __ in spawned:
        process.terminate()
        process.wait(timeout=10)


def _connect(endpoint):
    sock = connect_endpoint(parse_endpoint(endpoint), timeout=10.0)
    return sock, sock.makefile("r"), sock.makefile("w")


def _transport(hosts, store, **kwargs):
    return RemoteTransport(
        hosts, cache=DelayCache(cache_dir=store, enabled=True), **kwargs
    )


# ----------------------------------------------------------------------
# The wire protocol, op by op (docs/DISTRIBUTED.md §4)
# ----------------------------------------------------------------------
def test_hello_handshake_and_job_catalogue(worker):
    """§4.1: hello returns the protocol version, worker identity, and
    the job catalogue — the sharded runner's task kinds."""
    sock, r, w = _connect(worker)
    with sock:
        send_json_line(w, {"op": "hello", "protocol": PROTOCOL_VERSION})
        hello = read_json_line(r)
    assert hello["ok"] is True
    assert hello["protocol"] == PROTOCOL_VERSION
    assert hello["pid"] > 0
    assert hello["host"]
    assert hello["jobs"] == sorted(TASK_KINDS)
    assert set(hello["jobs"]) == {
        "pairs", "faults", "cones", "monte-carlo", "characterize", "fuzz",
    }


def test_ping_is_side_effect_free(worker):
    """§4.4: ping answers pong and the connection stays serviceable."""
    sock, r, w = _connect(worker)
    with sock:
        send_json_line(w, {"op": "ping"})
        assert read_json_line(r)["pong"] is True
        send_json_line(w, {"op": "ping"})
        assert read_json_line(r)["ok"] is True


def test_unknown_op_and_malformed_line_do_not_kill_the_worker(worker):
    """§4.6: framing violations and unknown ops get `ok: false` replies;
    the worker only dies from shutdown, a signal, or a crash fault."""
    sock, r, w = _connect(worker)
    with sock:
        send_json_line(w, {"op": "levitate"})
        reply = read_json_line(r)
        assert reply["ok"] is False and "unknown op" in reply["error"]

        w.write("this is not json\n")
        w.flush()
        reply = read_json_line(r)
        assert reply["ok"] is False

        w.write("[1, 2, 3]\n")
        w.flush()
        reply = read_json_line(r)
        assert reply["ok"] is False and "object" in reply["error"]

        send_json_line(w, {"op": "ping"})  # still alive, still in sync
        assert read_json_line(r)["pong"] is True


def test_chunk_with_missing_payload_artifact_fails_softly(worker):
    """§3.3 / §4.3: a token naming no artifact fails that chunk with an
    `ok: false` reply naming the token; the worker survives."""
    sock, r, w = _connect(worker)
    with sock:
        send_json_line(
            w,
            {
                "op": "chunk",
                "job": "pairs",
                "task": 0,
                "payload": "deadbeef" * 8,
                "fault": None,
            },
        )
        reply = read_json_line(r)
        assert reply["ok"] is False
        assert reply["task"] == 0
        assert "missing payload artifact" in reply["error"]
        assert "deadbeef" in reply["error"]
        send_json_line(w, {"op": "ping"})
        assert read_json_line(r)["pong"] is True


def test_chunk_with_unknown_job_label_fails_softly(worker):
    """§4.3: an unknown job label is a per-chunk error, not a protocol
    failure."""
    sock, r, w = _connect(worker)
    with sock:
        send_json_line(
            w,
            {
                "op": "chunk",
                "job": "astrology",
                "task": 3,
                "payload": "00" * 32,
                "fault": None,
            },
        )
        reply = read_json_line(r)
        assert reply["ok"] is False
        assert "unknown job" in reply["error"]


def test_shutdown_stops_the_worker(store):
    """§4.5: shutdown is acknowledged and the process exits cleanly."""
    process, endpoint = _spawn_worker(store)
    try:
        sock, r, w = _connect(endpoint)
        with sock:
            send_json_line(w, {"op": "shutdown"})
            reply = read_json_line(r)
        assert reply == {"ok": True, "stopping": True}
        assert process.wait(timeout=10) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


def test_chunk_round_trip_by_hand(worker, store):
    """§4.2/§4.3: a hand-built chunk request comes back with a result
    token resolvable in the shared store, the worker's counters, and the
    provenance fields the parent turns into span attribution."""
    cache = DelayCache(cache_dir=store, enabled=True)
    circuit = c17()
    token = cache.put_artifact(
        ((circuit, "auto", None), list(enumerate(circuit.outputs)))
    )
    sock, r, w = _connect(worker)
    with sock:
        send_json_line(
            w,
            {
                "op": "chunk",
                "job": "pairs",
                "task": 0,
                "payload": token,
                "fault": None,
            },
        )
        reply = read_json_line(r)
    assert reply["ok"] is True
    assert reply["task"] == 0
    assert reply["pid"] > 0
    assert reply["host"]
    assert reply["elapsed_ms"] >= 0
    assert isinstance(reply["counters"], dict)
    result = cache.get_artifact(reply["result"])  # [(index, (time, pair))]
    serial = collect_certification_pairs(circuit, jobs=1)
    assert {circuit.outputs[i]: pair for i, pair in result} == serial


# ----------------------------------------------------------------------
# End-to-end through the sharded runner (docs/DISTRIBUTED.md §5, §6)
# ----------------------------------------------------------------------
def test_two_worker_fleet_is_byte_identical_to_serial(fleet, store):
    """§6: jobs=4 over two workers returns exactly the serial result,
    and the chunks actually ran remotely (`transport.remote_chunks`)."""
    circuit = c17()
    serial = collect_certification_pairs(circuit, jobs=1)
    transport = _transport(fleet, store)
    try:
        with metrics_scope() as metrics:
            sharded = shard_pairs(circuit, jobs=4, transport=transport)
            assert metrics.counter("transport.remote_chunks") > 0
            assert metrics.counter("transport.rounds") >= 1
            assert metrics.counter("transport.artifact_pushes") > 0
            assert metrics.counter("transport.artifact_fetches") > 0
    finally:
        transport.close()
    assert list(sharded) == list(serial)
    for out in serial:
        assert sharded[out][0] == serial[out][0]
        assert sharded[out][1].v_prev == serial[out][1].v_prev
        assert sharded[out][1].v_next == serial[out][1].v_next


def test_worker_crash_retries_on_the_survivor(fleet, store, monkeypatch):
    """§5: a crash fault kills one worker mid-round (the parent sees
    EOF, never a partial reply); retries land on the survivor and the
    merged result is still byte-identical."""
    monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:0")
    circuit = c17()
    transport = _transport(fleet, store)
    try:
        with metrics_scope() as metrics:
            sharded = shard_pairs(circuit, jobs=4, transport=transport)
            assert metrics.counter("transport.worker_failures") >= 1
            assert metrics.counter("parallel.retries") >= 1
            assert metrics.counter("transport.degraded") == 0
    finally:
        transport.close()
    monkeypatch.delenv("REPRO_FAULT_INJECT")
    serial = collect_certification_pairs(circuit, jobs=1)
    assert list(sharded) == list(serial)
    for out in serial:
        assert sharded[out] == serial[out]


def test_lone_worker_crash_degrades_to_serial(store, monkeypatch):
    """§5: when the whole fleet is lost and retries are exhausted, the
    run finishes serially in-process (`transport.degraded`) with the
    identical result — degradation, never loss."""
    monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:0")
    process, endpoint = _spawn_worker(store)
    circuit = c17()
    transport = _transport([endpoint], store)
    try:
        with metrics_scope() as metrics:
            sharded = shard_pairs(circuit, jobs=4, transport=transport)
            assert metrics.counter("transport.degraded") == 1
            assert metrics.counter("parallel.serial_fallback_items") > 0
            assert metrics.counter("transport.connect_failures") >= 1
    finally:
        transport.close()
        if process.poll() is None:
            process.terminate()
        process.wait(timeout=10)
    monkeypatch.delenv("REPRO_FAULT_INJECT")
    serial = collect_certification_pairs(circuit, jobs=1)
    assert list(sharded) == list(serial)
    for out in serial:
        assert sharded[out] == serial[out]


def test_corrupt_result_artifact_is_quarantined_and_retried(
    worker, store, monkeypatch
):
    """§5 / §3.3: `corrupt-result:0` makes the worker compute honestly
    and then scribble over the pushed artifact; the parent's fetch
    quarantines it as `.bad` (`cache.disk_corrupt`), the chunk retries
    under a fresh task index, and the result is identical."""
    monkeypatch.setenv("REPRO_FAULT_INJECT", "corrupt-result:0")
    circuit = c17()
    transport = _transport([worker], store)
    try:
        with metrics_scope() as metrics:
            sharded = shard_pairs(circuit, jobs=4, transport=transport)
            assert metrics.counter("cache.disk_corrupt") >= 1
            assert metrics.counter("parallel.retries") >= 1
            assert metrics.counter("transport.degraded") == 0
    finally:
        transport.close()
    monkeypatch.delenv("REPRO_FAULT_INJECT")
    bad = [
        name
        for root, __, names in os.walk(store)
        for name in names
        if name.endswith(".bad")
    ]
    assert bad, "the corrupt artifact should be quarantined, not deleted"
    serial = collect_certification_pairs(circuit, jobs=1)
    assert list(sharded) == list(serial)
    for out in serial:
        assert sharded[out] == serial[out]


def test_unreachable_fleet_degrades_to_serial(store):
    """§5: a fleet that never answers (connection refused) costs
    `transport.connect_failures` and the run completes in-process."""
    circuit = c17()
    transport = _transport(["127.0.0.1:1"], store, connect_timeout=0.25)
    try:
        with metrics_scope() as metrics:
            sharded = shard_pairs(circuit, jobs=2, transport=transport)
            assert metrics.counter("transport.connect_failures") >= 1
            assert metrics.counter("transport.degraded") == 1
    finally:
        transport.close()
    serial = collect_certification_pairs(circuit, jobs=1)
    assert list(sharded) == list(serial)


# ----------------------------------------------------------------------
# The job catalogue is the sharded runner's task-kind registry
# ----------------------------------------------------------------------
def test_task_kinds_is_the_hello_catalogue(monkeypatch, store):
    """§4.1: a kind added to `TASK_KINDS` is announced by hello — the
    worker has no catalogue of its own."""

    def echo(payload):
        return payload, {}, {}

    monkeypatch.setitem(TASK_KINDS, "echo-test", echo)
    hello, keep_running = _handle_request(
        {"op": "hello"}, DelayCache(cache_dir=store, enabled=True)
    )
    assert keep_running
    assert "echo-test" in hello["jobs"]
    assert hello["jobs"] == sorted(TASK_KINDS)


def test_unknown_label_is_rejected_before_any_transport_runs(store):
    """§5: `shard_map` only runs registered task kinds, so an unknown
    label is a caller error raised in the parent — no round starts and
    no connection is ever attempted."""
    transport = _transport(["127.0.0.1:1"], store, connect_timeout=0.25)
    try:
        with metrics_scope() as metrics:
            with pytest.raises(ValueError, match="unknown shard task kind"):
                shard_map(
                    "not-a-real-label", None, [1, 2, 3], 2,
                    transport=transport,
                )
            assert metrics.counter("transport.rounds") == 0
            assert metrics.counter("transport.connect_failures") == 0
    finally:
        transport.close()


def test_remote_transport_requires_a_shared_store(monkeypatch):
    """§3: no disk directory anywhere (no cache dir, no REPRO_CACHE_DIR)
    is a configuration error, reported at construction."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    with pytest.raises(ValueError, match="shared disk cache"):
        RemoteTransport(
            ["127.0.0.1:1"], cache=DelayCache(enabled=False)
        )


# ----------------------------------------------------------------------
# In-process worker over a unix socket (§2 + §6 --socket lifecycle)
# ----------------------------------------------------------------------
def test_threaded_worker_over_unix_socket(tmp_path, store, monkeypatch):
    """§2/§6: a worker on a unix socket serves task kinds end-to-end.
    The worker runs in a thread here (both sides must share the
    test-registered `TASK_KINDS` entry), so no crash faults — see the
    module docstring."""

    def doubler(payload):
        return [v * 2 for v in payload], {"doubler.chunks": 1}, {}

    monkeypatch.setitem(TASK_KINDS, "doubler-test", doubler)
    path = str(tmp_path / "worker.sock")
    announce = io.StringIO()
    thread = threading.Thread(
        target=run_worker,
        args=(f"unix://{path}",),
        kwargs={"cache_dir": store, "announce": announce},
        daemon=True,
    )
    thread.start()
    try:
        for __ in range(500):
            if os.path.exists(path):
                break
            time.sleep(0.01)
        transport = _transport([f"unix://{path}"], store)
        try:
            with metrics_scope() as metrics:
                completed, failed = transport.run_round(
                    doubler,
                    lambda chunk: chunk,
                    [(0, [1, 2]), (1, [5])],
                    None,
                    None,
                    "doubler-test",
                )
                assert metrics.counter("transport.remote_chunks") == 2
        finally:
            transport.close()
        assert failed == []
        by_index = {c.index: c for c in completed}
        assert by_index[0].result == [2, 4]
        assert by_index[1].result == [10]
        assert by_index[0].counters == {"doubler.chunks": 1}
        assert by_index[0].host == socket.gethostname()
        assert by_index[0].worker == os.getpid()
    finally:
        # §4.5: shutdown ends the accept loop and the thread.
        sock, r, w = _connect(f"unix://{path}")
        with sock:
            send_json_line(w, {"op": "shutdown"})
            read_json_line(r)
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert not os.path.exists(path)  # unlink-on-exit, shared lifecycle
    assert "WORKER READY unix://" in announce.getvalue()
