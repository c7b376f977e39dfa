"""``trued loadgen`` — a concurrent client fleet for the timing server.

Drives N scripted JSON-lines sessions against a :class:`TimingServer`
(an already-running one over TCP / unix socket, or a self-hosted
in-process one) and reports the distribution that matters for a
many-small-queries service: per-request latency percentiles (p50 / p95 /
p99), aggregate queries/sec, busy-rejection count (admission
backpressure), and the server's coalescing accounting.

Every client runs the same default script — one ``load`` of an identical
circuit followed by a run of identical ``query`` ops — deliberately the
worst case for naive multiplexing and the best case for request
coalescing: identical in-flight queries collapse onto one computation.
``busy`` rejections are retried after a short backoff (they consume no
request id, so retrying is protocol-transparent).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .server import TimingServer

#: Backoff between retries of a ``busy`` rejection (seconds).
BUSY_RETRY_DELAY = 0.005


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class LoadReport:
    """One load-generation run's aggregate outcome."""

    clients: int
    requests: int
    ok: int
    errors: int
    busy_retries: int
    wall_s: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    qps: float
    server_stats: Dict[str, object] = field(default_factory=dict)
    responses: List[List[dict]] = field(default_factory=list)

    @property
    def coalesce_hits(self) -> int:
        return int(self.server_stats.get("coalesce_hits", 0))

    def describe(self) -> str:
        lines = [
            "load generation",
            f"  clients          {self.clients}",
            f"  requests         {self.requests} "
            f"({self.ok} ok, {self.errors} errors, "
            f"{self.busy_retries} busy retries)",
            f"  wall time        {self.wall_s * 1000:.1f} ms",
            f"  throughput       {self.qps:.1f} req/s",
            f"  latency p50      {self.p50_ms:.2f} ms",
            f"  latency p95      {self.p95_ms:.2f} ms",
            f"  latency p99      {self.p99_ms:.2f} ms",
            f"  coalesce hits    {self.coalesce_hits}",
            f"  busy rejections  "
            f"{self.server_stats.get('busy_rejections', 0)}",
        ]
        return "\n".join(lines)


def default_script(
    bench_text: str, queries: int = 8, kinds: Sequence[str] = ("transition",)
) -> List[str]:
    """The canonical loadgen session: one load, then identical queries."""
    script = [json.dumps({"op": "load", "bench": bench_text})]
    for index in range(max(1, queries)):
        kind = kinds[index % len(kinds)]
        script.append(json.dumps({"op": "query", "kind": kind}))
    return script


async def _run_client(
    connect,
    script: Sequence[str],
    latencies: List[float],
    counts: Dict[str, int],
) -> List[dict]:
    """One scripted session; returns its (non-busy) responses in order."""
    reader, writer = await connect()
    responses: List[dict] = []
    try:
        for line in script:
            while True:
                start = time.perf_counter()
                writer.write((line.rstrip("\n") + "\n").encode("utf-8"))
                await writer.drain()
                raw = await reader.readline()
                elapsed = time.perf_counter() - start
                if not raw:
                    counts["errors"] += 1
                    return responses
                response = json.loads(raw.decode("utf-8"))
                if response.get("busy"):
                    counts["busy_retries"] += 1
                    await asyncio.sleep(BUSY_RETRY_DELAY)
                    continue
                latencies.append(elapsed)
                counts["ok" if response.get("ok") else "errors"] += 1
                responses.append(response)
                break
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return responses


async def _fetch_server_stats(connect) -> Dict[str, object]:
    reader, writer = await connect()
    try:
        writer.write(b'{"op": "server_stats"}\n')
        await writer.drain()
        raw = await reader.readline()
        if not raw:
            return {}
        response = json.loads(raw.decode("utf-8"))
        result = response.get("result")
        return result if isinstance(result, dict) else {}
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_loadgen_async(
    script: Sequence[str],
    clients: int = 4,
    tcp: Optional[Tuple[str, int]] = None,
    unix_path: Optional[str] = None,
    server: Optional[TimingServer] = None,
) -> LoadReport:
    """Run ``clients`` concurrent copies of ``script``.

    Target resolution: an explicit ``tcp``/``unix_path`` address of a
    running server, or a not-yet-started :class:`TimingServer` instance
    to self-host on an ephemeral local port for the duration of the run.
    """
    owns_server = False
    if server is not None:
        await server.start(host="127.0.0.1", port=0)
        tcp = server.tcp_address
        owns_server = True

    if tcp is not None:
        host, port = tcp

        def connect():
            return asyncio.open_connection(host, port)

    elif unix_path is not None:

        def connect():
            return asyncio.open_unix_connection(unix_path)

    else:
        raise ValueError("loadgen needs --tcp, --socket, or a self-hosted "
                         "server")

    latencies: List[float] = []
    counts = {"ok": 0, "errors": 0, "busy_retries": 0}
    clients = max(1, int(clients))
    try:
        start = time.perf_counter()
        responses = await asyncio.gather(
            *[
                _run_client(connect, script, latencies, counts)
                for __ in range(clients)
            ]
        )
        wall = time.perf_counter() - start
        if owns_server:
            stats = server.stats()
        else:
            stats = await _fetch_server_stats(connect)
    finally:
        if owns_server:
            await server.stop()
    requests = counts["ok"] + counts["errors"]
    millis = [value * 1000 for value in latencies]
    return LoadReport(
        clients=clients,
        requests=requests,
        ok=counts["ok"],
        errors=counts["errors"],
        busy_retries=counts["busy_retries"],
        wall_s=round(wall, 6),
        p50_ms=round(percentile(millis, 50), 3),
        p95_ms=round(percentile(millis, 95), 3),
        p99_ms=round(percentile(millis, 99), 3),
        qps=round(requests / wall, 2) if wall > 0 else 0.0,
        server_stats=stats,
        responses=list(responses),
    )


def run_loadgen(
    script: Sequence[str],
    clients: int = 4,
    tcp: Optional[Tuple[str, int]] = None,
    unix_path: Optional[str] = None,
    server: Optional[TimingServer] = None,
) -> LoadReport:
    """Synchronous wrapper around :func:`run_loadgen_async`."""
    return asyncio.run(
        run_loadgen_async(
            script, clients=clients, tcp=tcp, unix_path=unix_path,
            server=server,
        )
    )
