"""Concurrent sessions are byte-identical to single-client runs.

Two scripted clients with *different* circuits run interleaved against
one server (sharing its pool and cache); each session's responses must
equal — ids, records, certification vectors, stats — the golden stream
the same script produces on the single-client stdio transport.
"""

import asyncio
import io
import json
import sys
from pathlib import Path

import pytest

from repro.incremental import QueryService, serve_stream
from repro.runtime import WorkerPool
from repro.runtime.metrics import metrics_scope
from repro.serve import TimingServer

from tests.helpers import C17_BENCH

SERVICE_DIR = Path(__file__).resolve().parents[1] / "service"
sys.path.insert(0, str(SERVICE_DIR))
from normalize import normalize_line  # noqa: E402


class Rendezvous:
    """Two-party reusable barrier (asyncio.Barrier needs Python 3.11)."""

    def __init__(self, parties: int) -> None:
        self._parties = parties
        self._waiting = 0
        self._event = asyncio.Event()

    async def wait(self) -> None:
        self._waiting += 1
        if self._waiting >= self._parties:
            self._waiting = 0
            event, self._event = self._event, asyncio.Event()
            event.set()
        else:
            await self._event.wait()

ALT_BENCH = """
INPUT(A)
INPUT(B)
INPUT(C)
INPUT(D)
OUTPUT(Y)
OUTPUT(Z)
N1 = AND(A, B)
N2 = OR(C, D)
N3 = XOR(N1, N2)
Y = NAND(N3, B)
Z = NOR(N2, A)
"""

SCRIPT_A = [
    {"op": "load", "bench": C17_BENCH},
    {"op": "query", "kind": "topological"},
    {"op": "query", "kind": "transition"},
    {"op": "edit", "edits": [
        {"op": "set_delay", "name": "G10", "delay": 3}]},
    {"op": "query", "kind": "transition"},
    {"op": "certify"},
]

SCRIPT_B = [
    {"op": "load", "bench": ALT_BENCH},
    {"op": "query", "kind": "floating"},
    {"op": "query", "kind": "transition"},
    {"op": "edit", "edits": [
        {"op": "set_delay", "name": "N2", "delay": 2}]},
    {"op": "query", "kind": "transition"},
    {"op": "certify"},
]


def golden_run(script, jobs):
    """The single-client reference: same script through serve_stream,
    under a throwaway observability scope (exactly what each server
    session gets)."""
    with metrics_scope():
        pool = WorkerPool(jobs) if jobs != 1 else None
        service = QueryService(pool=pool)
        writer = io.StringIO()
        try:
            serve_stream(
                service, iter([json.dumps(r) for r in script]), writer
            )
        finally:
            if pool is not None:
                pool.close()
    return [
        normalize_line(line, strip_stats=False)
        for line in writer.getvalue().splitlines()
    ]


async def scripted_client(host, port, script, barrier):
    reader, writer = await asyncio.open_connection(host, port)
    responses = []
    try:
        for request in script:
            # Interleave deterministically-ish: both clients rendezvous
            # before every request, so the sessions genuinely overlap.
            await barrier.wait()
            writer.write((json.dumps(request) + "\n").encode())
            await writer.drain()
            while True:
                response = json.loads(await reader.readline())
                if response.get("busy"):
                    await asyncio.sleep(0.002)
                    writer.write((json.dumps(request) + "\n").encode())
                    await writer.drain()
                    continue
                break
            responses.append(response)
    finally:
        writer.close()
    return responses


async def run_concurrent(jobs):
    server = TimingServer(jobs=jobs)
    await server.start(host="127.0.0.1", port=0)
    try:
        host, port = server.tcp_address
        barrier = Rendezvous(2)
        results = await asyncio.gather(
            scripted_client(host, port, SCRIPT_A, barrier),
            scripted_client(host, port, SCRIPT_B, barrier),
        )
    finally:
        await server.stop()
    return [
        [
            normalize_line(json.dumps(response), strip_stats=False)
            for response in session
        ]
        for session in results
    ]


@pytest.mark.parametrize("jobs", [1, 4])
def test_interleaved_sessions_match_single_client_goldens(jobs):
    golden_a = golden_run(SCRIPT_A, jobs)
    golden_b = golden_run(SCRIPT_B, jobs)
    # Different circuits => the scripts answer differently; a match
    # against the wrong golden would be vacuous otherwise.
    assert golden_a != golden_b
    session_a, session_b = asyncio.run(run_concurrent(jobs))
    assert session_a == golden_a
    assert session_b == golden_b
