"""Distributed shard transport benchmark: local pool vs localhost fleet.

Acceptance checks for the remote transport of docs/DISTRIBUTED.md:

* the same sharded certification workload through the in-host pool and
  through two `trued worker` subprocesses over the socket transport
  returns **byte-identical** certification pairs (§5's headline
  guarantee, measured rather than mocked),
* every chunk of the remote run actually ran remotely
  (`transport.remote_chunks` equals the chunk count, zero degradation),
* the `transport.*` protocol counters land in each remote case's
  `extra` field so artifact-traffic drift shows up in `trued bench
  compare`, not just in wall clock.

The durable record goes to ``benchmarks/results/dist_shard.txt`` and the
canonical bench record to ``BENCH_dist_shard.json`` via the suite
recorder (gated by CI's bench-smoke job).
"""

import os
import subprocess
import sys

from repro.circuits import build_circuit
from repro.runtime import METRICS, DelayCache
from repro.runtime.parallel import shard_map
from repro.runtime.remote import RemoteTransport

from .common import render_rows, write_metrics, write_result, write_trace

CIRCUIT = "c432"
JOBS = 4
WORKERS = 2


def _spawn_worker(store):
    env = dict(os.environ)
    env.pop("REPRO_FAULT_INJECT", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--tcp", "127.0.0.1:0", "--cache", store],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    announce = process.stdout.readline().strip()
    assert announce.startswith("WORKER READY tcp://"), announce
    return process, announce.split()[2]


def _shard_pairs(circuit, transport=None):
    outputs = list(circuit.outputs)
    found = shard_map(
        "pairs", (circuit, "auto", None), outputs, JOBS, transport=transport
    )
    return {out: pair for out, pair in zip(outputs, found) if pair}


def _assert_identical(remote, local):
    assert list(remote) == list(local)
    for out in local:
        assert remote[out][0] == local[out][0]
        assert remote[out][1].v_prev == local[out][1].v_prev
        assert remote[out][1].v_next == local[out][1].v_next


def test_remote_fleet_matches_local_pool(tmp_path, benchmark):
    circuit = build_circuit(CIRCUIT)
    store = str(tmp_path / "store")
    os.mkdir(store)

    METRICS.reset()
    with benchmark.measure("local_pool", circuit=circuit):
        local = _shard_pairs(circuit)

    workers = [_spawn_worker(store) for __ in range(WORKERS)]
    transport = RemoteTransport(
        [endpoint for __, endpoint in workers],
        cache=DelayCache(cache_dir=store, enabled=False),
    )
    try:
        METRICS.reset()
        with benchmark.measure("remote_cold", circuit=circuit):
            remote_cold = _shard_pairs(circuit, transport)
        cold_counters = {
            name: METRICS.counter(f"transport.{name}")
            for name in (
                "rounds", "remote_chunks",
                "artifact_pushes", "artifact_fetches",
                "worker_failures", "degraded",
            )
        }
        # Every chunk ran remotely; nothing failed or degraded.
        assert cold_counters["remote_chunks"] == JOBS
        assert cold_counters["artifact_pushes"] == JOBS
        assert cold_counters["artifact_fetches"] == JOBS
        assert cold_counters["worker_failures"] == 0
        assert cold_counters["degraded"] == 0
        benchmark.annotate(
            "remote_cold", circuit=circuit, workers=WORKERS, **cold_counters
        )

        # Second round over the same links: connections stay warm
        # (docs/DISTRIBUTED.md §2 — long-lived workers).
        METRICS.reset()
        with benchmark.measure("remote_warm_links", circuit=circuit):
            remote_warm = _shard_pairs(circuit, transport)
        assert METRICS.counter("transport.reconnects") == 0
        assert METRICS.counter("transport.connect_failures") == 0
        benchmark.annotate(
            "remote_warm_links",
            circuit=circuit,
            workers=WORKERS,
            remote_chunks=METRICS.counter("transport.remote_chunks"),
        )
    finally:
        transport.close()
        for process, __ in workers:
            process.terminate()
        for process, __ in workers:
            process.wait(timeout=10)

    _assert_identical(remote_cold, local)
    _assert_identical(remote_warm, local)

    rows = [
        ["local pool", JOBS, "-", "-"],
        ["remote cold", JOBS, WORKERS, cold_counters["remote_chunks"]],
        ["remote warm links", JOBS, WORKERS,
         "byte-identical" if remote_warm == remote_cold else "DIVERGED"],
    ]
    write_result(
        "dist_shard",
        render_rows(
            f"sharded certification pairs, {CIRCUIT} stand-in, "
            f"{WORKERS} localhost workers",
            rows,
            headers=["substrate", "jobs", "workers", "remote chunks"],
        ),
    )
    write_metrics("dist_shard")
    write_trace("dist_shard")
