"""One workload run in a fresh process: set up, time the ops, check them.

Run by the harness as ``python -m benchmarks.e2e.child`` with a clean
environment; prints one JSON object on its last stdout line.  The set-up
clock starts before the program is imported, so imports, circuit builds
and the warm-up ops all count as set-up, never as the first timed op.
Set-up is scaled like an op, by the reference times before and after it.

Every time is reported at a nominal host speed.  A shared host's speed
drifts by up to 2x over minutes, in phases longer than a run, and every
op of a run slows with it.  So the harness times a fixed pure-Python
kernel, :class:`Reference`, right before every op and scales the op's
wall time by ``REFERENCE_S`` over the kernel's time around it.  Between
ops on a quiet 2-core host the kernel takes about ``REFERENCE_S``, so
there the reported times read as wall-clock times.  The kernel lives
here, in the benchmark, and allocates nothing the collector tracks, so a
change to the program does not change the kernel's work.
``host_reference_ms`` in the result is the kernel's median time: how
slow the host was.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: Nominal duration of one :meth:`Reference.time` call between ops.
#: Changing it, or the kernel, rescales every reported time.
REFERENCE_S = 1e-3
REFERENCE_LOOPS = 4700
#: Reference calls timed before and after set-up (median of each).
SETUP_REFERENCES = 5


class Reference:
    """A fixed kernel whose time tracks the host's speed.

    It reads and writes ``REFERENCE_LOOPS`` entries of a 4096-entry dict
    of small ints: interpreted bytecode on a working set that stays in
    cache, so it slows when the core does.  A kernel spread over an 8 MiB
    table, to pay for cache misses as the program's ops do, tracked the
    ops worse when the host's speed swung most.
    """

    def __init__(self) -> None:
        self.table = {key: key for key in range(4096)}

    def time(self) -> float:
        """Seconds one call of the kernel takes right now."""
        table = self.table
        start = perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOPS):
            key = (i * 2654435761) & 4095
            acc += table[key]
            table[key] = acc & 0xFFFF
        return perf_counter() - start

    def typical(self) -> float:
        """Median of a few back-to-back calls."""
        return statistics.median(
            self.time() for __ in range(SETUP_REFERENCES)
        )


#: Error messages kept in the result (the count is always exact).
MAX_ERRORS = 5


def percentile_ms(latencies, q: int) -> float:
    """The ``q``-th percentile (q a multiple of 10) in milliseconds."""
    if len(latencies) == 1:
        return latencies[0] * 1000.0
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return deciles[q // 10 - 1] * 1000.0


def measure(workload, rounds: int, reference: Reference,
            tracer=None) -> dict:
    """Run ``rounds`` rounds of ops back to back (a closed loop, one
    client).  Checks run between ops, outside their timing.

    A reference time is taken right before every op and once after the
    last.  An op's sample is its wall time over the mean of the reference
    times on either side of it; its time is the median of its samples
    over the run's repeats of that op (its key), times ``REFERENCE_S``.

    Before each op, outside its timing, the cyclic collector runs, so
    every op starts with the same collector state whatever ran before it
    (the seed's op order would otherwise decide which op pays for which
    collection).  The set-up's objects are frozen out of the collector
    first, which keeps that per-op collection to about a millisecond.
    """
    executed = []
    walls = []
    references = []
    failed = 0
    errors = []
    checks = 0
    gc.collect()
    gc.freeze()
    for __ in range(rounds):
        answers = {}
        for op in workload.round_ops():
            gc.collect()
            references.append(reference.time())
            if tracer is not None:
                tracer.begin(op.key)
            start = perf_counter()
            try:
                answer = op.run(answers)
                problem = None
            except Exception as error:  # an op failure is a measured result
                answer = None
                problem = f"raised {type(error).__name__}: {error}"
            end = perf_counter()
            if tracer is not None:
                tracer.end(start, end)
            walls.append(end - start)
            executed.append(op.key)
            if problem is None:
                checks += op.checks(answer)
                answers[op.key] = answer
                problem = op.check(answer)
            if problem is not None:
                failed += 1
                if len(errors) < MAX_ERRORS:
                    errors.append(f"{op.key}: {problem}")
    references.append(reference.time())
    samples = defaultdict(list)
    for i, key in enumerate(executed):
        around = (references[i] + references[i + 1]) / 2
        samples[key].append(walls[i] / around)
    typical = {
        key: statistics.median(ratios) * REFERENCE_S
        for key, ratios in samples.items()
    }
    latencies = [typical[key] for key in executed]
    return {
        "rounds": rounds,
        "attempted": len(executed),
        "failed": failed,
        "errors": errors,
        "host_reference_ms": statistics.median(references) * 1000.0,
        "metrics": {
            "throughput_ops_s": len(latencies) / sum(latencies),
            "latency_p50_ms": percentile_ms(latencies, 50),
            "latency_p90_ms": percentile_ms(latencies, 90),
            "checks": checks,
            "error_rate": failed / len(executed),
        },
    }


def main(argv=None) -> int:
    reference = Reference()
    reference_before = reference.typical()
    setup_start = perf_counter()
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--quick", action="store_true",
                        help="one round of a reduced op list")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true",
                        help="wrap the layers and report per-layer metrics")
    parser.add_argument("--trace-out", type=Path,
                        help="also write the spans to this JSON file")
    args = parser.parse_args(argv)

    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, quick=args.quick)
    workload.setup()
    setup_wall = perf_counter() - setup_start
    around = (reference_before + reference.typical()) / 2
    setup_s = setup_wall * REFERENCE_S / around
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from benchmarks.e2e.layers import Tracer

        tracer = Tracer()
        tracer.install()
    result = measure(
        workload, workload.rounds(args.seconds), reference, tracer
    )
    result["workload"] = args.workload
    result["seed"] = args.seed
    result["metrics"]["setup_s"] = setup_s
    result["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if args.trace_out is not None:
            document = tracer.export()
            document.update(
                workload=args.workload, seed=args.seed,
                rounds=result["rounds"],
            )
            args.trace_out.write_text(json.dumps(document))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
