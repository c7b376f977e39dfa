"""The TrueD end-to-end benchmark: four paper workloads, golden-checked.

One workload run (the form BENCHMARK.json's ``command`` takes); prints
the metrics and, as its last line, one JSON result::

    python3 benchmarks/e2e/run.py --workload table-exact --seed 1 \\
        --seconds 15 --trace 0

Every workload, repeated and interleaved (repeat i with seed 1 + i), with
an optional traced run (per-layer table and tracing overhead) and a JSON
record::

    PYTHONPATH=src python -m benchmarks.e2e run --seed 1 --repeats 10 \\
        --trace DIR --json OUT.json

Apply BENCHMARK.json's bounds to two such records::

    python -m benchmarks.e2e compare BASE.json NEW.json

Each workload runs in fresh child processes with a clean environment
(every ``REPRO_*`` and ``PYTHON*`` variable dropped, then ``REPRO_CACHE=0``
and ``PYTHONHASHSEED=0``).  Any wrong answer makes the command exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ["table-exact", "sat-refute", "certify-mc", "whatif"]
#: Set-up is measured in this many fresh processes per run (median kept).
SETUP_REPEATS = 5
#: A child gets this long before it is killed.
CHILD_TIMEOUT_S = 170
#: Printed in ``run`` reports next to BENCHMARK.json's metrics.
ERROR_RATE = ("error_rate", "ratio")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    """The caller's environment without any ``REPRO_*`` or ``PYTHON*``
    setting (``PYTHONDONTWRITEBYTECODE`` alone would move ``setup_s``),
    with the caller's ``PYTHONPATH`` kept after the benchmark's own."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env.update(
        REPRO_CACHE="0", PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(paths),
    )
    return env


def spawn(args) -> dict:
    """Run one child to completion and return its JSON result."""
    process = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.child", *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as error:
        # Timed out, or this process was interrupted or terminated: stop
        # the child's whole process group (it may have started workers)
        # and wait for the child before leaving.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            raise ChildFailed(
                f"timed out after {CHILD_TIMEOUT_S} s: {args}"
            ) from None
        raise
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise ChildFailed(
            f"exit {process.returncode}: {args}\n{err.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, quick=False, trace=False,
                 trace_out=None) -> dict:
    """One run of one workload.  Untraced, set-up is measured in
    :data:`SETUP_REPEATS` processes and its median reported.  The result's
    ``wall_s`` is the whole run's wall time, set-up processes included."""
    started = perf_counter()
    args = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds)]
    if quick:
        args.append("--quick")
    if trace:
        args.append("--trace")
        if trace_out is not None:
            args += ["--trace-out", str(trace_out)]
        result = spawn(args)
    else:
        setups = [] if quick else [
            spawn(args + ["--setup-only"])["setup_s"]
            for __ in range(SETUP_REPEATS - 1)
        ]
        result = spawn(args)
        setups.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setup_samples"] = setups
    result["wall_s"] = perf_counter() - started
    return result


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report_errors(result) -> None:
    for error in result["errors"]:
        print(f"  ERROR {result['workload']} {error}", file=sys.stderr)


# ----------------------------------------------------------------------
# One run, as BENCHMARK.json's command
# ----------------------------------------------------------------------
def single(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, trace=bool(args.trace)
        )
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.trace:
        values = result["layers"]
        wanted = bench["per_layer"]
    else:
        values = result["metrics"]
        wanted = bench["end_to_end"]
    metrics = {
        metric["name"]: {"value": values[metric["name"]],
                         "unit": metric["unit"]}
        for metric in wanted
    }
    print(f"{args.workload} seed {args.seed}: {result['attempted']} ops in "
          f"{result['rounds']} rounds, {result['failed']} failed, "
          f"{result['wall_s']:.1f} s wall, reference kernel "
          f"{result['host_reference_ms']:.3f} ms (nominal 1 ms)")
    for name, entry in metrics.items():
        print(f"  {name:<32} {entry['value']:>14.6g} {entry['unit']}")
    report_errors(result)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# run: every workload, interleaved repeats, optional traced run
# ----------------------------------------------------------------------
def spread(q1, median, q3) -> float:
    """Quartile distance over median, the run-to-run noise of a metric."""
    return (q3 - q1) / median if median else 0.0


def print_workload(name, runs, trace, bench) -> None:
    first = runs[0]
    walls = [run["wall_s"] for run in runs]
    print(f"\n{name}: {len(runs)} run(s) (seeds "
          f"{', '.join(str(run['seed']) for run in runs)}), "
          f"{first['attempted']} ops in {first['rounds']} rounds per run, "
          f"wall {statistics.median(walls):.1f} s median, "
          f"{max(walls):.1f} s max; reference kernel "
          f"{statistics.median(run['host_reference_ms'] for run in runs):.3f}"
          f" ms median (nominal 1 ms)")
    print(f"  {'metric':<20} {'unit':<7} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7}")
    units = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    for metric, unit in units + [ERROR_RATE]:
        q1, median, q3 = quartiles([run["metrics"][metric] for run in runs])
        line = (f"  {metric:<20} {unit:<7} {median:>12.6g} {q1:>12.6g} "
                f"{q3:>12.6g} {spread(q1, median, q3):>7.1%}")
        if metric == "latency_p90_ms":
            beyond = first["attempted"] - int(0.9 * first["attempted"])
            line += f"  (n={first['attempted']}, {beyond} beyond p90)"
        print(line)
    if len(first.get("setup_samples", ())) > 1:
        own = quartiles([run["setup_samples"][-1] for run in runs])
        print(f"  setup_s of the measuring process alone: median "
              f"{own[1]:.6g} s, spread {spread(*own):.1%}")
    if trace is None:
        return
    layers = trace["layers"]
    wall = layers["trace.op_wall_s"]
    untraced = statistics.median(
        run["metrics"]["throughput_ops_s"] for run in runs
    )
    traced = trace["metrics"]["throughput_ops_s"]
    print(f"  traced run: {trace['attempted']} ops; tracing overhead "
          f"{1 - traced / untraced:+.1%} (traced {traced:.4g} ops/s vs "
          f"untraced {untraced:.4g} ops/s)")
    for metric in bench["per_layer"]:
        value = layers[metric["name"]]
        share = ""
        if metric["unit"] == "s" and wall:
            share = f"{value / wall:7.1%} of op wall"
        print(f"    {metric['name']:<32} {value:>14.6g} "
              f"{metric['unit']:<6} {share}")


def run_all(args) -> int:
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    names = args.workload or WORKLOADS
    runs = {name: [] for name in names}
    try:
        for repeat in range(args.repeats):
            for name in names:
                runs[name].append(run_workload(
                    name, args.seed + repeat, seconds, quick=args.quick
                ))
        traces = {}
        if args.trace is not None:
            args.trace.mkdir(parents=True, exist_ok=True)
            for name in names:
                traces[name] = run_workload(
                    name, args.seed, seconds, quick=args.quick, trace=True,
                    trace_out=args.trace / f"{name}.json",
                )
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"TrueD benchmark, seed {args.seed}, nproc {os.cpu_count()}")
    failed = 0
    record = {}
    for name in names:
        trace = traces.get(name)
        print_workload(name, runs[name], trace, bench)
        for result in runs[name] + ([trace] if trace else []):
            failed += result["failed"]
            report_errors(result)
        record[name] = {
            "runs": [run["metrics"] for run in runs[name]],
            "seeds": [run["seed"] for run in runs[name]],
            "wall_s": [run["wall_s"] for run in runs[name]],
            "host_reference_ms": [
                run["host_reference_ms"] for run in runs[name]
            ],
            "setup_samples": [
                run.get("setup_samples") for run in runs[name]
            ],
            "ops": runs[name][0]["attempted"],
            "layers": trace and trace["layers"],
            "traced_throughput_ops_s": (
                trace and trace["metrics"]["throughput_ops_s"]
            ),
        }
    if args.json is not None:
        args.json.write_text(json.dumps({
            "seed": args.seed,
            "nproc": os.cpu_count(),
            "repeats": args.repeats,
            "workloads": record,
        }, indent=1) + "\n")
    if failed:
        print(f"\n{failed} op(s) failed their golden checks",
              file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# compare: BENCHMARK.json bounds per (metric, workload)
# ----------------------------------------------------------------------
def compare(args) -> int:
    bench = load_benchmark()
    base = json.loads(args.base.read_text())["workloads"]
    new = json.loads(args.new.read_text())["workloads"]
    print(f"{'workload':<16} {'metric':<18} {'base':>11} {'new':>11} "
          f"{'worse by':>9} {'bound':>7}  verdict")
    regressions = 0
    for name in [w for w in WORKLOADS if w in base and w in new]:
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            a = [run[key] for run in base[name]["runs"]]
            b = [run[key] for run in new[name]["runs"]]
            qa, qb = quartiles(a), quartiles(b)
            worse = sign * (qb[1] - qa[1]) / qa[1]
            noise = max(spread(*qa), spread(*qb))
            if all(sign * (y - x) < 0 for x in a for y in b):
                verdict = "better"
            elif noise > bound:
                verdict = f"unresolved (spread {noise:.1%})"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(f"{name:<16} {key:<18} {qa[1]:>11.5g} {qb[1]:>11.5g} "
                  f"{worse:>+9.1%} {bound:>7.2%}  {verdict}")
    return 1 if regressions else 0


def _terminated(signum, frame):
    # Unwinds through spawn(), which stops the running child first.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in ("run", "compare"):
        return single(argv)
    parser = argparse.ArgumentParser(prog="benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run every workload")
    run.add_argument("--seed", type=int, default=1,
                     help="seed of the first repeat; repeat i uses seed + i")
    run.add_argument("--repeats", type=int, default=1)
    run.add_argument("--quick", action="store_true",
                     help="one round of a reduced op list per workload")
    run.add_argument("--workload", action="append", choices=WORKLOADS,
                     help="restrict to these workloads (repeatable)")
    run.add_argument("--trace", type=Path, metavar="DIR",
                     help="add a traced run per workload, spans to DIR")
    run.add_argument("--json", type=Path, metavar="OUT",
                     help="write every run's metrics to OUT")
    diff = commands.add_parser("compare", help="apply the bounds")
    diff.add_argument("base", type=Path)
    diff.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    return run_all(args) if args.command == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
