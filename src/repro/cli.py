"""Command-line interface: ``python -m repro <command> ...`` (or the
``trued`` console script).

Commands

* ``stats FILE``      — Table-I-style statistics.
* ``report FILE``     — static timing report (longest paths, slack).
* ``delays FILE``     — topological / floating / transition delays with the
  certification vector pair; ``--bounded`` adds the monotone-speedup run.
* ``vectors FILE``    — per-output certification pairs.
* ``certify FILE``    — the full Sec. VII flow; ``--accurate FILE2`` points
  at the same netlist with accurate delays (use Verilog to carry delays).
* ``faults FILE``     — robust path-delay-fault tests for the K longest
  paths.
* ``simulate FILE``   — replay one vector pair; ``--vcd OUT`` dumps the
  waveforms for a viewer.
* ``lint FILE``       — netlist diagnostics (exit 1 on warnings).
* ``estimate FILE``   — simulation-based transition-delay lower bound.
* ``show FILE``       — plain-text netlist rendering (levels, or one
  fanin cone with ``--cone``).
* ``convert FILE``    — netlist format conversion (.bench/.blif/.v).
* ``serve``           — long-lived incremental what-if query service
  (JSON-lines over stdio; ``--tcp HOST:PORT`` / ``--socket PATH`` start
  the multi-client asyncio front-end, one session per connection, with
  admission control and request coalescing; see ``docs/INCREMENTAL.md``).
* ``loadgen``         — concurrent client fleet against a timing server
  (or a self-hosted in-process one): p50/p95/p99 latency, throughput,
  busy-rejection and coalescing accounting.
* ``characterize``    — datasheet pipeline: ``characterize run SPEC``
  fans a declarative TOML/JSON spec (registry circuits x delay-model
  corners x analyses) through the sharded runtime and emits a versioned
  ``DATASHEET_<id>.json`` plus markdown with per-parameter pass/fail
  verdicts; ``characterize report FILE`` re-renders a datasheet
  (see ``docs/CHARACTERIZE.md``).
* ``fuzz``            — scenario fuzzer: ``fuzz run`` sweeps seeded
  scenarios through differential oracles, ``fuzz replay|shrink`` re-run
  and minimise a filed ``.repro.json``, ``fuzz corpus`` lists corpus
  circuits (see ``docs/FUZZING.md``).

Netlist format is inferred from the extension: ``.bench``, ``.blif``,
``.v``/``.verilog``.  Of the netlist commands only ``certify`` and
``faults`` shard, so only they take ``--jobs``, ``--timeout`` and
``--retries``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from .core import (
    PathFaultGenerator,
    TestStrength,
    certify,
    transition_delay_lower_bound,
    collect_certification_pairs,
    compute_bounded_transition_delay,
    compute_floating_delay,
    compute_transition_delay,
    describe_certificate_path,
    theorem31_min_period,
)
from .network import (
    Circuit,
    dumps_bench,
    dumps_blif,
    dumps_verilog,
    lint,
    load_circuit,
    render_cone,
    render_levels,
)
from .runtime import METRICS, configure_cache, set_execution_policy
from .sim import EventSimulator, dumps_vcd
from .sta import render_table, statistics_row, timing_report


def _dump_circuit(circuit: Circuit, path: str) -> None:
    lowered = path.lower()
    if lowered.endswith(".bench"):
        text = dumps_bench(circuit)
    elif lowered.endswith(".blif"):
        text = dumps_blif(circuit)
    elif lowered.endswith((".v", ".verilog")):
        text = dumps_verilog(circuit)
    else:
        raise ValueError(f"cannot infer output format of {path!r}")
    with open(path, "w") as handle:
        handle.write(text)


def _parse_vector(bits: str, circuit: Circuit) -> Dict[str, bool]:
    if len(bits) != len(circuit.inputs):
        raise ValueError(
            f"vector {bits!r} has {len(bits)} bits; circuit has "
            f"{len(circuit.inputs)} inputs ({', '.join(circuit.inputs)})"
        )
    return {name: ch == "1" for name, ch in zip(circuit.inputs, bits)}


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_stats(args) -> int:
    circuit = load_circuit(args.netlist)
    row = statistics_row(circuit)
    print(
        render_table(
            ["EX", "inputs", "outputs", "literals", "longest"], [row]
        )
    )
    return 0


def cmd_report(args) -> int:
    circuit = load_circuit(args.netlist)
    print(timing_report(circuit, clock_period=args.period,
                        max_paths=args.paths))
    return 0


def cmd_delays(args) -> int:
    circuit = load_circuit(args.netlist)
    print(f"topological delay (l.d.): {circuit.topological_delay()}")
    floating = compute_floating_delay(circuit, engine_name=args.engine)
    print(floating.describe(circuit.inputs))
    transition = compute_transition_delay(
        circuit, engine_name=args.engine, upper=floating.delay
    )
    print(transition.describe(circuit.inputs))
    if transition.pair is not None:
        print(describe_certificate_path(circuit, transition))
    if args.bounded:
        bounded = compute_bounded_transition_delay(
            circuit, engine_name=args.engine, upper=floating.delay
        )
        print(bounded.describe(circuit.inputs))
    tau = theorem31_min_period(circuit, transition.delay)
    print(f"certified minimum clock period (Theorem 3.1): {tau}")
    return 0


def cmd_vectors(args) -> int:
    circuit = load_circuit(args.netlist)
    pairs = collect_certification_pairs(circuit, engine_name=args.engine)
    rows = [
        [out, t, pair.render(circuit.inputs)]
        for out, (t, pair) in sorted(pairs.items())
    ]
    text = render_table(["output", "time", "vector pair <v-1, v0>"], rows)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_certify(args) -> int:
    circuit = load_circuit(args.netlist)
    accurate = load_circuit(args.accurate) if args.accurate else None
    report = certify(
        circuit,
        accurate_circuit=accurate,
        engine_name=args.engine,
        statistical_samples=args.samples,
        jobs=args.jobs,
    )
    print(report.describe())
    return 0 if report.verdict.value.startswith("CERTIFIED") else 1


def cmd_faults(args) -> int:
    circuit = load_circuit(args.netlist)
    generator = PathFaultGenerator(circuit, engine_name=args.engine)
    strength = (
        TestStrength.NON_ROBUST if args.non_robust else TestStrength.ROBUST
    )
    coverage = generator.generate_for_longest_paths(
        args.paths, strength=strength, jobs=args.jobs
    )
    rows = [
        [str(t.fault), t.path_length, t.pair.render(circuit.inputs)]
        for t in coverage.tests
    ]
    print(
        render_table(
            ["fault", "len", "two-pattern test"],
            rows,
            title=(
                f"{strength.value} tests: {len(coverage.tests)}/"
                f"{coverage.total} faults testable "
                f"({coverage.coverage:.0%})"
            ),
        )
    )
    for fault in coverage.untestable:
        print(f"untestable: {fault}")
    return 0


def cmd_simulate(args) -> int:
    circuit = load_circuit(args.netlist)
    prev = _parse_vector(args.prev, circuit)
    nxt = _parse_vector(args.next, circuit)
    result = EventSimulator(circuit).simulate_transition(prev, nxt)
    print(f"last output event at: {result.delay}")
    print(result.waveforms.render(circuit.outputs))
    if args.vcd:
        with open(args.vcd, "w") as handle:
            handle.write(dumps_vcd(result.waveforms))
        print(f"waveforms written to {args.vcd}")
    return 0


def cmd_lint(args) -> int:
    circuit = load_circuit(args.netlist)
    findings = lint(circuit)
    if not findings:
        print("clean: no findings")
        return 0
    for finding in findings:
        print(finding)
    has_warnings = any(f.severity == "warning" for f in findings)
    return 1 if has_warnings else 0


def cmd_estimate(args) -> int:
    circuit = load_circuit(args.netlist)
    print(f"topological delay (upper bound): {circuit.topological_delay()}")
    result = transition_delay_lower_bound(
        circuit,
        random_pairs=args.pairs,
        climbs=args.climbs,
        seed=args.seed,
    )
    print(result.describe(circuit.inputs))
    return 0


def cmd_show(args) -> int:
    circuit = load_circuit(args.netlist)
    if args.cone:
        print(render_cone(circuit, args.cone, max_depth=args.depth))
    else:
        print(render_levels(circuit))
    return 0


def cmd_convert(args) -> int:
    circuit = load_circuit(args.netlist)
    _dump_circuit(circuit, args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_characterize(args) -> int:
    from pathlib import Path

    from . import characterize

    if args.characterize_command == "run":
        spec = characterize.load_spec(args.spec)
        document = characterize.run_spec(spec, jobs=args.jobs)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        json_path = out_dir / f"DATASHEET_{spec.spec_id}.json"
        md_path = out_dir / f"DATASHEET_{spec.spec_id}.md"
        characterize.dump_datasheet(document, json_path)
        with open(md_path, "w") as handle:
            handle.write(characterize.render_datasheet_markdown(document))
        counters = document["counters"]
        print(
            f"characterize: {document['verdict']} "
            f"({counters['parameters_passed']}/{counters['parameters']} "
            f"parameters, {counters['jobs']} jobs, "
            f"{counters['checks']} #checks) -> {json_path}, {md_path}"
        )
        return 0 if document["verdict"] == "PASS" else 1

    if args.characterize_command == "report":
        document = characterize.load_datasheet(args.file)
        print(characterize.render_datasheet_markdown(document))
        return 0 if document["verdict"] == "PASS" else 1

    raise ValueError(
        f"unknown characterize command {args.characterize_command!r}"
    )


def cmd_fuzz(args) -> int:
    from . import fuzz

    if args.fuzz_command == "run":
        oracles = [o.strip() for o in args.oracles.split(",") if o.strip()]
        report = fuzz.run_sweep(
            seed=args.seed,
            count=args.count,
            oracles=oracles,
            jobs=args.jobs,
            oracle_jobs=args.oracle_jobs,
            size=args.size,
            max_edits=args.max_edits,
            out_dir=args.out,
            plant=args.plant,
            shrink_failures=not args.no_shrink,
            shrink_budget=args.shrink_budget,
        )
        for verdict in report.verdicts:
            print(verdict.verdict_line())
        print(report.summary_line())
        for path in report.repro_paths:
            print(f"repro: {path}")
        return 0 if report.ok else 1

    if args.fuzz_command == "replay":
        reproduced, verdicts = fuzz.replay_repro(
            args.file, oracle_jobs=args.oracle_jobs
        )
        for verdict in verdicts:
            print(verdict.verdict_line())
        if reproduced:
            print(f"replay: {args.file}: failure reproduced")
            return 0
        print(f"replay: {args.file}: failure did NOT reproduce")
        return 1

    if args.fuzz_command == "shrink":
        envelope = fuzz.load_repro(args.file)
        scenario = fuzz.Scenario.from_dict(envelope["scenario"])
        failure = fuzz.OracleVerdict.from_dict(envelope["failure"])
        plant = envelope.get("plant")

        def fails(candidate):
            return not fuzz.run_oracle(
                candidate,
                failure.oracle,
                oracle_jobs=args.oracle_jobs,
                plant=plant,
            ).ok

        result = fuzz.shrink_scenario(
            scenario, fails, max_evaluations=args.budget
        )
        envelope["scenario"] = result.scenario.to_dict()
        envelope["shrink"] = result.to_dict()
        out = args.out or args.file
        fuzz.write_repro(out, envelope)
        print(
            f"shrink: {list(result.original_size)} -> "
            f"{list(result.final_size)} in {result.evaluations} "
            f"evaluations -> {out}"
        )
        return 0

    if args.fuzz_command == "corpus":
        from .circuits import registry

        rows = []
        if args.registry:
            for name in registry.available_circuits():
                stats = registry.circuit_stats(name)
                rows.append((name, "registry", stats))
        else:
            names = []
            if args.register:
                names = fuzz.register_corpus(
                    args.seed, args.count, args.size
                )
            for index, profile in enumerate(
                fuzz.corpus_profiles(args.seed, args.count, args.size)
            ):
                circuit = fuzz.random_dag(profile)
                rows.append(
                    (
                        profile.circuit_name(),
                        f"dag seed={profile.seed}",
                        fuzz.netlist_stats(circuit),
                    )
                )
            if args.netlists:
                for name in fuzz.register_netlist_dir(args.netlists):
                    rows.append(
                        (
                            name,
                            "netlist",
                            registry.circuit_stats(name),
                        )
                    )
            if names:
                print(
                    f"registered {len(names)} corpus circuits: "
                    f"{', '.join(names)}"
                )
        header = ("name", "source", "in", "out", "gates", "lits", "delay")
        widths = [
            max(
                len(header[0]), max((len(r[0]) for r in rows), default=0)
            ),
            max(
                len(header[1]), max((len(r[1]) for r in rows), default=0)
            ),
        ]
        print(
            f"{header[0]:<{widths[0]}}  {header[1]:<{widths[1]}}  "
            f"{header[2]:>5} {header[3]:>5} {header[4]:>6} "
            f"{header[5]:>6} {header[6]:>6}"
        )
        for name, source, stats in rows:
            print(
                f"{name:<{widths[0]}}  {source:<{widths[1]}}  "
                f"{stats['inputs']:>5} {stats['outputs']:>5} "
                f"{stats['gates']:>6} {stats['literals']:>6} "
                f"{stats['delay']:>6}"
            )
        return 0

    raise ValueError(f"unknown fuzz command {args.fuzz_command!r}")


def _parse_tcp(spec: str):
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"--tcp expects HOST:PORT (e.g. 127.0.0.1:7440), got {spec!r}"
        )
    return host or "127.0.0.1", int(port)


def cmd_serve(args) -> int:
    if args.tcp or args.socket:
        # The asyncio front-end: one session per connection, all over one
        # shared warm pool and delay cache, with admission control +
        # coalescing.
        from .serve import run_server

        tcp = _parse_tcp(args.tcp) if args.tcp else None

        def announce(address):
            print(f"serving on {address}", file=sys.stderr, flush=True)

        return run_server(
            engine_name=args.engine,
            jobs=args.jobs,
            timeout=args.timeout,
            tcp=tcp,
            unix_path=args.socket,
            max_pending=args.max_pending,
            workers=args.workers,
            preload=args.netlist,
            announce=announce,
        )

    from .incremental import QueryService, serve_stdio
    from .runtime.transport import LocalPoolTransport

    transport = LocalPoolTransport(args.jobs) if args.jobs != 1 else None
    try:
        service = QueryService(
            engine_name=args.engine, jobs=args.jobs, transport=transport,
            timeout=args.timeout,
        )
        if args.netlist:
            service.preload(args.netlist)
        return serve_stdio(service)
    finally:
        if transport is not None:
            transport.close()


def cmd_loadgen(args) -> int:
    from .serve import default_script, run_loadgen

    with open(args.netlist) as handle:
        bench_text = handle.read()
    script = default_script(
        bench_text, queries=args.queries,
        kinds=[k.strip() for k in args.kinds.split(",") if k.strip()],
    )
    tcp = _parse_tcp(args.tcp) if args.tcp else None
    server = None
    if tcp is None and not args.socket:
        # No target given: self-host an in-process server for the run.
        from .serve import TimingServer

        server = TimingServer(
            engine_name=args.engine, jobs=args.jobs, timeout=args.timeout,
            max_pending=args.max_pending, workers=args.workers,
        )
    report = run_loadgen(
        script, clients=args.clients, tcp=tcp, unix_path=args.socket,
        server=server,
    )
    print(report.describe())
    return 1 if report.errors else 0


# ----------------------------------------------------------------------
#: The runtime-layer flags, each declared once.  Every command that
#: shards or caches adds the ones it takes through _add_runtime_flags.
_RUNTIME_FLAGS: Dict[str, dict] = {
    "--jobs": dict(
        type=int, default=1, metavar="N",
        help="worker processes for sharded work "
        "(1 = serial, 0 = all cores; default: 1)",
    ),
    "--cache": dict(
        default=None, metavar="DIR",
        help="enable the result cache with an on-disk store under DIR",
    ),
    "--no-cache": dict(
        action="store_true",
        help="disable result caching (overrides --cache and "
        "REPRO_CACHE_DIR)",
    ),
    "--timeout": dict(
        type=float, default=None, metavar="S",
        help="per-round wall-clock timeout (seconds) for sharded work; "
        "timed-out chunks are retried and finally re-run serially "
        "in-process (default: no timeout)",
    ),
    "--retries": dict(
        type=int, default=1, metavar="N",
        help="retry rounds for failed or timed-out chunks (each retry "
        "isolates items one per task) before degrading to serial "
        "in-process execution (default: 1)",
    ),
    "--metrics": dict(
        action="store_true",
        help="print runtime metrics (probes, cache hits, phase times) "
        "and the execution-trace tree to stderr after the command",
    ),
    "--trace": dict(
        default=None, metavar="FILE",
        help="write the hierarchical execution trace (span tree with "
        "retry/degradation events) as JSON to FILE",
    ),
}


#: The runtime flags of a netlist command that does not shard: it has
#: no use for ``--jobs``, ``--timeout`` or ``--retries``.
_NON_SHARDING_FLAGS = ("--cache", "--no-cache", "--metrics", "--trace")


def _add_runtime_flags(parser, flags=tuple(_RUNTIME_FLAGS)) -> None:
    for flag in flags:
        parser.add_argument(flag, **_RUNTIME_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trued",
        description="TrueD: certified timing verification "
        "(Devadas/Keutzer/Malik/Wang, DAC'92).",
        epilog="Documentation index: docs/README.md — architecture map "
        "(docs/ARCHITECTURE.md), algorithms, file formats, the runtime "
        "layer (docs/RUNTIME.md), and incremental what-if timing "
        "(docs/INCREMENTAL.md); how speed is measured: "
        "benchmarks/e2e/README.md.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, shards=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("netlist", help="netlist file (.bench/.blif/.v)")
        p.add_argument(
            "--engine",
            choices=["auto", "bdd", "sat"],
            default="auto",
            help="Boolean function engine (default: auto)",
        )
        _add_runtime_flags(
            p, tuple(_RUNTIME_FLAGS) if shards else _NON_SHARDING_FLAGS
        )
        p.set_defaults(func=fn)
        return p

    add("stats", cmd_stats, help="Table-I-style circuit statistics")

    p = add("report", cmd_report, help="static timing report")
    p.add_argument("--paths", type=int, default=3)
    p.add_argument("--period", type=int, default=None)

    p = add("delays", cmd_delays,
            help="topological / floating / transition delays")
    p.add_argument("--bounded", action="store_true",
                   help="also run the bounded [0,d] analysis")

    p = add("vectors", cmd_vectors,
            help="per-output certification pairs")
    p.add_argument("-o", "--output", default=None)

    p = add("certify", cmd_certify, shards=True,
            help="the full Sec. VII flow")
    p.add_argument("--accurate", default=None,
                   help="netlist with accurate delays (e.g. .v)")
    p.add_argument("--samples", type=int, default=0,
                   help="Monte Carlo samples for the statistical follow-up")

    p = add("faults", cmd_faults, shards=True,
            help="path-delay-fault test generation")
    p.add_argument("-k", "--paths", type=int, default=5)
    p.add_argument("--non-robust", action="store_true")

    p = add("simulate", cmd_simulate, help="replay one vector pair")
    p.add_argument("--prev", required=True, help="v_-1 as a bit string")
    p.add_argument("--next", required=True, help="v_0 as a bit string")
    p.add_argument("--vcd", default=None, help="write waveforms to VCD")

    add("lint", cmd_lint, help="netlist diagnostics (exit 1 on warnings)")

    p = add("estimate", cmd_estimate,
            help="simulation-based transition-delay lower bound")
    p.add_argument("--pairs", type=int, default=64)
    p.add_argument("--climbs", type=int, default=8)
    p.add_argument("--seed", type=int, default=2026)

    p = add("show", cmd_show, help="plain-text netlist rendering")
    p.add_argument("--cone", default=None,
                   help="render the fanin cone of this signal instead")
    p.add_argument("--depth", type=int, default=None,
                   help="limit the cone depth")

    p = add("convert", cmd_convert, help="netlist format conversion")
    p.add_argument("-o", "--output", required=True)

    # ``serve`` takes no netlist positional (circuits are loaded through
    # the request protocol), so it gets its own subparser.
    p = sub.add_parser(
        "serve",
        help="long-lived incremental what-if query service (JSON lines)",
    )
    p.add_argument(
        "--netlist", default=None,
        help="preload this netlist before serving",
    )
    p.add_argument(
        "--tcp", default=None, metavar="HOST:PORT",
        help="serve many concurrent sessions over TCP, one per "
        "connection (asyncio front-end with admission control and "
        "request coalescing; PORT 0 picks an ephemeral port, announced "
        "on stderr)",
    )
    p.add_argument(
        "--socket", default=None, metavar="PATH",
        help="like --tcp but on a unix domain socket (combinable "
        "with --tcp to listen on both)",
    )
    p.add_argument(
        "--engine", choices=["auto", "bdd", "sat"], default="auto",
        help="Boolean function engine (default: auto)",
    )
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="warm worker processes for dirty-cone evaluation "
        "(1 = serial, 0 = all cores; default: 1)",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-request parallel-round timeout for the warm pool; "
        "failed or timed-out work finishes in-process, without a "
        "retry round",
    )
    p.add_argument(
        "--max-pending", type=int, default=64, metavar="N",
        help="admission-queue bound for --tcp/--socket: requests "
        "beyond N in flight get an immediate 'busy' response "
        "(default: 64)",
    )
    p.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="request-execution threads for --tcp/--socket "
        "(default: 1, which maximises coalescing opportunities)",
    )
    p.set_defaults(func=cmd_serve)

    # ``loadgen`` drives a client fleet against a running server (or a
    # self-hosted in-process one) and prints latency percentiles.
    p = sub.add_parser(
        "loadgen",
        help="concurrent client fleet for the timing server "
        "(p50/p95/p99 latency, throughput, coalescing stats)",
    )
    p.add_argument("netlist", help="netlist every client loads (.bench)")
    p.add_argument(
        "--tcp", default=None, metavar="HOST:PORT",
        help="target a running ``trued serve --tcp`` server",
    )
    p.add_argument(
        "--socket", default=None, metavar="PATH",
        help="target a running ``trued serve --socket`` server",
    )
    p.add_argument(
        "--clients", type=int, default=4, metavar="N",
        help="concurrent scripted sessions (default: 4)",
    )
    p.add_argument(
        "--queries", type=int, default=8, metavar="N",
        help="queries per client after the initial load (default: 8)",
    )
    p.add_argument(
        "--kinds", default="transition", metavar="A,B,...",
        help="query kinds cycled per client "
        "(transition/floating/topological; default: transition)",
    )
    p.add_argument(
        "--engine", choices=["auto", "bdd", "sat"], default="auto",
        help="engine for the self-hosted server (no --tcp/--socket)",
    )
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="warm-pool jobs for the self-hosted server (default: 1)",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="warm-pool round timeout for the self-hosted server",
    )
    p.add_argument(
        "--max-pending", type=int, default=64, metavar="N",
        help="admission bound for the self-hosted server (default: 64)",
    )
    p.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="execution threads for the self-hosted server (default: 1)",
    )
    p.set_defaults(func=cmd_loadgen)

    # ``characterize`` runs a declarative spec over registry circuits, so
    # it takes a spec file rather than a netlist positional.
    p = sub.add_parser(
        "characterize",
        help="characterization datasheets: declarative spec -> corner "
        "fan-out -> pass/fail DATASHEET.json + markdown",
        description="Characterization pipeline (docs/CHARACTERIZE.md): "
        "parse a TOML/JSON spec naming registry circuits, delay-model "
        "corners and measured-vs-target parameters; fan the (circuit x "
        "corner x analysis) plan through the sharded runtime; collate "
        "into a versioned datasheet with per-parameter verdicts.",
    )
    characterize_sub = p.add_subparsers(
        dest="characterize_command", required=True
    )

    c = characterize_sub.add_parser(
        "run", help="execute a spec end-to-end (exit 1 when FAIL)"
    )
    c.add_argument("spec", help="characterization spec (.toml or .json)")
    c.add_argument(
        "-o", "--out", default=".", metavar="DIR",
        help="output directory for DATASHEET_<id>.json + .md "
        "(default: current directory)",
    )
    _add_runtime_flags(c)

    c = characterize_sub.add_parser(
        "report", help="render a DATASHEET.json as markdown"
    )
    c.add_argument("file", help="DATASHEET_<id>.json")

    p.set_defaults(func=cmd_characterize)

    # ``fuzz`` — the scenario fuzzer (docs/FUZZING.md).
    p = sub.add_parser(
        "fuzz",
        help="scenario fuzzer: differential sweeps, minimal-repro "
        "shrinking, corpus listings",
        description="Scenario fuzzer (docs/FUZZING.md): deterministic "
        "seeded streams of circuit x delay-corner x edit-sequence "
        "scenarios, cross-checked by four differential oracles (serial "
        "vs sharded, cold vs incremental, scalar vs word-level, "
        "cache-cold vs cache-warm); failures shrink to self-contained "
        ".repro.json files.",
    )
    fuzz_sub = p.add_subparsers(dest="fuzz_command", required=True)

    def fuzz_runtime_flags(f):
        f.add_argument(
            "--oracle-jobs", type=int, default=1, metavar="N",
            help="worker processes *inside* each oracle's sharded leg "
            "(default: 1)",
        )
        _add_runtime_flags(
            f, ("--timeout", "--retries", "--metrics", "--trace")
        )

    f = fuzz_sub.add_parser(
        "run",
        help="run a seeded differential sweep (exit 1 on any failure)",
    )
    f.add_argument("--seed", type=int, default=0, metavar="N",
                   help="stream seed (default: 0)")
    f.add_argument("--count", type=int, default=20, metavar="N",
                   help="number of scenarios (default: 20)")
    f.add_argument(
        "--size", default="small",
        help="corpus size class: small/medium/large (default: small)",
    )
    f.add_argument(
        "--oracles", default="jobs,incremental,wordsim,cache",
        metavar="LIST",
        help="comma-separated oracle subset (default: all four)",
    )
    _add_runtime_flags(f, ("--jobs",))
    f.add_argument(
        "--max-edits", type=int, default=4, metavar="N",
        help="edit-sequence length cap per scenario (default: 4)",
    )
    f.add_argument(
        "-o", "--out", default=None, metavar="DIR",
        help="write verdicts.txt and <scenario>.repro.json files here",
    )
    f.add_argument(
        "--plant", default=None, choices=["xor"],
        help="inject a deliberate divergence (CI golden path): 'xor' "
        "perturbs the incremental oracle iff the circuit has an XOR "
        "gate",
    )
    f.add_argument(
        "--no-shrink", action="store_true",
        help="file failing scenarios unshrunk",
    )
    f.add_argument(
        "--shrink-budget", type=int, default=200, metavar="N",
        help="max predicate evaluations per shrink (default: 200)",
    )
    fuzz_runtime_flags(f)

    f = fuzz_sub.add_parser(
        "replay",
        help="re-execute a .repro.json (exit 0 iff the failure "
        "reproduces)",
    )
    f.add_argument("file", help="a .repro.json written by 'fuzz run'")
    fuzz_runtime_flags(f)

    f = fuzz_sub.add_parser(
        "shrink", help="re-shrink a .repro.json with a fresh budget"
    )
    f.add_argument("file", help="a .repro.json written by 'fuzz run'")
    f.add_argument(
        "-o", "--out", default=None, metavar="FILE",
        help="output path (default: overwrite the input)",
    )
    f.add_argument(
        "--budget", type=int, default=400, metavar="N",
        help="max predicate evaluations (default: 400)",
    )
    fuzz_runtime_flags(f)

    f = fuzz_sub.add_parser(
        "corpus",
        help="list (and optionally register) corpus circuits with "
        "structural stats",
    )
    f.add_argument("--seed", type=int, default=0, metavar="N")
    f.add_argument("--count", type=int, default=8, metavar="N")
    f.add_argument(
        "--size", default="small",
        help="corpus size class: small/medium/large (default: small)",
    )
    f.add_argument(
        "--register", action="store_true",
        help="register the listed corpus slice with the circuit "
        "registry for this process",
    )
    f.add_argument(
        "--netlists", default=None, metavar="DIR",
        help="also import and register every .bench/.blif under DIR",
    )
    f.add_argument(
        "--registry", action="store_true",
        help="list the full circuit registry with stats instead of a "
        "generated slice",
    )
    _add_runtime_flags(f, ("--metrics", "--trace"))

    p.set_defaults(func=cmd_fuzz)

    return parser


def _configure_runtime(args) -> None:
    # One recorder state per invocation: fresh totals, and a root
    # "session" span covering every span the command records.
    METRICS.reset()
    set_execution_policy(
        timeout=getattr(args, "timeout", None),
        retries=getattr(args, "retries", None),
    )
    if getattr(args, "no_cache", False):
        configure_cache(enabled=False)
    elif getattr(args, "cache", None):
        configure_cache(enabled=True, cache_dir=args.cache)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_runtime(args)
        return args.func(args)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        trace_path = getattr(args, "trace", None)
        if trace_path:
            METRICS.export(trace_path)
        if getattr(args, "metrics", False):
            print(METRICS.report(), file=sys.stderr)
            print(METRICS.render(), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
