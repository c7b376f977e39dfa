"""Per-layer tracing for the traced run, measured from outside the program.

The traced run wraps public entry points of each layer in the benchmark's
own process and keeps its spans in memory.  It never touches the
program's ``TRACER`` and reads the program's ``METRICS`` only through
``METRICS.snapshot()`` deltas, so a change to either cannot move the
measurement.

A span carries an op id, a name, a start, an end and its parent span.
Engine build ops (``and_``, ``or_``, ... on the BDD and AIG engines) run
tens of thousands of times per op, so they are folded into one aggregate
per (op, parent span, name) instead of one span per call.  A span's self
time is its duration minus the time of the wrapped calls beneath it; the
``core`` layer is what is left of the op's wall time, so every layer's
self time plus ``core.self_s`` adds up to the op wall time exactly.
Bookkeeping done after a wrapped call returns (event counting, counter
reads) lands in the caller's self time, usually ``core``.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.boolfn.aig import Aig
from repro.boolfn.interface import BddEngine, SatEngine
from repro.boolfn.sat import SatSolver
from repro.incremental import IncrementalTimingEngine
from repro.runtime.cache import DelayCache
from repro.runtime.metrics import METRICS
from repro.sim import wordsim
from repro.sim.event_sim import EventSimulator

#: Engine methods that build functions (the BDD "apply" / AIG construction).
BUILD_OPS = ("not_", "and_", "or_", "xor_", "and_many", "or_many")

#: Program counters read as per-op deltas of ``METRICS.snapshot()``.
_METRIC_DELTAS = {
    "incremental.dirty_nodes": "incremental.dirty_nodes",
    "incremental.evaluated_cones": "incremental.evaluated_cones",
    "incremental.cone_cache_hits": "incremental.cone_cache_hits",
    "incremental.reused_cones": "incremental.reused_cones",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Spans and counters for the ops of one traced run."""

    def __init__(self) -> None:
        #: ``(op, span, parent, name, start, end)`` per wrapped call.
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        #: ``(op, parent, name) -> [calls, seconds, self seconds]`` for
        #: build ops (which nest when one's argument builds functions).
        self.aggregates: Dict[Tuple[int, int, str], List[float]] = (
            defaultdict(lambda: [0, 0.0, 0.0])
        )
        #: ``(op, key, start, end)`` per timed op.
        self.ops: List[Tuple[int, str, float, float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._op: Optional[int] = None
        self._stack: List[list] = []
        self._next_span = 0
        self._engines: list = []
        self._snapshot: Dict[str, int] = {}

    # -- op boundaries -------------------------------------------------
    def begin(self, key: str) -> None:
        """Start attributing wrapped calls to a new op (call before the
        op's start timestamp, so this bookkeeping stays outside it)."""
        self._snapshot = dict(METRICS.snapshot()["counters"])
        self._op = len(self.ops)
        self.ops.append((self._op, key, 0.0, 0.0))
        self._stack = [[self._new_span(), 0.0]]

    def end(self, start: float, end: float) -> None:
        """Close the current op, timed by the caller from ``start`` to
        ``end``; what no wrapped call covered is ``core`` self time."""
        op = self._op
        frame = self._stack[0]
        self.ops[op] = (op, self.ops[op][1], start, end)
        self.counts["trace.op_wall_s"] += end - start
        self.counts["core.self_s"] += (end - start) - frame[1]
        self._op = None
        self._stack = []
        counters = METRICS.snapshot()["counters"]
        before = self._snapshot
        for name, value in counters.items():
            delta = value - before.get(name, 0)
            if not delta:
                continue
            if name.endswith(".functions_built"):
                self.counts["core.functions_built"] += delta
            elif name in _METRIC_DELTAS:
                self.counts[_METRIC_DELTAS[name]] += delta
        for engine in self._engines:
            manager = engine.manager
            if isinstance(engine, BddEngine):
                self.counts["boolfn.bdd.peak_nodes"] = max(
                    self.counts["boolfn.bdd.peak_nodes"], manager.num_nodes
                )
            else:
                self.counts["boolfn.aig.nodes"] += manager.num_nodes
                # Node 0 is the constant; the rest are variables or ANDs.
                self.counts["aig.and_nodes"] += (
                    manager.num_nodes - 1 - len(manager.var_names)
                )
        self._engines = []

    def _new_span(self) -> int:
        self._next_span += 1
        return self._next_span

    # -- wrappers ------------------------------------------------------
    def _span(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
        aggregate: bool = False,
        when: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` so each call inside an op is timed as span ``name``.

        ``before(args)`` runs ahead of the call and its value is passed
        to ``after(args, result, token)``, which runs once the span is
        closed; ``when(args)`` false passes the call through untraced.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None or (when is not None and not when(args)):
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            stack = tracer._stack
            frame = [0 if aggregate else tracer._new_span(), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent = stack[-1]
                elapsed = end - start
                parent[1] += elapsed
                tracer.self_s[name] += elapsed - frame[1]
                tracer.calls[name] += 1
                if aggregate:
                    entry = tracer.aggregates[(tracer._op, parent[0], name)]
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[1]
                else:
                    tracer.spans.append(
                        (tracer._op, frame[0], parent[0], name, start, end)
                    )
            if after is not None:
                after(args, result, token)
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` to count calls inside an op, without a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is not None:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _collect_engine(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(engine, *args, **kwargs):
            fn(engine, *args, **kwargs)
            if tracer._op is not None:
                tracer._engines.append(engine)

        return wrapper

    def install(self) -> None:
        """Patch the layer entry points for the rest of this process."""
        counts = self.counts
        for engine_cls, build, check in (
            (BddEngine, "boolfn.bdd.apply", "boolfn.bdd.check"),
            (SatEngine, "boolfn.aig.build", "boolfn.aig.check"),
        ):
            for method in BUILD_OPS:
                setattr(
                    engine_cls, method,
                    self._span(build, getattr(engine_cls, method),
                               aggregate=True),
                )
            engine_cls.sat_one = self._span(check, engine_cls.sat_one)
            engine_cls.__init__ = self._collect_engine(engine_cls.__init__)

        def cnf_size(args, result, token):
            counts["boolfn.aig.cnf_clauses"] += len(result[0])

        Aig.to_cnf = self._span("boolfn.aig.to_cnf", Aig.to_cnf, cnf_size)
        Aig.sat_one = self._count("aig.sat_one", Aig.sat_one)
        Aig.and_ = self._count("aig.and", Aig.and_)
        SatSolver.add_cnf = self._span("boolfn.sat.load", SatSolver.add_cnf)

        def solver_counters(args):
            solver = args[0]
            return (
                solver.num_conflicts, solver.num_decisions,
                solver.num_propagations,
            )

        def solve_done(args, result, token):
            solver = args[0]
            counts["boolfn.sat.conflicts"] += solver.num_conflicts - token[0]
            counts["boolfn.sat.decisions"] += solver.num_decisions - token[1]
            counts["boolfn.sat.propagations"] += (
                solver.num_propagations - token[2]
            )
            if not result:
                counts["sat.unsat"] += 1

        SatSolver.solve = self._span(
            "boolfn.sat.solve", SatSolver.solve, solve_done,
            before=solver_counters,
        )

        def replay_events(args, result, token):
            counts["sim.event_sim.events"] += sum(
                len(wave.events)
                for wave in result.waveforms.waveforms.values()
            )

        EventSimulator.simulate_transition = self._span(
            "sim.event_sim.replay", EventSimulator.simulate_transition,
            replay_events,
        )

        def lanes(args, result, token):
            counts["sim.wordsim.lanes"] += len(result)

        for function in ("batch_settle", "batch_settle_outputs"):
            setattr(
                wordsim, function,
                self._span("sim.wordsim.batch", getattr(wordsim, function),
                           lanes),
            )

        def live_lookup(args):
            return args[0].enabled and args[1] is not None

        def cache_hit(args, result, token):
            if result is not None:
                counts["cache.hits"] += 1

        DelayCache.get = self._span(
            "runtime.cache.get", DelayCache.get, cache_hit, when=live_lookup
        )
        DelayCache.put = self._span(
            "runtime.cache.put", DelayCache.put,
            when=lambda args: live_lookup(args) and args[2] is not None,
        )
        IncrementalTimingEngine.query = self._span(
            "incremental.query", IncrementalTimingEngine.query
        )

    # -- results -------------------------------------------------------
    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric, summed over the timed ops."""
        counts, calls, self_s = self.counts, self.calls, self.self_s
        gets = calls["runtime.cache.get"]
        cones = (
            counts["incremental.reused_cones"]
            + counts["incremental.evaluated_cones"]
            + counts["incremental.cone_cache_hits"]
        )
        return {
            "trace.op_wall_s": counts["trace.op_wall_s"],
            "core.self_s": counts["core.self_s"],
            "core.functions_built": counts["core.functions_built"],
            "boolfn.bdd.apply_calls": calls["boolfn.bdd.apply"],
            "boolfn.bdd.apply_s": self_s["boolfn.bdd.apply"],
            "boolfn.bdd.check_s": self_s["boolfn.bdd.check"],
            "boolfn.bdd.peak_nodes": counts["boolfn.bdd.peak_nodes"],
            "boolfn.aig.build_calls": calls["boolfn.aig.build"],
            "boolfn.aig.build_s": self_s["boolfn.aig.build"],
            "boolfn.aig.check_s": self_s["boolfn.aig.check"],
            "boolfn.aig.nodes": counts["boolfn.aig.nodes"],
            "boolfn.aig.strash_hit_ratio": 1.0 - _ratio(
                counts["aig.and_nodes"], calls["aig.and"]
            ) if calls["aig.and"] else 0.0,
            "boolfn.aig.sig_answered_ratio": 1.0 - _ratio(
                calls["boolfn.aig.to_cnf"], calls["aig.sat_one"]
            ) if calls["aig.sat_one"] else 0.0,
            "boolfn.aig.to_cnf_s": self_s["boolfn.aig.to_cnf"],
            "boolfn.aig.cnf_clauses": counts["boolfn.aig.cnf_clauses"],
            "boolfn.sat.solves": calls["boolfn.sat.solve"],
            "boolfn.sat.solve_s": self_s["boolfn.sat.solve"],
            "boolfn.sat.load_s": self_s["boolfn.sat.load"],
            "boolfn.sat.conflicts": counts["boolfn.sat.conflicts"],
            "boolfn.sat.decisions": counts["boolfn.sat.decisions"],
            "boolfn.sat.propagations": counts["boolfn.sat.propagations"],
            "boolfn.sat.unsat_ratio": _ratio(
                counts["sat.unsat"], calls["boolfn.sat.solve"]
            ),
            "sim.event_sim.replays": calls["sim.event_sim.replay"],
            "sim.event_sim.self_s": self_s["sim.event_sim.replay"],
            "sim.event_sim.events": counts["sim.event_sim.events"],
            "sim.wordsim.batches": calls["sim.wordsim.batch"],
            "sim.wordsim.lanes": counts["sim.wordsim.lanes"],
            "sim.wordsim.self_s": self_s["sim.wordsim.batch"],
            "runtime.cache.gets": gets,
            "runtime.cache.puts": calls["runtime.cache.put"],
            "runtime.cache.hit_ratio": _ratio(counts["cache.hits"], gets),
            "runtime.cache.self_s": (
                self_s["runtime.cache.get"] + self_s["runtime.cache.put"]
            ),
            "incremental.self_s": self_s["incremental.query"],
            "incremental.dirty_nodes": counts["incremental.dirty_nodes"],
            "incremental.evaluated_cones": (
                counts["incremental.evaluated_cones"]
            ),
            "incremental.cone_cache_hits": (
                counts["incremental.cone_cache_hits"]
            ),
            "incremental.reused_ratio": _ratio(
                counts["incremental.reused_cones"]
                + counts["incremental.cone_cache_hits"],
                cones,
            ),
        }

    def export(self) -> Dict[str, object]:
        """The in-memory trace as one JSON-able document."""
        return {
            "ops": [list(op) for op in self.ops],
            "spans": [list(span) for span in self.spans],
            "aggregates": [
                [op, parent, name, int(entry[0]), entry[1], entry[2]]
                for (op, parent, name), entry in self.aggregates.items()
            ],
            "layers": self.layer_metrics(),
        }
