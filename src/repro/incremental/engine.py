"""The incremental what-if timing engine.

Wraps the paper's Sec. IV–V delay queries (``topological`` / ``floating``
/ ``transition``) in change tracking; the per-cone analyses themselves
are the unmodified :mod:`repro.core` procedures.  Full design:
``docs/INCREMENTAL.md``.

An :class:`IncrementalTimingEngine` attaches to a live
:class:`~repro.network.circuit.Circuit` and answers repeated delay queries
(``topological`` / ``floating`` / ``transition``) across edit sessions,
re-analysing only what an edit could have changed:

1. **Journal consumption** — the circuit records every mutation
   (:meth:`~repro.network.circuit.Circuit.set_delay`, ``rewire``,
   ``replace_gate``, ``remove_gate``) in its edit journal.  At query time
   the engine replays the entries recorded since its cursor and marks the
   *forward closure* of the edited nodes (via ``Circuit.fanouts()``) dirty.
   An output outside the dirty region provably has an unchanged fanin
   cone, so its memoised result is reused verbatim.  The same closure
   names the kept cone keys that went stale (step 2).  Each edited node's
   closure is kept until the structure changes, so a revert walks
   nothing its write walked.

2. **Cone evaluation** — dirty outputs are re-analysed on extracted
   fanin-cone subcircuits (:mod:`repro.incremental.cones`).  Per-cone
   results are pure functions of cone content, so they are additionally
   cached under :func:`~repro.runtime.fingerprint.cone_fingerprint`
   content keys in a :class:`~repro.runtime.cache.DelayCache` — reverting
   an edit (or loading a different circuit sharing a cone) hits the cache
   without recomputation.  Each output's extracted cone and shape digest
   are kept per circuit structure, and its key and cache tokens until an
   edit reaches it: after a delay edit a query sets the edited gates'
   delays in the kept cones, so a cone's compiled program is retimed,
   not recompiled, computes one key per output the edit reached
   (``incremental.cone_keys``) and walks no fanin; a structural change
   to the circuit, journalled or not, drops them all.

3. **Floating bounds** — floating delay is monotone in gate delays
   (paper Secs. II and IV), so a dirty cone whose output was last served
   floating delay ``F_old`` and has seen only delay edits since is
   searched from ``F_old`` plus the sum of its gates' delay increases
   (capped at the cone's topological delay) instead of from the
   topological delay.  The bound is at least the new floating delay, so
   the search returns the identical certificate with fewer checks.
   In-process, a bounded search on BDDs runs on the BDD manager its
   output's last bounded search built, rolled back to a checkpoint after
   each search, so settle functions an earlier search of the cone built
   are found in its tables instead of rebuilt.

4. **Fan-out** — the dirty cones run through the fault-tolerant sharded
   runtime (:func:`~repro.runtime.parallel.shard_map`, label ``cones``):
   on a caller-owned :class:`~repro.runtime.parallel.WorkerPool` (the
   long-lived query service's warm workers) when the engine is given
   one, in-process otherwise.  Both routes are result-identical and
   record the same counters.

The *record* returned by :meth:`IncrementalTimingEngine.query` is
deterministic and byte-comparable: an incremental re-query equals a cold
recomputation exactly (the acceptance test diffs the JSON).  Volatile
accounting (dirty counts, reuse counts, '#check' totals) travels
separately in the ``stats`` field.

Observability here goes through the ``METRICS`` context proxy
(:mod:`repro.runtime.metrics`): under the multi-client server
(:mod:`repro.serve`) each session's engine runs inside its own
:func:`~repro.runtime.metrics.metrics_scope`, so per-session counters and
span trees never interleave even though every engine shares one process
(and, optionally, one :class:`~repro.runtime.cache.DelayCache` and one
:class:`~repro.runtime.parallel.WorkerPool`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..boolfn.bdd import BddOverflow
from ..boolfn.interface import BddEngine, make_engine
from ..core.vectors import DelayCertificate
from ..network.circuit import Circuit, Node
from ..runtime.cache import DelayCache
from ..runtime.fingerprint import cone_key, cone_shape
from ..runtime.metrics import METRICS
from ..runtime.parallel import WorkerPool, shard_map
from ..sim.wordsim import program_for
from .cones import KINDS, evaluate_cone, extract_cone

#: An output's extracted cone (what evaluation analyses), shape digest
#: and gates in walk order (what ``cone_key`` reads).
ConeMembers = Tuple[Circuit, str, Tuple[Node, ...]]


@dataclass
class IncrementalResult:
    """One query's answer: the byte-comparable record plus accounting."""

    record: Dict[str, object]
    stats: Dict[str, int]

    @property
    def delay(self) -> int:
        return self.record["delay"]

    @property
    def critical_output(self) -> Optional[str]:
        return self.record.get("critical_output")

    def record_json(self) -> str:
        """Canonical serialisation — what the acceptance test compares."""
        return json.dumps(self.record, sort_keys=True, separators=(",", ":"))


class IncrementalTimingEngine:
    """Journal-driven incremental delay queries over a mutable circuit."""

    def __init__(
        self,
        circuit: Circuit,
        engine_name: str = "auto",
        cache: Optional[DelayCache] = None,
        pool: Optional[WorkerPool] = None,
    ):
        circuit.validate()
        self.circuit = circuit
        self.engine_name = engine_name
        #: Cone-level result cache.  Defaults to a private in-memory cache
        #: (the process-global cache is disabled by default and keyed for
        #: whole-circuit results anyway).
        self.cache = cache if cache is not None else DelayCache()
        #: The caller-owned pool dirty cones shard over, its workers
        #: warm across queries; ``None`` evaluates them in-process.
        self.pool = pool
        self._cursor = circuit.journal_length
        #: Per-kind memo: output -> certificate.
        self._memo: Dict[str, Dict[str, DelayCertificate]] = {
            kind: {} for kind in KINDS
        }
        #: Dirty nodes awaiting their first post-edit query, per kind.
        self._pending_dirty: Dict[str, Set[str]] = {
            kind: set() for kind in KINDS
        }
        #: The floating delay each output was served at the last floating
        #: query, and every node's delay at that query (one snapshot
        #: serves them all: see :meth:`_floating_bound`).  The snapshot is
        #: taken here and brought up to date by each floating query,
        #: which replays the journal from ``_served_cursor``.  An output
        #: leaves ``_served_floating`` once a structural edit reaches it.
        self._served_floating: Dict[str, int] = {}
        self._served_delays: Dict[str, int] = {
            node.name: node.delay for node in circuit.nodes()
        }
        self._served_cursor = circuit.journal_length
        #: The cone maps kept between queries.  Per output: its extracted
        #: cone, shape digest and gates in walk order (``_members``),
        #: which hold for the structure whose topological order is
        #: ``_order`` (the circuit hands out one cached list until a
        #: structural invalidation drops it; each delay edit is copied
        #: into the cones holding its gate); and its cone key with the
        #: per-kind cache tokens (``_keys``), which hold until an edit
        #: reaches the output.
        self._order: Optional[List[str]] = None
        self._members: Dict[str, ConeMembers] = {}
        self._keys: Dict[str, Tuple[str, Dict[str, Optional[str]]]] = {}
        #: Each edited node's forward closure, dropped with the structure.
        self._closures: Dict[str, FrozenSet[str]] = {}
        #: Per output the last floating query searched in-process, bounded
        #: and on BDDs: the engine of that search, checkpointed after the
        #: first such search and rolled back after each later one
        #: (:meth:`_search_floating`).  Dropped with the structure.
        self._kept: Dict[str, BddEngine] = {}

    # ------------------------------------------------------------------
    # Journal consumption / dirty marking
    # ------------------------------------------------------------------
    def _consume_journal(self) -> None:
        """Mark the forward closure of all newly journalled edits dirty
        for every kind's memo, drop the kept keys of the outputs in it,
        and set the edited gates' delays in the kept cones holding them.

        Soundness: an output's cone content can only change if some node
        in its *current* cone was directly edited, or some structural
        edit changed its cone membership — either way the edited node
        reaches the output in the current fanout graph, so the closure
        over ``Circuit.fanouts()`` covers every possibly-stale output.
        Removed gates are skipped: removal requires a fanout-free gate,
        which no output cone can contain.

        Kept cones survive only delay edits (any other drops them in
        :meth:`_refresh_cone_maps`, which runs first), so each edited
        gate is still a node.  A cone holding it takes its delay as a
        delay transform does: the node is set in place and the cone's
        delay-only invalidation leaves its program to be retimed, not
        recompiled.  ``set_delay`` would journal every copy, and a
        cone's journal, which nothing reads, would grow with the session
        and travel with the cone to every pool worker.
        """
        circuit = self.circuit
        edits = circuit.edits_since(self._cursor)
        if not edits:
            return
        self._cursor = circuit.journal_length
        dirty = self._forward_closure(edit.name for edit in edits)
        for out in [out for out in self._keys if out in dirty]:
            del self._keys[out]
        for out, (cone, __, __) in self._members.items():
            if out in dirty:
                for edit in edits:
                    if edit.name in cone:
                        delay = circuit.node(edit.name).delay
                        cone.node(edit.name).delay = delay
                        cone._invalidate_delays()
        for kind in KINDS:
            memo = self._memo[kind]
            for out in list(memo):
                if out in dirty or out not in circuit:
                    del memo[out]
            self._pending_dirty[kind] |= dirty
        restructured = [edit.name for edit in edits if edit.op != "set_delay"]
        if restructured and self._served_floating:
            for out in self._forward_closure(restructured):
                self._served_floating.pop(out, None)

    def _forward_closure(self, names) -> FrozenSet[str]:
        """The live ``names`` and every node they reach: the union of each
        name's closure, walked once per structure."""
        fanouts = self.circuit.fanouts()
        closures = []
        for name in names:
            if name not in self.circuit:
                continue
            closure = self._closures.get(name)
            if closure is None:
                reached: Set[str] = set()
                stack = [name]
                while stack:
                    node = stack.pop()
                    if node not in reached:
                        reached.add(node)
                        stack.extend(fanouts[node])
                closure = self._closures[name] = frozenset(reached)
            closures.append(closure)
        if len(closures) == 1:
            return closures[0]
        return frozenset().union(*closures)

    def _refresh_cone_maps(self) -> None:
        """Drop the kept cone maps and forward closures when the circuit
        was restructured.

        A circuit whose topological order is no longer the kept one was
        restructured — by a journalled ``rewire``, structural
        ``replace_gate`` or ``remove_gate``, or by an ``add_gate`` or
        ``add_input`` the journal never sees — so every output's cone,
        shape and key, and every edited node's closure, is built again
        when next needed.
        Delay edits keep the structure: each keeps the cones (whose
        delays :meth:`_consume_journal` sets) and shapes (whose gate
        nodes the circuit edits in place) and drops only the keys of the
        outputs it reaches.
        """
        order = self.circuit.topological_order()
        if order is not self._order:
            self._order = order
            self._members.clear()
            self._keys.clear()
            self._kept.clear()
            self._closures.clear()

    def _cone_members(self, out: str) -> ConeMembers:
        """``out``'s extracted cone, shape digest and gates in walk order
        (:func:`~repro.runtime.fingerprint.cone_shape`), built once per
        structure."""
        members = self._members.get(out)
        if members is None:
            cone = extract_cone(self.circuit, out)
            members = (cone, *cone_shape(self.circuit, out))
            self._members[out] = members
        return members

    def _token(self, out: str, kind: str) -> Optional[str]:
        """``out``'s cache token for ``kind``, from the cone key kept
        until an edit reaches ``out`` (computed, and counted as
        ``incremental.cone_keys``, when there is none)."""
        kept = self._keys.get(out)
        if kept is None:
            __, shape, gates = self._cone_members(out)
            kept = self._keys[out] = (cone_key(shape, gates), {})
            METRICS.incr("incremental.cone_keys")
        key, tokens = kept
        if kind not in tokens:
            tokens[kind] = self.cache.token_for(key, kind, self.engine_name)
        return tokens[kind]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, kind: str) -> IncrementalResult:
        """The circuit's delay of ``kind``, re-analysing only dirty cones."""
        if kind not in KINDS:
            raise ValueError(
                f"unknown delay kind {kind!r} (expected one of {KINDS})"
            )
        outputs = self.circuit.outputs
        if not outputs:
            raise ValueError("circuit has no outputs")
        with METRICS.span(
            "incremental.query", kind=kind, circuit=self.circuit.name
        ):
            self._refresh_cone_maps()
            self._consume_journal()
            dirty_nodes = len(self._pending_dirty[kind])
            self._pending_dirty[kind].clear()
            METRICS.incr("incremental.dirty_nodes", dirty_nodes)
            memo = self._memo[kind]
            reused = [out for out in outputs if out in memo]
            to_eval = [out for out in outputs if out not in memo]
            METRICS.incr("incremental.reused_cones", len(reused))
            stats = {
                "kind": kind,
                "dirty_nodes": dirty_nodes,
                "reused_cones": len(reused),
                "evaluated_cones": 0,
                "cone_cache_hits": 0,
                "checks": 0,
            }
            if to_eval:
                memo.update(self._evaluate(kind, to_eval, stats))
            record = self._aggregate(kind, outputs, memo)
            if kind == "floating":
                self._remember_floating(outputs, memo)
        return IncrementalResult(record=record, stats=stats)

    def _remember_floating(self, outputs, memo) -> None:
        """Keep what a later floating query bounds its searches with: the
        delay served per output, and the node delays they were served
        under (re-reading only the nodes journalled since the last
        floating query)."""
        circuit = self.circuit
        delays = self._served_delays
        for edit in circuit.edits_since(self._served_cursor):
            if edit.name in circuit:
                delays[edit.name] = circuit.node(edit.name).delay
            else:
                delays.pop(edit.name, None)
        self._served_cursor = circuit.journal_length
        self._served_floating = {out: memo[out].delay for out in outputs}

    def _floating_bound(self, cone: Circuit) -> Optional[int]:
        """An upper bound on the cone's floating delay from its output's
        last served one, or None when there is none.

        Floating delay is monotone in gate delays: slowing one gate by
        ``k`` raises it by at most ``k``, and speeding a gate up never
        raises it (``docs/ALGORITHMS.md``, "Floating delay").  The served
        delay ``F_old`` held under the snapshot delays, and only delay
        edits reached the output since, so the cone holds the same gates
        and ``F_old`` plus their summed increases bounds the new delay.
        The snapshot is the last floating query's; it covers every served
        output, since consuming the journal evicts the memo of every
        output an edit reaches, so each output served by that query was
        either re-analysed under its delays or had an unchanged cone.
        A node the snapshot lacks was added by ``add_gate``, which is not
        journalled, so its earlier delay is unknown and there is no bound.
        """
        served = self._served_floating.get(cone.outputs[0])
        if served is None:
            return None
        before = self._served_delays
        slower = 0
        for node in cone.nodes():
            delay = before.get(node.name)
            if delay is None:
                return None
            slower += max(0, node.delay - delay)
        program = program_for(cone)  # the floating analysis reuses it
        return min(served + slower, program.late[program.output_slots[0]])

    def _evaluate(
        self, kind: str, outs, stats: Dict[str, int]
    ) -> Dict[str, DelayCertificate]:
        """Key, cache-probe, and (re)compute the given outputs.

        Dirty cones run as the ``cones`` fan-out of
        :mod:`repro.runtime.parallel`, whose results come back in item
        order; without a pool, floating cones run in this process through
        :meth:`_search_floating` instead, which keeps BDD managers."""
        results: Dict[str, DelayCertificate] = {}
        to_compute = []
        for out in outs:
            token = self._token(out, kind)
            cached = self.cache.get(token)
            if cached is not None:
                stats["cone_cache_hits"] += 1
                METRICS.incr("incremental.cone_cache_hits")
                results[out] = cached
            else:
                to_compute.append((out, token))
        if not to_compute:
            return results
        stats["evaluated_cones"] += len(to_compute)
        METRICS.incr("incremental.evaluated_cones", len(to_compute))
        cones = [self._cone_members(out)[0] for out, __ in to_compute]
        bounds = [
            self._floating_bound(cone) if kind == "floating" else None
            for cone in cones
        ]
        if kind == "floating" and self.pool is None:
            kept, self._kept = self._kept, {}
            computed = []
            for (out, __), cone, upper in zip(to_compute, cones, bounds):
                result = self._search_floating(out, cone, upper, kept)
                METRICS.incr("incremental.cone_checks", result.checks)
                computed.append(result)
        else:
            jobs = self.pool.jobs if self.pool is not None else 1
            computed = shard_map(
                "cones", (kind, self.engine_name), list(zip(cones, bounds)),
                jobs, pool=self.pool,
            )
        for (out, token), result in zip(to_compute, computed):
            stats["checks"] += result.checks
            self.cache.put(token, result)
            results[out] = result
        return results

    def _search_floating(
        self, out: str, cone: Circuit, upper: Optional[int],
        kept: Dict[str, BddEngine],
    ) -> DelayCertificate:
        """``out``'s in-process floating search: the ``cones`` worker's
        :func:`~repro.incremental.cones.evaluate_cone`, with one change.

        A bounded search that lands on BDDs runs on ``out``'s engine in
        ``kept`` (the previous searching query's) and rolls its manager
        back to the checkpoint afterwards, or, with none kept, runs fresh
        and checkpoints the manager after the search; either engine is
        kept for the next query.  The search builds a fresh analysis and
        memo, and an ROBDD is canonical for a fixed variable order, which
        every search of a cone shape declares the same way, so the kept
        manager gives the functions, checks and witness a fresh one would
        (``docs/INCREMENTAL.md`` §3).  Unbounded searches build the largest
        managers and SAT witnesses follow AIG numbering, so neither kind
        of engine is kept.
        """
        name = self.engine_name
        if upper is None:
            return evaluate_cone(cone, "floating", name)
        engine = kept.get(out)
        fresh = engine is None
        if fresh:
            engine = make_engine(name, program_for(cone).num_gates)
            if not isinstance(engine, BddEngine):
                return evaluate_cone(cone, "floating", name, upper, engine)
        else:
            METRICS.incr("incremental.kept_searches")
        try:
            result = evaluate_cone(cone, "floating", name, upper, engine)
        except BddOverflow:
            # A fresh manager overflows where a cold run's does, so the
            # search falls back as that run does (to SAT under ``auto``);
            # a kept one also holds an earlier search's nodes, so the
            # search reruns cold.
            if fresh and name != "auto":
                raise
            return evaluate_cone(
                cone, "floating", "sat" if fresh else name, upper
            )
        if fresh:
            engine.manager.checkpoint()
        else:
            engine.manager.rollback()
        self._kept[out] = engine
        return result

    def _aggregate(self, kind, outputs, memo) -> Dict[str, object]:
        delay = max(memo[out].delay for out in outputs)
        critical = next(out for out in outputs if memo[out].delay == delay)
        inputs = self.circuit.inputs
        return {
            "circuit": self.circuit.name,
            "kind": kind,
            "delay": delay,
            "critical_output": critical,
            "outputs": {
                out: memo[out].record(inputs) for out in outputs
            },
        }

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every memoised result, served floating delay, kept cone,
        cone map and key and kept BDD engine (the cone cache survives —
        it is content-addressed and can never serve a stale entry)."""
        for kind in KINDS:
            self._memo[kind].clear()
            self._pending_dirty[kind].clear()
        self._served_floating.clear()
        self._order = None
        self._kept.clear()
        self._cursor = self.circuit.journal_length


def cold_query(
    circuit: Circuit,
    kind: str,
    engine_name: str = "auto",
) -> IncrementalResult:
    """A from-scratch reference query: fresh in-process engine, caching
    disabled.

    This is the baseline the incremental path must match byte for byte —
    the acceptance and property tests compare ``record_json()`` of the
    two.
    """
    engine = IncrementalTimingEngine(
        circuit, engine_name=engine_name, cache=DelayCache(enabled=False)
    )
    return engine.query(kind)
