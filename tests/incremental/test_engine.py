"""The incremental engine: byte-identity, reuse, and check savings."""

import hashlib
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.circuits.generators import random_logic
from repro.incremental import (
    IncrementalTimingEngine,
    KINDS,
    cold_query,
)
from repro.incremental import engine as engine_module
from repro.network import Circuit, GateType
from repro.runtime import DelayCache, WorkerPool, fingerprint, metrics_scope
from repro.sim.wordsim import CircuitProgram

from tests.helpers import c17, counted_checks, result_cache_off


def large_circuit():
    return random_logic(num_inputs=12, num_gates=210, num_outputs=8, seed=42)


#: ``*.checks`` per kind on ``large_circuit`` (the registry's rand210)
#: with gate 17 slowed by 2, in order: a cold query of the unedited
#: circuit, the engine's first query, and its re-query after the edit.
#: An increase is a regression; a decrease is re-recorded in a commit of
#: its own.
EDIT_CHECKS = {
    "topological": ({}, {}, {}),
    "floating": (
        {"floating.checks": 48},
        {"floating.checks": 48},
        {"floating.checks": 13},
    ),
    "transition": (
        {"transition.checks": 75},
        {"transition.checks": 75},
        {"transition.checks": 64},
    ),
}


@pytest.mark.parametrize("kind", KINDS)
def test_first_query_matches_cold_reference(kind):
    circuit = c17()
    engine = IncrementalTimingEngine(circuit)
    assert engine.query(kind).record_json() == (
        cold_query(c17(), kind).record_json()
    )


@pytest.mark.parametrize("kind", KINDS)
def test_acceptance_single_gate_edit_on_200_gate_circuit(kind, monkeypatch):
    """The acceptance criterion, per delay kind: after one gate edit on a
    >=200-gate generated circuit the incremental re-query is
    byte-identical to a cold recomputation, reuses clean cones, and
    performs strictly fewer satisfiability checks than the cold run.
    Every step's ``#check`` is pinned exactly (``EDIT_CHECKS``)."""
    result_cache_off(monkeypatch)
    circuit = large_circuit()
    assert circuit.num_gates >= 200
    engine = IncrementalTimingEngine(circuit)
    with counted_checks() as cold_checks:
        cold_query(circuit, kind)
    with counted_checks() as build_checks:
        engine.query(kind)

    edited = circuit.gate_names()[17]
    circuit.set_delay(edited, circuit.node(edited).delay + 2)

    with counted_checks() as edit_checks:
        incremental = engine.query(kind)
    assert (cold_checks, build_checks, edit_checks) == EDIT_CHECKS[kind]
    cold = cold_query(circuit, kind)
    assert incremental.record_json() == cold.record_json()
    assert incremental.stats["reused_cones"] > 0
    assert incremental.stats["dirty_nodes"] > 0
    assert incremental.stats["evaluated_cones"] < len(circuit.outputs)
    if kind != "topological":  # topological queries perform no checks
        assert incremental.stats["checks"] < cold.stats["checks"]
    if kind == "floating":
        # Each dirty cone's search starts from its last floating delay
        # plus 2, so it probes at most 3 time points.
        assert incremental.stats["checks"] <= (
            3 * incremental.stats["evaluated_cones"]
        )


@pytest.mark.parametrize("kind", KINDS)
def test_reverted_edit_hits_the_cone_cache(kind, monkeypatch):
    """Content-addressed recovery: undoing an edit re-serves the original
    cone results from the cache without recomputation."""
    result_cache_off(monkeypatch)
    circuit = large_circuit()
    engine = IncrementalTimingEngine(circuit)
    first = engine.query(kind)

    edited = circuit.gate_names()[17]
    original = circuit.node(edited).delay
    circuit.set_delay(edited, original + 2)
    engine.query(kind)

    circuit.set_delay(edited, original)
    with counted_checks() as checks:
        reverted = engine.query(kind)
    assert checks == {}
    assert reverted.record_json() == first.record_json()
    assert reverted.stats["cone_cache_hits"] > 0
    assert reverted.stats["checks"] == 0


def test_structural_edit_byte_identity():
    circuit = random_logic(
        num_inputs=8, num_gates=60, num_outputs=5, seed=9
    )
    engine = IncrementalTimingEngine(circuit)
    engine.query("floating")
    gate = circuit.gate_names()[10]
    fanins = list(circuit.node(gate).fanins)
    fanins[0] = circuit.inputs[0]
    circuit.rewire(gate, fanins)
    incremental = engine.query("floating")
    assert incremental.record_json() == (
        cold_query(circuit, "floating").record_json()
    )


def slow_buffer_circuit(y_fanins=("a", "b")):
    """Output ``y = AND(*y_fanins)`` with delay 1 next to ``slow``, ``a``
    through a delay-5 buffer: reading ``a`` and ``b``, ``y`` settles by 1;
    rewired to read ``slow``, it settles by 6 with no delay edit at
    all."""
    circuit = Circuit("slow-buffer")
    for name in ("a", "b"):
        circuit.add_input(name)
    circuit.add_gate("slow", GateType.BUF, ["a"], 5)
    circuit.add_gate("y", GateType.AND, list(y_fanins), 1)
    circuit.set_outputs(["y"])
    return circuit


def test_floating_bound_follows_lowered_then_raised_delays():
    """The delays the last floating answer was served under move with
    every floating query: lowering ``slow`` from 5 to 2 and raising it to
    4 must count the raise from 2, not from 5 (the cone cache cannot
    answer: no state repeats)."""
    circuit = slow_buffer_circuit(("slow", "b"))
    engine = IncrementalTimingEngine(circuit)
    assert engine.query("floating").delay == 6
    circuit.set_delay("slow", 2)
    assert engine.query("floating").delay == 3
    circuit.set_delay("slow", 4)
    requery = engine.query("floating")
    assert requery.delay == 5
    assert requery.record_json() == (
        cold_query(circuit, "floating").record_json()
    )


@pytest.mark.parametrize("between", ["transition", "invalidate"])
def test_structural_edit_drops_the_served_floating_delay(between):
    """A rewire changes a cone without any delay increase, so the last
    served floating delay bounds nothing: it must be dropped, also when
    another kind's query consumes the edit first and when ``invalidate``
    skips the journal."""
    circuit = slow_buffer_circuit()
    engine = IncrementalTimingEngine(circuit)
    assert engine.query("floating").delay == 1
    circuit.rewire("y", ["slow", "b"])
    if between == "transition":
        engine.query("transition")
    else:
        engine.invalidate()
    requery = engine.query("floating")
    assert requery.delay == 6
    assert requery.record_json() == (
        cold_query(circuit, "floating").record_json()
    )


def test_gate_added_outside_the_journal_gets_no_floating_bound():
    """``add_gate`` is not journalled, so the engine never saw the new
    gate's earlier delay and cannot bound a cone that contains it."""
    circuit = slow_buffer_circuit()
    engine = IncrementalTimingEngine(circuit)
    engine.query("floating")
    circuit.add_gate("late", GateType.BUF, ["a"], 1)
    circuit.rewire("y", ["late", "b"])
    assert engine.query("floating").delay == 2
    circuit.set_delay("late", 4)
    requery = engine.query("floating")
    assert requery.delay == 5
    assert requery.record_json() == (
        cold_query(circuit, "floating").record_json()
    )


def keyed_by(engine, kind):
    """Run one query; return how many cone keys it computed."""
    with metrics_scope() as metrics:
        engine.query(kind)
    return metrics.counter("incremental.cone_keys")


def reached_outputs(circuit, name):
    """The outputs whose cones hold ``name``."""
    return [
        out for out in circuit.outputs
        if name in circuit.transitive_fanin([out])
    ]


def test_gate_and_output_added_outside_the_journal_rebuild_the_cone_maps():
    """``add_gate`` and ``add_output`` record no journal entry, yet the
    new output's cone needs a shape and a key: the circuit's structural
    invalidation alone must make the engine drop the cone maps it keeps,
    and only the new output, which no memo holds, is keyed."""
    circuit = slow_buffer_circuit()
    engine = IncrementalTimingEngine(circuit)
    engine.query("floating")
    assert set(engine._members) == set(engine._keys) == {"y"}
    circuit.add_gate("tap", GateType.OR, ["slow", "b"], 2)
    circuit.add_output("tap")
    assert circuit.journal_length == 0
    assert keyed_by(engine, "floating") == 1
    assert set(engine._members) == set(engine._keys) == {"tap"}
    requery = engine.query("floating")
    assert requery.delay == 7
    assert requery.record_json() == (
        cold_query(circuit, "floating").record_json()
    )


def test_a_query_keys_only_the_outputs_its_edits_reached():
    """The engine keeps each output's cone key until an edit reaches it:
    a re-query with no new edits computes none, of any kind; a
    ``set_delay`` costs one key per output it reaches, and the other
    kind's query that follows none; a ``rewire`` drops every kept map,
    but only the outputs it reached need keys again."""
    circuit = large_circuit()
    outputs = len(circuit.outputs)
    engine = IncrementalTimingEngine(circuit)
    assert keyed_by(engine, "floating") == outputs
    assert keyed_by(engine, "floating") == 0
    assert keyed_by(engine, "transition") == 0

    edited = circuit.gate_names()[17]
    reached = reached_outputs(circuit, edited)
    assert 1 < len(reached) < outputs
    circuit.set_delay(edited, circuit.node(edited).delay + 2)
    assert keyed_by(engine, "floating") == len(reached)
    assert keyed_by(engine, "transition") == 0

    gate = circuit.gate_names()[10]
    fanins = list(circuit.node(gate).fanins)
    fanins[0] = circuit.inputs[0]
    circuit.rewire(gate, fanins)
    rewired = reached_outputs(circuit, gate)
    assert 0 < len(rewired) < outputs
    assert keyed_by(engine, "transition") == len(rewired)
    assert keyed_by(engine, "floating") == 0

    # ``invalidate`` skips the journal, so the edit it skips is only
    # seen through keys computed afresh for every output.
    circuit.set_delay(edited, circuit.node(edited).delay + 3)
    engine.invalidate()
    assert keyed_by(engine, "floating") == outputs
    assert engine.query("floating").record_json() == (
        cold_query(circuit, "floating").record_json()
    )


def test_a_revert_hashes_one_key_per_reached_output(monkeypatch):
    """Reverting a delay edit walks no cone and hashes no node: its query
    computes one SHA-256 per output the edit reached, for that output's
    key, and serves each of them from the cone cache."""
    circuit = large_circuit()
    engine = IncrementalTimingEngine(circuit)
    first = engine.query("floating")
    edited = circuit.gate_names()[17]
    reached = reached_outputs(circuit, edited)
    base = circuit.node(edited).delay
    circuit.set_delay(edited, base + 2)
    engine.query("floating")
    circuit.set_delay(edited, base)

    def no_walk(circuit, output):
        raise AssertionError(f"walked the cone of {output!r}")

    hashed = []

    def sha256(data):
        hashed.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr(engine_module, "cone_shape", no_walk)
    monkeypatch.setattr(
        fingerprint, "hashlib", SimpleNamespace(sha256=sha256)
    )
    with metrics_scope() as metrics:
        reverted = engine.query("floating")
    assert len(hashed) == len(reached)
    assert metrics.counter("incremental.cone_keys") == len(reached)
    assert reverted.stats["cone_cache_hits"] == len(reached)
    assert reverted.stats["evaluated_cones"] == 0
    assert reverted.record_json() == first.record_json()


def reached_nodes(circuit, name):
    """The nodes whose cones hold ``name``: its forward closure."""
    return [
        node for node in circuit.topological_order()
        if name in circuit.transitive_fanin([node])
    ]


def test_a_revert_walks_no_fanout_list():
    """Each edited node's forward closure is kept until the structure
    changes, so a delay edit's revert walks no fanout list and marks the
    nodes its write marked."""
    circuit = large_circuit()
    engine = IncrementalTimingEngine(circuit)
    engine.query("floating")
    edited = circuit.gate_names()[17]
    base = circuit.node(edited).delay
    circuit.set_delay(edited, base + 2)
    written = engine.query("floating")
    circuit.set_delay(edited, base)
    walked = []

    class Watched(list):
        def __iter__(self):
            walked.append(self)
            return super().__iter__()

    fanouts = circuit.fanouts()
    for name in fanouts:
        fanouts[name] = Watched(fanouts[name])
    reverted = engine.query("floating")
    assert not walked
    closure = len(reached_nodes(circuit, edited))
    assert reverted.stats["dirty_nodes"] == closure
    assert written.stats["dirty_nodes"] == closure
    assert reverted.record_json() == (
        cold_query(circuit, "floating").record_json()
    )


def test_a_rewire_between_a_write_and_its_revert_marks_the_new_closure():
    """A structural change drops the kept closures: once ``G19`` reads
    ``G10``, reverting ``G10``'s delay edit marks ``G19`` and ``G23``
    too."""
    circuit = c17()
    engine = IncrementalTimingEngine(circuit)
    engine.query("floating")
    base = circuit.node("G10").delay
    circuit.set_delay("G10", base + 1)
    written = engine.query("floating")
    assert written.stats["dirty_nodes"] == 2  # G10, G22
    circuit.rewire("G19", ["G11", "G10"])
    engine.query("floating")
    circuit.set_delay("G10", base)
    reverted = engine.query("floating")
    assert len(reached_nodes(circuit, "G10")) == 4
    assert reverted.stats["dirty_nodes"] == 4
    assert reverted.record_json() == (
        cold_query(circuit, "floating").record_json()
    )


def test_a_removal_consumed_with_a_revert_drops_the_kept_closures():
    """The kept closures go before the journal is read: a dead gate
    removed in the same batch as a revert leaves the revert's dirty set
    with the live nodes only."""
    circuit = c17()
    circuit.add_gate("dead", GateType.NOT, ["G10"])
    engine = IncrementalTimingEngine(circuit)
    engine.query("floating")
    base = circuit.node("G10").delay
    circuit.set_delay("G10", base + 1)
    assert engine.query("floating").stats["dirty_nodes"] == 3
    circuit.remove_gate("dead")
    circuit.set_delay("G10", base)
    reverted = engine.query("floating")
    assert reverted.stats["dirty_nodes"] == 2  # G10, G22
    assert reverted.record_json() == (
        cold_query(circuit, "floating").record_json()
    )


def test_sharded_and_warm_pool_routes_are_result_identical():
    circuit = random_logic(
        num_inputs=8, num_gates=60, num_outputs=5, seed=11
    )
    serial = cold_query(circuit, "transition").record_json()
    pool = WorkerPool(jobs=2)
    try:
        cold = IncrementalTimingEngine(
            circuit, cache=DelayCache(enabled=False), pool=pool
        )
        assert cold.query("transition").record_json() == serial
        engine = IncrementalTimingEngine(circuit, pool=pool)
        assert engine.query("transition").record_json() == serial
        assert pool.stats()["rounds"] == 2
    finally:
        pool.close()


def test_engine_accepts_external_cache_and_invalidate():
    circuit = c17()
    cache = DelayCache()
    engine = IncrementalTimingEngine(circuit, cache=cache)
    first = engine.query("transition")
    engine.invalidate()
    # Memo dropped, but the content-addressed cone cache still answers.
    again = engine.query("transition")
    assert again.record_json() == first.record_json()
    assert again.stats["cone_cache_hits"] == len(circuit.outputs)
    assert again.stats["checks"] == 0


def test_query_rejects_unknown_kind_and_empty_outputs():
    circuit = c17()
    engine = IncrementalTimingEngine(circuit)
    with pytest.raises(ValueError):
        engine.query("nope")
    circuit.set_outputs([])
    with pytest.raises(ValueError):
        engine.query("floating")


#: (gate index, delay increase) on ``large_circuit``: each edit is queried
#: (the write), reverted and queried again, as a what-if session does;
#: the last two are stacked before both are reverted.
KEPT_STREAM = [(17, 2), (10, 1), (40, 2), (17, 1), (60, 2), (10, 2)]
#: Bounded searches the stream runs on a kept BDD manager.
KEPT_SEARCHES = 17


def run_kept_stream(drop_kept, check_cold=False):
    """Run ``KEPT_STREAM`` on a fresh engine; return each query's record
    and stats, the ``incremental.kept_searches`` count and the engine.  With
    ``drop_kept`` the kept engines are dropped before every query, so
    every search runs fresh; ``check_cold`` compares every write with
    ``cold_query``."""
    circuit = large_circuit()
    names = circuit.gate_names()
    engine = IncrementalTimingEngine(circuit)
    answers = []

    def query(kind):
        if drop_kept:
            engine._kept.clear()
        result = engine.query(kind)
        answers.append((result.record_json(), result.stats))
        # Every kept manager is back at its checkpoint.
        for kept in engine._kept.values():
            assert kept.manager.num_nodes == kept.manager._checkpoint[0]
        return result

    def write(gate, step):
        circuit.set_delay(gate, circuit.node(gate).delay + step)
        result = query("floating")
        if check_cold:
            assert result.record_json() == (
                cold_query(circuit, "floating").record_json()
            )

    with metrics_scope() as metrics:
        query("floating")
        query("transition")
        for position, (index, step) in enumerate(KEPT_STREAM):
            gate = names[index]
            write(gate, step)
            if position < len(KEPT_STREAM) - 2:
                circuit.set_delay(gate, circuit.node(gate).delay - step)
                query("floating")
            query("transition")
        for index, step in KEPT_STREAM[-2:]:
            gate = names[index]
            circuit.set_delay(gate, circuit.node(gate).delay - step)
        query("floating")
        query("transition")
    return answers, metrics.counter("incremental.kept_searches"), engine


def test_kept_engines_answer_as_fresh_ones(monkeypatch):
    """Bounded floating searches on kept, rolled-back BDD managers give
    every write the cold record, and every query the record and stats of
    the same stream searched on fresh managers only."""
    result_cache_off(monkeypatch)
    kept, kept_searches, __ = run_kept_stream(
        drop_kept=False, check_cold=True
    )
    fresh, fresh_searches, __ = run_kept_stream(drop_kept=True)
    assert kept == fresh
    assert (kept_searches, fresh_searches) == (KEPT_SEARCHES, 0)


def test_kept_cones_compile_once_per_structure(monkeypatch):
    """Each output's kept cone compiles its program once: the delay edits
    of ``KEPT_STREAM`` only retime it.  A rewire drops the kept cones, so
    each output evaluated after it, for the rewire or a later delay edit,
    compiles once more, and only once."""
    result_cache_off(monkeypatch)
    compiled = Counter()
    compile_program = CircuitProgram.__init__

    def counting(program, circuit):
        compiled[circuit.name] += 1
        compile_program(program, circuit)

    monkeypatch.setattr(CircuitProgram, "__init__", counting)
    __, __, engine = run_kept_stream(drop_kept=False)
    circuit = engine.circuit
    assert compiled == {f"cone#{out}": 1 for out in circuit.outputs}

    rewired = circuit.gate_names()[10]
    fanins = list(circuit.node(rewired).fanins)
    fanins[0] = circuit.inputs[0]
    circuit.rewire(rewired, fanins)
    for kind in ("floating", "transition"):
        engine.query(kind)
    gate = circuit.gate_names()[17]
    for step in (1, -1):
        circuit.set_delay(gate, circuit.node(gate).delay + step)
        for kind in ("floating", "transition"):
            engine.query(kind)
    evaluated = set(reached_outputs(circuit, rewired))
    evaluated |= set(reached_outputs(circuit, gate))
    assert 0 < len(evaluated) < len(circuit.outputs)
    assert compiled == {
        f"cone#{out}": 1 + (out in evaluated) for out in circuit.outputs
    }


def edited_engine(circuit, **options):
    """An engine that has served floating delay, and one slower gate
    whose write it has searched; returns the engine and that gate."""
    engine = IncrementalTimingEngine(circuit, **options)
    engine.query("floating")
    gate = circuit.gate_names()[17]
    circuit.set_delay(gate, circuit.node(gate).delay + 1)
    engine.query("floating")
    return engine, gate


def test_an_overflow_on_a_kept_manager_reruns_the_search_cold():
    """Kept nodes count against the node budget, so a search that
    overflows on a kept manager runs again on a fresh one: the record is
    the cold one, and the overflowed engine is not kept."""
    circuit = large_circuit()
    engine, gate = edited_engine(circuit)
    reached = set(reached_outputs(circuit, gate))
    assert set(engine._kept) == reached
    # The largest kept manager, capped at the nodes it holds.
    big = max(reached, key=lambda out: engine._kept[out].manager.num_nodes)
    capped = engine._kept[big].manager
    capped.max_nodes = capped.num_nodes
    circuit.set_delay(gate, circuit.node(gate).delay + 1)
    with metrics_scope() as metrics:
        requery = engine.query("floating")
    assert metrics.counter("incremental.kept_searches") == len(reached)
    assert requery.record_json() == (
        cold_query(circuit, "floating").record_json()
    )
    assert set(engine._kept) == reached - {big}


def test_kept_engines_last_until_the_next_searching_query():
    """A floating query that searches cones keeps the engines of the
    outputs it searched, bounded, and no other; a query that searches
    none keeps them; a rewire and ``invalidate`` drop them all."""
    circuit = large_circuit()
    names = circuit.gate_names()
    engine, gate = edited_engine(circuit)
    first = set(reached_outputs(circuit, gate))
    assert set(engine._kept) == first
    circuit.set_delay(gate, circuit.node(gate).delay - 1)
    engine.query("floating")  # served from the cone cache
    engine.query("transition")
    assert set(engine._kept) == first
    other = names[40]
    circuit.set_delay(other, circuit.node(other).delay + 2)
    engine.query("floating")
    assert set(engine._kept) == set(reached_outputs(circuit, other)) != first

    engine.invalidate()
    assert engine._kept == {}
    circuit.set_delay(other, circuit.node(other).delay - 1)
    engine.query("floating")  # unbounded after invalidate: keeps none
    assert engine._kept == {}
    circuit.set_delay(other, circuit.node(other).delay + 2)
    engine.query("floating")
    assert set(engine._kept) == set(reached_outputs(circuit, other))

    rewired = names[10]
    fanins = list(circuit.node(rewired).fanins)
    fanins[0] = circuit.inputs[0]
    circuit.rewire(rewired, fanins)
    engine.query("transition")
    assert engine._kept == {}


def test_an_engine_with_a_pool_keeps_no_manager():
    circuit = large_circuit()
    pool = WorkerPool(jobs=2)
    try:
        engine, __ = edited_engine(circuit, pool=pool)
    finally:
        pool.close()
    assert engine._kept == {}
