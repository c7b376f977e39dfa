"""The incremental engine: byte-identity, reuse, and check savings."""

import pytest

from repro.circuits.generators import random_logic
from repro.incremental import (
    IncrementalTimingEngine,
    KINDS,
    cold_query,
)
from repro.network import Circuit, GateType
from repro.runtime import DelayCache, LocalPoolTransport

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


def test_sharded_and_warm_pool_routes_are_result_identical():
    circuit = random_logic(
        num_inputs=8, num_gates=60, num_outputs=5, seed=11
    )
    serial = cold_query(circuit, "transition").record_json()
    assert cold_query(circuit, "transition", jobs=2).record_json() == serial
    pool = LocalPoolTransport(jobs=2)
    try:
        engine = IncrementalTimingEngine(circuit, jobs=2, transport=pool)
        assert engine.query("transition").record_json() == serial
        assert pool.stats()["rounds"] >= 1
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
