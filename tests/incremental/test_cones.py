"""Cone fingerprints, cone extraction, and cone-level cache keys."""

import hashlib
from types import SimpleNamespace

import pytest

from repro.core import compute_floating_delay, compute_transition_delay
from repro.incremental import evaluate_cone, extract_cone
from repro.network import GateType, Node
from repro.runtime import (
    DelayCache,
    circuit_fingerprint,
    cone_fingerprint,
    node_cone_fingerprints,
)
from repro.runtime.fingerprint import node_cone_hash

from tests.helpers import c17

#: Stand-in cone hashes of the fanins the nodes below read.
FANIN_FPS = {
    name: hashlib.sha256(name.encode()).hexdigest() for name in "abc"
}


@pytest.mark.parametrize(
    "changed",
    [
        Node("h", GateType.AND, ("a", "b"), 1),
        Node("g", GateType.OR, ("a", "b"), 1),
        Node("g", GateType.AND, ("a", "b"), 2),
        Node("g", GateType.AND, ("b", "a"), 1),
        Node("g", GateType.AND, ("a", "b", "c"), 1),
    ],
    ids=["name", "gate", "delay", "fanin-order", "fanin-count"],
)
def test_node_cone_hash_covers_every_field(changed):
    base = Node("g", GateType.AND, ("a", "b"), 1)
    assert node_cone_hash(changed, FANIN_FPS) != node_cone_hash(
        base, FANIN_FPS
    )


def test_node_cone_hash_keeps_run_together_fields_apart():
    """Joined with bare separators, the name ``a:AND`` with gate ``OR``
    and the name ``a`` with a gate field ``AND:OR`` would both read
    ``a:AND:OR:1``; the name's length prefix keeps them apart."""

    def node(name, gate):
        return SimpleNamespace(
            name=name, gate_type=SimpleNamespace(value=gate), delay=1,
            fanins=(),
        )

    assert node_cone_hash(node("a:AND", "OR"), {}) != node_cone_hash(
        node("a", "AND:OR"), {}
    )


def test_cone_fingerprint_keeps_input_names_apart():
    fps = {"out": "0" * 64}
    assert cone_fingerprint(None, "out", fps, ["a,b"]) != cone_fingerprint(
        None, "out", fps, ["a", "b"]
    )
    assert cone_fingerprint(None, "out", fps, ["a", "b"]) != (
        cone_fingerprint(None, "out", fps, ["b", "a"])
    )


def test_node_cone_fingerprints_change_exactly_downstream():
    circuit = c17()
    before = node_cone_fingerprints(circuit)
    circuit.set_delay("G10", 3)
    after = node_cone_fingerprints(circuit)
    # G10 feeds only G22: exactly {G10, G22} moves.
    changed = {name for name in before if before[name] != after[name]}
    assert changed == {"G10", "G22"}


def test_cone_fingerprint_ignores_edits_outside_the_cone():
    circuit = c17()
    g23_before = cone_fingerprint(circuit, "G23")
    g22_before = cone_fingerprint(circuit, "G22")
    circuit.set_delay("G10", 3)  # G10 is only in G22's cone
    assert cone_fingerprint(circuit, "G23") == g23_before
    assert cone_fingerprint(circuit, "G22") != g22_before


def test_delay_edit_moves_the_circuit_fingerprint():
    circuit = c17()
    fp = circuit_fingerprint(circuit)
    circuit.set_delay("G19", 2)
    assert circuit_fingerprint(circuit) != fp


def test_extract_cone_is_parent_name_free_and_ordered():
    circuit = c17()
    cone = extract_cone(circuit, "G22")
    assert cone.name == "cone#G22"
    assert cone.outputs == ["G22"]
    # G7 is outside G22's cone; the rest keep declaration order.
    assert cone.inputs == ["G1", "G2", "G3", "G6"]
    cone.validate()
    # Same content extracted from a renamed parent: identical fingerprint.
    other = circuit.copy("renamed")
    assert circuit_fingerprint(extract_cone(other, "G22")) == (
        circuit_fingerprint(cone)
    )


def test_evaluate_cone_matches_whole_circuit_on_single_output():
    circuit = c17()
    cone = extract_cone(circuit, "G22")
    floating = evaluate_cone(cone, "floating")
    reference = compute_floating_delay(cone, cache=DelayCache(enabled=False))
    assert floating.delay == reference.delay
    assert floating.witness == reference.witness
    transition = evaluate_cone(cone, "transition")
    ref_t = compute_transition_delay(cone, cache=DelayCache(enabled=False))
    assert transition.delay == ref_t.delay
    assert transition.pair == ref_t.pair
    topo = evaluate_cone(cone, "topological")
    assert topo.delay == cone.topological_delay()
    assert topo.checks == 0


def test_cone_result_record_renders_full_width_vectors():
    circuit = c17()
    result = evaluate_cone(extract_cone(circuit, "G22"), "transition")
    record = result.record(circuit.inputs)
    assert record["delay"] == result.delay
    prev, nxt = record["pair"]
    # Rendered over ALL five parent inputs (G7 pinned to 0).
    assert len(prev) == len(nxt) == len(circuit.inputs)
    assert prev[circuit.inputs.index("G7")] == "0"


#: Every per-output record of c17's two cones, over all five inputs
#: (G1, G2, G3, G6, G7): the keys in wire order, G7 pinned to 0 in G22's.
C17_CONE_RECORDS = {
    ("G22", "topological"): {"delay": 3},
    ("G22", "floating"): {"delay": 3, "value": 1, "witness": "11000"},
    ("G22", "transition"): {
        "delay": 3, "value": 1, "pair": ["00110", "11000"],
    },
    ("G23", "topological"): {"delay": 3},
    ("G23", "floating"): {"delay": 3, "value": 1, "witness": "01000"},
    ("G23", "transition"): {
        "delay": 3, "value": 1, "pair": ["00110", "01100"],
    },
}


@pytest.mark.parametrize("output, kind", sorted(C17_CONE_RECORDS))
def test_cone_records_are_pinned(output, kind):
    circuit = c17()
    result = evaluate_cone(extract_cone(circuit, output), kind)
    record = result.record(circuit.inputs)
    want = C17_CONE_RECORDS[output, kind]
    assert record == want
    assert list(record) == list(want)


def test_token_for_keys_are_kind_and_engine_specific():
    cache = DelayCache()
    fp = "cone:" + "0" * 64
    t1 = cache.token_for(fp, "floating")
    t2 = cache.token_for(fp, "transition")
    t3 = cache.token_for(fp, "floating", engine="sat")
    assert len({t1, t2, t3}) == 3
    assert DelayCache(enabled=False).token_for(fp, "floating") is None


def test_cone_tokens_cannot_collide_with_circuit_tokens():
    circuit = c17()
    cache = DelayCache()
    whole = cache.token(circuit, "floating")
    cone = cache.token_for(
        cone_fingerprint(circuit, "G22"), "floating"
    )
    assert whole != cone
    assert cone_fingerprint(circuit, "G22").startswith("cone:")
