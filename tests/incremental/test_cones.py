"""Cone fingerprints, cone extraction, and cone-level cache keys."""

import pytest

from repro.core import compute_floating_delay, compute_transition_delay
from repro.incremental import evaluate_cone, extract_cone
from repro.network import Circuit, GateType
from repro.runtime import DelayCache, circuit_fingerprint, cone_fingerprint
from repro.runtime.fingerprint import cone_key, cone_shape

from tests.helpers import c17


def small_cone(
    gate_name="g", gate=GateType.AND, fanins=("a", "b"), delay=1,
    inputs=("a", "b", "c"),
):
    """``out = OR(g, c)`` over ``g = gate(fanins)``: one field at a time
    differs from the default cone."""
    circuit = Circuit("small")
    for name in inputs:
        circuit.add_input(name)
    circuit.add_gate(gate_name, gate, fanins, delay)
    circuit.add_gate("out", GateType.OR, [gate_name, "c"], 1)
    circuit.set_outputs(["out"])
    return circuit


@pytest.mark.parametrize(
    "changed",
    [
        {"gate_name": "h"},
        {"gate": GateType.OR},
        {"delay": 2},
        {"fanins": ("b", "a")},
        {"fanins": ("a", "b", "c")},
        {"inputs": ("b", "a", "c")},
    ],
    ids=[
        "name", "gate", "delay", "fanin-order", "fanin-count", "input-order",
    ],
)
def test_cone_fingerprint_covers_every_field(changed):
    assert cone_fingerprint(small_cone(**changed), "out") != (
        cone_fingerprint(small_cone(), "out")
    )


def test_cone_fingerprint_keeps_run_together_names_apart():
    """Joined without lengths, ``AND(ab, c)`` over inputs ``ab, c`` and
    ``AND(a, bc)`` over inputs ``a, bc`` would both read ``abc`` twice,
    and an ``AND`` named ``gN`` and a ``NAND`` named ``g`` would both
    read ``gNAND``; the length prefixes keep them apart."""

    def cone(left, right, out="out", gate=GateType.AND):
        circuit = Circuit("run-together")
        circuit.add_input(left)
        circuit.add_input(right)
        circuit.add_gate(out, gate, [left, right], 1)
        circuit.set_outputs([out])
        return cone_fingerprint(circuit, out)

    assert cone("ab", "c") != cone("a", "bc")
    assert cone("a", "b", "gN", GateType.AND) != (
        cone("a", "b", "g", GateType.NAND)
    )


def test_cone_fingerprint_keeps_input_names_apart():
    def cone(inputs):
        circuit = Circuit("inputs")
        for name in inputs:
            circuit.add_input(name)
        circuit.add_gate("out", GateType.OR, list(inputs), 1)
        circuit.set_outputs(["out"])
        return cone_fingerprint(circuit, "out")

    assert cone(["a,b", "c"]) != cone(["a", "b,c"])
    assert cone(["a", "b"]) != cone(["b", "a"])


def test_cone_fingerprint_ignores_insertion_order_and_the_rest_of_the_circuit():
    """One cone, built with its gates added in two orders, and once more
    inside a larger circuit of another name with an input, a gate and an
    output of its own: one shape, one key."""
    gates = [
        ("g1", GateType.NAND, ["a", "b"], 2),
        ("g2", GateType.NOR, ["b", "c"], 1),
        ("g3", GateType.XOR, ["g1", "g2"], 3),
        ("out", GateType.AND, ["g3", "g1"], 1),
    ]

    def build(order, extra=False):
        circuit = Circuit("big" if extra else "cone")
        for name in (["x"] if extra else []) + ["a", "b", "c"]:
            circuit.add_input(name)
        for index in order:
            name, gate, fanins, delay = gates[index]
            circuit.add_gate(name, gate, fanins, delay)
        outputs = ["out"]
        if extra:
            circuit.add_gate("other", GateType.OR, ["x", "g2"], 5)
            outputs.append("other")
        circuit.set_outputs(outputs)
        circuit.validate()
        return circuit

    circuits = [build([0, 1, 2, 3]), build([3, 2, 1, 0]),
                build([1, 3, 0, 2], extra=True)]
    insertion = [[node.name for node in c.nodes()] for c in circuits]
    assert insertion[0] != insertion[1]
    shapes = {cone_shape(circuit, "out")[0] for circuit in circuits}
    assert len(shapes) == 1
    assert len({cone_fingerprint(c, "out") for c in circuits}) == 1


def test_cone_key_reads_the_delays_in_walk_order():
    """The key is the shape plus the gates' delays: it follows a delay
    edit, and the same shape with the same delays gives the same key."""
    circuit = c17()
    shape, gates = cone_shape(circuit, "G22")
    assert [gate.name for gate in gates] == ["G22", "G10", "G16", "G11"]
    before = cone_key(shape, gates)
    assert before == cone_fingerprint(circuit, "G22")
    circuit.set_delay("G11", 4)
    assert cone_key(shape, gates) == cone_fingerprint(circuit, "G22")
    assert cone_key(shape, gates) != before
    circuit.set_delay("G11", 1)
    assert cone_key(shape, gates) == before


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
