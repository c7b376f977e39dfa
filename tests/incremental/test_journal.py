"""Edit journal and versioned invalidation on :class:`Circuit`."""

import pytest

from repro.network import GateType

from tests.helpers import c17, tiny_and_or


def test_fresh_circuit_has_empty_journal():
    circuit = c17()
    assert circuit.revision == 0
    assert circuit.journal_length == 0
    assert circuit.journal() == ()


def test_set_delay_is_journalled():
    circuit = c17()
    circuit.set_delay("G10", 3)
    assert circuit.node("G10").delay == 3
    assert circuit.revision == 1
    (edit,) = circuit.journal()
    assert edit.op == "set_delay"
    assert edit.name == "G10"
    assert edit.detail == (3,)
    assert edit.revision == 1
    assert [e.revision for e in circuit.journal() if e.name == "G10"] == [1]
    assert not [e for e in circuit.journal() if e.name == "G11"]


def test_set_delay_same_value_is_a_no_op():
    circuit = c17()
    circuit.set_delay("G10", circuit.node("G10").delay)
    assert circuit.journal_length == 0
    assert circuit.revision == 0


def test_set_delay_keeps_structure_caches():
    """Regression (versioned invalidation): a delay edit must not force
    ``fanouts()``/``topological_order()`` to be recomputed."""
    circuit = c17()
    topo = circuit.topological_order()
    fanouts = circuit.fanouts()
    circuit.set_delay("G10", 5)
    assert circuit.topological_order() is topo
    assert circuit.fanouts() is fanouts


def test_structural_edit_invalidates_structure_caches():
    circuit = c17()
    fanouts = circuit.fanouts()
    assert "G16" in fanouts["G11"]
    circuit.rewire("G16", ("G2", "G10"))
    rebuilt = circuit.fanouts()
    assert rebuilt is not fanouts
    assert "G16" not in rebuilt["G11"]
    assert "G16" in rebuilt["G10"]


def test_rewire_is_journalled_and_validated():
    circuit = c17()
    circuit.rewire("G16", ("G2", "G10"))
    (edit,) = circuit.journal()
    assert edit.op == "rewire"
    assert edit.detail == (("G2", "G10"),)
    with pytest.raises(ValueError):
        circuit.rewire("G1", ("G2",))  # primary input
    with pytest.raises(ValueError):
        circuit.rewire("G16", ("nope",))  # missing fanin


def test_rewire_cycle_is_rejected_and_rolled_back():
    circuit = tiny_and_or()
    before = circuit.node("g").fanins
    with pytest.raises(ValueError, match="cycle"):
        circuit.rewire("g", ("f",))  # f depends on g
    assert circuit.node("g").fanins == before
    assert circuit.journal_length == 0
    circuit.validate()


def test_replace_gate_structural_and_delay_only():
    circuit = c17()
    topo = circuit.topological_order()
    # Delay-only: caches survive, journal records the full new state.
    circuit.replace_gate("G10", delay=4)
    assert circuit.topological_order() is topo
    assert circuit.node("G10").delay == 4
    # Type change: structural.
    circuit.replace_gate("G10", gate_type=GateType.AND)
    assert circuit.node("G10").gate_type == GateType.AND
    assert circuit.topological_order() is not topo
    ops = [edit.op for edit in circuit.journal()]
    assert ops == ["replace_gate", "replace_gate"]


def test_replace_gate_no_change_keeps_journal_quiet():
    circuit = c17()
    node = circuit.node("G10")
    circuit.replace_gate(
        "G10", gate_type=node.gate_type, fanins=node.fanins,
        delay=node.delay,
    )
    assert circuit.journal_length == 0


def test_remove_gate_requires_dead_gate():
    circuit = c17()
    with pytest.raises(ValueError):
        circuit.remove_gate("G11")  # still feeds G16/G19
    with pytest.raises(ValueError):
        circuit.remove_gate("G22")  # primary output
    with pytest.raises(ValueError):
        circuit.remove_gate("G1")  # primary input
    # Detach G10's only consumer, then remove it.
    circuit.rewire("G22", ("G16", "G16"))
    circuit.remove_gate("G10")
    assert "G10" not in circuit
    circuit.validate()
    assert [edit.op for edit in circuit.journal()] == [
        "rewire", "remove_gate",
    ]


def test_edits_since_returns_a_suffix():
    circuit = c17()
    circuit.set_delay("G10", 2)
    cursor = circuit.journal_length
    circuit.set_delay("G11", 3)
    circuit.set_delay("G16", 4)
    tail = circuit.edits_since(cursor)
    assert [edit.name for edit in tail] == ["G11", "G16"]
    assert circuit.edits_since(circuit.journal_length) == ()


def test_copy_does_not_inherit_journal_but_keeps_caches():
    circuit = c17()
    circuit.set_delay("G10", 2)
    circuit.topological_order()
    clone = circuit.copy("clone")
    assert clone.journal_length == 0
    assert clone.revision == 0
    # Structure caches transferred: no recomputation on the clone.
    assert clone._topo_cache is not None
    assert clone._fanout_cache is not None
    assert clone.topological_order() == circuit.topological_order()


def test_journalled_edits_preserve_function_when_expected():
    """rewire followed by the inverse rewire restores behaviour."""
    circuit = c17()
    baseline = {
        out: circuit.evaluate_outputs(
            {name: bool(i % 2) for i, name in enumerate(circuit.inputs)}
        )[out]
        for out in circuit.outputs
    }
    original = circuit.node("G16").fanins
    circuit.rewire("G16", ("G2", "G10"))
    circuit.rewire("G16", original)
    restored = {
        out: circuit.evaluate_outputs(
            {name: bool(i % 2) for i, name in enumerate(circuit.inputs)}
        )[out]
        for out in circuit.outputs
    }
    assert restored == baseline
    assert circuit.journal_length == 2
