import pytest

from repro.network import Circuit, CircuitBuilder, GateType, Node

from tests.helpers import c17


class TestConstruction:
    def test_duplicate_names_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(ValueError):
            c.add_input("a")

    def test_input_via_add_gate_rejected(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.add_gate("a", GateType.INPUT)

    def test_unary_arity_enforced(self):
        c = Circuit()
        c.add_input("a")
        c.add_input("b")
        with pytest.raises(ValueError):
            c.add_gate("n", GateType.NOT, ["a", "b"])

    def test_gate_needs_fanins(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.add_gate("g", GateType.AND, [])

    def test_negative_delay_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(ValueError):
            c.add_gate("g", GateType.BUF, ["a"], delay=-1)

    def test_validate_missing_fanin(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("g", GateType.BUF, ["ghost"])
        with pytest.raises(ValueError):
            c.validate()

    def test_validate_missing_output(self):
        c = Circuit()
        c.add_input("a")
        c.set_outputs(["nope"])
        with pytest.raises(ValueError):
            c.validate()

    def test_cycle_detected(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("g1", GateType.AND, ["a", "g2"])
        c.add_gate("g2", GateType.BUF, ["g1"])
        with pytest.raises(ValueError):
            c.topological_order()


class TestStructure:
    def test_c17_counts(self):
        c = c17()
        assert len(c.inputs) == 5
        assert len(c.outputs) == 2
        assert c.num_gates == 6
        assert c.literal_count() == 12
        assert len(c) == 11

    def test_topological_order_respects_edges(self):
        c = c17()
        order = {name: i for i, name in enumerate(c.topological_order())}
        for node in c.nodes():
            for fanin in node.fanins:
                assert order[fanin] < order[node.name]

    def test_fanouts_inverse_of_fanins(self):
        c = c17()
        fanouts = c.fanouts()
        for node in c.nodes():
            for fanin in node.fanins:
                assert node.name in fanouts[fanin]

    def test_levels(self):
        c = c17()
        levels = c.levels()
        assert levels["G1"] == 0
        assert levels["G10"] == 1
        assert levels["G22"] == 3
        assert c.topological_delay() == 3

    def test_min_levels(self):
        b = CircuitBuilder("m")
        a, x = b.inputs("a", "x")
        slow = b.buf(a, name="slow", delay=5)
        g = b.and_(slow, x, name="g")
        b.output(g)
        c = b.build()
        assert c.min_levels()["g"] == 1
        assert c.levels()["g"] == 6

    def test_residual_delays(self):
        c = c17()
        residual = c.residual_delays()
        assert residual["G22"] == 0
        assert residual["G10"] == 1
        # From G1 an event traverses G10 and G22 (one unit each).
        assert residual["G1"] == 2

    def test_residual_of_dangling_node(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("used", GateType.BUF, ["a"])
        c.add_gate("dangling", GateType.NOT, ["a"])
        c.set_outputs(["used"])
        assert c.residual_delays()["dangling"] == -1

    def test_transitive_fanin(self):
        c = c17()
        cone = c.transitive_fanin(["G22"])
        assert "G19" not in cone and "G7" not in cone
        assert {"G1", "G2", "G3", "G6", "G10", "G11", "G16", "G22"} == set(cone)


class TestEvaluation:
    def test_known_vector(self):
        c = c17()
        out = c.evaluate_outputs(
            {"G1": 1, "G2": 0, "G3": 1, "G6": 1, "G7": 0}
        )
        assert out == {"G22": True, "G23": False}

    def test_copy_preserves_function_and_delays(self):
        c = c17()
        c.set_delay("G10", 7)
        clone = c.copy()
        assert clone.node("G10").delay == 7
        vec = {"G1": 1, "G2": 1, "G3": 0, "G6": 1, "G7": 1}
        assert clone.evaluate_outputs(vec) == c.evaluate_outputs(vec)

    def test_outputs_must_exist_for_topological_delay(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(ValueError):
            c.topological_delay()

    def test_repr(self):
        assert "c17" in repr(c17())


class TestApplyEdit:
    """``Circuit.apply_edit`` reads a JSON edit: each field of the wrong
    type raises a ValueError naming it, and leaves the circuit as it
    was."""

    @pytest.mark.parametrize(
        "edit, field",
        [
            ({"op": "set_delay", "name": "G10", "delay": None}, "delay"),
            ({"op": "set_delay", "name": "G10", "delay": 2.7}, "delay"),
            ({"op": "set_delay", "name": "G10", "delay": True}, "delay"),
            ({"op": "set_delay", "name": "G10", "delay": "3"}, "delay"),
            ({"op": "rewire", "name": "G10", "fanins": 5}, "fanins"),
            ({"op": "rewire", "name": "G10", "fanins": "G1"}, "fanins"),
            ({"op": "rewire", "name": "G10", "fanins": ["G1", 3]}, "fanins"),
            ({"op": "replace_gate", "name": "G10", "gate_type": 7},
             "gate_type"),
            ({"op": "replace_gate", "name": "G10", "delay": 2.5}, "delay"),
            ({"op": "replace_gate", "name": "G10", "fanins": {"G1": 1}},
             "fanins"),
        ],
        ids=[
            "delay-null", "delay-float", "delay-bool", "delay-string",
            "fanins-int", "fanins-string", "fanins-item", "gate-int",
            "replace-delay-float", "replace-fanins-object",
        ],
    )
    def test_a_value_of_the_wrong_type_names_its_field(self, edit, field):
        c = c17()
        before = c.node("G10")
        with pytest.raises(ValueError, match=f"edit field '{field}'"):
            c.apply_edit(edit)
        assert c.journal_length == 0
        assert c.node("G10") == before

    def test_well_typed_edits_apply(self):
        c = c17()
        c.apply_edit({"op": "set_delay", "name": "G10", "delay": 3})
        c.apply_edit({"op": "rewire", "name": "G16", "fanins": ["G2", "G3"]})
        # Null fields of a replace_gate keep what the gate had.
        c.apply_edit({"op": "replace_gate", "name": "G19",
                      "gate_type": "NOR", "fanins": None, "delay": None})
        assert c.node("G10").delay == 3
        assert c.node("G16").fanins == ("G2", "G3")
        assert c.node("G19") == Node("G19", GateType.NOR, ("G11", "G7"), 1)
        assert [edit.op for edit in c.journal()] == [
            "set_delay", "rewire", "replace_gate",
        ]

    def test_a_missing_field_is_a_key_error(self):
        with pytest.raises(KeyError):
            c17().apply_edit({"op": "set_delay", "name": "G10"})
