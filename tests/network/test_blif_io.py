import pytest

from repro.network import GateType, dumps_blif, loads_blif

from tests.helpers import assert_same_function, c17


class TestParsing:
    def test_simple_model(self):
        text = """
.model demo
.inputs a b
.outputs f
.names a b f
11 1
.end
"""
        c = loads_blif(text)
        assert c.name == "demo"
        assert c.evaluate_outputs({"a": True, "b": True}) == {"f": True}
        assert c.evaluate_outputs({"a": True, "b": False}) == {"f": False}

    def test_offset_cover(self):
        text = """
.model off
.inputs a b
.outputs f
.names a b f
11 0
.end
"""
        c = loads_blif(text)
        assert c.evaluate_outputs({"a": True, "b": True}) == {"f": False}
        assert c.evaluate_outputs({"a": False, "b": True}) == {"f": True}

    def test_dont_care_columns(self):
        text = """
.inputs a b c
.outputs f
.names a b c f
1-0 1
01- 1
"""
        c = loads_blif(text)
        assert c.evaluate_outputs({"a": 1, "b": 0, "c": 0})["f"]
        assert c.evaluate_outputs({"a": 0, "b": 1, "c": 1})["f"]
        assert not c.evaluate_outputs({"a": 0, "b": 0, "c": 1})["f"]

    def test_constant_one(self):
        text = ".inputs a\n.outputs f\n.names f\n1\n.end\n"
        c = loads_blif(text)
        assert c.evaluate_outputs({"a": False}) == {"f": True}

    def test_constant_zero(self):
        text = ".inputs a\n.outputs f\n.names f\n.end\n"
        c = loads_blif(text)
        assert c.evaluate_outputs({"a": True}) == {"f": False}

    def test_mixed_cover_rejected(self):
        text = ".inputs a\n.outputs f\n.names a f\n1 1\n0 0\n"
        with pytest.raises(ValueError):
            loads_blif(text)

    def test_unsupported_directive_rejected(self):
        with pytest.raises(ValueError):
            loads_blif(".inputs a\n.latch a b\n")

    def test_row_outside_names_rejected(self):
        with pytest.raises(ValueError):
            loads_blif(".inputs a\n11 1\n")

    def test_continuation_lines(self):
        text = ".inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n"
        c = loads_blif(text)
        assert set(c.inputs) == {"a", "b"}


class TestRoundTrip:
    def test_c17(self):
        c = c17()
        again = loads_blif(dumps_blif(c))
        assert_same_function(c, again)

    def test_xor_gates(self):
        from repro.circuits import parity_tree

        c = parity_tree(5)
        again = loads_blif(dumps_blif(c))
        vec = {name: (i % 2 == 0) for i, name in enumerate(c.inputs)}
        assert again.evaluate_outputs(vec) == c.evaluate_outputs(vec)

    @pytest.mark.parametrize("name", ["c17", "dir/c17.bench"])
    def test_model_name_reads_back(self, name):
        circuit = c17()
        circuit.name = name
        assert loads_blif(dumps_blif(circuit)).name == name

    @pytest.mark.parametrize(
        "name", ["my dir/c17.bench", "cone#G22", "", "c17\\"]
    )
    def test_unrepresentable_model_name_rejected(self, name):
        circuit = c17()
        circuit.name = name
        with pytest.raises(ValueError) as error:
            dumps_blif(circuit)
        assert str(error.value) == (
            f"cannot emit BLIF: model name {name!r} is not representable"
        )

    def test_node_name_with_trailing_backslash_rejected(self):
        from repro.network import CircuitBuilder

        b = CircuitBuilder("k")
        a = b.input("a\\")
        b.output(b.gate(GateType.NOT, [a], name="f"))
        with pytest.raises(ValueError, match="node name"):
            dumps_blif(b.build())

    def test_intermediate_signals_preserved(self):
        c = c17()
        text = dumps_blif(c)
        assert ".names G3 G6 G11" in text
