"""Netlist readers: located parse errors, round-trip identity on every
registry circuit, and CircuitBuilder-identical structural rejection."""

import pytest

from repro.circuits import available_circuits, build_circuit
from repro.network import (
    CircuitBuilder,
    GateType,
    dump_circuit,
    dumps_bench,
    dumps_blif,
    load_circuit,
    loads_bench,
    loads_blif,
)

#: format -> (parse text under a circuit name, render)
FORMATS = {
    "bench": (lambda text, name: loads_bench(text, name), dumps_bench),
    "blif": (lambda text, name: loads_blif(text), dumps_blif),
}


def structurally_equal(left, right) -> bool:
    """Same inputs, outputs, gates, fanins and delays (names included)."""
    if left.inputs != right.inputs or left.outputs != right.outputs:
        return False
    left_nodes = {n.name: n for n in left.nodes()}
    right_nodes = {n.name: n for n in right.nodes()}
    if left_nodes.keys() != right_nodes.keys():
        return False
    for name, node in left_nodes.items():
        other = right_nodes[name]
        if (
            node.gate_type != other.gate_type
            or node.fanins != other.fanins
            or node.delay != other.delay
        ):
            return False
    return True


def round_trip_fixpoint(circuit, fmt):
    """Import -> export -> import is the identity on the imported form.

    ``first`` is the circuit after one export+import (the format's
    canonical form: BLIF synthesises covers, BENCH resets delays to
    unit), ``second`` after another round; the two must be structurally
    identical and render to the same text.
    """
    loads, dumps = FORMATS[fmt]
    first = loads(dumps(circuit), circuit.name)
    second = loads(dumps(first), circuit.name)
    assert dumps(second) == dumps(first)
    return first, second


class TestLocatedErrors:
    def test_bench_unknown_gate_names_file_and_line(self):
        with pytest.raises(ValueError) as err:
            loads_bench(
                "INPUT(a)\nOUTPUT(f)\nf = FROB(a)\n", source="bad.bench"
            )
        assert str(err.value) == "bad.bench:3: unknown gate type 'FROB'"

    def test_bench_garbage_line_names_file_and_line(self):
        with pytest.raises(ValueError) as err:
            loads_bench(
                "INPUT(a)\n\n# comment\nwhat is this\n", source="g.bench"
            )
        assert str(err.value).startswith("g.bench:4: ")

    def test_blif_unsupported_construct_names_file_and_line(self):
        with pytest.raises(ValueError) as err:
            loads_blif(
                ".model m\n.inputs a\n.outputs f\n.latch a f\n.end\n",
                source="m.blif",
            )
        assert str(err.value).startswith("m.blif:4: ")

    def test_blif_cover_row_outside_names(self):
        with pytest.raises(ValueError) as err:
            loads_blif(
                ".model m\n.inputs a\n.outputs f\n1 1\n", source="m.blif"
            )
        assert str(err.value).startswith("m.blif:4: ")

    def test_blif_arity_mismatch_names_names_header_line(self):
        text = (
            ".model m\n.inputs a b\n.outputs f\n"
            ".names a b f\n111 1\n.end\n"
        )
        with pytest.raises(ValueError) as err:
            loads_blif(text, source="m.blif")
        assert str(err.value).startswith("m.blif:4: ")

    def test_file_loader_uses_path_as_source(self, tmp_path):
        path = tmp_path / "broken.bench"
        path.write_text("INPUT(a)\nf = FROB(a)\n")
        with pytest.raises(ValueError) as err:
            load_circuit(str(path))
        assert str(err.value).startswith(f"{path}:2: ")

    def test_unknown_format_and_extension(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("x")
        with pytest.raises(ValueError, match="cannot infer netlist format"):
            load_circuit(str(path))
        with pytest.raises(ValueError, match="cannot infer netlist format"):
            dump_circuit(build_circuit("c17"), str(tmp_path / "out.xyz"))
        assert not (tmp_path / "out.xyz").exists()


class TestStructuralRejection:
    """Cyclic/undriven netlists raise the exact construction-time
    messages CircuitBuilder raises."""

    def builder_error(self, build) -> str:
        with pytest.raises(ValueError) as err:
            build()
        return str(err.value)

    def test_cycle_matches_builder(self):
        def build_cyclic():
            b = CircuitBuilder("cyc")
            b.input("a")
            b.gate(GateType.AND, ["a", "g2"], name="g1")
            b.gate(GateType.NOT, ["g1"], name="g2")
            b.output("g1")
            return b.build()

        message = self.builder_error(build_cyclic)
        text = (
            "INPUT(a)\nOUTPUT(g1)\n"
            "g1 = AND(a, g2)\ng2 = NOT(g1)\n"
        )
        with pytest.raises(ValueError) as err:
            loads_bench(text, source="cyc.bench")
        assert str(err.value) == message
        assert "cycle" in message

    def test_undriven_matches_builder(self):
        def build_undriven():
            b = CircuitBuilder("und")
            b.input("a")
            b.gate(GateType.AND, ["a", "ghost"], name="f")
            b.output("f")
            return b.build()

        message = self.builder_error(build_undriven)
        text = "INPUT(a)\nOUTPUT(f)\nf = AND(a, ghost)\n"
        with pytest.raises(ValueError) as err:
            loads_bench(text, source="und.bench")
        assert str(err.value) == message

    def test_missing_output_matches_builder(self):
        def build_missing():
            b = CircuitBuilder("mo")
            a = b.input("a")
            b.not_(a, name="f")
            b.output("nothere")
            return b.build()

        message = self.builder_error(build_missing)
        text = "INPUT(a)\nOUTPUT(nothere)\nf = NOT(a)\n"
        with pytest.raises(ValueError) as err:
            loads_bench(text, source="mo.bench")
        assert str(err.value) == message


class TestRoundTrip:
    @pytest.mark.parametrize("name", available_circuits())
    @pytest.mark.parametrize("fmt", ("bench", "blif"))
    def test_every_registry_circuit_is_a_fixpoint(self, name, fmt):
        circuit = build_circuit(name)
        first, second = round_trip_fixpoint(circuit, fmt)
        assert structurally_equal(first, second)

    def test_bench_round_trip_preserves_structure(self):
        circuit = build_circuit("fig2")
        back = loads_bench(dumps_bench(circuit), circuit.name)
        assert back.inputs == circuit.inputs
        assert back.outputs == circuit.outputs
        assert {n.name for n in back.nodes()} == {
            n.name for n in circuit.nodes()
        }

    def test_structurally_equal_detects_difference(self):
        a = build_circuit("fig1")
        b = build_circuit("fig1")
        assert structurally_equal(a, b)
        b.set_delay(b.gate_names()[0], 7)
        assert not structurally_equal(a, b)
