import pytest

from repro.network import dumps_verilog, loads_verilog

from tests.helpers import assert_same_function, c17

C17_VERILOG = """
// the public six-NAND circuit
module c17 (G1, G2, G3, G6, G7, G22, G23);
  input G1, G2, G3, G6, G7;
  output G22, G23;
  wire G10, G11, G16, G19;
  nand U1 (G10, G1, G3);
  nand U2 (G11, G3, G6);
  nand U3 (G16, G2, G11);
  nand U4 (G19, G11, G7);
  nand U5 (G22, G10, G16);
  nand U6 (G23, G16, G19);
endmodule
"""


class TestParsing:
    def test_c17(self):
        circuit = loads_verilog(C17_VERILOG)
        assert circuit.name == "c17"
        assert_same_function(c17(), circuit)

    def test_delay_annotations(self):
        text = """
module d (a, f);
  input a;
  output f;
  wire w;
  buf #3 U1 (w, a);
  not U2 (f, w);
endmodule
"""
        circuit = loads_verilog(text)
        assert circuit.node("w").delay == 3
        assert circuit.node("f").delay == 1
        assert circuit.topological_delay() == 4

    def test_unnamed_instances(self):
        text = """
module u (a, b, f);
  input a, b;
  output f;
  and (f, a, b);
endmodule
"""
        circuit = loads_verilog(text)
        assert circuit.evaluate_outputs({"a": 1, "b": 1}) == {"f": True}

    def test_block_comments_stripped(self):
        text = """
module m (a, f); /* header
spanning lines */
  input a; output f;
  not (f, a); // trailing
endmodule
"""
        circuit = loads_verilog(text)
        assert circuit.evaluate_outputs({"a": 0}) == {"f": True}

    def test_missing_module_rejected(self):
        with pytest.raises(ValueError):
            loads_verilog("wire x;")

    def test_missing_endmodule_rejected(self):
        with pytest.raises(ValueError):
            loads_verilog("module m (a); input a;")

    def test_empty_module_rejected(self):
        with pytest.raises(ValueError):
            loads_verilog("module m (a); input a; endmodule")

    def test_unary_arity_enforced(self):
        with pytest.raises(ValueError):
            loads_verilog(
                "module m (a, b, f); input a, b; output f;"
                " not (f, a, b); endmodule"
            )


class TestRoundTrip:
    def test_c17_roundtrip(self):
        circuit = c17()
        again = loads_verilog(dumps_verilog(circuit))
        assert_same_function(circuit, again)

    def test_delays_preserved(self):
        from repro.circuits import fig1_circuit

        circuit = fig1_circuit()
        again = loads_verilog(dumps_verilog(circuit))
        for node in circuit.nodes():
            assert again.node(node.name).delay == node.delay
        assert_same_function(circuit, again)

    def test_verilog_preserves_what_bench_drops(self):
        from repro.network import dumps_bench, loads_bench
        from repro.circuits import fig1_circuit

        circuit = fig1_circuit()
        via_bench = loads_bench(dumps_bench(circuit))
        via_verilog = loads_verilog(dumps_verilog(circuit))
        assert via_bench.node("nb3").delay == 1       # lost
        assert via_verilog.node("nb3").delay == 3     # kept

    def test_const_gates_rejected(self):
        from repro.network import CircuitBuilder

        b = CircuitBuilder("k")
        b.input("a")
        k = b.const1()
        b.output(k)
        with pytest.raises(ValueError):
            dumps_verilog(b.build())

    @pytest.mark.parametrize("name", ["c17", "dir/c17.bench", "cone#G22"])
    def test_module_name_reads_back(self, name):
        circuit = c17()
        circuit.name = name
        assert loads_verilog(dumps_verilog(circuit)).name == name

    def test_escaped_module_name(self):
        circuit = c17()
        circuit.name = "c17.bench"
        text = dumps_verilog(circuit)
        assert text.startswith("module \\c17.bench  (G1, ")

    def test_module_name_with_blank_rejected(self):
        circuit = c17()
        circuit.name = "my c17"
        with pytest.raises(ValueError, match="'my c17'"):
            dumps_verilog(circuit)
