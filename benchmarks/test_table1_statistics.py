"""Table I — statistics of benchmark examples.

Regenerates the paper's Table I columns (inputs, outputs, literals, longest
path) for our circuits: the exact C17, the ISCAS-85 stand-ins and the MCNC
FSM stand-ins.  Primary-input/output counts match the paper exactly by
construction; literals and depth are the stand-ins' own (see DESIGN.md).
"""


from repro.circuits import build_circuit, build_fsm_logic, iscas, mcnc
from repro.sta import statistics_row

from .common import render_rows, write_result

HEADERS = [
    "EX", "inputs", "outputs", "literals", "longest",
    "paper:in", "paper:out", "paper:lit", "paper:long",
]


def build_all():
    rows = []
    circuits = {}
    for name in iscas.available():
        circuit = build_circuit(name)
        circuits[name] = circuit
        ours = statistics_row(circuit)
        paper = iscas.PAPER_TABLE1[name]
        rows.append(ours + list(paper))
    for name in mcnc.available():
        logic = build_fsm_logic(name)
        circuits[name] = logic.circuit
        ours = statistics_row(logic.circuit)
        paper = mcnc.PAPER_TABLE1_FSM[name]
        rows.append(ours + list(paper))
    return rows, circuits


def test_table1():
    rows, circuits = build_all()
    write_result("table1_statistics", render_rows("Table I", rows, HEADERS))
    # I/O counts are exact by construction.
    for row in rows:
        assert row[1] == row[5], row[0]
        assert row[2] == row[6], row[0]
    # Every circuit is structurally valid and nontrivial.
    for name, circuit in circuits.items():
        assert circuit.num_gates > 0
        assert circuit.topological_delay() >= 3
