"""Table III — transition delay under bounded gate delays [0, d].

The paper's monotone-speedup run: "we have been able to obtain vector pairs
that validate the floating delay for all the ISCAS-85 benchmark circuits
under the bounded gate delay model" — i.e. bounded t.d. == f.d. on the
combinational set.  The FSM rows keep the Sec. VI pair restriction.
"""

import pytest

from repro.circuits import build_circuit, build_fsm_logic

from .common import HEAVY, render_rows, table3_row, write_result

LIGHT = ["c17", "c432", "c499", "c880"]
MEDIUM = ["c1908", "c1355", "c2670", "c3540", "c5315", "c7552"]
FSM_SET = ["planet", "sand", "styr", "scf"]

_rows = []


@pytest.mark.parametrize("name", LIGHT)
def test_bounded_light(name):
    circuit = build_circuit(name)
    row = table3_row(name, circuit)
    _rows.append(row)
    __, __, ld, fd, __, __, td = row
    assert td == fd, "bounded pairs validate the floating delay"
    assert fd <= ld


@pytest.mark.parametrize("name", MEDIUM)
def test_bounded_medium(name):
    circuit = build_circuit(name)
    row = table3_row(name, circuit)
    _rows.append(row)
    __, __, ld, fd, __, __, td = row
    assert td == fd <= ld


@pytest.mark.parametrize("name", FSM_SET)
def test_bounded_fsm(name):
    logic = build_fsm_logic(name)
    row = table3_row(name, logic.circuit, logic=logic)
    _rows.append(row)
    __, __, ld, fd, __, __, td = row
    assert td <= ld


def test_zzz_write_table():
    assert _rows
    write_result("table3_bounded_delay", render_rows("Table III", _rows))
