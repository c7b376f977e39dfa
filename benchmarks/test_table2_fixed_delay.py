"""Table II — transition delay computation, fixed (unit) gate delays.

Regenerates the paper's Table II rows (val, l.d., f.d., #check, CPU, t.d.)
for the ISCAS stand-ins and the FSM controllers.  Reproduction targets:

* ``t.d. <= f.d. <= l.d.`` on every circuit;
* ``t.d. == f.d.`` on the combinational set (the paper found no gap);
* ``f.d. < l.d.`` on the circuits whose stand-ins embed carry-skip cores
  (the paper's C1908/C2670/C3540/C5315/C6288/C7552 rows);
* the crafted ``sticky`` controller shows the FSM drop ``t.d. = f.d. - 1``
  (the paper's planet/sand/scf behaviour; our *synthetic* FSM tables do
  not exhibit a drop — recorded honestly in EXPERIMENTS.md).
"""

import pytest

from repro.circuits import build_circuit, build_fsm_logic

from .common import HEAVY, table2_row, render_rows, write_result

LIGHT_COMBINATIONAL = ["c17", "c432", "c499", "c880", "c1908", "c1355"]
HEAVY_COMBINATIONAL = ["c2670", "c3540", "c5315", "c7552"]
FSM_SET = ["planet", "sand", "styr", "scf"]

_rows = []


@pytest.mark.parametrize("name", LIGHT_COMBINATIONAL)
def test_combinational_light(name):
    circuit = build_circuit(name)
    row = table2_row(name, circuit)
    _rows.append(row)
    __, __, ld, fd, __, __, td = row
    assert td <= fd <= ld
    assert td == fd  # combinational benchmarks: no gap (paper Sec. VI)


@pytest.mark.parametrize("name", HEAVY_COMBINATIONAL)
def test_combinational_heavy(name):
    circuit = build_circuit(name)
    row = table2_row(name, circuit)
    _rows.append(row)
    __, __, ld, fd, __, __, td = row
    assert td <= fd <= ld
    if name in ("c1908", "c2670", "c3540", "c7552"):
        assert fd < ld, "carry-skip stand-in must show a false-path gap"


def test_c6288_multiplier():
    """The 16x16 multiplier defeats the exact pure-Python computation
    (the final refutation is a hard CDCL instance — the paper spent 812
    SUN-4 seconds in C), so its row is *bracketed*: a witnessed
    simulation lower bound against the topological upper bound.  Set
    REPRO_BENCH_HEAVY=1 to attempt the exact run."""
    import time

    from repro.core import transition_delay_lower_bound

    circuit = build_circuit("c6288")
    if HEAVY:
        row = table2_row("c6288", circuit)
        _rows.append(row)
        return

    def bracketed():
        start = time.process_time()
        bound = transition_delay_lower_bound(
            circuit, random_pairs=32, climbs=4, climb_steps=150
        )
        cpu = time.process_time() - start
        return [
            "c6288",
            "-",
            circuit.topological_delay(),
            "<=l.d.",
            "-",
            f"{cpu:.2f}",
            f">={bound.delay}",
        ], bound

    row, bound = bracketed()
    _rows.append(row)
    assert bound.delay >= circuit.topological_delay() // 2
    assert bound.pair is not None


@pytest.mark.parametrize("name", FSM_SET)
def test_fsm_controllers(name):
    logic = build_fsm_logic(name)
    row = table2_row(name, logic.circuit, logic=logic)
    _rows.append(row)
    __, __, ld, fd, __, __, td = row
    assert td <= fd <= ld


def test_sticky_controller_drop():
    logic = build_fsm_logic("sticky")
    row = table2_row("sticky", logic.circuit, logic=logic)
    _rows.append(row)
    __, __, __, fd, __, __, td = row
    assert td == fd - 1  # the paper's FSM-row phenomenon


def test_zzz_write_table():
    """Runs last (collection order within the file): dump every collected
    row."""
    assert _rows
    write_result("table2_fixed_delay", render_rows("Table II", _rows))
