"""Fig. 5 — the inverter-AND symbolic-simulation walkthrough of Sec. V-C.

Regenerates the interval functions and transition formulas in closed form
and extracts the paper's example vector pairs from the implicants.
"""

from repro.boolfn import BddEngine
from repro.core import TransitionAnalysis
from repro.sim import EventSimulator
from repro.circuits import build_circuit

from .common import render_rows, write_result


def analyse():
    engine = BddEngine()
    analysis = TransitionAnalysis(build_circuit("fig5"), engine)
    m = engine.manager
    a_p, a_c = m.var("a@-"), m.var("a@0")
    b_p, b_c = m.var("b@-"), m.var("b@0")
    checks = {
        "g_0 == ~a@-": analysis.function_at("g", 0) == m.not_(a_p),
        "g_1 == ~a@0": analysis.function_at("g", 1) == m.not_(a_c),
        "f_0 == ~a@- b@-": analysis.function_at("f", 0)
        == m.and_(m.not_(a_p), b_p),
        "f_1 == ~a@- b@0": analysis.function_at("f", 1)
        == m.and_(m.not_(a_p), b_c),
        "f_2 == ~a@0 b@0": analysis.function_at("f", 2)
        == m.and_(m.not_(a_c), b_c),
        "e_g1 == a@- xor a@0": analysis.transition_predicate("g", 1)
        == m.xor_(a_p, a_c),
        "e_f1 == ~a@- (b@- xor b@0)": analysis.transition_predicate("f", 1)
        == m.and_(m.not_(a_p), m.xor_(b_p, b_c)),
        "e_f2 == b@0 (a@- xor a@0)": analysis.transition_predicate("f", 2)
        == m.and_(b_c, m.xor_(a_p, a_c)),
    }
    pair_both = analysis.pair_for_conjunction([("f", 1), ("f", 2)])
    return analysis, checks, pair_both


def test_fig5():
    analysis, checks, pair_both = analyse()
    rows = [[claim, ok] for claim, ok in checks.items()]
    rows.append(["pair exciting f at 1 AND 2", pair_both.render(["a", "b"])])
    write_result(
        "fig5_symbolic_formulas",
        render_rows("Fig. 5 closed forms", rows, ["claim", "verified"]),
    )
    assert all(checks.values())
    # Replay: the double-transition pair really toggles f twice.
    sim = EventSimulator(build_circuit("fig5"))
    result = sim.simulate_transition(pair_both.v_prev, pair_both.v_next)
    assert result.waveforms["f"].transition_times() == [1, 2]
