import itertools


from repro.network import CircuitBuilder, GateType
from repro.sim import (
    ONE,
    X,
    ZERO,
    bounded_transition_analysis,
    fixed_bounds,
    pair_bounded_delay,
    ternary_gate,
    ternary_settle,
)
from repro.circuits import fig2_circuit

from tests.helpers import c17, tiny_and_or


class TestTernaryGate:
    def test_controlling_dominates_x(self):
        assert ternary_gate(GateType.AND, [ZERO, X]) == ZERO
        assert ternary_gate(GateType.OR, [ONE, X]) == ONE
        assert ternary_gate(GateType.NAND, [ZERO, X]) == ONE
        assert ternary_gate(GateType.NOR, [ONE, X]) == ZERO

    def test_x_propagates_when_undetermined(self):
        assert ternary_gate(GateType.AND, [ONE, X]) == X
        assert ternary_gate(GateType.XOR, [ONE, X]) == X
        assert ternary_gate(GateType.NOT, [X]) == X

    def test_binary_cases_match_boolean(self):
        for gate in (GateType.AND, GateType.OR, GateType.XOR, GateType.XNOR,
                     GateType.NAND, GateType.NOR):
            for a, b in itertools.product([0, 1], repeat=2):
                from repro.network import evaluate_gate

                expected = int(evaluate_gate(gate, [bool(a), bool(b)]))
                assert ternary_gate(gate, [a, b]) == expected

    def test_constants(self):
        assert ternary_gate(GateType.CONST0, []) == ZERO
        assert ternary_gate(GateType.CONST1, []) == ONE


class TestTernarySettle:
    def test_all_binary_matches_evaluate(self):
        c = tiny_and_or()
        values = ternary_settle(c, {"a": ONE, "b": ONE, "c": ZERO})
        assert values["f"] == ONE

    def test_x_input_blocks_only_where_needed(self):
        c = tiny_and_or()
        # c=1 controls the OR regardless of the X.
        values = ternary_settle(c, {"a": X, "b": ONE, "c": ONE})
        assert values["f"] == ONE
        values = ternary_settle(c, {"a": X, "b": ONE, "c": ZERO})
        assert values["f"] == X


class TestBoundedAnalysis:
    def test_fixed_bounds_match_event_simulation(self):
        from repro.sim import EventSimulator

        c = c17()
        sim = EventSimulator(c)
        prev = {"G1": 1, "G2": 1, "G3": 0, "G6": 1, "G7": 0}
        nxt = {"G1": 0, "G2": 1, "G3": 1, "G6": 0, "G7": 1}
        grid = bounded_transition_analysis(c, prev, nxt, fixed_bounds(c))
        result = sim.simulate_transition(prev, nxt)
        # Under degenerate bounds the grid must agree with the simulator
        # wherever it is definite (and is definite everywhere).
        for name, row in grid.items():
            for t, value in enumerate(row):
                assert value in (ZERO, ONE)
                assert bool(value) == result.waveforms[name].value_at(t)

    def test_grid_is_conservative_for_monotone_bounds(self):
        from repro.network.transform import apply_speedup
        from repro.sim import EventSimulator

        c = tiny_and_or()
        prev = {"a": 0, "b": 1, "c": 1}
        nxt = {"a": 1, "b": 1, "c": 0}
        grid = bounded_transition_analysis(c, prev, nxt)
        # Any concrete integer speedup's waveform must fit the grid.
        gates = [n.name for n in c.nodes() if n.fanins]
        for delays in itertools.product(*[range(0, 2) for __ in gates]):
            sped = apply_speedup(c, dict(zip(gates, delays)))
            result = EventSimulator(sped).simulate_transition(prev, nxt)
            for name, row in grid.items():
                for t, value in enumerate(row):
                    if value != X:
                        assert bool(value) == result.waveforms[name].value_at(
                            t
                        ), (name, t, delays)

    def test_pair_bounded_delay_fig2(self):
        c = fig2_circuit()
        worst = max(
            pair_bounded_delay(c, {"a": p}, {"a": n})
            for p in (False, True)
            for n in (False, True)
        )
        # The interval analysis cannot see the x3/b correlation, so it
        # reports the conservative bound 5 — the floating delay.
        assert worst == 5

    def test_constant_gates_hold_their_value(self):
        b = CircuitBuilder("k")
        a = b.input("a")
        b.output(b.and_(a, b.const1(name="one"), name="g"))
        c = b.build()
        grid = bounded_transition_analysis(c, {"a": False}, {"a": True})
        assert grid["one"] == [ONE] * len(grid["one"])
        assert pair_bounded_delay(c, {"a": False}, {"a": True}) == 1

    def test_stable_pair_has_zero_delay(self):
        c = tiny_and_or()
        vec = {"a": 1, "b": 0, "c": 1}
        assert pair_bounded_delay(c, vec, vec) == 0

    def test_rejects_nothing_but_documents_horizon(self):
        c = tiny_and_or()
        grid = bounded_transition_analysis(
            c, {"a": 0, "b": 0, "c": 0}, {"a": 1, "b": 1, "c": 1}
        )
        for row in grid.values():
            assert row[-1] in (ZERO, ONE)  # settled by the horizon
