

from repro.boolfn import BddEngine
from repro.core import (
    FloatingAnalysis,
    TransitionAnalysis,
    compute_floating_delay,
    compute_transition_delay,
    cur_var,
    prev_var,
)
from repro.fsm import (
    loads_kiss,
    reachable_states_constraint,
    synthesize,
    transition_pair_constraint,
)

KISS = """
.i 1
.o 1
.r a
1 a b 1
0 a a 0
1 b c 1
0 b b 0
1 c a 0
0 c c 1
"""

KISS_UNREACHABLE = """
.i 1
.o 1
.r a
- a a 0
- island a 1
"""


class TestReachableConstraint:
    def test_characteristic_function(self):
        fsm = loads_kiss(KISS_UNREACHABLE, "u")
        logic = synthesize(fsm)
        analysis = FloatingAnalysis(logic.circuit, BddEngine())
        engine = analysis.engine
        care = reachable_states_constraint(logic)(analysis)
        # Only the reset state 'a' is reachable; its code is all-zero.
        code_a = logic.encoding.code("a")
        env = dict(zip(logic.state_names, code_a))
        assert engine.evaluate(care, env)
        code_island = logic.encoding.code("island")
        env = dict(zip(logic.state_names, code_island))
        assert not engine.evaluate(care, env)

    def test_all_reachable_machine(self):
        fsm = loads_kiss(KISS, "k")
        logic = synthesize(fsm)
        analysis = FloatingAnalysis(logic.circuit, BddEngine())
        engine = analysis.engine
        care = reachable_states_constraint(logic)(analysis)
        for state in fsm.states:
            env = dict(zip(logic.state_names, logic.encoding.code(state)))
            assert engine.evaluate(care, env)


class TestPairConstraint:
    def test_admits_exactly_table_edges(self):
        fsm = loads_kiss(KISS, "k")
        logic = synthesize(fsm)
        analysis = TransitionAnalysis(logic.circuit, BddEngine())
        engine = analysis.engine
        constraint = transition_pair_constraint(logic)(analysis)
        for state in fsm.states:
            for bit in (False, True):
                nxt = fsm.next_state(state, [bit])
                for claimed in fsm.states:
                    env = {}
                    env[prev_var("i0")] = bit
                    env[cur_var("i0")] = False  # i@0 is unconstrained
                    for name, value in zip(
                        logic.state_names, logic.encoding.code(state)
                    ):
                        env[prev_var(name)] = value
                    for name, value in zip(
                        logic.state_names, logic.encoding.code(claimed)
                    ):
                        env[cur_var(name)] = value
                    assert engine.evaluate(constraint, env) == (
                        claimed == nxt
                    ), (state, bit, claimed)

    def test_unreachable_prev_state_excluded(self):
        fsm = loads_kiss(KISS_UNREACHABLE, "u")
        logic = synthesize(fsm)
        analysis = TransitionAnalysis(logic.circuit, BddEngine())
        engine = analysis.engine
        constraint = transition_pair_constraint(logic)(analysis)
        env = {prev_var("i0"): False, cur_var("i0"): False}
        for name, value in zip(
            logic.state_names, logic.encoding.code("island")
        ):
            env[prev_var(name)] = value
        # next state of the completion is reset (code of 'a')
        for name, value in zip(logic.state_names, logic.encoding.code("a")):
            env[cur_var(name)] = value
        assert not engine.evaluate(constraint, env)


class TestEndToEnd:
    def test_constrained_delays_ordered(self):
        fsm = loads_kiss(KISS, "k")
        logic = synthesize(fsm)
        c = logic.circuit
        fd = compute_floating_delay(
            c, engine=BddEngine(),
            constraint=reachable_states_constraint(logic),
        )
        td = compute_transition_delay(
            c, engine=BddEngine(), upper=fd.delay,
            constraint=transition_pair_constraint(logic),
        )
        assert td.delay <= fd.delay <= c.topological_delay()

    def test_sticky_controller_reproduces_fsm_drop(self):
        from repro.circuits.mcnc import sticky_bit_controller

        logic = sticky_bit_controller(chain_len=6)
        c = logic.circuit
        fd = compute_floating_delay(
            c, engine=BddEngine(),
            constraint=reachable_states_constraint(logic),
        )
        td = compute_transition_delay(
            c, engine=BddEngine(), upper=fd.delay,
            constraint=transition_pair_constraint(logic),
        )
        unconstrained = compute_transition_delay(c, engine=BddEngine())
        assert fd.delay == 8
        assert td.delay == 7           # the paper's FSM-row drop
        assert unconstrained.delay == 8

    def test_sticky_witness_is_a_real_edge(self):
        from repro.circuits.mcnc import sticky_bit_controller

        logic = sticky_bit_controller(chain_len=6)
        td = compute_transition_delay(
            logic.circuit, engine=BddEngine(),
            constraint=transition_pair_constraint(logic),
        )
        pair = td.pair
        s_prev = logic.encoding.decode(
            [pair.v_prev[n] for n in logic.state_names]
        )
        s_next = logic.encoding.decode(
            [pair.v_next[n] for n in logic.state_names]
        )
        i_prev = [pair.v_prev[n] for n in logic.input_names]
        assert logic.fsm.next_state(s_prev, i_prev) == s_next
        assert s_prev in logic.fsm.reachable_states()


class TestConstraintCacheIds:
    """The builders tag themselves so constrained FSM results are keyable
    in the runtime cache (untagged closures stay uncacheable)."""

    def test_tags_are_stable_and_kind_separated(self):
        logic = synthesize(loads_kiss(KISS))
        reach = reachable_states_constraint(logic)
        pairs = transition_pair_constraint(logic)
        assert reach.cache_id.startswith("fsm-reach:")
        assert pairs.cache_id.startswith("fsm-pair:")
        assert reach.cache_id != pairs.cache_id
        again = reachable_states_constraint(synthesize(loads_kiss(KISS)))
        assert again.cache_id == reach.cache_id

    def test_different_machines_get_different_tags(self):
        a = reachable_states_constraint(synthesize(loads_kiss(KISS)))
        b = reachable_states_constraint(
            synthesize(loads_kiss(KISS_UNREACHABLE))
        )
        assert a.cache_id != b.cache_id

    def test_constrained_results_cache_identically(self):
        from repro.runtime import DelayCache

        logic = synthesize(loads_kiss(KISS))
        constraint = reachable_states_constraint(logic)
        reference = compute_floating_delay(
            logic.circuit, constraint=constraint
        )
        cache = DelayCache()
        cold = compute_floating_delay(
            logic.circuit, constraint=constraint, cache=cache
        )
        warm = compute_floating_delay(
            logic.circuit, constraint=constraint, cache=cache
        )
        for cert in (cold, warm):
            assert cert.delay == reference.delay
            assert cert.witness == reference.witness
        assert len(cache) == 1
