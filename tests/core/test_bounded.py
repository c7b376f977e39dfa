import pytest

from repro.boolfn import BddEngine, SatEngine
from repro.core import (
    BoundedAnalysis,
    compute_bounded_transition_delay,
    compute_floating_delay,
    compute_transition_delay,
    fixed_delay_bounds,
    monotone_speedup_bounds,
)
from repro.network import CircuitBuilder, scale_delays
from repro.circuits import build_circuit, fig1_circuit, fig2_circuit
from repro.runtime.cache import DelayCache

from tests.helpers import c17, random_circuit


class TestBounds:
    def test_monotone_bounds(self):
        c = c17()
        bounds = monotone_speedup_bounds(c)
        assert bounds("G10") == (0, 1)

    def test_fixed_bounds(self):
        c = fig1_circuit()
        bounds = fixed_delay_bounds(c)
        assert bounds("nb3") == (3, 3)

    def test_bad_bounds_rejected(self):
        c = c17()
        with pytest.raises(ValueError):
            BoundedAnalysis(c, bounds=lambda name: (2, 1), engine=BddEngine())

    @pytest.mark.parametrize(
        "make_bounds", [monotone_speedup_bounds, fixed_delay_bounds]
    )
    def test_bounds_of_another_circuit_do_not_poison_the_cache(
        self, make_bounds
    ):
        # The callables read the delays of the circuit they were built
        # from; a result under a slowed copy's bounds must not be served
        # for the analysed circuit's own bounds.
        circuit = build_circuit("c432")
        cold = compute_bounded_transition_delay(
            circuit, bounds=make_bounds(circuit),
            cache=DelayCache(enabled=False),
        )
        cache = DelayCache()
        slowed = compute_bounded_transition_delay(
            circuit, bounds=make_bounds(scale_delays(circuit, 3)),
            cache=cache,
        )
        assert slowed.delay > cold.delay
        own = compute_bounded_transition_delay(
            circuit, bounds=make_bounds(circuit), cache=cache
        )
        default = compute_bounded_transition_delay(circuit, cache=cache)
        assert own.delay == cold.delay
        if make_bounds is monotone_speedup_bounds:
            assert default.delay == cold.delay


class TestReductionToFixed:
    def test_degenerate_bounds_equal_fixed_analysis(self):
        for seed in range(6):
            c = random_circuit(seed + 40)
            fixed = compute_transition_delay(c, engine=BddEngine())
            degenerate = compute_bounded_transition_delay(
                c, bounds=fixed_delay_bounds(c), engine=BddEngine()
            )
            assert fixed.delay == degenerate.delay, seed

    def test_c17_degenerate(self):
        fixed = compute_transition_delay(c17(), engine=BddEngine())
        degenerate = compute_bounded_transition_delay(
            c17(), bounds=fixed_delay_bounds(c17()), engine=BddEngine()
        )
        assert fixed.delay == degenerate.delay == 3


class TestMonotoneSpeedup:
    def test_upper_bounds_fixed_delay(self):
        for seed in range(6):
            c = random_circuit(seed + 70)
            fixed = compute_transition_delay(c, engine=BddEngine())
            bounded = compute_bounded_transition_delay(c, engine=BddEngine())
            assert bounded.delay >= fixed.delay, seed

    def test_bounded_at_most_topological(self):
        for seed in range(6):
            c = random_circuit(seed + 90)
            bounded = compute_bounded_transition_delay(c, engine=BddEngine())
            assert bounded.delay <= c.topological_delay(), seed

    def test_fig1_speedup_restores_floating_delay(self):
        c = fig1_circuit()
        floating = compute_floating_delay(c, engine=BddEngine())
        bounded = compute_bounded_transition_delay(c, engine=BddEngine())
        assert bounded.delay == floating.delay == 5

    def test_fig2_conservative_bound_is_floating(self):
        c = fig2_circuit()
        bounded = compute_bounded_transition_delay(c, engine=BddEngine())
        assert bounded.delay == 5

    def test_engines_agree(self):
        for seed in range(4):
            c = random_circuit(seed + 500, num_gates=5)
            bdd = compute_bounded_transition_delay(c, engine=BddEngine())
            sat = compute_bounded_transition_delay(c, engine=SatEngine())
            assert bdd.delay == sat.delay, seed


class TestWitness:
    def test_witness_pair_returned(self):
        cert = compute_bounded_transition_delay(c17(), engine=BddEngine())
        assert cert.pair is not None
        assert cert.mode == "bounded-transition"
        assert cert.output in c17().outputs

    def test_no_outputs_rejected(self):
        b = CircuitBuilder("e")
        b.input("a")
        with pytest.raises(ValueError):
            compute_bounded_transition_delay(b.circuit)


class TestGuaranteedFunctions:
    def test_initial_and_final_partition(self):
        c = c17()
        engine = BddEngine()
        analysis = BoundedAnalysis(c, engine=engine)
        for out in c.outputs:
            u1, u0 = analysis.guaranteed_pair(out, -1)
            assert engine.is_tautology(engine.or_(u1, u0))
            u1, u0 = analysis.guaranteed_pair(out, 10_000)
            assert engine.is_tautology(engine.or_(u1, u0))

    def test_in_window_guarantees_disjoint(self):
        c = c17()
        engine = BddEngine()
        analysis = BoundedAnalysis(c, engine=engine)
        for out in c.outputs:
            for t in range(0, analysis.latest(out) + 1):
                u1, u0 = analysis.guaranteed_pair(out, t)
                assert engine.and_(u1, u0) == engine.const0
