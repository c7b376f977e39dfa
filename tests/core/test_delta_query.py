"""The Sec. V-D query form: "is the delay >= delta?"."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolfn import BddEngine
from repro.boolfn.interface import SatEngine
from repro.core import (
    compute_transition_delay,
    query_delay_at_least,
)
from repro.sim import EventSimulator
from repro.circuits import build_circuit, carry_skip_adder, fig2_circuit

from tests.helpers import c17, random_circuit

ENGINES = {"bdd": BddEngine, "sat": SatEngine}


def assert_query_matches_search(circuit, engine_cls):
    """For 1 <= delta <= t.d. the query answers with exactly the pair the
    top-down transition-delay search certifies; above t.d. it answers
    None."""
    cert = compute_transition_delay(circuit, engine=engine_cls())
    for delta in range(1, cert.delay + 2):
        pair = query_delay_at_least(circuit, delta, engine=engine_cls())
        if delta <= cert.delay:
            assert pair == cert.pair, delta
        else:
            assert pair is None


class TestQuery:
    def test_positive_at_true_delay(self):
        circuit = c17()
        pair = query_delay_at_least(circuit, 3, engine=BddEngine())
        assert pair is not None
        sim = EventSimulator(circuit)
        assert sim.measure_pair_delay(pair.v_prev, pair.v_next) >= 3

    def test_negative_above_true_delay(self):
        circuit = c17()
        assert query_delay_at_least(circuit, 4, engine=BddEngine()) is None

    def test_threshold_consistent_with_computed_delay(self):
        for seed in range(8):
            circuit = random_circuit(seed + 700, num_inputs=3, num_gates=6)
            cert = compute_transition_delay(circuit, engine=BddEngine())
            if cert.delay >= 1:
                assert query_delay_at_least(
                    circuit, cert.delay, engine=BddEngine()
                ) is not None
            assert query_delay_at_least(
                circuit, cert.delay + 1, engine=BddEngine()
            ) is None

    def test_fig2_any_threshold_negative(self):
        circuit = fig2_circuit()
        for delta in (1, 3, 5):
            assert query_delay_at_least(
                circuit, delta, engine=BddEngine()
            ) is None

    def test_false_path_threshold_negative(self):
        circuit = carry_skip_adder(8, 4)
        omega = circuit.topological_delay()
        # No pair reaches the false graphical delay...
        assert query_delay_at_least(
            circuit, omega, engine=BddEngine()
        ) is None
        # ...but the true delay is reachable.
        cert = compute_transition_delay(circuit, engine=BddEngine())
        assert query_delay_at_least(
            circuit, cert.delay, engine=BddEngine()
        ) is not None

    def test_rejects_non_positive_delta(self):
        with pytest.raises(ValueError):
            query_delay_at_least(c17(), 0, engine=BddEngine())


class TestQueryJoinsTheSearch:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("name", ["c17", "c499", "fig1", "fig5"])
    def test_registry_circuits(self, name, engine):
        assert_query_matches_search(build_circuit(name), ENGINES[engine])

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_circuits(self, engine, seed):
        circuit = random_circuit(seed, num_inputs=4, num_gates=8)
        assert_query_matches_search(circuit, ENGINES[engine])
