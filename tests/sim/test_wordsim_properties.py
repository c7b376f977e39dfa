"""Property tests: every bit lane of the word-level kernel equals the
scalar evaluator, and the batched consumers stay byte-identical."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import build_circuit
from repro.core.statistical import uniform_variation
from repro.core.vectors import VectorPair
from repro.network.gates import GateType
from repro.sim import EventSimulator, batch_settle, settle, simulate_words

from tests.helpers import random_circuit

REGISTRY_CIRCUITS = ("fig1", "fig2", "c17", "parity16", "csa8")


def lanes_agree_with_settle(circuit, width, seed):
    rng = random.Random(seed)
    words = {name: rng.getrandbits(width) for name in circuit.inputs}
    result = simulate_words(circuit, words, width=width)
    for lane in range(width):
        vector = {
            name: bool((words[name] >> lane) & 1) for name in circuit.inputs
        }
        expected = settle(circuit, vector)
        for name, word in result.items():
            assert bool((word >> lane) & 1) == expected[name], (
                name,
                lane,
                circuit.name,
            )


class TestLaneScalarEquivalence:
    @pytest.mark.parametrize("name", REGISTRY_CIRCUITS)
    @pytest.mark.parametrize("width", (64, 512))
    def test_registry_circuits(self, name, width):
        lanes_agree_with_settle(build_circuit(name), width, seed=hash(name))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_circuits_one_lane_word(self, seed):
        circuit = random_circuit(seed, num_inputs=4, num_gates=8)
        lanes_agree_with_settle(circuit, 64, seed)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_circuits_eight_lane_word(self, seed):
        circuit = random_circuit(seed, num_inputs=4, num_gates=8)
        lanes_agree_with_settle(circuit, 512, seed)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_batch_settle_cross_checked(self, seed):
        circuit = random_circuit(seed, num_inputs=3, num_gates=6)
        rng = random.Random(seed)
        vectors = [
            {name: bool(rng.getrandbits(1)) for name in circuit.inputs}
            for __ in range(37)
        ]
        assert batch_settle(circuit, vectors) == [
            settle(circuit, v) for v in vectors
        ]


class TestLaneReplay:
    """One event-loop run whose bit lane ``i`` replays pair ``i`` sees the
    latest output event of the worst per-pair replay."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 40))
    def test_worst_pair_delay_is_the_worst_replay(self, seed, count):
        rng = random.Random(seed)
        circuit = random_circuit(
            seed, num_inputs=rng.randint(1, 5), num_gates=rng.randint(1, 12)
        )
        # Annotated delays in 0-3, so zero-delay gates cascade too.
        simulator = EventSimulator(circuit, delays={
            node.name: rng.randint(0, 3)
            for node in circuit.nodes()
            if node.gate_type != GateType.INPUT
        })

        def vector():
            return {name: bool(rng.getrandbits(1)) for name in circuit.inputs}

        pairs = [VectorPair(vector(), vector()) for __ in range(count - 1)]
        still = vector()
        pairs.insert(rng.randint(0, len(pairs)), VectorPair(still, still))
        replays = [
            simulator.measure_pair_delay(pair.v_prev, pair.v_next)
            for pair in pairs
        ]
        assert simulator.worst_pair_delay(pairs) == max(replays)
        assert simulator.worst_pair_delay(pairs[:1]) == replays[0]


class TestMonteCarloByteIdentity:
    """The settled-state hoist must not change a single sample."""

    def scalar_reference_samples(self, circuit, pairs, num_samples, seed):
        """The pre-kernel sampling loop: per-sample scalar settles."""
        from repro.core.statistical import _nominal_delays
        from repro.runtime.parallel import sample_seed

        nominal = _nominal_delays(circuit)
        samples = []
        for index in range(num_samples):
            rng = random.Random(sample_seed(seed, index))
            sample_circuit = circuit.copy()
            for name, nom in nominal.items():
                sample_circuit.set_delay(
                    name, uniform_variation(1)(rng, nom)
                )
            simulator = EventSimulator(sample_circuit)
            samples.append(
                max(
                    simulator.measure_pair_delay(pair.v_prev, pair.v_next)
                    for pair in pairs
                )
            )
        return samples

    @pytest.mark.parametrize("jobs", (1, 4))
    def test_samples_match_scalar_reference(self, jobs):
        from repro.core import certify, monte_carlo_delay

        circuit = build_circuit("c17")
        report = certify(circuit)
        pairs = [pair for __, pair in report.pairs.values()]
        reference = self.scalar_reference_samples(
            circuit, pairs, num_samples=24, seed=13
        )
        result = monte_carlo_delay(
            circuit, pairs, num_samples=24, seed=13, jobs=jobs
        )
        assert result.samples == reference
