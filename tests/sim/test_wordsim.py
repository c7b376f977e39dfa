"""Unit tests for the vectorized Boolean kernel (repro.sim.wordsim)."""

import random
import time

import pytest

import repro.sim
import repro.sim.wordsim as wordsim
from repro.circuits import build_circuit
from repro.core import monte_carlo_delay, uniform_variation
from repro.core.statistical import _nominal_delays
from repro.core.vectors import VectorPair
from repro.network import CircuitBuilder
from repro.runtime.parallel import sample_seed
from repro.sim import (
    EventSimulator,
    batch_settle,
    batch_settle_outputs,
    pack_vectors,
    settle,
    simulate_words,
    unpack_word,
)
from repro.sim.wordsim import program_for

from tests.helpers import c17, counted_checks, random_circuit, tiny_and_or


def random_vectors(circuit, count, seed=11):
    rng = random.Random(seed)
    return [
        {name: bool(rng.getrandbits(1)) for name in circuit.inputs}
        for __ in range(count)
    ]


class TestBackends:
    """Python ints are the one lane representation, at any width: a
    4,096-lane batch matches the scalar evaluator lane by lane."""

    def test_width_beyond_64_lanes(self):
        c = c17()
        vectors = random_vectors(c, 4096)
        assert batch_settle(c, vectors) == [settle(c, v) for v in vectors]


class TestBatchSettle:
    def test_matches_scalar_settle(self):
        c = c17()
        vectors = random_vectors(c, 130)
        assert batch_settle(c, vectors) == [settle(c, v) for v in vectors]

    def test_outputs_only(self):
        c = c17()
        vectors = random_vectors(c, 17)
        batch = batch_settle_outputs(c, vectors)
        for vector, got in zip(vectors, batch):
            assert got == c.evaluate_outputs(vector)
            assert set(got) == set(c.outputs)

    def test_empty_batch(self):
        assert batch_settle(c17(), []) == []

    def test_check_mode_passes_on_agreement(self):
        c = tiny_and_or()
        vectors = random_vectors(c, 9)
        assert batch_settle(c, vectors) == [settle(c, v) for v in vectors]


class TestPackUnpack:
    def test_round_trip(self):
        c = c17()
        vectors = random_vectors(c, 77)
        words = pack_vectors(vectors, c.inputs)
        for name in c.inputs:
            assert unpack_word(words[name], len(vectors)) == [
                v[name] for v in vectors
            ]

    def test_missing_input_in_vector(self):
        c = tiny_and_or()
        vectors = [{"a": True, "b": True, "c": False}, {"a": True}]
        with pytest.raises(ValueError, match=r"vector 1 .* 'b'"):
            pack_vectors(vectors, c.inputs)


class TestErrorContracts:
    """The word path raises the same errors as the scalar path."""

    def test_missing_input_word(self):
        c = tiny_and_or()
        expected = r"missing value for primary input 'b' of circuit 'tiny'"
        with pytest.raises(ValueError, match=expected):
            simulate_words(c, {"a": 1, "c": 0})
        with pytest.raises(ValueError, match=expected):
            c.evaluate({"a": True, "c": False})

    def test_unknown_input_word(self):
        c = tiny_and_or()
        with pytest.raises(
            ValueError, match=r"unknown inputs \['z'\] for circuit 'tiny'"
        ):
            simulate_words(c, {"a": 1, "b": 1, "c": 0, "z": 1})

    def test_zero_fanin_gate_rejected_both_paths(self):
        # Corrupt a gate after construction: both evaluators must reject
        # it with the construction-time arity error, not fold it into a
        # constant.
        expected = r"gate 'g' needs at least one fanin"
        scalar = tiny_and_or()
        scalar.node("g").fanins = ()
        with pytest.raises(ValueError, match=expected) as scalar_err:
            settle(scalar, {"a": True, "b": True, "c": False})
        word = tiny_and_or()
        word.node("g").fanins = ()
        with pytest.raises(ValueError, match=expected) as word_err:
            simulate_words(word, {"a": 1, "b": 1, "c": 0})
        assert str(scalar_err.value) == str(word_err.value)

    def test_unary_arity_validated(self):
        b = CircuitBuilder("u")
        a, bb = b.inputs("a", "b")
        g = b.not_(a, name="g")
        b.output(g)
        c = b.build()
        c.node("g").fanins = ("a", "b")
        with pytest.raises(ValueError, match=r"needs 1 fanin"):
            simulate_words(c, {"a": 1, "b": 0})

    def test_bad_width(self):
        with pytest.raises(ValueError, match="width"):
            simulate_words(c17(), {}, width=0)


class TestKernelCache:
    def test_cache_reuse_and_invalidation(self):
        c = tiny_and_or()
        first = program_for(c)
        assert program_for(c) is first
        c.set_delay("g", 5)  # journalled edit bumps the revision
        second = program_for(c)
        assert second is not first

    def test_rewire_changes_results(self):
        b = CircuitBuilder("rw")
        a, bb = b.inputs("a", "b")
        g = b.and_(a, bb, name="g")
        b.output(g)
        c = b.build()
        before = simulate_words(c, {"a": 0b1100, "b": 0b1010})
        assert before["g"] & 0b1111 == 0b1000
        c.rewire("g", ["a", "a"])
        after = simulate_words(c, {"a": 0b1100, "b": 0b1010})
        assert after["g"] & 0b1111 == 0b1100


class TestMetrics:
    def test_counters_recorded(self):
        from repro.runtime.metrics import metrics_scope

        c = c17()
        with metrics_scope() as metrics:
            batch_settle(c, random_vectors(c, 96))
        assert metrics.counter("wordsim.batches") == 1
        assert metrics.counter("wordsim.lanes") == 96
        assert metrics.counter("wordsim.gate_ops") == 6


class TestPublicSurface:
    """Regression: the kernel entry points stay exported (the historical
    simulate_words was exported but orphaned once before)."""

    def test_all_names_importable(self):
        for name in repro.sim.__all__:
            assert getattr(repro.sim, name) is not None, name

    def test_simulate_words_is_the_kernel(self):
        assert repro.sim.simulate_words is wordsim.simulate_words

    def test_kernel_names_exported(self):
        for name in (
            "batch_settle",
            "batch_settle_outputs",
            "pack_vectors",
            "unpack_word",
            "simulate_words",
        ):
            assert name in repro.sim.__all__


class TestRandomCircuits:
    def test_batch_settle_on_random_circuits(self):
        for seed in range(8):
            c = random_circuit(seed, num_inputs=4, num_gates=8)
            vectors = random_vectors(c, 70, seed=seed)
            assert batch_settle(c, vectors) == [settle(c, v) for v in vectors]


def random_pairs(circuit, count, seed=577):
    vectors = random_vectors(circuit, 2 * count, seed=seed)
    return [
        VectorPair(vectors[2 * i], vectors[2 * i + 1]) for i in range(count)
    ]


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


class TestBatchThroughput:
    """One kernel pass against the scalar loop it replaces, on circuits
    big enough for the speedup to show: answers are identical, 3x is a
    floor far under the typical speedup, and no block makes a
    satisfiability check (counters only grow, so an empty delta over the
    test pins every block in it at 0)."""

    def test_batch_witness_validation_on_c880(self):
        circuit = build_circuit("c880")
        vectors = random_vectors(circuit, 1024, seed=2718)
        with counted_checks() as checks:
            scalar, scalar_s = timed(
                lambda: [settle(circuit, vector) for vector in vectors]
            )
            batch, batch_s = timed(batch_settle, circuit, vectors)
            outputs, outputs_s = timed(
                batch_settle_outputs, circuit, vectors
            )
        assert checks == {}
        assert batch == scalar
        assert outputs == [
            {name: state[name] for name in circuit.outputs}
            for state in scalar
        ]
        assert batch_s * 3 <= scalar_s
        assert outputs_s * 3 <= scalar_s

    def test_monte_carlo_settle_hoist_on_csa16(self):
        """Each sample replays its pairs as the bit lanes of one event-loop
        run, from one word-kernel settle of their ``v_-1`` states that all
        samples of a ``monte_carlo_delay`` call share; the samples equal
        those of per-pair scalar settles and per-pair replays drawn from
        the same sub-streams, sample for sample."""
        circuit = build_circuit("csa16")
        pairs = random_pairs(circuit, 64)
        num_samples = 8
        model = uniform_variation(1)
        nominal = _nominal_delays(circuit)

        def per_pair_samples():
            samples = []
            for index in range(num_samples):
                rng = random.Random(sample_seed(13, index))
                simulator = EventSimulator(circuit, delays={
                    name: model(rng, delay) for name, delay in nominal.items()
                })
                samples.append(max(
                    simulator.measure_pair_delay(pair.v_prev, pair.v_next)
                    for pair in pairs
                ))
            return samples

        def lane_samples():
            return monte_carlo_delay(
                circuit, pairs, num_samples=num_samples, delay_model=model,
                seed=13,
            ).samples

        with counted_checks() as checks:
            reference, per_pair_s = timed(per_pair_samples)
            samples, lanes_s = timed(lane_samples)
        assert checks == {}
        assert samples == reference
        assert lanes_s * 3 <= per_pair_s
