"""Corpus generator: determinism, profile targets, size classes."""

import pytest

from repro.fuzz.generate import (
    DagProfile,
    GenerationError,
    corpus_profiles,
    random_dag,
    random_gate_circuit,
)
from repro.network.gates import GateType
from repro.runtime.fingerprint import circuit_fingerprint

from tests.helpers import counted_checks


def structural_depth(circuit):
    depth = {}
    for name in circuit.topological_order():
        node = circuit.node(name)
        fanin_depth = max((depth[f] for f in node.fanins), default=-1)
        depth[name] = 0 if node.gate_type == GateType.INPUT else (
            fanin_depth + 1
        )
    return max(depth.values(), default=0)


class TestRandomDag:
    def test_deterministic_in_profile(self):
        profile = DagProfile(seed=11, num_gates=40)
        assert circuit_fingerprint(random_dag(profile)) == (
            circuit_fingerprint(random_dag(profile))
        )

    def test_different_seeds_differ(self):
        a = random_dag(DagProfile(seed=1))
        b = random_dag(DagProfile(seed=2))
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_meets_structural_targets(self):
        profile = DagProfile(
            seed=5, num_inputs=8, num_gates=60, num_outputs=4,
            min_depth=6, max_fanout=10, max_delay=3,
        )
        circuit = random_dag(profile)
        circuit.validate()
        assert circuit.num_gates == 60
        assert len(circuit.inputs) == 8
        assert structural_depth(circuit) >= 6
        fanouts = circuit.fanouts()
        assert max(len(v) for v in fanouts.values()) <= 10
        assert all(
            1 <= n.delay <= 3
            for n in circuit.nodes()
            if n.gate_type != GateType.INPUT
        )

    def test_liveness_when_required(self):
        circuit = random_dag(DagProfile(seed=9, require_live=True))
        fanouts = circuit.fanouts()
        assert all(fanouts[name] for name in circuit.inputs)
        live = set(circuit.transitive_fanin(circuit.outputs))
        assert set(circuit.gate_names()) <= live

    def test_impossible_profile_raises(self):
        # A depth floor no 2-gate circuit can reach.
        profile = DagProfile(
            seed=3, num_gates=2, min_depth=10, attempts=3
        )
        with pytest.raises(GenerationError):
            random_dag(profile)

    def test_random_gate_circuit_shape(self):
        circuit = random_gate_circuit(17)
        circuit.validate()
        assert circuit.num_gates == 6
        assert len(circuit.inputs) == 3
        assert circuit.outputs


class TestCorpus:
    def test_size_classes_hit_their_gate_targets(self):
        """Each size class draws valid circuits at their exact gate
        targets, large at 10x medium; none of it makes a satisfiability
        check."""
        gates = {}
        with counted_checks() as checks:
            for size, count in (("small", 8), ("medium", 4), ("large", 1)):
                profiles = corpus_profiles(1, count, size=size)
                circuits = [random_dag(profile) for profile in profiles]
                for profile, circuit in zip(profiles, circuits):
                    circuit.validate()
                    assert circuit.num_gates == profile.num_gates
                gates[size] = sum(c.num_gates for c in circuits)
        assert checks == {}
        assert gates["large"] >= 9 * gates["medium"] / 4

    def test_profiles_deterministic_and_named(self):
        first = corpus_profiles(7, 3)
        second = corpus_profiles(7, 3)
        assert first == second
        assert [p.circuit_name() for p in first] == [
            "fzs7x0", "fzs7x1", "fzs7x2",
        ]

    def test_sizes_known(self):
        with pytest.raises(ValueError, match="large, medium, small"):
            corpus_profiles(1, 1, size="gigantic")
