import pytest

from repro.boolfn import BddEngine
from repro.core import (
    PathFault,
    PathFaultGenerator,
    TestStrength,
    validate_test_by_fault_injection,
    validate_tests_by_fault_injection,
)
from repro.network import CircuitBuilder
from repro.sim import EventSimulator
from repro.circuits import carry_skip_adder, fig2_circuit, parity_tree

from tests.helpers import c17


def and_or_chain():
    """p = AND(a, b); q = OR(p, c) — one clean testable path a->p->q."""
    b = CircuitBuilder("chain")
    a, bb, c = b.inputs("a", "b", "c")
    p = b.and_(a, bb, name="p")
    q = b.or_(p, c, name="q")
    b.output(q)
    return b.build()


class TestSinglePath:
    def test_robust_test_found(self):
        circuit = and_or_chain()
        gen = PathFaultGenerator(circuit, engine=BddEngine())
        test = gen.generate(PathFault(["a", "p", "q"], rising=True))
        assert test is not None
        # Side conditions: b noncontrolling (1) in both vectors (the
        # on-path input rises to noncontrolling at the AND); c final 0.
        assert test.pair.v_prev["b"] and test.pair.v_next["b"]
        assert not test.pair.v_next["c"]
        assert not test.pair.v_prev["a"] and test.pair.v_next["a"]

    def test_falling_direction(self):
        circuit = and_or_chain()
        gen = PathFaultGenerator(circuit, engine=BddEngine())
        test = gen.generate(PathFault(["a", "p", "q"], rising=False))
        assert test is not None
        assert test.pair.v_prev["a"] and not test.pair.v_next["a"]

    def test_transition_rides_the_path(self):
        circuit = and_or_chain()
        gen = PathFaultGenerator(circuit, engine=BddEngine())
        test = gen.generate(
            PathFault(["a", "p", "q"], rising=True), strong=True
        )
        sim = EventSimulator(circuit)
        result = sim.simulate_transition(test.pair.v_prev, test.pair.v_next)
        assert result.waveforms["q"].last_event_time == 2

    def test_fault_injection_validation(self):
        circuit = and_or_chain()
        gen = PathFaultGenerator(circuit, engine=BddEngine())
        test = gen.generate(
            PathFault(["a", "p", "q"], rising=True), strong=True
        )
        assert validate_test_by_fault_injection(circuit, test)

    def test_untestable_robust_path(self):
        # g = AND(a, NOT a): the side input can never hold steady
        # noncontrolling while a rises.
        b = CircuitBuilder("u")
        a, = b.inputs("a")
        na = b.not_(a, name="na")
        g = b.and_(a, na, name="g")
        b.output(g)
        circuit = b.build()
        gen = PathFaultGenerator(circuit, engine=BddEngine())
        assert gen.generate(PathFault(["a", "g"], rising=True)) is None

    def test_fig2_critical_path_untestable(self):
        # The statically sensitizable path {a,...,d,e} of Fig. 2 admits no
        # robust (nor non-robust-with-steady) launch: b = NOT(x3) always
        # moves against the on-path transition.
        circuit = fig2_circuit()
        gen = PathFaultGenerator(circuit, engine=BddEngine())
        fault = PathFault(["a", "x1", "x2", "x3", "d", "e"], rising=True)
        assert gen.generate(fault, TestStrength.ROBUST) is None

    def test_path_validation_errors(self):
        circuit = and_or_chain()
        gen = PathFaultGenerator(circuit, engine=BddEngine())
        with pytest.raises(ValueError):
            gen.generate(PathFault(["p", "q"], rising=True))
        with pytest.raises(ValueError):
            gen.generate(PathFault(["a", "q"], rising=True))


class TestXorPaths:
    def test_parity_tree_paths_all_testable(self):
        circuit = parity_tree(4)
        gen = PathFaultGenerator(circuit, engine=BddEngine())
        coverage = gen.generate_for_longest_paths(4, strong=True)
        assert coverage.coverage == 1.0
        for test in coverage.tests:
            assert validate_test_by_fault_injection(circuit, test)

    def test_xor_robust_requires_steady_sides(self):
        b = CircuitBuilder("x")
        a, c = b.inputs("a", "c")
        g = b.xor_(a, c, name="g")
        b.output(g)
        circuit = b.build()
        gen = PathFaultGenerator(circuit, engine=BddEngine())
        test = gen.generate(PathFault(["a", "g"], rising=True))
        assert test is not None
        assert test.pair.v_prev["c"] == test.pair.v_next["c"]


class TestBatchValidation:
    def test_batch_matches_per_test(self):
        circuit = c17()
        gen = PathFaultGenerator(circuit, engine=BddEngine())
        coverage = gen.generate_for_longest_paths(4, strong=True)
        assert coverage.tests
        batch = validate_tests_by_fault_injection(circuit, coverage.tests)
        assert batch == [
            validate_test_by_fault_injection(circuit, test)
            for test in coverage.tests
        ]

    def test_empty_batch(self):
        assert validate_tests_by_fault_injection(c17(), []) == []

    def test_all_strong_tests_validate(self):
        circuit = parity_tree(4)
        gen = PathFaultGenerator(circuit, engine=BddEngine())
        coverage = gen.generate_for_longest_paths(4, strong=True)
        assert validate_tests_by_fault_injection(circuit, coverage.tests) == [
            True
        ] * len(coverage.tests)

    def test_validation_leaves_the_circuit_untouched(self):
        """Slowed replays are delay annotations of the simulator: the
        caller's circuit gains no journal entry, revision or delay."""
        circuit = c17()
        gen = PathFaultGenerator(circuit, engine=BddEngine())
        coverage = gen.generate_for_longest_paths(5)
        delays = {node.name: node.delay for node in circuit.nodes()}
        revision = circuit.revision
        validate_tests_by_fault_injection(circuit, coverage.tests)
        assert circuit.journal() == ()
        assert circuit.revision == revision
        assert {node.name: node.delay for node in circuit.nodes()} == delays


class TestCoverageRuns:
    def test_c17_longest_paths(self):
        circuit = c17()
        gen = PathFaultGenerator(circuit, engine=BddEngine())
        coverage = gen.generate_for_longest_paths(5)
        assert coverage.total == 10
        assert 0.0 <= coverage.coverage <= 1.0
        assert coverage.tests, "c17 critical paths must be testable"
        for test in coverage.tests:
            # Non-robust sanity on every returned pair: replaying it makes
            # the path output move.
            sim = EventSimulator(circuit)
            result = sim.simulate_transition(
                test.pair.v_prev, test.pair.v_next
            )
            assert not result.waveforms[test.fault.path[-1]].is_stable()

    def test_skip_adder_false_paths_untestable(self):
        # The full ripple chain of a carry-skip adder is false; its robust
        # (and non-robust) tests must not exist.
        circuit = carry_skip_adder(8, 4)
        gen = PathFaultGenerator(circuit, engine=BddEngine())
        from repro.network import k_longest_paths

        (length, path), = k_longest_paths(circuit, 1)
        assert length == circuit.topological_delay()
        fault = PathFault(list(path), rising=True)
        assert gen.generate(fault, TestStrength.NON_ROBUST) is None

    def test_non_robust_superset_of_robust(self):
        circuit = c17()
        gen = PathFaultGenerator(circuit, engine=BddEngine())
        from repro.network import k_longest_paths

        for __, path in k_longest_paths(circuit, 6):
            for rising in (True, False):
                fault = PathFault(list(path), rising)
                robust = gen.generate(fault, TestStrength.ROBUST)
                non_robust = gen.generate(fault, TestStrength.NON_ROBUST)
                if robust is not None:
                    assert non_robust is not None
