import itertools

import pytest

from repro.boolfn import BddEngine, SatEngine
from repro.core.analysis import function_kernel, settle_kernel
from repro.network import (
    Circuit,
    GateType,
    controlling_value,
    evaluate_gate,
    is_inverting,
    noncontrolling_value,
)
from repro.sim.wordsim import program_for

BINARY_GATES = [
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
]
#: Every gate type the compiled program holds.
KERNEL_GATES = BINARY_GATES + [
    GateType.NOT, GateType.BUF, GateType.CONST0, GateType.CONST1,
]
ENGINES = [BddEngine, SatEngine]


def arities(gate):
    """The fanin counts the kernel tests build ``gate`` with."""
    if gate in (GateType.CONST0, GateType.CONST1):
        return (0,)
    if gate in (GateType.NOT, GateType.BUF):
        return (1,)
    return (1, 2, 3)


def compiled(gate, arity):
    """``(kind, inverting)`` of a ``gate`` with ``arity`` fanins, read off
    the gate table of a one-gate circuit's compiled program."""
    circuit = Circuit("one-gate")
    fanins = [circuit.add_input(name) for name in "abc"[:arity]]
    circuit.add_gate("g", gate, fanins)
    circuit.set_outputs(["g"])
    program = program_for(circuit)
    kind, inverting, __ = program.gates[program.slots["g"]]
    return kind, inverting


def kernel_cases(gate):
    """A fresh engine, the compiled gate and its fanin variables, per
    engine and fanin count."""
    for engine_cls, arity in itertools.product(ENGINES, arities(gate)):
        engine = engine_cls()
        kind, inverting = compiled(gate, arity)
        fanins = [engine.var(name) for name in "abc"[:arity]]
        yield engine, kind, inverting, fanins


class TestControllingValues:
    def test_and_family(self):
        assert controlling_value(GateType.AND) is False
        assert controlling_value(GateType.NAND) is False
        assert noncontrolling_value(GateType.AND) is True

    def test_or_family(self):
        assert controlling_value(GateType.OR) is True
        assert controlling_value(GateType.NOR) is True
        assert noncontrolling_value(GateType.NOR) is False

    def test_xor_has_none(self):
        assert controlling_value(GateType.XOR) is None
        assert noncontrolling_value(GateType.XNOR) is None

    def test_inverting(self):
        assert is_inverting(GateType.NAND)
        assert is_inverting(GateType.NOT)
        assert not is_inverting(GateType.AND)
        assert not is_inverting(GateType.BUF)


class TestEvaluateGate:
    @pytest.mark.parametrize("gate", BINARY_GATES)
    def test_matches_python_semantics(self, gate):
        reference = {
            GateType.AND: lambda a, b: a and b,
            GateType.NAND: lambda a, b: not (a and b),
            GateType.OR: lambda a, b: a or b,
            GateType.NOR: lambda a, b: not (a or b),
            GateType.XOR: lambda a, b: a != b,
            GateType.XNOR: lambda a, b: a == b,
        }[gate]
        for a, b in itertools.product([False, True], repeat=2):
            assert evaluate_gate(gate, [a, b]) == reference(a, b)

    def test_unary_and_constants(self):
        assert evaluate_gate(GateType.NOT, [False]) is True
        assert evaluate_gate(GateType.BUF, [True]) is True
        assert evaluate_gate(GateType.CONST0, []) is False
        assert evaluate_gate(GateType.CONST1, []) is True

    def test_wide_gates(self):
        assert evaluate_gate(GateType.AND, [True, True, True])
        assert not evaluate_gate(GateType.AND, [True, False, True])
        assert evaluate_gate(GateType.XOR, [True, True, True])
        assert not evaluate_gate(GateType.XOR, [True, True])

    def test_cannot_evaluate_input(self):
        with pytest.raises(ValueError):
            evaluate_gate(GateType.INPUT, [])


class TestGateFunction:
    """The function kernel on every gate type of the compiled program,
    checked against :func:`evaluate_gate` on both engines."""

    @pytest.mark.parametrize("gate", KERNEL_GATES)
    def test_symbolic_matches_concrete(self, gate):
        for engine, kind, inverting, fanins in kernel_cases(gate):
            f = function_kernel(engine, kind, inverting, fanins)
            for values in itertools.product([False, True], repeat=len(fanins)):
                env = dict(zip("abc", values))
                assert engine.evaluate(f, env) == evaluate_gate(
                    gate, values
                ), (engine.name, values)


class TestGateSettle:
    """The settle kernel on every gate type of the compiled program."""

    @pytest.mark.parametrize("gate", KERNEL_GATES)
    def test_settled_inputs_partition(self, gate):
        """With fully settled inputs (S1, S0 = f, ~f) the settle pair is
        exactly (onset, offset) of the gate function."""
        for engine, kind, inverting, fanins in kernel_cases(gate):
            pairs = [(f, engine.not_(f)) for f in fanins]
            s1, s0 = settle_kernel(engine, kind, inverting, pairs)
            for values in itertools.product([False, True], repeat=len(fanins)):
                env = dict(zip("abc", values))
                value = evaluate_gate(gate, values)
                assert engine.evaluate(s1, env) == value, (engine.name, values)
                assert engine.evaluate(s0, env) != value, (engine.name, values)

    @pytest.mark.parametrize("gate", KERNEL_GATES)
    def test_settles_where_every_completion_agrees(self, gate):
        """Each fanin settled to 1, settled to 0 or unsettled: the gate
        has settled to a value exactly when every value of its unsettled
        fanins makes :func:`evaluate_gate` give that value."""
        for engine, kind, inverting, fanins in kernel_cases(gate):
            pair = {
                True: (engine.const1, engine.const0),
                False: (engine.const0, engine.const1),
                None: (engine.const0, engine.const0),
            }
            for states in itertools.product(pair, repeat=len(fanins)):
                s1, s0 = settle_kernel(
                    engine, kind, inverting, [pair[s] for s in states]
                )
                outcomes = {
                    evaluate_gate(gate, values)
                    for values in itertools.product(*[
                        (False, True) if s is None else (s,) for s in states
                    ])
                }
                assert engine.evaluate(s1, {}) == (outcomes == {True}), states
                assert engine.evaluate(s0, {}) == (outcomes == {False}), states

    def test_controlling_input_settles_alone(self):
        """An AND gate with one input settled to 0 is settled to 0 even if
        the other input is fully unsettled."""
        engine = BddEngine()
        a = engine.var("a")
        settled_zero = (engine.const0, engine.not_(a))
        unsettled = (engine.const0, engine.const0)
        s1, s0 = settle_kernel(
            engine, *compiled(GateType.AND, 2), [settled_zero, unsettled]
        )
        assert engine.equiv(s0, engine.not_(a))
        assert s1 == engine.const0

    def test_noncontrolled_needs_all_inputs(self):
        engine = BddEngine()
        a = engine.var("a")
        settled_one = (a, engine.const0)
        unsettled = (engine.const0, engine.const0)
        s1, s0 = settle_kernel(
            engine, *compiled(GateType.AND, 2), [settled_one, unsettled]
        )
        assert s1 == engine.const0
        assert s0 == engine.const0

    def test_xor_needs_all_inputs_even_for_zero(self):
        engine = BddEngine()
        a = engine.var("a")
        settled = (a, engine.not_(a))
        unsettled = (engine.const0, engine.const0)
        s1, s0 = settle_kernel(
            engine, *compiled(GateType.XOR, 2), [settled, unsettled]
        )
        assert s1 == engine.const0 and s0 == engine.const0

    def test_not_swaps(self):
        engine = BddEngine()
        a = engine.var("a")
        s1, s0 = settle_kernel(
            engine, *compiled(GateType.NOT, 1), [(a, engine.not_(a))]
        )
        assert engine.equiv(s1, engine.not_(a))
        assert engine.equiv(s0, a)


class Recorder:
    """An engine that logs the name of every facade call it forwards."""

    def __init__(self, engine):
        self._engine = engine
        self.const0, self.const1 = engine.const0, engine.const1
        self.calls = []

    def __getattr__(self, method):
        forward = getattr(self._engine, method)

        def call(*args):
            self.calls.append(method)
            return forward(*args)

        return call


PARITY_STEP = ["and_", "and_", "or_"] * 2


class TestKernelCalls:
    """The engine calls each kernel makes for a two-fanin gate (a
    constant has none), in order: an AND-kind gate builds its S1 before
    its S0, an OR-kind gate too, and an inverting gate's function ends in
    one ``not_``.  The engine-call golden pins the same order end to end,
    where BDD node numbers and AIG literals depend on it."""

    @pytest.mark.parametrize("gate, settle, function", [
        (GateType.AND, ["and_many", "or_many"], ["and_many"]),
        (GateType.NAND, ["and_many", "or_many"], ["and_many", "not_"]),
        (GateType.OR, ["or_many", "and_many"], ["or_many"]),
        (GateType.NOR, ["or_many", "and_many"], ["or_many", "not_"]),
        (GateType.XOR, PARITY_STEP * 2, ["xor_", "xor_"]),
        (GateType.XNOR, PARITY_STEP * 2, ["xor_", "xor_", "not_"]),
        (GateType.NOT, [], ["not_"]),
        (GateType.BUF, [], []),
        (GateType.CONST0, [], []),
        (GateType.CONST1, [], []),
    ])
    def test_calls_in_order(self, gate, settle, function):
        arity = min(2, max(arities(gate)))
        kind, inverting = compiled(gate, arity)
        engine = BddEngine()
        fanins = [engine.var(name) for name in "ab"[:arity]]
        pairs = [(f, engine.not_(f)) for f in fanins]
        recorder = Recorder(engine)
        settle_kernel(recorder, kind, inverting, pairs)
        assert recorder.calls == settle
        recorder.calls.clear()
        function_kernel(recorder, kind, inverting, fanins)
        assert recorder.calls == function
