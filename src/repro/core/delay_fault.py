"""Path-delay-fault test generation.

The paper's conclusion: "we see the immediate practical applications of
this work in certified timing verification and *delay fault testing*."
This module is that application: the same doubled-variable-space machinery
generates two-pattern tests for path delay faults.

A **path delay fault** asserts that the propagation along one structural
path exceeds the clock period.  A two-pattern test ``(v1, v2)`` detects it
when a transition launched at the path input propagates along the path to
the output.  Following the classic classification:

* a **non-robust** test requires every side input of the path to carry its
  noncontrolling value under ``v2`` (the test may be invalidated by delays
  elsewhere);
* a **robust** test (the *hazard-free robust* class, i.e. single-path
  sensitization) requires the side inputs to hold *steady* noncontrolling
  values — the same noncontrolling value under ``v1`` and ``v2`` — at
  every on-path gate, so each gate output transitions exactly when the
  on-path event arrives and no delay assignment elsewhere can mask the
  fault.  This is precisely the paper's Sec. II notion of an event
  *propagating along the path*;
* with ``strong=True`` the steadiness requirement is tightened to "every
  primary input in the side cone is unchanged", which also excludes
  hazards on the side inputs (a glitch-free guarantee under our
  zero-width-glitch simulator semantics), making fault-injection
  validation exact.

Tests are found by one satisfiability query over the constraint
conjunction, so the generator inherits both engines and the FSM pair
restrictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

from ..network.circuit import Circuit
from ..network.gates import GateType, controlling_value
from ..network.paths import k_longest_paths, path_length
from ..runtime.parallel import shard_map
from .analysis import ConstraintBuilder
from .transition import TransitionAnalysis
from .vectors import VectorPair, cur_var, prev_var


class TestStrength(str, Enum):
    __test__ = False  # not a pytest test class despite the name

    ROBUST = "robust"
    NON_ROBUST = "non-robust"


@dataclass
class PathFault:
    """A path delay fault: the path plus the launched transition."""

    path: List[str]            # node names, primary input first
    rising: bool               # direction of the transition at the path input

    def __str__(self) -> str:
        arrow = "rise" if self.rising else "fall"
        return f"{'->'.join(self.path)} ({arrow})"


@dataclass
class PathFaultTest:
    """A generated two-pattern test."""

    fault: PathFault
    strength: TestStrength
    pair: VectorPair
    path_length: int


class PathFaultGenerator:
    """Generates two-pattern tests over a circuit's paths."""

    def __init__(
        self,
        circuit: Circuit,
        engine=None,
        engine_name: str = "auto",
        constraint: Optional[ConstraintBuilder] = None,
    ):
        circuit.validate()
        self.circuit = circuit
        self.analysis = TransitionAnalysis(circuit, engine, engine_name)
        self.engine = self.analysis.engine
        self._engine_name = engine_name
        # Sharding rebuilds the generator in worker processes, which is
        # only transparent when the engine is generator-owned and the care
        # set is unrestricted (constraints are unpicklable closures).
        self._shardable = engine is None and constraint is None
        self._care = self.analysis.care_set(constraint)

    def __reduce__(self):
        """Pickle as a recipe: a pool worker rebuilds a fresh generator
        from the circuit and engine name, which only a shardable
        generator carries in full."""
        if not self._shardable:
            raise TypeError(
                "a generator with its own engine or a constraint cannot "
                "cross a process boundary"
            )
        return PathFaultGenerator, (self.circuit, None, self._engine_name)

    # ------------------------------------------------------------------
    def test_constraint(
        self, fault: PathFault, strength: TestStrength, strong: bool = False
    ) -> int:
        """Function handle: vector pairs that test the fault."""
        engine = self.engine
        analysis = self.analysis
        circuit = self.circuit
        path = fault.path
        if path[0] not in circuit.inputs:
            raise ValueError("path must start at a primary input")
        launch_var_prev = engine.var(prev_var(path[0]))
        launch_var_cur = engine.var(cur_var(path[0]))
        if fault.rising:
            constraint = engine.and_(
                engine.not_(launch_var_prev), launch_var_cur
            )
        else:
            constraint = engine.and_(
                launch_var_prev, engine.not_(launch_var_cur)
            )

        for index in range(1, len(path)):
            gate_name = path[index]
            node = circuit.node(gate_name)
            if node.gate_type == GateType.INPUT:
                raise ValueError("path may contain only one primary input")
            on_input = path[index - 1]
            if on_input not in node.fanins:
                raise ValueError(f"{on_input!r} does not feed {gate_name!r}")
            side_inputs = [f for f in node.fanins if f != on_input]
            control = controlling_value(node.gate_type)
            if control is None and node.gate_type in (
                GateType.XOR,
                GateType.XNOR,
            ):
                # XOR family: the transition always propagates; a robust
                # test needs steady side inputs (of either value).
                if strength == TestStrength.ROBUST:
                    for side in side_inputs:
                        init = analysis.initial_function(side)
                        final = analysis.final_function(side)
                        constraint = engine.and_(
                            constraint,
                            engine.not_(engine.xor_(init, final)),
                        )
                continue
            if control is None:
                continue  # BUF/NOT: nothing to constrain
            noncontrolling = not control
            for side in side_inputs:
                final = analysis.final_function(side)
                want_final = final if noncontrolling else engine.not_(final)
                constraint = engine.and_(constraint, want_final)
                if strength == TestStrength.ROBUST:
                    init = analysis.initial_function(side)
                    want_init = init if noncontrolling else engine.not_(init)
                    constraint = engine.and_(constraint, want_init)
                    if strong:
                        for pi in circuit.transitive_fanin([side]):
                            if circuit.node(pi).gate_type != GateType.INPUT:
                                continue
                            if pi == path[0]:
                                continue
                            constraint = engine.and_(
                                constraint,
                                engine.not_(
                                    engine.xor_(
                                        engine.var(prev_var(pi)),
                                        engine.var(cur_var(pi)),
                                    )
                                ),
                            )
        return engine.and_(constraint, self._care)

    def generate(
        self,
        fault: PathFault,
        strength: TestStrength = TestStrength.ROBUST,
        strong: bool = False,
    ) -> Optional[PathFaultTest]:
        """A two-pattern test for the fault, or None if untestable at the
        requested strength."""
        constraint = self.test_constraint(fault, strength, strong)
        model = self.engine.sat_one(constraint)
        if model is None:
            return None
        pair = VectorPair.from_model(model, self.circuit.inputs)
        return PathFaultTest(
            fault=fault,
            strength=strength,
            pair=pair,
            path_length=path_length(self.circuit, fault.path),
        )

    def generate_for_longest_paths(
        self,
        count: int,
        strength: TestStrength = TestStrength.ROBUST,
        strong: bool = False,
        directions: Sequence[bool] = (True, False),
        jobs: int = 1,
    ) -> "FaultCoverage":
        """Tests for both transition directions of the ``count`` longest
        paths — the practical 'test the critical paths' flow.

        Each (path, direction) query is independent: they run as the
        ``faults`` fan-out of :mod:`repro.runtime.parallel`, in this
        generator or — with ``jobs != 1`` (``0`` = all cores) and a
        shardable generator — across worker processes, merged by task
        index into the same coverage."""
        tasks = [
            (tuple(path), rising, strength.value, strong)
            for __, path in k_longest_paths(self.circuit, count)
            for rising in directions
        ]
        outcomes = shard_map(
            "faults", self, tasks, jobs if self._shardable else 1
        )
        tests: List[PathFaultTest] = []
        untestable: List[PathFault] = []
        for fault, test in outcomes:
            if test is None:
                untestable.append(fault)
            else:
                tests.append(test)
        return FaultCoverage(tests, untestable)


@dataclass
class FaultCoverage:
    """Result of a multi-path generation run."""

    tests: List[PathFaultTest]
    untestable: List[PathFault]

    @property
    def total(self) -> int:
        return len(self.tests) + len(self.untestable)

    @property
    def coverage(self) -> float:
        if self.total == 0:
            return 1.0
        return len(self.tests) / self.total


def validate_tests_by_fault_injection(
    circuit: Circuit,
    tests: Sequence[PathFaultTest],
    extra_delay: int = 3,
) -> List[bool]:
    """Check robust tests dynamically.

    A test passes when slowing any single on-path gate by ``extra_delay``
    delays the last event at the path output by exactly that amount (the
    transition really rides the path).  Each test's ``v_-1`` state is
    settled once and shared by the baseline replay *and* every slowed
    replay — settled values do not depend on delays, so a delay-only
    re-annotation shares the state.  A slowed replay is a ``delays=``
    annotation of the simulator: ``circuit`` is never copied or edited.
    """
    from ..sim.event_sim import EventSimulator
    from ..sim.logic_sim import settle

    baseline_sim = EventSimulator(circuit)
    results: List[bool] = []
    for test in tests:
        initial = settle(circuit, test.pair.v_prev)
        baseline = baseline_sim.simulate_transition(
            test.pair.v_prev, test.pair.v_next, initial=initial
        )
        output = test.fault.path[-1]
        base_time = baseline.waveforms[output].last_event_time
        if base_time is None:
            results.append(False)
            continue
        valid = True
        for name in test.fault.path[1:]:
            slowed = EventSimulator(
                circuit, delays={name: circuit.node(name).delay + extra_delay}
            )
            result = slowed.simulate_transition(
                test.pair.v_prev, test.pair.v_next, initial=initial
            )
            slowed_time = result.waveforms[output].last_event_time
            if slowed_time != base_time + extra_delay:
                valid = False
                break
        results.append(valid)
    return results


def validate_test_by_fault_injection(
    circuit: Circuit,
    test: PathFaultTest,
    extra_delay: int = 3,
) -> bool:
    """Single-test shorthand for :func:`validate_tests_by_fault_injection`."""
    return validate_tests_by_fault_injection(circuit, [test], extra_delay)[0]
