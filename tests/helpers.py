"""Shared test fixtures: reference circuits, oracles, and hypothesis
strategies for random circuits."""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import repro.runtime.cache as cache_module
from repro.network import Circuit, CircuitBuilder, GateType, loads_bench
from repro.runtime import METRICS, execution_policy, set_execution_policy
from repro.sim import EventSimulator, all_input_vectors

C17_BENCH = """
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
"""


def c17() -> Circuit:
    return loads_bench(C17_BENCH, "c17")


@contextmanager
def counted_checks():
    """Yield a dict that, once the block ends, maps every ``*.checks``
    counter of :data:`repro.runtime.METRICS` that grew in the block to
    its growth.  The ``#check`` pins compare it with exact per-counter
    values; an empty dict pins a block that made no checks."""
    before = METRICS.snapshot()["counters"]
    checks = {}
    yield checks
    after = METRICS.snapshot()["counters"]
    checks.update(
        (name, after[name] - before.get(name, 0))
        for name in after
        if name.endswith(".checks") and after[name] != before.get(name, 0)
    )


@contextmanager
def sharding_policy(**policy):
    """Set the process-wide sharded-execution policy (``timeout``,
    ``retries``) for one block, as ``--timeout``/``--retries`` do for a
    CLI run, and restore the previous one after it."""
    saved = execution_policy()
    set_execution_policy(**policy)
    try:
        yield
    finally:
        set_execution_policy(**saved)


def result_cache_off(monkeypatch) -> None:
    """Turn the process-wide result cache off for one test, here and in
    the pool workers forked during it (they build theirs from
    ``REPRO_CACHE``), so a warm ``REPRO_CACHE_DIR`` answers no pinned
    query."""
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setattr(cache_module, "_GLOBAL", None)


def tiny_and_or() -> Circuit:
    """f = (a AND b) OR c with unit delays."""
    b = CircuitBuilder("tiny")
    a, bb, c = b.inputs("a", "b", "c")
    g = b.and_(a, bb, name="g")
    f = b.or_(g, c, name="f")
    b.output(f)
    return b.build()


def exhaustive_transition_delay(circuit: Circuit) -> int:
    """Oracle: max single-stepping pair delay over every vector pair."""
    sim = EventSimulator(circuit)
    vectors = all_input_vectors(circuit)
    return max(
        sim.measure_pair_delay(prev, nxt)
        for prev in vectors
        for nxt in vectors
    )


def exhaustive_floating_delay(circuit: Circuit) -> int:
    """Oracle for the floating delay under the monotone-speedup model:
    the latest time any output can still change over all *integer* delay
    assignments (each gate in [0, d]) and all vector pairs.

    This equals the exact floating delay for circuits whose critical event
    is achievable with integer delays (true for unit-delay circuits); used
    on tiny circuits only.
    """
    from repro.network.transform import apply_speedup

    gates = [
        node.name
        for node in circuit.nodes()
        if node.gate_type != GateType.INPUT
    ]
    ranges = [range(circuit.node(name).delay + 1) for name in gates]
    worst = 0
    vectors = all_input_vectors(circuit)
    for assignment in itertools.product(*ranges):
        sped = apply_speedup(circuit, dict(zip(gates, assignment)))
        sim = EventSimulator(sped)
        for prev in vectors:
            for nxt in vectors:
                worst = max(worst, sim.measure_pair_delay(prev, nxt))
    return worst


def random_circuit(
    seed: int,
    num_inputs: int = 3,
    num_gates: int = 6,
    max_delay: int = 2,
) -> Circuit:
    """Small random circuit for oracle-based property tests.

    A thin delegate to the fuzz corpus generator — the one seeded
    random-circuit implementation shared by the property suites and
    ``trued fuzz`` (see :mod:`repro.fuzz.generate`)."""
    from repro.fuzz.generate import random_gate_circuit

    return random_gate_circuit(
        seed,
        num_inputs=num_inputs,
        num_gates=num_gates,
        max_delay=max_delay,
    )


def assert_same_function(left: Circuit, right: Circuit) -> None:
    """Exhaustive functional equivalence for small circuits."""
    assert set(left.inputs) == set(right.inputs)
    assert left.outputs == right.outputs
    for vec in all_input_vectors(left):
        assert left.evaluate_outputs(vec) == right.evaluate_outputs(vec)
