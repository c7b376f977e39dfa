"""Cross-validation of two independent bounded-delay implementations.

``repro.core.bounded`` builds *symbolic* guaranteed-value functions over
the doubled vector-pair space; ``repro.sim.ternary`` computes the same
guarantees *concretely* for one pair.  Both implement the identical
interval semantics, so evaluating the symbolic functions on a concrete
pair must reproduce the ternary grid exactly, and the symbolic bounded
delay must be the largest per-pair ternary delay over every vector pair.

The circuits put about a quarter of their gates at delay 0, and the
bounds cover both of ``BoundedAnalysis``'s recurrences: the
monotone-speedup one (every ``d_l`` 0, no clocked input: the default,
``[0, d]`` and random ``[0, d_u]``) and the window AND (fixed delays,
or ranges with some ``d_l > 0``)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolfn import BddEngine
from repro.core import (
    BoundedAnalysis,
    compute_bounded_transition_delay,
    fixed_delay_bounds,
    monotone_speedup_bounds,
)
from repro.core.vectors import VectorPair
from repro.runtime.cache import DelayCache
from repro.sim import (
    ONE,
    X,
    ZERO,
    bounded_transition_analysis,
    monotone_bounds,
    pair_bounded_delay,
)
from repro.sim.logic_sim import all_input_vectors

from tests.helpers import random_circuit

SEEDS = st.integers(min_value=0, max_value=5_000)

NO_CACHE = DelayCache(enabled=False)

#: 20 circuits x 5 bound kinds x 2 engines = 200 oracle cases (the
#: ternary side, 64 or 256 pairs per circuit, takes most of the time).
ORACLE_SEEDS = range(20)
BOUND_KINDS = (
    "default", "monotone-speedup", "speedup-ranged", "fixed-delay", "ranged",
)


def with_zero_delays(circuit, seed: int):
    """Set about a quarter of the circuit's gates to delay 0."""
    rng = random.Random(seed)
    for name in circuit.gate_names():
        if rng.random() < 0.25:
            circuit.set_delay(name, 0)
    return circuit


def ranged_bounds(circuit, seed: int, speedup: bool = False):
    """Random ``[d_l, d_u]`` per gate: with ``speedup``, every ``d_l`` is
    0; without, ``d_l > 0`` on at least one gate."""
    rng = random.Random(seed)
    table = {}
    for name in circuit.gate_names():
        hi = rng.randint(0, 3)
        table[name] = (0 if speedup else rng.randint(0, hi), hi)
    if not speedup and not any(lo for lo, __ in table.values()):
        first = circuit.gate_names()[0]
        table[first] = (1, max(1, table[first][1]))
    return lambda name: table[name]


def oracle_bounds(kind: str, circuit, seed: int):
    if kind == "default":
        return None
    if kind == "monotone-speedup":
        return monotone_speedup_bounds(circuit)
    if kind == "fixed-delay":
        return fixed_delay_bounds(circuit)
    return ranged_bounds(circuit, seed, speedup=kind == "speedup-ranged")


def ternary_value(engine, pair_functions, env) -> int:
    u1, u0 = pair_functions
    if engine.evaluate(u1, env):
        return ONE
    return ZERO if engine.evaluate(u0, env) else X


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, pair_index=st.integers(0, 63))
def test_symbolic_guarantees_match_ternary_grid(seed, pair_index):
    circuit = with_zero_delays(
        random_circuit(seed, num_inputs=3, num_gates=5, max_delay=2), seed
    )
    vectors = all_input_vectors(circuit)
    v_prev = vectors[pair_index % len(vectors)]
    v_next = vectors[(pair_index // len(vectors)) % len(vectors)]
    pair = VectorPair(dict(v_prev), dict(v_next))
    env = pair.to_model()

    engine = BddEngine()
    analysis = BoundedAnalysis(
        circuit, bounds=monotone_speedup_bounds(circuit), engine=engine
    )
    grid = bounded_transition_analysis(
        circuit, v_prev, v_next, monotone_bounds(circuit)
    )
    horizon = max(analysis.latest(o) for o in circuit.outputs)
    for name in circuit.topological_order():
        if circuit.node(name).gate_type.value == "INPUT":
            continue
        values = grid[name]
        for t in range(0, horizon + 1):
            sym = ternary_value(engine, analysis.guaranteed_pair(name, t), env)
            concrete = values[min(t, len(values) - 1)]
            assert sym == concrete, (name, t, sym, concrete)
            if t == 0:
                continue
            # Possibly transitioning at t: X on either side of the
            # t-1 | t boundary, or a change across it.
            before = values[min(t - 1, len(values) - 1)]
            moving = X in (before, concrete) or before != concrete
            possible = analysis.possibly_transitioning(name, t)
            assert engine.evaluate(possible, env) == moving, (name, t)


@pytest.mark.parametrize("kind", BOUND_KINDS)
def test_bounded_delay_matches_exhaustive_ternary(kind):
    """The bounded delay is the largest per-pair ternary delay over all
    vector pairs, and its witness pair attains it, on both engines."""
    for seed in ORACLE_SEEDS:
        circuit = with_zero_delays(
            random_circuit(
                seed, num_inputs=3 + seed % 2, num_gates=8, max_delay=2
            ),
            seed,
        )
        bounds = oracle_bounds(kind, circuit, seed)
        vectors = all_input_vectors(circuit)
        want = max(
            pair_bounded_delay(circuit, v_prev, v_next, bounds)
            for v_prev in vectors
            for v_next in vectors
        )
        for engine in ("bdd", "sat"):
            cert = compute_bounded_transition_delay(
                circuit, bounds, engine_name=engine, cache=NO_CACHE
            )
            case = (kind, seed, engine)
            assert cert.delay == want, case
            if want:
                got = pair_bounded_delay(
                    circuit, cert.pair.v_prev, cert.pair.v_next, bounds
                )
                assert got == want, case
