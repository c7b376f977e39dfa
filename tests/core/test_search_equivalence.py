"""Property tests for the runtime refactor's equivalence claims:

* every ``search`` strategy (linear / binary / ascending) computes the
  same floating delay,
* floating delay moves by at most the summed delay increases (and
  decreases) of a delay-only edit batch, and a search seeded with that
  bound returns the unseeded certificate,
* cached recomputation returns the same certificate as a cold run,
* ``jobs=1`` and ``jobs=4`` certification-pair collection agree pair for
  pair (exercised symbolically at the shard level; the process-pool path
  itself is covered by ``tests/runtime/test_parallel.py``).
"""

from hypothesis import given, settings, strategies as st

from repro.boolfn import BddEngine
from repro.circuits.generators import random_logic
from repro.core import (
    TransitionAnalysis,
    collect_certification_pairs,
    compute_floating_delay,
    compute_transition_delay,
    pairs_for_outputs,
)
from repro.fuzz.generate import random_gate_circuit
from repro.runtime import DelayCache

from tests.helpers import exhaustive_floating_delay, random_circuit

SEEDS = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS)
def test_search_strategies_agree_on_the_floating_delay(seed):
    circuit = random_circuit(seed, num_inputs=3, num_gates=6)
    delays = {
        search: compute_floating_delay(
            circuit, engine=BddEngine(), search=search
        ).delay
        for search in ("linear", "binary", "ascending")
    }
    assert len(set(delays.values())) == 1, delays
    # The integer-speedup oracle is a lower bound on the floating delay
    # (same convention as tests/test_properties.py).
    assert exhaustive_floating_delay(circuit) <= delays["linear"]


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    logic=st.booleans(),
    engine_name=st.sampled_from(("bdd", "sat")),
    edits=st.lists(
        st.tuples(st.integers(0, 10_000), st.integers(-2, 3)),
        min_size=1, max_size=3,
    ),
)
def test_delay_edits_move_the_floating_delay_within_their_bound(
    seed, logic, engine_name, edits
):
    """Floating delay is monotone in gate delays: a delay-only edit batch
    raises it by at most the summed increases and lowers it by at most
    the summed decreases, so ``F_old`` plus the increases is an upper
    bound the search can start from (the incremental engine's seeded
    floating search) without changing the certificate."""
    if logic:
        circuit = random_logic(
            num_inputs=4, num_outputs=3, num_gates=10, seed=seed
        )
    else:
        circuit = random_gate_circuit(
            seed, num_inputs=4, num_gates=8, max_delay=3, num_outputs=3
        )
    no_cache = DelayCache(enabled=False)
    old = compute_floating_delay(
        circuit, engine_name=engine_name, cache=no_cache
    ).delay
    gates = circuit.gate_names()
    before = {gate: circuit.node(gate).delay for gate in gates}
    for pick, step in edits:
        gate = gates[pick % len(gates)]
        circuit.set_delay(gate, max(0, circuit.node(gate).delay + step))
    raised = sum(max(0, circuit.node(g).delay - before[g]) for g in gates)
    lowered = sum(max(0, before[g] - circuit.node(g).delay) for g in gates)

    cold = compute_floating_delay(
        circuit, engine_name=engine_name, cache=no_cache
    )
    assert old - lowered <= cold.delay <= old + raised
    seeded = compute_floating_delay(
        circuit, engine_name=engine_name, cache=no_cache,
        upper=min(old + raised, circuit.topological_delay()),
    )
    assert (seeded.delay, seeded.output, seeded.value, seeded.witness) == (
        cold.delay, cold.output, cold.value, cold.witness
    )
    assert seeded.checks <= cold.checks


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS)
def test_cached_recomputation_is_identical(seed):
    circuit = random_circuit(seed, num_inputs=3, num_gates=6)
    reference = compute_floating_delay(circuit)
    cache = DelayCache()
    cold = compute_floating_delay(circuit, cache=cache)
    warm = compute_floating_delay(circuit, cache=cache)
    for cert in (cold, warm):
        assert cert.delay == reference.delay
        assert cert.witness == reference.witness
        assert cert.checks == reference.checks


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS)
def test_cached_transition_delay_is_identical(seed):
    circuit = random_circuit(seed, num_inputs=3, num_gates=6)
    reference = compute_transition_delay(circuit)
    cache = DelayCache()
    cold = compute_transition_delay(circuit, cache=cache)
    warm = compute_transition_delay(circuit, cache=cache)
    for cert in (cold, warm):
        assert cert.delay == reference.delay
        assert cert.output == reference.output
        if reference.pair is not None:
            assert cert.pair.v_prev == reference.pair.v_prev
            assert cert.pair.v_next == reference.pair.v_next


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS)
def test_chunked_pair_queries_match_the_serial_collection(seed):
    """The sharded path splits the outputs across fresh analyses; with the
    canonical variable order each chunk must reproduce exactly the serial
    per-output (time, pair) results."""
    circuit = random_circuit(seed, num_inputs=3, num_gates=6)
    serial = collect_certification_pairs(circuit)
    merged = {}
    for chunk in (circuit.outputs[0::2], circuit.outputs[1::2]):
        if not chunk:
            continue
        analysis = TransitionAnalysis(circuit)
        merged.update(
            pairs_for_outputs(analysis, analysis.engine.const1, chunk)
        )
    assert merged.keys() == serial.keys()
    for out in serial:
        t_serial, pair_serial = serial[out]
        t_merged, pair_merged = merged[out]
        assert t_serial == t_merged
        assert pair_serial.v_prev == pair_merged.v_prev
        assert pair_serial.v_next == pair_merged.v_next
