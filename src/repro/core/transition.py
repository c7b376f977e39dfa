"""Transition-delay computation by symbolic simulation (Sec. V).

All possible input vector *pairs* are simulated at once: the stable value of
every signal in every unit time interval is a Boolean function over the
doubled variable space (``a@-`` for the first vector, ``a@0`` for the
second; Sec. V-C).  Under the fixed-delay model the circuit activity happens
at discrete time points, and

* ``f_t`` (``function_at``) is the value of signal ``f`` throughout interval
  ``[t, t+1)``;
* a transition of ``f`` at time point ``t`` exists for exactly the vector
  pairs satisfying ``e_{f,t} = f_{t-1} XOR f_t`` (``transition_predicate``);
* the circuit's transition delay is the largest ``t`` for which some
  output's ``e_{f,t}`` is satisfiable, and any satisfying assignment *is*
  the certification vector pair.

Lemma 5.1 bounds the times that matter to ``[delta_f, Delta_f]`` (shortest/
longest graphical delay to ``f``); outside the window ``f_t`` equals the
``v_-1`` settle function (below) or the ``v_0`` settle function (above).
Functions are built lazily with memoisation, which subsumes the symbolic
event suppression of Sec. V-D (see :mod:`repro.core.suppression` for the
explicit ``w_g`` accounting).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..network.circuit import Circuit
from ..network.gates import GateType, gate_function
from ..runtime.cache import resolve_cache
from ..runtime.metrics import METRICS, record_sat_probes
from .analysis import (
    Query,
    SymbolicAnalysis,
    cached,
    cached_delay,
    pair_delay_certificate,
    with_bdd_fallback,
)
from .vectors import (
    AttributionError,
    DelayCertificate,
    VectorPair,
    batch_pair_states,
    cur_var,
    prev_var,
)

#: Optional constraint builder over the doubled space: called with the
#: engine and its ``var`` function; returns a function handle restricting
#: admissible vector pairs (e.g. the FSM reachability/next-state condition).
PairConstraintBuilder = Callable[[object, Callable[[str], int]], int]


class TransitionAnalysis(SymbolicAnalysis):
    """Symbolic waveforms of a circuit over all input vector pairs."""

    mode = kind = "transition"

    def function_at(self, name: str, t: int) -> int:
        """``f_t``: the value of signal ``name`` on interval ``[t, t+1)``."""
        return self._function_at(self.program.slots[name], t)

    def _function_at(self, slot: int, t: int) -> int:
        if t < self._early[slot]:
            return self._settled_function(slot, self._initial, prev_var)
        if t >= self._late[slot]:
            return self._settled_function(slot, self._final, cur_var)
        key = (slot, t)
        cached_fn = self._memo.get(key)
        if cached_fn is not None:
            return cached_fn
        gate_type, fanins = self.program.nodes[slot]
        if gate_type == GateType.INPUT:
            # Inside the window only for clocked inputs at exactly t_clk,
            # which the clamps above already handle.
            result = self._settled_function(slot, self._final, cur_var)
        else:
            t -= self.program.delays[slot]
            result = gate_function(
                self.engine,
                gate_type,
                [self._function_at(f, t) for f in fanins],
            )
        self._memo[key] = result
        return result

    def transition_predicate(self, name: str, t: int) -> int:
        """``e_{f,t}``: vector pairs producing a transition of ``f`` at
        time point ``t`` (between intervals ``t-1`` and ``t``)."""
        return self.engine.xor_(
            self.function_at(name, t - 1), self.function_at(name, t)
        )

    predicate = transition_predicate

    def output_value(self, name: str, t: int, pair: VectorPair) -> bool:
        return bool(
            self.engine.evaluate(self.function_at(name, t), pair.to_model())
        )

    def possible_transition_times(self, name: str) -> List[int]:
        """All time points at which some vector pair makes ``name``
        transition — the ``e_{i,j}`` windows of Fig. 4."""
        times = []
        for t in range(self.earliest(name), self.latest(name) + 1):
            predicate = self.transition_predicate(name, t)
            if self.engine.sat_one(predicate) is not None:
                times.append(t)
        return times

    def pair_for_transition(
        self, name: str, t: int, constraint_fn: Optional[int] = None
    ) -> Optional[VectorPair]:
        """A vector pair exciting a transition of ``name`` at ``t``."""
        predicate = self.transition_predicate(name, t)
        if constraint_fn is not None:
            predicate = self.engine.and_(predicate, constraint_fn)
        model = self.engine.sat_one(predicate)
        if model is None:
            return None
        return VectorPair.from_model(model, self.circuit.inputs)

    def pair_for_conjunction(
        self, requirements: List[Tuple[str, int]]
    ) -> Optional[VectorPair]:
        """A pair exciting transitions at *all* the given (signal, time)
        points simultaneously (the ``e_{f,1} * e_{f,2}`` query of Sec. V-C)."""
        predicate = self.engine.const1
        for name, t in requirements:
            predicate = self.engine.and_(
                predicate, self.transition_predicate(name, t)
            )
        model = self.engine.sat_one(predicate)
        if model is None:
            return None
        return VectorPair.from_model(model, self.circuit.inputs)


def compute_transition_delay(
    circuit: Circuit,
    engine=None,
    engine_name: str = "auto",
    upper: Optional[int] = None,
    constraint: Optional[PairConstraintBuilder] = None,
    input_times: Optional[Dict[str, int]] = None,
    analysis: Optional[TransitionAnalysis] = None,
    cache=None,
) -> DelayCertificate:
    """The exact transition delay under fixed gate delays (single-stepping
    mode), with a certification vector pair.

    The query proceeds top-down from ``upper`` (Sec. V-D: "Is the delay of
    the circuit >= delta?") — the natural ``upper`` is the floating delay,
    which bounds the transition delay from above (Sec. VII).  ``checks``
    counts satisfiability checks (the '#check' column of Table II).

    When neither an ``engine`` nor an ``analysis`` is supplied, the result
    is served from the runtime cache (keyed by circuit fingerprint; see
    :mod:`repro.runtime.cache`).
    """
    if analysis is not None:
        return pair_delay_certificate(analysis, upper, constraint)
    return cached_delay(
        TransitionAnalysis,
        lambda eng: pair_delay_certificate(
            TransitionAnalysis(circuit, eng, engine_name, input_times),
            upper, constraint,
        ),
        circuit, engine, engine_name, constraint,
        {"input_times": input_times or {}, "upper": upper},
        cache,
    )


def query_delay_at_least(
    circuit: Circuit,
    delta: int,
    engine=None,
    engine_name: str = "auto",
    constraint: Optional[PairConstraintBuilder] = None,
    input_times: Optional[Dict[str, int]] = None,
    analysis: Optional[TransitionAnalysis] = None,
) -> Optional[VectorPair]:
    """The paper's literal query (Sec. V-D): "Is the delay of the circuit
    >= delta?" — returns a witness vector pair exciting an output
    transition at some time ``t >= delta``, or None.

    Runs the transition-delay search top-down and stops at ``delta``, so a
    positive answer is exactly the pair :func:`compute_transition_delay`
    certifies, and it reveals the latest excitable time (replay the pair
    to observe it).
    """
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if analysis is None:
        analysis = TransitionAnalysis(circuit, engine, engine_name, input_times)
    query = Query(analysis, analysis.care_set(constraint))
    found = query.top_down(range(analysis.horizon(), delta - 1, -1))
    if found is None:
        return None
    return VectorPair.from_model(found[1], circuit.inputs)


def extend_floating_witness(
    circuit: Circuit,
    floating_cert,
    analysis: Optional[TransitionAnalysis] = None,
    engine_name: str = "auto",
    constraint: Optional[PairConstraintBuilder] = None,
) -> Optional[VectorPair]:
    """Try to extend a floating-delay witness into a vector pair that
    excites an output transition at exactly the floating delay.

    Success is a *sufficient condition* for ``t.d. == f.d.`` (the paper's
    Sec. VIII "work in progress" asks when the two modes agree): the pair
    both proves the equality and certifies it dynamically.  The query is
    much cheaper than an unrestricted transition check because the whole
    ``@0`` half of the doubled space is pinned to the witness vector.
    """
    return witness_extension(
        circuit, floating_cert, analysis, engine_name, constraint
    )[0]


def witness_extension(
    circuit: Circuit,
    floating_cert,
    analysis: Optional[TransitionAnalysis] = None,
    engine_name: str = "auto",
    constraint: Optional[PairConstraintBuilder] = None,
) -> Tuple[Optional[VectorPair], int]:
    """:func:`extend_floating_witness` with its cost: ``(pair or None,
    checks)``.  One check per output in window, the floating witness's
    own output first."""
    if floating_cert.witness is None or floating_cert.delay <= 0:
        return None, 0
    if analysis is None:
        analysis = TransitionAnalysis(circuit, engine_name=engine_name)
    engine = analysis.engine
    pinned = engine.const1
    for name in circuit.inputs:
        literal = engine.var(cur_var(name))
        if not floating_cert.witness[name]:
            literal = engine.not_(literal)
        pinned = engine.and_(pinned, literal)
    if constraint is not None:
        pinned = engine.and_(pinned, analysis.care_set(constraint))
    t = floating_cert.delay
    outputs = sorted(
        circuit.outputs, key=lambda out: out != floating_cert.output
    )
    query = Query(analysis, pinned)
    found = query.first_of(t, analysis.eligible(t, outputs))
    if found is None:
        return None, query.checks
    return VectorPair.from_model(found[0], circuit.inputs), query.checks


def pairs_for_outputs(
    analysis: TransitionAnalysis,
    care: int,
    outputs: Sequence[str],
) -> Dict[str, Tuple[int, VectorPair]]:
    """The per-output query loop: latest satisfiable transition time and a
    witness pair for each of ``outputs`` — the top-down search restricted
    to one output at a time, every output's queries sharing the
    analysis's per-(gate, t) functions."""
    query = Query(analysis, care)
    result: Dict[str, Tuple[int, VectorPair]] = {}
    for out in outputs:
        found = query.top_down(
            range(analysis.latest(out), analysis.earliest(out) - 1, -1),
            [out],
        )
        if found is not None:
            t, model, __ = found
            result[out] = (
                t, VectorPair.from_model(model, analysis.circuit.inputs)
            )
    return result


def validate_certification_pairs(
    circuit: Circuit,
    pairs: Dict[str, Tuple[int, VectorPair]],
    strict: bool = True,
) -> Dict[str, int]:
    """Dynamically validate per-output certification pairs in one batch.

    All ``v_-1`` settled states are computed in a single pass of the
    word-level kernel (cross-checked lane-vs-scalar) and fed into the
    event-driven replay of each pair.  For every output the observed last
    event at that output must land exactly at the predicted time — the
    witness really excites the claimed critical event.  Returns
    ``{output: observed last-event time}``; with ``strict`` a mismatch
    (or a pair exciting no event at its output) raises
    :class:`~repro.core.vectors.AttributionError`.
    """
    if not pairs:
        return {}
    from ..sim.event_sim import EventSimulator

    entries = list(pairs.items())
    initials, __ = batch_pair_states(
        circuit, [pair for __, (__, pair) in entries], check=True
    )
    simulator = EventSimulator(circuit)
    observed: Dict[str, int] = {}
    with METRICS.span("core.validate_pairs"):
        for (out, (predicted, pair)), initial in zip(entries, initials):
            replay = simulator.simulate_transition(
                pair.v_prev, pair.v_next, initial=initial
            )
            at_output = replay.waveforms[out].last_event_time
            if at_output is None:
                if strict:
                    raise AttributionError(
                        f"certification pair for output {out!r} of "
                        f"{circuit.name!r} excites no event at that output"
                    )
                at_output = 0
            elif strict and at_output != predicted:
                raise AttributionError(
                    f"certification pair for output {out!r} of "
                    f"{circuit.name!r} replays its last event at "
                    f"t={at_output}, computed t={predicted}"
                )
            observed[out] = at_output
    return observed


def collect_certification_pairs(
    circuit: Circuit,
    analysis: Optional[TransitionAnalysis] = None,
    engine_name: str = "auto",
    constraint: Optional[PairConstraintBuilder] = None,
    input_times: Optional[Dict[str, int]] = None,
    cache=None,
) -> Dict[str, Tuple[int, VectorPair]]:
    """Per-output certification vectors: for every primary output, the
    latest satisfiable transition time and a vector pair exciting it.

    This is the "comprehensive path coverage" vector set of Sec. VII —
    replaying every pair on the accurate timing simulator exercises the
    critical event of each output.

    The per-output queries run on one analysis, so they share its
    per-(gate, t) functions: the caller's ``analysis`` when it passes
    one, otherwise a fresh one under the ``auto`` BDD-overflow fallback,
    whose ``pairs.*`` accounting is recorded and whose result is served
    from the runtime cache.
    """
    if analysis is not None:
        care = analysis.care_set(constraint)
        with METRICS.span("core.certification_pairs"):
            return pairs_for_outputs(analysis, care, circuit.outputs)

    def run(engine):
        fresh = TransitionAnalysis(circuit, engine, engine_name, input_times)
        care = fresh.care_set(constraint)
        return fresh, pairs_for_outputs(fresh, care, circuit.outputs)

    def produce():
        with METRICS.span("core.certification_pairs"):
            fresh, pairs = with_bdd_fallback(run, None, engine_name)
            record_sat_probes("pairs", fresh.engine)
            METRICS.incr("pairs.functions_built", fresh.num_functions())
        return pairs

    return cached(
        resolve_cache(cache), circuit, "certification-pairs", engine_name,
        constraint, {"input_times": input_times or {}}, produce,
    )
