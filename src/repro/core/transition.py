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

from ..boolfn.interface import make_engine
from ..network.circuit import Circuit
from ..network.gates import GateType, gate_function
from ..runtime.cache import resolve_cache
from ..runtime.metrics import METRICS, record_engine_metrics
from .vectors import (
    AttributionError,
    DelayCertificate,
    VectorPair,
    batch_pair_states,
    canonical_input_order,
    cur_var,
    prev_var,
)

#: Optional constraint builder over the doubled space: called with the
#: engine and its ``var`` function; returns a function handle restricting
#: admissible vector pairs (e.g. the FSM reachability/next-state condition).
PairConstraintBuilder = Callable[[object, Callable[[str], int]], int]


class TransitionAnalysis:
    """Symbolic waveforms of a circuit over all input vector pairs."""

    def __init__(
        self,
        circuit: Circuit,
        engine=None,
        engine_name: str = "auto",
        input_times: Optional[Dict[str, int]] = None,
    ):
        circuit.validate()
        self.circuit = circuit
        self.engine = engine or make_engine(engine_name, circuit.num_gates)
        # Pre-declare the doubled variables in canonical cone order so
        # engine state (BDD variable order, AIG signature streams) — and
        # hence the witnesses sat_one picks — is a function of the circuit
        # content alone, identical between a serial run and a fresh
        # worker-process analysis (see canonical_input_order).
        for name in canonical_input_order(circuit):
            self.engine.var(prev_var(name))
            self.engine.var(cur_var(name))
        #: Per-input clock time: ``a@0`` takes effect at this time
        #: (Sec. V-C: "the inputs need not be clocked at the same time").
        self.input_times = dict(input_times or {})
        self._delta: Dict[str, int] = {}
        self._Delta: Dict[str, int] = {}
        for name in circuit.topological_order():
            node = circuit.node(name)
            if node.gate_type == GateType.INPUT:
                t_clk = self.input_times.get(name, 0)
                self._delta[name] = t_clk
                self._Delta[name] = t_clk
            elif not node.fanins:
                self._delta[name] = 0
                self._Delta[name] = 0
            else:
                self._delta[name] = node.delay + min(
                    self._delta[f] for f in node.fanins
                )
                self._Delta[name] = node.delay + max(
                    self._Delta[f] for f in node.fanins
                )
        self._memo: Dict[Tuple[str, int], int] = {}
        self._initial: Dict[str, int] = {}
        self._final: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def earliest(self, name: str) -> int:
        """delta_f of Lemma 5.1 — no transition before this time."""
        return self._delta[name]

    def latest(self, name: str) -> int:
        """Delta_f of Lemma 5.1 — no transition after this time."""
        return self._Delta[name]

    def initial_function(self, name: str) -> int:
        """Settled value under ``v_-1`` (a function of the ``@-`` vars)."""
        cached = self._initial.get(name)
        if cached is not None:
            return cached
        node = self.circuit.node(name)
        if node.gate_type == GateType.INPUT:
            result = self.engine.var(prev_var(name))
        else:
            result = gate_function(
                self.engine,
                node.gate_type,
                [self.initial_function(f) for f in node.fanins],
            )
        self._initial[name] = result
        return result

    def final_function(self, name: str) -> int:
        """Settled value under ``v_0`` (a function of the ``@0`` vars)."""
        cached = self._final.get(name)
        if cached is not None:
            return cached
        node = self.circuit.node(name)
        if node.gate_type == GateType.INPUT:
            result = self.engine.var(cur_var(name))
        else:
            result = gate_function(
                self.engine,
                node.gate_type,
                [self.final_function(f) for f in node.fanins],
            )
        self._final[name] = result
        return result

    def function_at(self, name: str, t: int) -> int:
        """``f_t``: the value of signal ``name`` on interval ``[t, t+1)``."""
        if t < self._delta[name]:
            return self.initial_function(name)
        if t >= self._Delta[name]:
            return self.final_function(name)
        key = (name, t)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        node = self.circuit.node(name)
        if node.gate_type == GateType.INPUT:
            # Inside the window only for clocked inputs at exactly t_clk,
            # which the clamps above already handle.
            result = self.final_function(name)
        else:
            result = gate_function(
                self.engine,
                node.gate_type,
                [self.function_at(f, t - node.delay) for f in node.fanins],
            )
        self._memo[key] = result
        return result

    def transition_predicate(self, name: str, t: int) -> int:
        """``e_{f,t}``: vector pairs producing a transition of ``f`` at
        time point ``t`` (between intervals ``t-1`` and ``t``)."""
        return self.engine.xor_(
            self.function_at(name, t - 1), self.function_at(name, t)
        )

    def possible_transition_times(self, name: str) -> List[int]:
        """All time points at which some vector pair makes ``name``
        transition — the ``e_{i,j}`` windows of Fig. 4."""
        times = []
        for t in range(self._delta[name], self._Delta[name] + 1):
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

    def num_functions(self) -> int:
        """Number of in-window interval functions built so far."""
        return len(self._memo)


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
    from .floating import with_bdd_fallback

    if analysis is None:
        store = resolve_cache(cache) if engine is None else None
        token = None
        if store is not None:
            token = store.token(
                circuit,
                "transition",
                engine_name,
                constraint,
                {"input_times": input_times or {}, "upper": upper},
            )
            cached = store.get(token)
            if cached is not None:
                return cached
        with METRICS.phase("core.transition"):
            result = with_bdd_fallback(
                lambda eng: compute_transition_delay(
                    circuit,
                    engine_name=engine_name,
                    upper=upper,
                    constraint=constraint,
                    input_times=input_times,
                    analysis=TransitionAnalysis(
                        circuit, eng, engine_name, input_times
                    ),
                ),
                engine,
                engine_name,
            )
        if store is not None:
            store.put(token, result)
        return result
    engine = analysis.engine
    outputs = circuit.outputs
    if not outputs:
        raise ValueError("circuit has no outputs")
    care = engine.const1
    if constraint is not None:
        care = constraint(engine, engine.var)
    latest = max(analysis.latest(o) for o in outputs)
    if upper is None:
        upper = latest
    upper = min(upper, latest)
    checks = 0
    for t in range(upper, 0, -1):
        # One satisfiability check per time point: the transition
        # predicates of all eligible outputs are folded into a disjunction
        # and the critical output recovered from the witness.
        eligible = [
            out
            for out in outputs
            if analysis.earliest(out) <= t <= analysis.latest(out)
        ]
        if not eligible:
            continue
        if not getattr(engine, "prefers_batching", True):
            model, out = None, None
            for candidate in eligible:
                checks += 1
                model = engine.sat_one(
                    engine.and_(
                        care, analysis.transition_predicate(candidate, t)
                    )
                )
                if model is not None:
                    out = candidate
                    break
            if model is None:
                continue
            pair = VectorPair.from_model(model, circuit.inputs)
            env = pair.to_model()
        else:
            combined = engine.or_many(
                analysis.transition_predicate(out, t) for out in eligible
            )
            checks += 1
            model = engine.sat_one(engine.and_(care, combined))
            if model is None:
                continue
            # Attribute the critical output under the *same* don't-care
            # completion the certificate reports (VectorPair pins absent
            # variables to False).  A witness that satisfies the batched
            # disjunction but none of the candidates under this completion
            # would mean the certificate mis-names the output — raise
            # rather than silently report eligible[0].
            pair = VectorPair.from_model(model, circuit.inputs)
            env = pair.to_model()
            out = None
            for candidate in eligible:
                if engine.evaluate(
                    analysis.transition_predicate(candidate, t), env
                ):
                    out = candidate
                    break
            if out is None:
                raise AttributionError(
                    f"transition witness at t={t} excites none of the "
                    f"eligible outputs of {circuit.name!r} under the "
                    "reported don't-care completion"
                )
        value = engine.evaluate(analysis.function_at(out, t), env)
        record_engine_metrics(
            "transition", engine, analysis.num_functions(), checks
        )
        return DelayCertificate(
            mode="transition",
            delay=t,
            output=out,
            value=bool(value),
            pair=pair,
            checks=checks,
            extra={"functions_built": analysis.num_functions()},
        )
    record_engine_metrics(
        "transition", engine, analysis.num_functions(), checks
    )
    return DelayCertificate(
        mode="transition",
        delay=0,
        checks=checks,
        extra={"functions_built": analysis.num_functions()},
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

    Searches the candidate times top-down, so a positive answer also
    reveals the latest excitable time (replay the pair to observe it).
    """
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if analysis is None:
        analysis = TransitionAnalysis(circuit, engine, engine_name, input_times)
    engine = analysis.engine
    care = engine.const1
    if constraint is not None:
        care = constraint(engine, engine.var)
    latest = max(analysis.latest(out) for out in circuit.outputs)
    for t in range(latest, delta - 1, -1):
        eligible = [
            out
            for out in circuit.outputs
            if analysis.earliest(out) <= t <= analysis.latest(out)
        ]
        if not eligible:
            continue
        combined = engine.or_many(
            analysis.transition_predicate(out, t) for out in eligible
        )
        model = engine.sat_one(engine.and_(care, combined))
        if model is not None:
            return VectorPair.from_model(model, circuit.inputs)
    return None


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
    if floating_cert.witness is None or floating_cert.delay <= 0:
        return None
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
        pinned = engine.and_(pinned, constraint(engine, engine.var))
    t = floating_cert.delay
    for out in circuit.outputs:
        if not analysis.earliest(out) <= t <= analysis.latest(out):
            continue
        predicate = engine.and_(pinned, analysis.transition_predicate(out, t))
        model = engine.sat_one(predicate)
        if model is not None:
            return VectorPair.from_model(model, circuit.inputs)
    return None


def pairs_for_outputs(
    analysis: TransitionAnalysis,
    care: int,
    outputs: Sequence[str],
) -> Dict[str, Tuple[int, VectorPair]]:
    """The per-output query loop: latest satisfiable transition time and a
    witness pair for each of ``outputs``.  Shared by the serial path and
    the worker processes of :mod:`repro.runtime.parallel`."""
    engine = analysis.engine
    circuit = analysis.circuit
    result: Dict[str, Tuple[int, VectorPair]] = {}
    for out in outputs:
        for t in range(analysis.latest(out), analysis.earliest(out) - 1, -1):
            predicate = engine.and_(care, analysis.transition_predicate(out, t))
            model = engine.sat_one(predicate)
            if model is not None:
                result[out] = (
                    t,
                    VectorPair.from_model(model, circuit.inputs),
                )
                break
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
    with METRICS.phase("core.validate_pairs"):
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
    jobs: int = 1,
    cache=None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
) -> Dict[str, Tuple[int, VectorPair]]:
    """Per-output certification vectors: for every primary output, the
    latest satisfiable transition time and a vector pair exciting it.

    This is the "comprehensive path coverage" vector set of Sec. VII —
    replaying every pair on the accurate timing simulator exercises the
    critical event of each output.

    The per-output queries are independent; ``jobs != 1`` fans them across
    worker processes (``0`` = all cores) when no shared ``analysis`` and no
    ``constraint`` closure pin the work to this process.  Both routes
    return identical results (canonical engine variable order — see
    :mod:`repro.runtime.parallel`), and both are served from the runtime
    cache when no ``analysis`` is supplied.
    """
    store = None
    token = None
    if analysis is None:
        store = resolve_cache(cache)
        token = store.token(
            circuit,
            "certification-pairs",
            engine_name,
            constraint,
            {"input_times": input_times or {}},
        )
        cached = store.get(token)
        if cached is not None:
            return cached
    if (
        jobs != 1
        and analysis is None
        and constraint is None
        and len(circuit.outputs) > 1
    ):
        from ..runtime.parallel import shard_map

        outputs = list(circuit.outputs)
        found = shard_map(
            "pairs", (circuit, engine_name, input_times), outputs, jobs,
            timeout=timeout, retries=retries,
        )
        result = {
            out: pair for out, pair in zip(outputs, found) if pair is not None
        }
    elif analysis is None:
        from .floating import with_bdd_fallback

        def run(eng):
            fresh = TransitionAnalysis(circuit, eng, engine_name, input_times)
            care = fresh.engine.const1
            if constraint is not None:
                care = constraint(fresh.engine, fresh.engine.var)
            with METRICS.phase("core.certification_pairs"):
                return pairs_for_outputs(fresh, care, circuit.outputs)

        result = with_bdd_fallback(run, None, engine_name)
    else:
        engine = analysis.engine
        care = engine.const1
        if constraint is not None:
            care = constraint(engine, engine.var)
        with METRICS.phase("core.certification_pairs"):
            result = pairs_for_outputs(analysis, care, circuit.outputs)
    if store is not None:
        store.put(token, result)
    return result
