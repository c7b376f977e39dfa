"""What the symbolic delay analyses share (Secs. IV, V and V-F).

Floating delay (:mod:`.floating`), transition delay by symbolic simulation
(:mod:`.transition`) and bounded delay (:mod:`.bounded`) ask one question
per time point ``t``: is some output's predicate — still unsettled,
transitioning, possibly transitioning — satisfiable at ``t``, inside the
Lemma 5.1 windows?  Only the per-(signal, t) recurrence behind the
predicate differs; everything else lives here:

* :func:`settle_kernel` and :func:`function_kernel` — one gate's step
  of the recurrences, keyed on the compiled program's gate kinds: a
  settle pair from its fanins' pairs, a function from its fanins';
* :class:`SymbolicAnalysis` — circuit validation, the engine, and from
  the circuit's compiled program (one per revision) the gate table it
  walks, the canonical variable order and the windows ``[earliest,
  latest]`` under fixed (or, per analysis, clocked or ``[d_l, d_u]``)
  gate delays, and the ``v_-1``/``v_0`` settle functions;
* :class:`Query` — one query's care set and ``#check`` count, the
  per-time-point :meth:`~Query.probe` (the one place the engine's
  ``prefers_batching`` decides the check policy) and the top-down search
  with witness attribution;
* :func:`pair_delay_certificate` — the top-down delay search of the
  transition and bounded analyses, as a certificate;
* :func:`cached_delay` — the runtime-cache entry point of the
  ``compute_*`` functions, with the ``auto`` BDD-overflow fallback
  (:func:`with_bdd_fallback`).

See ``docs/ALGORITHMS.md`` ("What the three analyses share").
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..boolfn.bdd import BddOverflow
from ..boolfn.interface import SatEngine, make_engine
from ..network.circuit import Circuit
from ..runtime.cache import resolve_cache
from ..runtime.metrics import METRICS, record_engine_metrics
from ..sim.wordsim import ALL, ANY, PARITY, program_for
from .vectors import (
    AttributionError,
    DelayCertificate,
    VectorPair,
    cur_var,
    prev_var,
)

#: A satisfying assignment returned by ``engine.sat_one``.
Model = Dict[str, bool]


def settle_kernel(engine, kind: int, inverting: bool,
                  pairs: List[Tuple[int, int]]) -> Tuple[int, int]:
    """A gate's ``(S1, S0)`` pair from its fanins' pairs, for a gate of
    the compiled program: ``kind`` is one of :mod:`repro.sim.wordsim`'s
    ``ALL``, ``ANY``, ``PARITY`` and ``ONE``.

    An AND-kind gate settles to 1 once every input has settled to 1 and
    to 0 as soon as one has settled to 0 (an OR-kind gate dually); a
    parity gate needs every input settled either way; an inverting gate
    swaps the pair.  A constant has no fanins and costs no engine call.
    """
    if not pairs:  # a constant: the empty AND
        one, zero = engine.const1, engine.const0
    elif kind == ALL:
        one = engine.and_many([s1 for s1, __ in pairs])
        zero = engine.or_many([s0 for __, s0 in pairs])
    elif kind == ANY:
        one = engine.or_many([s1 for s1, __ in pairs])
        zero = engine.and_many([s0 for __, s0 in pairs])
    elif kind == PARITY:
        # Settled with parity 1 / settled with parity 0 so far.
        one, zero = engine.const0, engine.const1
        for s1, s0 in pairs:
            one, zero = (
                engine.or_(engine.and_(one, s0), engine.and_(zero, s1)),
                engine.or_(engine.and_(zero, s0), engine.and_(one, s1)),
            )
    else:  # ONE: the fanin itself
        one, zero = pairs[0]
    return (zero, one) if inverting else (one, zero)


def function_kernel(engine, kind: int, inverting: bool,
                    fs: List[int]) -> int:
    """A gate's output function from its fanins' functions, for a gate of
    the compiled program; a constant costs no engine call."""
    if not fs:  # a constant: the empty AND
        return engine.const0 if inverting else engine.const1
    if kind == ALL:
        result = engine.and_many(fs)
    elif kind == ANY:
        result = engine.or_many(fs)
    elif kind == PARITY:
        result = engine.const0
        for f in fs:
            result = engine.xor_(result, f)
    else:  # ONE: the fanin itself
        result = fs[0]
    return engine.not_(result) if inverting else result


def with_bdd_fallback(compute, engine, engine_name: str):
    """Run ``compute(engine)``; under the ``auto`` policy a BDD node-budget
    overflow falls back to the SAT engine (the paper's Sec. V-G pragmatics
    for multiplier-like circuits)."""
    try:
        return compute(engine)
    except BddOverflow:
        if engine is not None or engine_name != "auto":
            raise
        return compute(SatEngine())


def cached(store, circuit: Circuit, kind: str, engine_name: str,
           constraint, params: Dict[str, object], produce: Callable[[], object]):
    """``produce()``, served from and stored into the result cache
    ``store`` under the key of (circuit, kind, engine, constraint,
    params); ``store=None`` bypasses the cache."""
    if store is None:
        return produce()
    token = store.token(circuit, kind, engine_name, constraint, params)
    hit = store.get(token)
    if hit is not None:
        return hit
    result = produce()
    store.put(token, result)
    return result


def cached_delay(analysis_cls, compute, circuit: Circuit, engine,
                 engine_name: str, constraint,
                 params: Optional[Dict[str, object]], cache):
    """The entry point of ``compute_floating_delay``,
    ``compute_transition_delay`` and ``compute_bounded_transition_delay``:
    ``compute(engine)`` inside the ``core.<kind>`` METRICS span of
    ``analysis_cls``, under the BDD-overflow fallback, served from the
    runtime cache under the class's ``mode`` when no explicit ``engine``
    is passed and ``params`` is not None (None marks inputs the cache
    cannot key)."""
    store = (
        resolve_cache(cache)
        if engine is None and params is not None
        else None
    )

    def produce():
        with METRICS.span(f"core.{analysis_cls.kind}"):
            return with_bdd_fallback(compute, engine, engine_name)

    return cached(store, circuit, analysis_cls.mode, engine_name, constraint,
                  params, produce)


class SymbolicAnalysis:
    """The state every symbolic delay analysis of a circuit shares.

    Subclasses define the per-(output, t) :meth:`predicate` a search asks
    about, and may narrow :meth:`eligible`.  Functions are built lazily and
    memoised in ``_memo`` under ``(slot, t)``, so a search pays only for
    the times it touches; the public methods take node names.
    """

    #: Certificate mode (also the result-cache kind).
    mode = ""
    #: METRICS counter prefix and ``core.<kind>`` span name.
    kind = ""
    #: Whether the variables span the doubled vector-pair space
    #: (``a@-``/``a@0``, Sec. V-C) or one input vector.
    pair_space = True

    def __init__(
        self,
        circuit: Circuit,
        engine=None,
        engine_name: str = "auto",
        input_times: Optional[Dict[str, int]] = None,
    ):
        self.circuit = circuit
        # Compiling the revision's program validates the circuit; a
        # revision that is already compiled is not walked again.
        self.program = program = program_for(circuit)
        self.engine = engine or make_engine(engine_name, program.num_gates)
        # Declare the input variables up front, in canonical cone order, so
        # engine state (BDD variable order, AIG signature streams) — and
        # hence the witnesses sat_one picks — is a function of the circuit
        # content alone: a fresh worker-process analysis matches a serial
        # run, without the BDD blowup declaration order would cause on
        # arithmetic circuits (see canonical_input_order).
        for name in program.input_order:
            if self.pair_space:
                self.engine.var(prev_var(name))
                self.engine.var(cur_var(name))
            else:
                self.engine.var(name)
        #: Per-input clock time: the input's new value takes effect then
        #: (Sec. V-C: "the inputs need not be clocked at the same time").
        self.input_times = dict(input_times or {})
        # Lemma 5.1 windows per slot: earliest possible change (lower delay
        # bounds) and latest settle (upper bounds) of every signal.
        self._early, self._late = self._windows()
        self._memo: Dict[Tuple[int, int], object] = {}
        self._initial: Dict[int, int] = {}
        self._final: Dict[int, int] = {}
        self._care: Dict[ConstraintBuilder, int] = {}

    def _windows(self) -> Tuple[List[int], List[int]]:
        """The program's fixed-delay windows, unless inputs are clocked."""
        program = self.program
        if self.input_times:
            return program.windows(
                program.delays, program.delays, self.input_times
            )
        return program.early, program.late

    # ------------------------------------------------------------------
    def earliest(self, name: str) -> int:
        """delta_f of Lemma 5.1 — no event before this time."""
        return self._early[self.program.slots[name]]

    def latest(self, name: str) -> int:
        """Delta_f of Lemma 5.1 — no event after this time."""
        return self._late[self.program.slots[name]]

    def horizon(self) -> int:
        """The latest time any primary output can change."""
        if not self.circuit.outputs:
            raise ValueError("circuit has no outputs")
        return max(self._late[slot] for slot in self.program.output_slots)

    def initial_function(self, name: str) -> int:
        """Settled value under ``v_-1`` (a function of the ``@-`` vars)."""
        return self._settled_function(
            self.program.slots[name], self._initial, prev_var
        )

    def final_function(self, name: str) -> int:
        """Settled value under ``v_0`` (a function of the ``@0`` vars)."""
        return self._settled_function(
            self.program.slots[name], self._final, cur_var
        )

    def _settled_function(self, slot: int, memo: Dict[int, int],
                          var_name: Callable[[str], str]) -> int:
        cached_fn = memo.get(slot)
        if cached_fn is not None:
            return cached_fn
        gate = self.program.gates[slot]
        if gate is None:
            result = self.engine.var(var_name(self.program.order[slot]))
        else:
            kind, inverting, fanins = gate
            # Recurse only on a fanin the memo lacks (a handle may be 0).
            args = []
            for fanin in fanins:
                fn = memo.get(fanin)
                if fn is None:
                    fn = self._settled_function(fanin, memo, var_name)
                args.append(fn)
            result = function_kernel(self.engine, kind, inverting, args)
        memo[slot] = result
        return result

    def num_functions(self) -> int:
        """How many in-window (signal, time) functions were built."""
        return len(self._memo)

    def care_set(self, constraint: Optional[ConstraintBuilder] = None
                 ) -> int:
        """The function a constraint builder restricts the admissible
        vectors (or pairs) to; ``const1`` without one.  The builder is
        handed this analysis, so it builds over the analysis's engine and
        can read its settle functions instead of building them again; it
        is called once per analysis, and later calls return its handle."""
        if constraint is None:
            return self.engine.const1
        care = self._care.get(constraint)
        if care is None:
            care = self._care[constraint] = constraint(self)
        return care

    def completion(self, model: Model) -> Model:
        """A model completed the way certificates report it: every input
        variable the model leaves free pinned to False."""
        inputs = self.circuit.inputs
        if self.pair_space:
            return VectorPair.from_model(model, inputs).to_model()
        return {name: bool(model.get(name, False)) for name in inputs}

    # -- the per-time-point question -----------------------------------
    def eligible(self, t: int, outputs: Optional[Sequence[str]] = None
                 ) -> List[str]:
        """The outputs (default: all) whose window admits an event at
        ``t``, in order."""
        if outputs is None:
            outputs = self.circuit.outputs
        slots = self.program.slots
        return [
            out for out in outputs
            if self._early[slots[out]] <= t <= self._late[slots[out]]
        ]

    def predicate(self, name: str, t: int) -> int:
        """The function a search asks to be satisfiable at ``t``."""
        raise NotImplementedError

    def output_value(self, name: str, t: int, pair: VectorPair) -> bool:
        """The value output ``name`` settles to after its event at ``t``
        under ``pair`` (pair-space analyses)."""
        raise NotImplementedError


#: A care-set builder: called with the analysis, it returns the function
#: admissible vectors (or pairs) satisfy, e.g. :mod:`repro.fsm.constraints`.
ConstraintBuilder = Callable[[SymbolicAnalysis], int]


class Query:
    """One delay query over an analysis: its care set and the number of
    satisfiability checks it made (the '#check' column).

    Every check the delay searches make goes through :meth:`probe` or
    :meth:`first_of`.
    """

    def __init__(self, analysis: SymbolicAnalysis, care: Optional[int] = None):
        self.analysis = analysis
        self.engine = analysis.engine
        self.care = self.engine.const1 if care is None else care
        self.checks = 0

    def satisfiable(self, function: int) -> Optional[Model]:
        """One counted check: a model of ``function``, or None."""
        self.checks += 1
        return self.engine.sat_one(function)

    def first_of(self, t: int, outputs: Iterable[str]
                 ) -> Optional[Tuple[Model, str]]:
        """One check per output, in order: ``(model, output)`` for the
        first output whose predicate holds at ``t`` under the care set."""
        engine, analysis = self.engine, self.analysis
        for out in outputs:
            model = self.satisfiable(
                engine.and_(self.care, analysis.predicate(out, t))
            )
            if model is not None:
                return model, out
        return None

    def probe(self, t: int, outputs: Optional[Sequence[str]] = None
              ) -> Optional[Tuple[Model, Optional[str]]]:
        """Is some eligible output's predicate satisfiable at ``t``?

        The '#check' policy: an engine that prefers batching (SAT) gets one
        check of the disjunction over the eligible outputs, and the output
        is left to :meth:`attribute` (``None`` in the result); otherwise
        (BDDs) one check per output, stopping at the first that holds.
        With one eligible output the two policies make the same check.
        """
        eligible = self.analysis.eligible(t, outputs)
        batch = getattr(self.engine, "prefers_batching", True)
        if not batch or len(eligible) < 2:
            return self.first_of(t, eligible)
        combined = self.engine.or_many(
            self.analysis.predicate(out, t) for out in eligible
        )
        model = self.satisfiable(self.engine.and_(self.care, combined))
        return None if model is None else (model, None)

    def attribute(self, model: Model, t: int,
                  outputs: Optional[Sequence[str]] = None) -> str:
        """The first eligible output whose predicate the model satisfies
        under the *reported* don't-care completion.  A batched witness
        satisfying none of them would make the certificate mis-name the
        output, so that raises instead."""
        analysis = self.analysis
        env = analysis.completion(model)
        for out in analysis.eligible(t, outputs):
            if self.engine.evaluate(analysis.predicate(out, t), env):
                return out
        raise AttributionError(
            f"{analysis.mode} witness at t={t} satisfies no eligible "
            f"output's predicate of {analysis.circuit.name!r} under the "
            "reported don't-care completion"
        )

    def top_down(self, times: Iterable[int],
                 outputs: Optional[Sequence[str]] = None
                 ) -> Optional[Tuple[int, Model, str]]:
        """Probe ``times`` (descending) and stop at the first that holds:
        ``(t, model, output)``, or None if none does — the paper's "is the
        delay >= delta?" asked top-down (Sec. V-D)."""
        for t in times:
            found = self.probe(t, outputs)
            if found is not None:
                model, out = found
                if out is None:
                    out = self.attribute(model, t, outputs)
                return t, model, out
        return None


def pair_delay_certificate(analysis: SymbolicAnalysis, upper: Optional[int],
                           constraint) -> DelayCertificate:
    """The latest time point ``t <= upper`` at which some output's
    predicate is satisfiable, with its witness pair — the top-down search
    of the transition and bounded analyses.  ``upper`` defaults to (and is
    clamped to) the latest output window; ``delay=0`` means no pair
    excites any output event."""
    query = Query(analysis, analysis.care_set(constraint))
    latest = analysis.horizon()
    upper = latest if upper is None else min(upper, latest)
    found = query.top_down(range(upper, 0, -1))
    delay, out, value, pair = 0, None, None, None
    if found is not None:
        delay, model, out = found
        pair = VectorPair.from_model(model, analysis.circuit.inputs)
        value = analysis.output_value(out, delay, pair)
    record_engine_metrics(
        analysis.kind, analysis.engine, analysis.num_functions(),
        query.checks,
    )
    return DelayCertificate(
        mode=analysis.mode,
        delay=delay,
        output=out,
        value=value,
        pair=pair,
        checks=query.checks,
        extra={"functions_built": analysis.num_functions()},
    )
