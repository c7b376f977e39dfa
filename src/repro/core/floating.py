"""Floating-mode delay computation (paper Sec. IV; method of refs [7]/[9]).

The *floating delay* is the single-vector delay under conservative
assumptions about the circuit state before the vector is applied, and is
safe under monotone speedups (Secs. I–II, IV).  It upper-bounds the transition
delay and is the natural starting value ``delta`` for the transition-delay
query (Sec. VII).

Algorithm
---------
For every signal ``f`` and time ``t`` we build two characteristic functions
over the (single) input-vector space:

* ``S1_t(f)`` — input vectors for which ``f`` is guaranteed to have settled
  to 1 by time ``t`` under *every* admissible speedup,
* ``S0_t(f)`` — likewise for 0.

Inputs settle at their clock time.  A gate's output settles to its
*controlled* value as soon as one input settles to the controlling value,
and to the *noncontrolled* value once all inputs have settled
noncontrolling, each seen through the gate's delay: the settle kernel
(:func:`repro.core.analysis.settle_kernel`) applied to each gate of the
circuit's compiled program.  The floating delay is the least ``t`` at which
``S1_t + S0_t`` is a tautology for every output; a satisfying assignment of
the negation one step earlier is the floating-delay witness vector.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..network.circuit import Circuit
from ..runtime.metrics import record_engine_metrics
from .analysis import (
    ConstraintBuilder,
    Query,
    SymbolicAnalysis,
    cached_delay,
    settle_kernel,
)
from .vectors import DelayCertificate


class FloatingAnalysis(SymbolicAnalysis):
    """Settling characteristic functions for a circuit.

    Functions are built lazily and memoised, so querying only the times a
    delay search touches costs only those functions.  The predicate a
    search probes at ``t`` is "still unsettled at ``t``" (an event after
    ``t``), so an output is eligible at every ``t`` before its latest
    settle time.
    """

    mode = kind = "floating"
    pair_space = False

    # ------------------------------------------------------------------
    def settled_pair(self, name: str, t: int) -> Tuple[int, int]:
        """``(S1_t, S0_t)`` for signal ``name`` (lazy, memoised)."""
        return self._settled_pair(self.program.slots[name], t)

    def _settled_pair(self, slot: int, t: int) -> Tuple[int, int]:
        early = self._early[slot]
        t = max(min(t, self._late[slot]), early - 1)
        key = (slot, t)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        engine = self.engine
        gate = self.program.gates[slot]
        if t < early:
            result = (engine.const0, engine.const0)
        elif gate is None:
            var = engine.var(self.program.order[slot])
            result = (var, engine.not_(var))
        else:  # a gate; a constant's pair is the kernel's, fanin-free
            kind, inverting, fanins = gate
            t -= self.program.delays[slot]
            # Recurse only on a fanin the memo lacks, at the time the
            # callee would clamp ``t`` to.
            memo, lows, highs = self._memo, self._early, self._late
            pairs = []
            for fanin in fanins:
                pair = memo.get(
                    (fanin, max(min(t, highs[fanin]), lows[fanin] - 1))
                )
                if pair is None:
                    pair = self._settled_pair(fanin, t)
                pairs.append(pair)
            result = settle_kernel(engine, kind, inverting, pairs)
        self._memo[key] = result
        return result

    def settled(self, name: str, t: int) -> int:
        """Function: vectors for which ``name`` has settled (to either
        value) by time ``t``."""
        s1, s0 = self.settled_pair(name, t)
        return self.engine.or_(s1, s0)

    def unsettled(self, name: str, t: int) -> int:
        return self.engine.not_(self.settled(name, t))

    def eligible(self, t: int, outputs: Optional[Sequence[str]] = None
                 ) -> List[str]:
        if outputs is None:
            outputs = self.circuit.outputs
        slots = self.program.slots
        return [out for out in outputs if t < self._late[slots[out]]]

    predicate = unsettled

    def settle_time(self, name: str, upper: int) -> int:
        """The time ``name`` has settled by under every vector, capped at
        ``upper``: the latest ``t <= upper`` at which some vector still
        leaves it unsettled at ``t - 1``.  An event at ``t`` needs the
        signal unsettled at ``t - 1``, so none comes later: the floating
        delay of one output, which bounds its transition delay (Sec. VII).

        Descends from ``upper`` with one tautology check per step, on the
        memoised settle functions a floating search already built."""
        t = min(upper, self.latest(name))
        # Below the window the settle function is const0, so this stops.
        while self.engine.is_tautology(self.settled(name, t - 1)):
            t -= 1
        return t


def compute_floating_delay(
    circuit: Circuit,
    engine=None,
    engine_name: str = "auto",
    constraint: Optional[ConstraintBuilder] = None,
    input_times: Optional[Dict[str, int]] = None,
    upper: Optional[int] = None,
    search: str = "auto",
    analysis: Optional[FloatingAnalysis] = None,
    cache=None,
) -> DelayCertificate:
    """The exact floating delay and its witness vector.

    ``constraint`` optionally restricts the vector space (e.g. to
    reachable-state codes ``i@s`` for FSM benchmarks, Sec. VI).  ``upper``
    defaults to the topological delay.  ``search`` selects the query order:

    * ``"auto"`` (default) — ``"ascending"`` on the SAT engine, ``"linear"``
      on BDDs;
    * ``"linear"`` — downward from ``upper`` (the paper's query style);
    * ``"binary"`` — bisection on the settle threshold;
    * ``"ascending"`` — upward from the earliest arrival.  On the SAT
      engine the upward probes are *satisfiable* ("some vector is still
      unsettled at t"), which random-simulation signatures answer almost
      for free; only the final confirming probe needs a full refutation.

    Returns a :class:`DelayCertificate` with ``mode="floating"``; its
    ``checks`` field counts satisfiability checks (the '#check' column).

    A caller that passes its own ``analysis`` (whose engine, engine name
    and input times then apply) keeps its settle functions for later
    queries, such as :meth:`FloatingAnalysis.settle_time`; otherwise
    results are served from the runtime cache (``repro.runtime.cache``)
    when no explicit ``engine`` instance is passed and the constraint is
    absent or carries a ``cache_id``; ``cache`` overrides the process
    global (pass a disabled :class:`~repro.runtime.cache.DelayCache` to
    opt out for one call).
    """
    if analysis is not None:
        return _floating_delay(analysis, constraint, upper, search)
    return cached_delay(
        FloatingAnalysis,
        lambda eng: _floating_delay(
            FloatingAnalysis(circuit, eng, engine_name, input_times),
            constraint, upper, search,
        ),
        circuit, engine, engine_name, constraint,
        {"input_times": input_times or {}, "upper": upper, "search": search},
        cache,
    )


def _floating_delay(
    analysis: FloatingAnalysis,
    constraint: Optional[ConstraintBuilder],
    upper: Optional[int],
    search: str,
) -> DelayCertificate:
    circuit = analysis.circuit
    engine = analysis.engine
    query = Query(analysis, analysis.care_set(constraint))
    horizon = analysis.horizon()
    if upper is None:
        upper = horizon
    lowest = min(analysis.earliest(o) for o in circuit.outputs)

    if constraint is not None:
        # Emptiness probe only when a care set was actually supplied —
        # on const1 it is trivially SAT and would inflate the '#check'
        # column of every combinational run.
        if query.satisfiable(query.care) is None:
            # The care set admits no vector at all (e.g. an FSM with no
            # reachable states): no event can ever be excited.
            return DelayCertificate(
                mode="floating", delay=0, checks=query.checks
            )

    if search == "auto":
        search = (
            "ascending" if getattr(engine, "prefers_batching", True) else "linear"
        )

    # A probe at t asks for a vector not settled by t: ``(model, output)``
    # with the output attributed only for the final witness (None on the
    # batched path), which keeps the probe loop cheap on large circuits.
    best: Optional[Tuple[Dict[str, bool], Optional[str], int]] = None
    if search == "ascending":
        for t in range(lowest - 1, upper):
            result = query.probe(t)
            if result is None:
                break
            best = (result[0], result[1], t + 1)
    elif search == "binary":
        # Largest t in [lowest-1, upper-1] with a witness; delay = t + 1.
        # A witness always exists at lowest-1 (outputs cannot settle before
        # their earliest arrival), so bisect with that as the low anchor.
        found = query.probe(upper - 1)
        if found is not None:
            best = (found[0], found[1], upper)
        else:
            low, high = lowest - 1, upper - 1
            low_witness = query.probe(low)
            while low_witness is not None and high - low > 1:
                mid = (low + high) // 2
                result = query.probe(mid)
                if result is not None:
                    low, low_witness = mid, result
                else:
                    high = mid
            if low_witness is not None:
                best = (low_witness[0], low_witness[1], low + 1)
    else:
        for t in range(upper, lowest - 1, -1):
            result = query.probe(t - 1)
            if result is not None:
                best = (result[0], result[1], t)
                break

    record_engine_metrics(
        "floating", engine, analysis.num_functions(), query.checks
    )
    if best is None:
        # Every output settled as early as possible.
        return DelayCertificate(
            mode="floating", delay=max(0, lowest), checks=query.checks
        )
    model, out, delay = best
    if out is None:
        out = query.attribute(model, delay - 1)
    witness = analysis.completion(model)
    return DelayCertificate(
        mode="floating",
        delay=delay,
        output=out,
        value=analysis.program.value(witness, out),
        witness=witness,
        checks=query.checks,
    )
