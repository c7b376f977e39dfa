"""Transition analysis under bounded gate delays (Sec. V-F, Table III).

Each gate's delay may lie anywhere in ``[d_l, d_u]`` — with ``[0, d]`` this
is the monotone-speedup model of [13] used for Table III.  Following the
symbolic ternary-waveform method (ref. [11], Seger-Bryant [15]), we build
*guaranteed-value* characteristic functions over the doubled vector-pair
space:

* ``U1_t(g)`` — vector pairs for which ``g`` is guaranteed 1 throughout
  interval ``[t, t+1)`` under every admissible delay assignment,
* ``U0_t(g)`` — likewise for 0.

A gate guarantees a value at ``t`` iff its inputs force that value at every
``tau`` in ``[t - d_u, t - d_l]`` (the delay may even vary event-to-event,
which keeps the analysis conservative, i.e. safe).  The output may still be
*transitioning* at time point ``t`` for the pairs satisfying

    ``possible_t = NOT (U1_{t-1} U1_t  +  U0_{t-1} U0_t)``

and the bounded transition delay is the largest ``t`` with ``possible_t``
satisfiable.  With degenerate bounds ``[d, d]`` this reduces exactly to the
fixed-delay analysis of :mod:`repro.core.transition` (tested property).

Monotone speedup.  When every lower bound is 0 and every input switches at
0, a signal's guarantees only tighten from ``t = 0`` on (by induction in
topological order: the inputs are constant from 0, and the gate functions
are monotone in the information order).  With ``F_tau`` the pair the
gate's inputs force at ``tau``, the window AND then collapses to one term,

    ``U_t = F_{t-d}``  for ``t >= d``,
    ``U_t = (F1_0 AND init, F0_0 AND NOT init)``  for ``0 <= t < d``,

and ``U_{t-1}`` implies ``U_t`` for ``t >= 1``, so
``possible_t = NOT (U1_{t-1} + U0_{t-1})``.  The functions are the same
(on BDDs, the same handles) as the window AND's; bounds with some
``d_l > 0`` and clocked inputs keep the window AND.  See
``docs/ALGORITHMS.md`` ("Bounded delays").
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..network.circuit import Circuit
from ..sim.wordsim import program_for
from .analysis import (
    ConstraintBuilder,
    SymbolicAnalysis,
    cached_delay,
    pair_delay_certificate,
    settle_kernel,
)
from .vectors import DelayCertificate, VectorPair, cur_var, prev_var

Bounds = Callable[[str], Tuple[int, int]]


def monotone_speedup_bounds(circuit: Circuit) -> Bounds:
    """``[0, d]`` for every gate — the Table III model."""

    def bounds(name: str) -> Tuple[int, int]:
        return 0, circuit.node(name).delay

    # Derived purely from this circuit's delays (part of its cache
    # fingerprint), so its results under these bounds are cacheable.
    bounds.cache_id = "monotone-speedup"
    bounds.source = circuit
    return bounds


def fixed_delay_bounds(circuit: Circuit) -> Bounds:
    """Degenerate ``[d, d]`` bounds (reduces to the fixed-delay analysis)."""

    def bounds(name: str) -> Tuple[int, int]:
        d = circuit.node(name).delay
        return d, d

    bounds.cache_id = "fixed-delay"
    bounds.source = circuit
    return bounds


def _bounds_cache_id(bounds, circuit: Circuit) -> Optional[str]:
    """Identity of a bounds callable for cache keying on ``circuit``, or
    None: bounds built from another circuit read delays that ``circuit``'s
    fingerprint does not cover."""
    if bounds is None:
        return "monotone-speedup"
    tag = getattr(bounds, "cache_id", None)
    if (isinstance(tag, str) and tag
            and getattr(bounds, "source", circuit) is circuit):
        return tag
    return None


class BoundedAnalysis(SymbolicAnalysis):
    """Guaranteed-value symbolic waveforms under delay bounds."""

    mode = "bounded-transition"
    kind = "bounded"

    def __init__(
        self,
        circuit: Circuit,
        bounds: Optional[Bounds] = None,
        engine=None,
        engine_name: str = "auto",
        input_times: Optional[Dict[str, int]] = None,
    ):
        self.bounds = bounds or monotone_speedup_bounds(circuit)
        self._caller_bounds = bounds is not None
        program = program_for(circuit)
        # Per-slot [d_l, d_u]; the default [0, d] is valid as d >= 0.
        self._lo, self._hi = [0] * len(program.order), list(program.delays)
        if self._caller_bounds:
            for name in circuit.gate_names():
                lo, hi = bounds(name)
                if not (0 <= lo <= hi):
                    raise ValueError(
                        f"bad delay bounds for {name!r}: [{lo}, {hi}]"
                    )
                slot = program.slots[name]
                self._lo[slot], self._hi[slot] = lo, hi
        super().__init__(circuit, engine, engine_name, input_times)
        self._force_memo: Dict[Tuple[int, int], Tuple[int, int]] = {}
        # The monotone-speedup lemma (module docstring) holds when every
        # lower bound is 0 and every input switches at 0.
        self._monotone = not any(self._lo) and not any(
            self.input_times.values()
        )

    def _windows(self) -> Tuple[List[int], List[int]]:
        """Under the default ``[0, d]`` every window opens at 0 and closes
        where the fixed-delay one does."""
        if self._caller_bounds or self.input_times:
            return self.program.windows(self._lo, self._hi, self.input_times)
        return self._lo, self.program.late

    # ------------------------------------------------------------------
    def guaranteed_pair(self, name: str, t: int) -> Tuple[int, int]:
        """``(U1_t, U0_t)`` for the signal (lazy, memoised)."""
        return self._guaranteed_pair(self.program.slots[name], t)

    def _guaranteed_pair(self, slot: int, t: int) -> Tuple[int, int]:
        engine = self.engine
        if t < self._early[slot]:
            init = self._settled_function(slot, self._initial, prev_var)
            return init, engine.not_(init)
        if t >= self._late[slot]:
            final = self._settled_function(slot, self._final, cur_var)
            return final, engine.not_(final)
        key = (slot, t)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if self.program.gates[slot] is None:
            final = self._settled_function(slot, self._final, cur_var)
            result = (final, engine.not_(final))
        elif self._monotone:
            # Guarantees tighten from 0 on: the latest term of the window
            # implies the others, and the terms before 0 are the settled
            # v_-1 value.
            delay = self._hi[slot]
            if t >= delay:
                result = self._forced_pair(slot, t - delay)
            else:
                f1, f0 = self._forced_pair(slot, 0)
                init = self._settled_function(slot, self._initial, prev_var)
                result = (engine.and_(f1, init),
                          engine.and_(f0, engine.not_(init)))
        else:
            u1 = engine.const1
            u0 = engine.const1
            for tau in range(t - self._hi[slot], t - self._lo[slot] + 1):
                f1, f0 = self._forced_pair(slot, tau)
                u1 = engine.and_(u1, f1)
                u0 = engine.and_(u0, f0)
            result = (u1, u0)
        self._memo[key] = result
        return result

    def _forced_pair(self, slot: int, tau: int) -> Tuple[int, int]:
        """Functions forcing the gate output to 1 / 0 given its inputs'
        guarantees at time ``tau``."""
        key = (slot, tau)
        cached = self._force_memo.get(key)
        if cached is not None:
            return cached
        kind, inverting, fanins = self.program.gates[slot]
        result = settle_kernel(
            self.engine, kind, inverting,
            [self._guaranteed_pair(f, tau) for f in fanins],
        )
        self._force_memo[key] = result
        return result

    def possibly_transitioning(self, name: str, t: int) -> int:
        """Vector pairs for which the signal may change at time point ``t``
        (not guaranteed stable across the ``t-1 | t`` boundary)."""
        engine = self.engine
        u1_prev, u0_prev = self.guaranteed_pair(name, t - 1)
        if self._monotone and t >= 1:
            # U_{t-1} implies U_t: stable wherever U_{t-1} holds a value.
            return engine.not_(engine.or_(u1_prev, u0_prev))
        u1_now, u0_now = self.guaranteed_pair(name, t)
        stable = engine.or_(
            engine.and_(u1_prev, u1_now), engine.and_(u0_prev, u0_now)
        )
        return engine.not_(stable)

    predicate = possibly_transitioning

    def output_value(self, name: str, t: int, pair: VectorPair) -> bool:
        return self.program.value(pair.v_next, name)


def compute_bounded_transition_delay(
    circuit: Circuit,
    bounds: Optional[Bounds] = None,
    engine=None,
    engine_name: str = "auto",
    upper: Optional[int] = None,
    constraint: Optional[ConstraintBuilder] = None,
    input_times: Optional[Dict[str, int]] = None,
    analysis: Optional[BoundedAnalysis] = None,
    cache=None,
) -> DelayCertificate:
    """Bounded-delay transition delay (a safe upper bound) with a witness
    vector pair — the Table III computation.

    With ``monotone_speedup_bounds`` (the default) this is the
    monotone-speedup-safe transition delay; on the combinational benchmarks
    it validates the floating delay, exactly as the paper reports.

    Cacheable (see :mod:`repro.runtime.cache`) when no explicit ``engine``
    or ``analysis`` is supplied and ``bounds`` is either the default or a
    callable tagged with a ``cache_id``.
    """
    if analysis is not None:
        return pair_delay_certificate(analysis, upper, constraint)
    bounds_id = _bounds_cache_id(bounds, circuit)
    return cached_delay(
        BoundedAnalysis,
        lambda eng: pair_delay_certificate(
            BoundedAnalysis(circuit, bounds, eng, engine_name, input_times),
            upper, constraint,
        ),
        circuit, engine, engine_name, constraint,
        None if bounds_id is None else {
            "input_times": input_times or {},
            "upper": upper,
            "bounds": bounds_id,
        },
        cache,
    )
