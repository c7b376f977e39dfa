"""Vector-space restrictions for FSM delay analysis (Sec. VI).

"For the finite state machine examples the set of input vectors in floating
delay computation was restricted to ``i@s`` with ``s`` in the set of
reachable states.  In transition delay computation, the set of input vector
pairs ``<i1@s1, i2@s2>`` were applied such that ``s1`` is reachable with
``s2`` being determined by the next state logic and ``i1@s1``."

These builders plug into the ``constraint=`` parameters of
:func:`repro.core.floating.compute_floating_delay` and
:func:`repro.core.transition.compute_transition_delay`.  Each is called
with the analysis it restricts (``build(analysis) -> handle``); the
next-state logic of the pair constraint is that analysis's own ``v_-1``
settle functions.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, List

from ..core.vectors import cur_var, prev_var
from ..runtime.fingerprint import circuit_fingerprint
from .synth import FsmLogic


def _state_code_function(engine, logic: FsmLogic, state: str,
                         rename: Callable[[str], str]) -> int:
    """Characteristic function of one state's code over (renamed) state vars."""
    result = engine.const1
    for name, bit in zip(logic.state_names, logic.encoding.code(state)):
        literal = engine.var(rename(name))
        if not bit:
            literal = engine.not_(literal)
        result = engine.and_(result, literal)
    return result


def _logic_cache_id(kind: str, logic: FsmLogic,
                    reachable: List[str]) -> str:
    """Content hash identifying a constraint built from this FSM logic,
    so constrained results are keyable in the runtime cache."""
    payload = json.dumps(
        {
            "circuit": circuit_fingerprint(logic.circuit),
            "states": reachable,
            "codes": {
                state: [int(b) for b in logic.encoding.code(state)]
                for state in reachable
            },
            "state_names": list(logic.state_names),
            "next_state_names": list(logic.next_state_names),
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return f"{kind}:{digest}"


def reachable_states_constraint(logic: FsmLogic):
    """Floating-mode care set: the present-state bits carry a reachable
    state's code (single-vector space, plain variable names)."""
    reachable: List[str] = logic.fsm.reachable_states()

    def build(analysis) -> int:
        engine = analysis.engine
        terms = [
            _state_code_function(engine, logic, state, lambda n: n)
            for state in reachable
        ]
        return engine.or_many(terms)

    build.cache_id = _logic_cache_id("fsm-reach", logic, reachable)
    return build


def transition_pair_constraint(logic: FsmLogic):
    """Transition-mode constraint over the doubled space:
    ``s@-`` reachable AND ``s@0 == next_state_logic(i@-, s@-)``.

    The next-state logic over the ``@-`` variables is the analysis's own
    ``v_-1`` settle function of each next-state output
    (:meth:`~repro.core.analysis.SymbolicAnalysis.initial_function`), read
    by name off the circuit under analysis: ``logic.circuit``, or a copy
    with other delays, whose settled values are the same."""
    reachable: List[str] = logic.fsm.reachable_states()

    def build(analysis) -> int:
        engine = analysis.engine
        reach = engine.or_many(
            _state_code_function(engine, logic, state, prev_var)
            for state in reachable
        )
        consistent = engine.const1
        for s_name, ns_name in zip(
            logic.state_names, logic.next_state_names
        ):
            same = engine.not_(
                engine.xor_(
                    engine.var(cur_var(s_name)),
                    analysis.initial_function(ns_name),
                )
            )
            consistent = engine.and_(consistent, same)
        return engine.and_(reach, consistent)

    build.cache_id = _logic_cache_id("fsm-pair", logic, reachable)
    return build
