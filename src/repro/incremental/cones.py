"""Per-output fanin-cone extraction and evaluation.

The incremental engine's unit of work is the *cone*: the transitive fanin
of one primary output, extracted as a self-contained single-output
:class:`~repro.network.circuit.Circuit`.  Evaluating delays cone by cone
makes every per-output result a pure function of the cone's content —
engine variable order, witnesses, and delay values cannot depend on
anything outside the cone — which is exactly what makes the results
content-addressable under :func:`~repro.runtime.fingerprint.cone_fingerprint`
keys: a cached cone result replayed after an edit elsewhere in the circuit
is byte-identical to recomputing it.

The aggregate over all outputs recovers the whole-circuit answer for every
supported kind:

* ``topological`` — the longest graphical delay is the max over outputs;
* ``floating``    — the least time by which *all* outputs have settled is
  the max of the per-output settle times;
* ``transition``  — the latest excitable output transition is the max of
  the per-output latest transition times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.floating import compute_floating_delay
from ..core.transition import compute_transition_delay
from ..core.vectors import VectorPair, format_vector
from ..network.circuit import Circuit
from ..network.gates import GateType
from ..runtime.cache import DelayCache

#: The delay kinds the incremental engine answers.
KINDS = ("topological", "floating", "transition")


def extract_cone(circuit: Circuit, output: str,
                 fanin: Optional[List[str]] = None) -> Circuit:
    """The fanin cone of ``output`` as a standalone single-output circuit.

    The cone is named ``cone#<output>`` — deliberately *not* derived from
    the parent circuit's name, so two circuits containing an identical
    cone extract identical subcircuits (content-addressed caching depends
    on it).  Cone inputs keep the parent's input declaration order, which
    fixes vector rendering and the engines' variable order.  ``fanin`` is
    ``circuit.transitive_fanin([output])`` if the caller has walked it.
    """
    if fanin is None:
        fanin = circuit.transitive_fanin([output])
    members = set(fanin)
    cone = Circuit(f"cone#{output}")
    for name in circuit.inputs:
        if name in members:
            cone.add_input(name)
    for name in fanin:
        node = circuit.node(name)
        if node.gate_type != GateType.INPUT:
            cone.add_gate(name, node.gate_type, node.fanins, node.delay)
    cone.set_outputs([output])
    return cone


@dataclass
class ConeResult:
    """The delay of one output's cone, plus its certification witness.

    ``witness``/``pair`` cover the *cone's* inputs only; callers render
    them over the full circuit input list with absent inputs pinned to
    False (:meth:`record`) so the wire format is total and deterministic.
    ``checks`` is accounting (the '#check' column), reported separately
    from the byte-compared record — a cached replay performs zero checks
    but must compare equal to a fresh evaluation.
    """

    output: str
    kind: str
    delay: int
    checks: int = 0
    value: Optional[bool] = None
    witness: Optional[Dict[str, bool]] = None
    pair: Optional[VectorPair] = None
    cone_inputs: List[str] = field(default_factory=list)

    def record(self, inputs: Sequence[str]) -> Dict[str, object]:
        """Deterministic JSON-able record (no volatile accounting)."""
        data: Dict[str, object] = {"delay": self.delay}
        if self.value is not None:
            data["value"] = int(self.value)
        if self.witness is not None:
            total = {
                name: bool(self.witness.get(name, False)) for name in inputs
            }
            data["witness"] = format_vector(total, inputs)
        if self.pair is not None:
            prev = {
                name: bool(self.pair.v_prev.get(name, False))
                for name in inputs
            }
            nxt = {
                name: bool(self.pair.v_next.get(name, False))
                for name in inputs
            }
            data["pair"] = [
                format_vector(prev, inputs), format_vector(nxt, inputs)
            ]
        return data


def evaluate_cone(
    cone: Circuit,
    kind: str,
    engine_name: str = "auto",
    upper: Optional[int] = None,
) -> ConeResult:
    """Compute one cone's delay of the given kind.

    Runs the ordinary cores with a disabled per-call cache — the
    incremental engine caches at the cone level itself, and double
    caching under whole-circuit keys would only duplicate storage.  The
    auto BDD→SAT overflow fallback still applies (it lives inside the
    cores).  ``upper`` is a proven upper bound on the floating delay that
    the floating search starts from (the topological delay when None);
    any bound at least the floating delay yields the same certificate,
    with fewer checks the tighter it is.  Other kinds ignore it.
    """
    if kind not in KINDS:
        raise ValueError(
            f"unknown delay kind {kind!r} (expected one of {KINDS})"
        )
    output = cone.outputs[0]
    if kind == "topological":
        return ConeResult(
            output=output,
            kind=kind,
            delay=cone.topological_delay(),
            cone_inputs=cone.inputs,
        )
    no_cache = DelayCache(enabled=False)
    if kind == "floating":
        cert = compute_floating_delay(
            cone, engine_name=engine_name, upper=upper, cache=no_cache
        )
        return ConeResult(
            output=output,
            kind=kind,
            delay=cert.delay,
            checks=cert.checks,
            value=cert.value,
            witness=cert.witness,
            cone_inputs=cone.inputs,
        )
    cert = compute_transition_delay(
        cone, engine_name=engine_name, cache=no_cache
    )
    return ConeResult(
        output=output,
        kind=kind,
        delay=cert.delay,
        checks=cert.checks,
        value=cert.value,
        pair=cert.pair,
        cone_inputs=cone.inputs,
    )
