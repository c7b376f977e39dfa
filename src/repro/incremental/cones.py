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

from typing import List, Optional

from ..core.floating import compute_floating_delay
from ..core.transition import compute_transition_delay
from ..core.vectors import DelayCertificate
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


def evaluate_cone(
    cone: Circuit,
    kind: str,
    engine_name: str = "auto",
    upper: Optional[int] = None,
    engine=None,
) -> DelayCertificate:
    """Compute one cone's delay of the given kind, as its certificate.

    Runs the ordinary cores with a disabled per-call cache — the
    incremental engine caches at the cone level itself, and double
    caching under whole-circuit keys would only duplicate storage.  The
    auto BDD→SAT overflow fallback still applies (it lives inside the
    cores).  ``upper`` is a proven upper bound on the floating delay that
    the floating search starts from (the topological delay when None);
    any bound at least the floating delay yields the same certificate,
    with fewer checks the tighter it is.  Other kinds ignore it.
    ``engine``, if given, is the function engine a floating search runs
    on instead of a fresh one (the incremental engine passes the BDD
    engine it keeps for the cone); a BDD overflow on it propagates, with
    no fallback.

    The witness or pair covers the cone's inputs only; the engine renders
    it over the whole circuit's inputs with
    :meth:`~repro.core.vectors.DelayCertificate.record`, which leaves out
    ``checks``: a cached replay makes no checks but must compare equal to
    a fresh evaluation.
    """
    if kind not in KINDS:
        raise ValueError(
            f"unknown delay kind {kind!r} (expected one of {KINDS})"
        )
    if kind == "topological":
        return DelayCertificate(
            mode=kind, delay=cone.topological_delay(), output=cone.outputs[0]
        )
    no_cache = DelayCache(enabled=False)
    if kind == "floating":
        return compute_floating_delay(
            cone, engine=engine, engine_name=engine_name, upper=upper,
            cache=no_cache,
        )
    return compute_transition_delay(
        cone, engine_name=engine_name, cache=no_cache
    )
