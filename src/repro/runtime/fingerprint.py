"""Canonical content fingerprints for circuits and analysis parameters.

Two circuits with the same fingerprint are byte-for-byte the same analysis
input: same node names, gate types, fanin lists (order matters — XOR chains
aside, fanin order fixes witness attribution), delays, and the same primary
I/O declarations in the same order.  The fingerprint is therefore a sound
cache key: a cached certificate can never go stale, because any edit to the
circuit changes the key (content-addressed invalidation — see
``docs/RUNTIME.md``).

Beyond the whole-circuit fingerprint, this module keys each output's
transitive-fanin *cone* (:func:`cone_fingerprint`) in two parts: a
*shape digest* of everything but the delays (:func:`cone_shape`), which
holds while the circuit's structure does, and the cone's gate delays
(:func:`cone_key`).  Two outputs share a key exactly when their cones
are the same, whichever circuit they sit in and in whatever order its
nodes were added.  The incremental engine (:mod:`repro.incremental`)
keeps each output's shape and, after a delay edit, computes one key per
output the edit reached.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional, Sequence, Tuple

from ..network.circuit import Node
from ..network.gates import GateType


def circuit_signature(circuit) -> str:
    """Canonical, deterministic serialisation of a circuit's content.

    Node records are sorted by name so that construction order does not
    leak into the signature; the input/output lists keep their declared
    order because vector rendering and witness extraction depend on it.
    """
    payload = {
        "name": circuit.name,
        "inputs": circuit.inputs,
        "outputs": circuit.outputs,
        "nodes": [
            [node.name, node.gate_type.value, list(node.fanins), node.delay]
            for node in sorted(circuit.nodes(), key=lambda n: n.name)
        ],
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def circuit_fingerprint(circuit) -> str:
    """SHA-256 hex digest of the canonical circuit signature."""
    return hashlib.sha256(circuit_signature(circuit).encode()).hexdigest()


def cone_shape(circuit, output: str) -> Tuple[str, Tuple[Node, ...]]:
    """The shape digest of ``output``'s fanin cone, and its gates in walk
    order.

    The walk starts at ``output`` and visits each member once, breadth
    first, taking every member's fanins in fanin order, so it follows
    from the cone itself: the order in which the circuit's nodes were
    added cannot move it.  The digest is the SHA-256 of a fixed layout:
    the member count, then per member in walk order ``len(name):name``,
    ``gate:``, ``len(fanins):`` and each fanin as ``len(fanin):fanin``,
    then the cone inputs in *declaration order*
    (the per-cone analyses declare engine variables in that order, so it
    co-determines witnesses), counted and length-prefixed the same way.
    Every name carries its length and every list its count, and gate
    types (enum values) hold no ``:``, so the layout reads back one way
    only and no two cones share it.  Delays are left out: they are the
    key's second part (:func:`cone_key`).

    The gates are the circuit's own :class:`~repro.network.circuit.Node`
    objects, whose delays a delay edit changes in place; a structural
    edit swaps nodes and so needs a new shape.
    """
    node = circuit.node
    walk = [output]
    seen = {output}
    for name in walk:  # grows while it is read: breadth first
        for fanin in node(name).fanins:
            if fanin not in seen:
                seen.add(fanin)
                walk.append(fanin)
    parts = [f"{len(walk)}:"]
    gates = []
    for name in walk:
        member = node(name)
        fanins = member.fanins
        parts.append(
            f"{len(name)}:{name}{member.gate_type.value}:{len(fanins)}:"
        )
        parts.extend([f"{len(fanin)}:{fanin}" for fanin in fanins])
        if member.gate_type is not GateType.INPUT:
            gates.append(member)
    inputs = [name for name in circuit.inputs if name in seen]
    parts.append(f"{len(inputs)}:")
    parts.extend([f"{len(name)}:{name}" for name in inputs])
    digest = hashlib.sha256("".join(parts).encode()).hexdigest()
    return digest, tuple(gates)


def cone_key(shape: str, gates: Sequence[Node]) -> str:
    """Cache key for a cone: its shape digest (:func:`cone_shape`) and its
    gates' delays, read in the shape's walk order.

    The shape fixes how many gates there are, so the delays, joined by
    ``,`` after the 64-digit digest, read back one way only.  The key is
    namespaced ``cone:`` so it never collides with a whole-circuit
    fingerprint.  One SHA-256 per key, whatever the cone's size: a delay
    edit costs each output it reaches one key, not one hash per node.
    """
    payload = shape + ":" + ",".join([str(gate.delay) for gate in gates])
    return "cone:" + hashlib.sha256(payload.encode()).hexdigest()


def cone_fingerprint(circuit, output: str) -> str:
    """Cache key for the fanin cone of ``output``, computed from scratch
    (:func:`cone_shape`, then :func:`cone_key`).  The incremental engine
    keeps each output's shape per circuit structure and computes only
    the key after a delay edit; both routes give this key."""
    return cone_key(*cone_shape(circuit, output))


def params_token(params: Optional[Dict[str, object]]) -> str:
    """Canonical serialisation of an analysis-parameter mapping.

    Values must be JSON-representable (ints, strings, bools, None, and
    flat dicts such as ``input_times``); anything else is stringified,
    which is safe because a collision then only costs a cache miss on
    re-keying, never a wrong hit (``repr`` differences separate keys).
    """
    if not params:
        return "{}"  # what ``json.dumps({})`` gives, without the call
    return json.dumps(params, sort_keys=True, default=repr)
