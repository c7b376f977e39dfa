"""Canonical content fingerprints for circuits and analysis parameters.

Two circuits with the same fingerprint are byte-for-byte the same analysis
input: same node names, gate types, fanin lists (order matters — XOR chains
aside, fanin order fixes witness attribution), delays, and the same primary
I/O declarations in the same order.  The fingerprint is therefore a sound
cache key: a cached certificate can never go stale, because any edit to the
circuit changes the key (content-addressed invalidation — see
``docs/RUNTIME.md``).

Beyond the whole-circuit fingerprint, this module computes *per-node
transitive-fanin cone* hashes (:func:`node_cone_fingerprints`): each node's
hash folds its own record with its fanins' cone hashes, Merkle-style, so
two nodes share a cone hash exactly when their fanin cones are identical
trees.  An edit anywhere in a circuit changes the cone hashes of precisely
the nodes downstream of the edit — the foundation of the incremental
engine's clean-cone reuse (:mod:`repro.incremental`), which keeps the
hashes between queries and re-derives only those nodes
(:func:`node_cone_hash`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, Optional


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


def node_cone_hash(node, fps: Dict[str, str]) -> str:
    """The Merkle cone hash of one node, given its fanins' in ``fps``.

    It covers the node's name, gate type, delay, and — in fanin order —
    the cone hashes of its fanins, so it identifies the *entire* cone DAG
    feeding the node.  The payload has a fixed layout,
    ``len(name):name:gate:delay:len(fanins):`` and then the fanins'
    64-digit hashes, which reads back one way only: the length prefix
    ends the name, gate types and integer delays hold no ``:``, and the
    fanin count fixes how many fixed-width hashes follow.
    """
    name, fanins = node.name, node.fanins
    payload = (
        f"{len(name)}:{name}:{node.gate_type.value}:{node.delay}:"
        f"{len(fanins)}:" + "".join([fps[f] for f in fanins])
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def node_cone_fingerprints(circuit) -> Dict[str, str]:
    """Merkle-style transitive-fanin cone hash for every node.

    Computed in one topological pass (linear in circuit size).  After
    delay edits only the edited nodes' forward closure needs rehashing,
    in topological order (:func:`node_cone_hash`): the incremental engine
    keeps the map between queries and does just that.
    """
    fps: Dict[str, str] = {}
    for name in circuit.topological_order():
        fps[name] = node_cone_hash(circuit.node(name), fps)
    return fps


def cone_fingerprint(
    circuit,
    output: str,
    node_fps: Optional[Dict[str, str]] = None,
    cone_inputs: Optional[Iterable[str]] = None,
) -> str:
    """Cache key for the fanin cone of ``output``.

    Folds the output's Merkle cone hash with the cone's primary inputs in
    *declaration order* — the per-cone analyses declare engine variables in
    that order, so it co-determines witnesses and must be part of the key.
    Precomputed ``node_fps``/``cone_inputs`` avoid rework in batch loops.
    """
    if node_fps is None:
        node_fps = node_cone_fingerprints(circuit)
    if cone_inputs is None:
        members = set(circuit.transitive_fanin([output]))
        cone_inputs = [i for i in circuit.inputs if i in members]
    # The output's 64-digit hash, then each input name length-prefixed
    # (``len(name):name``), so no two input lists give one payload.
    payload = node_fps[output] + "".join(
        [f"{len(name)}:{name}" for name in cone_inputs]
    )
    return "cone:" + hashlib.sha256(payload.encode()).hexdigest()


def params_token(params: Optional[Dict[str, object]]) -> str:
    """Canonical serialisation of an analysis-parameter mapping.

    Values must be JSON-representable (ints, strings, bools, None, and
    flat dicts such as ``input_times``); anything else is stringified,
    which is safe because a collision then only costs a cache miss on
    re-keying, never a wrong hit (``repr`` differences separate keys).
    """
    return json.dumps(params or {}, sort_keys=True, default=repr)
