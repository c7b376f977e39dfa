"""Deterministic scenario streams: circuit × corner × edit sequence.

A :class:`Scenario` is one fuzz case — a **self-contained** description
of a circuit (BENCH text plus an explicit per-gate delay map, because the
BENCH format cannot carry delays), a delay-model *corner* (the same four
kinds the characterization subsystem sweeps: fixed / bounded /
statistical / per-input clocked), and a journalled edit sequence to apply
mid-scenario.  Self-containment is what makes a shrunken ``.repro.json``
replayable on a machine that has never seen the registry entry the
scenario was originally drawn from.

Scenario streams are pure functions of their seed: every random draw
comes from ``random.Random(f"fuzz:{seed}:{index}")``-style string-seeded
streams (the convention :func:`repro.runtime.parallel.sample_seed`
established), so jobs=1 and jobs=N sweeps enumerate byte-identical
scenarios.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..network.bench_io import dumps_bench, loads_bench
from ..network.circuit import Circuit
from ..network.gates import GateType, SOURCE_GATES, validate_arity
from .generate import corpus_profiles, random_dag

__all__ = [
    "CORNER_KINDS",
    "Corner",
    "Scenario",
    "apply_edits",
    "materialize",
    "random_edit",
    "scenario_for",
    "scenario_stream",
]

CORNER_KINDS = ("fixed", "bounded", "statistical", "clocked")

_EDIT_GATES = (
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUF,
)


@dataclass(frozen=True)
class Corner:
    """One delay-model corner, mirroring ``repro.characterize`` kinds.

    * ``fixed`` — exact floating/transition analysis, no options;
    * ``bounded`` — monotone-speedup interval analysis, no options;
    * ``statistical`` — Monte-Carlo replay; ``samples`` and ``spread``;
    * ``clocked`` — per-input arrival skew; ``skew`` (odd-indexed inputs
      arrive late, the characterize convention).
    """

    kind: str = "fixed"
    options: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.kind not in CORNER_KINDS:
            raise ValueError(
                f"unknown corner kind {self.kind!r} "
                f"(expected one of {', '.join(CORNER_KINDS)})"
            )

    def option(self, name: str, default: int = 0) -> int:
        return dict(self.options).get(name, default)

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Corner":
        options = data.get("options") or {}
        return cls(
            kind=str(data.get("kind", "fixed")),
            options=tuple(sorted((str(k), int(v)) for k, v in options.items())),
        )


@dataclass
class Scenario:
    """One self-contained fuzz case."""

    scenario_id: str
    seed: int
    circuit_name: str
    bench_text: str
    delays: Dict[str, int] = field(default_factory=dict)
    corner: Corner = field(default_factory=Corner)
    edits: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario_id": self.scenario_id,
            "seed": self.seed,
            "circuit_name": self.circuit_name,
            "bench_text": self.bench_text,
            "delays": dict(self.delays),
            "corner": self.corner.to_dict(),
            "edits": [dict(e) for e in self.edits],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Scenario":
        return cls(
            scenario_id=str(data["scenario_id"]),
            seed=int(data["seed"]),
            circuit_name=str(data["circuit_name"]),
            bench_text=str(data["bench_text"]),
            delays={str(k): int(v) for k, v in (data.get("delays") or {}).items()},
            corner=Corner.from_dict(data.get("corner") or {}),
            edits=[dict(e) for e in (data.get("edits") or [])],
        )


def materialize(scenario: Scenario) -> Circuit:
    """Build the scenario's pre-edit circuit with an **empty journal**.

    The BENCH text carries structure; ``delays`` re-annotates gate delays.
    Delays are applied during reconstruction (not via ``set_delay``) so an
    :class:`~repro.incremental.engine.IncrementalTimingEngine` created on
    the result starts from journal position 0, exactly like a cold build.
    """
    parsed = loads_bench(
        scenario.bench_text, source=f"<{scenario.scenario_id}>"
    )
    circuit = Circuit(scenario.circuit_name)
    for name in parsed.inputs:
        circuit.add_input(name)
    for node_name in parsed.topological_order():
        node = parsed.node(node_name)
        if node.gate_type == GateType.INPUT:
            continue
        circuit.add_gate(
            node.name,
            node.gate_type,
            node.fanins,
            scenario.delays.get(node.name, node.delay),
        )
    circuit.set_outputs(parsed.outputs)
    circuit.validate()
    return circuit


def snapshot_circuit(circuit: Circuit) -> Tuple[str, Dict[str, int]]:
    """Render a circuit as ``(bench_text, delays)`` for embedding."""
    bench_text = dumps_bench(circuit)
    delays = {
        node.name: node.delay
        for node in circuit.nodes()
        if node.gate_type != GateType.INPUT and node.delay != 1
    }
    return bench_text, delays


# ----------------------------------------------------------------------
# Edits
# ----------------------------------------------------------------------
def random_edit(
    circuit: Circuit, rng: random.Random, max_delay: int = 4
) -> Optional[Dict[str, object]]:
    """Draw one plausible journalled edit against ``circuit``'s current
    state.  Returns ``None`` when the circuit offers no editable gate.

    The draw may still be inapplicable once earlier edits land (e.g. a
    rewire that would now create a cycle); :func:`apply_edits` skips such
    edits deterministically, so a drawn edit list is always replayable.
    """
    gates = [
        n for n in circuit.nodes() if n.gate_type not in SOURCE_GATES
    ]
    if not gates:
        return None
    names = sorted(circuit.topological_order())
    op = rng.choice(("set_delay", "set_delay", "rewire", "replace_gate",
                     "remove_gate"))
    target = rng.choice(sorted(g.name for g in gates))
    if op == "set_delay":
        return {
            "op": "set_delay",
            "name": target,
            "delay": rng.randint(0, max_delay),
        }
    if op == "remove_gate":
        return {"op": "remove_gate", "name": target}
    arity = len(circuit.node(target).fanins)
    if op == "rewire":
        fanins = [rng.choice(names) for _ in range(arity)]
        return {"op": "rewire", "name": target, "fanins": fanins}
    gate = rng.choice(_EDIT_GATES)
    try:
        validate_arity(gate, target, arity)
    except ValueError:
        gate = GateType.NOT if arity == 1 else GateType.AND
        try:
            validate_arity(gate, target, arity)
        except ValueError:
            return {
                "op": "set_delay",
                "name": target,
                "delay": rng.randint(0, max_delay),
            }
    return {
        "op": "replace_gate",
        "name": target,
        "gate_type": gate.value,
        "fanins": [rng.choice(names) for _ in range(arity)],
        "delay": rng.randint(0, max_delay),
    }


def apply_edits(
    circuit: Circuit, edits: Sequence[Dict[str, object]]
) -> int:
    """Apply an edit list in order with
    :meth:`~repro.network.circuit.Circuit.apply_edit`, skipping
    inapplicable entries.

    An edit is *inapplicable* when ``apply_edit`` refuses it: its target
    or a field is missing (KeyError), or it is malformed or the circuit
    rejects it (ValueError: not an object, a name that is not a string,
    a cycle, live fanout on a removal, ...).  Skipping — rather than
    failing — keeps replay deterministic under shrinking, where dropping
    one edit can invalidate a later one, and lets a hand-edited
    ``.repro.json`` replay.  Returns the number of edits applied.
    """
    applied = 0
    for edit in edits:
        try:
            circuit.apply_edit(edit)
        except (KeyError, ValueError):
            continue
        applied += 1
    return applied


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
def _draw_corner(rng: random.Random) -> Corner:
    kind = rng.choice(
        ("fixed", "fixed", "clocked", "statistical", "bounded")
    )
    if kind == "clocked":
        return Corner("clocked", (("skew", rng.randint(1, 3)),))
    if kind == "statistical":
        return Corner(
            "statistical",
            (("samples", rng.randint(6, 16)), ("spread", 1)),
        )
    return Corner(kind)


def scenario_for(
    seed: int,
    index: int,
    size: str = "small",
    max_edits: int = 4,
) -> Scenario:
    """The ``index``-th scenario of the ``seed`` stream — a pure function
    of ``(seed, index, size, max_edits)``."""
    rng = random.Random(f"fuzz:{seed}:{index}")
    profile = corpus_profiles(
        seed=seed * 1_000_003 + index, count=1, size=size
    )[0]
    circuit = random_dag(profile)
    bench_text, delays = snapshot_circuit(circuit)
    corner = _draw_corner(rng)
    # Draw edits against an evolving copy so later draws see the effect
    # of earlier ones (e.g. a removed gate is never re-targeted).
    edits: List[Dict[str, object]] = []
    scratch = materialize(
        Scenario("scratch", seed, circuit.name, bench_text, dict(delays))
    )
    for _ in range(rng.randint(0, max_edits)):
        edit = random_edit(scratch, rng)
        if edit is None:
            break
        if apply_edits(scratch, [edit]):
            edits.append(edit)
    return Scenario(
        scenario_id=f"s{seed}x{index}",
        seed=seed,
        circuit_name=circuit.name,
        bench_text=bench_text,
        delays=delays,
        corner=corner,
        edits=edits,
    )


def scenario_stream(
    seed: int,
    count: int,
    size: str = "small",
    max_edits: int = 4,
) -> List[Scenario]:
    """The first ``count`` scenarios of the ``seed`` stream."""
    return [
        scenario_for(seed, index, size=size, max_edits=max_edits)
        for index in range(count)
    ]
