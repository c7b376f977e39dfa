"""Seeded, parameterized random DAGs: the fuzz corpus.

The workload-diversity layer of the scenario fuzzer
(``docs/FUZZING.md``): everything here is a *pure function of its
parameters* — the same :class:`DagProfile` or ``(seed, index)`` always
yields the same circuit on every platform, which is what lets scenario
streams, shrunk repros and corpus listings name circuits by their
generation parameters alone.

Construction follows the attempt-and-retry shape of structure
generators: draw a candidate DAG, measure it against the profile's
structural targets (depth window, fanout cap, full input/gate
liveness), and redraw from the same seeded stream until a candidate
passes or the attempt budget runs out (:class:`GenerationError`).  The
rejected attempts consume rng state, so retries stay deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..network.builder import CircuitBuilder
from ..network.circuit import Circuit
from ..network.gates import GateType

__all__ = [
    "DagProfile",
    "GenerationError",
    "corpus_profiles",
    "random_dag",
    "random_gate_circuit",
]


class GenerationError(ValueError):
    """No candidate satisfied the profile within the attempt budget."""


#: Gate palette for random DAGs (NOT/BUF are drawn unary).
_GATE_POOL = (
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
class DagProfile:
    """Structural targets for one random DAG.

    ``min_depth``/``max_depth`` bound the *level* depth (longest
    input-to-output gate chain); ``max_fanout`` caps how many gates any
    single signal may feed.  ``0`` disables a bound.  ``attempts`` is the
    retry budget for hitting the targets.
    """

    seed: int
    num_inputs: int = 8
    num_gates: int = 40
    num_outputs: int = 4
    max_fanin: int = 3
    max_delay: int = 1
    min_depth: int = 0
    max_depth: int = 0
    max_fanout: int = 0
    locality: int = 16
    attempts: int = 20
    #: Require every input to drive a gate and every gate to reach an
    #: output.  Corpus entries want this (dead structure makes scenario
    #: edits no-ops); tiny property-test circuits accept any valid draw.
    require_live: bool = True
    name: str = ""

    def circuit_name(self) -> str:
        return self.name or f"fuzz{self.num_gates}x{self.seed}"


def _draw_candidate(profile: DagProfile, rng: random.Random) -> Circuit:
    """One unvalidated draw: gates appended in topological order, fanins
    drawn with a recency bias so depth develops.

    Liveness is steered constructively rather than hoped for: still-unused
    inputs and currently-sinking gates get funnelled into later fanin
    draws (with hard pressure as the remaining gate budget shrinks), and
    the primary outputs are the sinks that survive the funnel — so every
    gate reaches an output whenever the sink count lands within
    ``num_outputs``, and the retry loop only has to absorb the tail."""
    b = CircuitBuilder(profile.circuit_name())
    nodes: List[str] = [b.input(f"x{i}") for i in range(profile.num_inputs)]
    fanout_count: Dict[str, int] = {}
    unused_inputs: List[str] = list(nodes)
    sink_gates: List[str] = []
    num_outputs = min(profile.num_outputs, max(1, profile.num_gates))

    def consume(pick: str) -> str:
        fanout_count[pick] = fanout_count.get(pick, 0) + 1
        if pick in unused_inputs:
            unused_inputs.remove(pick)
        if pick in sink_gates:
            sink_gates.remove(pick)
        return pick

    def draw_fanin(pool_start: int, gates_left: int) -> str:
        if unused_inputs and (
            gates_left <= len(unused_inputs) or rng.random() < 0.15
        ):
            return consume(
                unused_inputs[rng.randrange(len(unused_inputs))]
            )
        excess_sinks = len(sink_gates) - num_outputs
        if sink_gates and (
            (excess_sinks > 0 and gates_left <= excess_sinks + 2)
            or rng.random() < 0.45
        ):
            return consume(sink_gates[rng.randrange(len(sink_gates))])
        # Respect the fanout cap by redrawing a bounded number of times;
        # fall back to the least-loaded signal so construction never stalls.
        for __ in range(8):
            if rng.random() < 0.35:
                pick = nodes[rng.randrange(len(nodes))]
            else:
                pick = nodes[rng.randrange(pool_start, len(nodes))]
            if (
                profile.max_fanout <= 0
                or fanout_count.get(pick, 0) < profile.max_fanout
            ):
                return consume(pick)
        return consume(
            min(nodes, key=lambda n: (fanout_count.get(n, 0), n))
        )

    for g in range(profile.num_gates):
        gates_left = profile.num_gates - g
        gate_type = _GATE_POOL[rng.randrange(len(_GATE_POOL))]
        pool_start = max(0, len(nodes) - profile.locality)
        if gate_type in (GateType.NOT, GateType.BUF):
            fanins = [draw_fanin(pool_start, gates_left)]
        else:
            arity = rng.randint(2, max(2, profile.max_fanin))
            fanins = [
                draw_fanin(pool_start, gates_left) for __ in range(arity)
            ]
            fanins = list(dict.fromkeys(fanins))
            if len(fanins) < 2:
                fanins.append(draw_fanin(0, gates_left))
                fanins = list(dict.fromkeys(fanins))
            if len(fanins) < 2:
                gate_type = GateType.BUF
                fanins = fanins[:1]
        delay = rng.randint(1, max(1, profile.max_delay))
        name = b.gate(gate_type, fanins, name=f"n{g}", delay=delay)
        nodes.append(name)
        sink_gates.append(name)

    gates_only = nodes[profile.num_inputs:]
    num_outputs = min(num_outputs, len(gates_only))
    if len(sink_gates) >= num_outputs:
        outputs = list(sink_gates)  # all sinks, or liveness fails anyway
    else:
        fill = [g for g in reversed(gates_only) if g not in sink_gates]
        outputs = sorted(
            sink_gates + fill[: num_outputs - len(sink_gates)],
            key=gates_only.index,
        )
    for out in outputs:
        b.output(out)
    return b.build()


def _structural_depth(circuit: Circuit) -> int:
    """Longest gate chain from any input to any node, in gate counts
    (delay-independent — the profile constrains *structure*)."""
    depth: Dict[str, int] = {}
    for name in circuit.topological_order():
        node = circuit.node(name)
        if node.gate_type == GateType.INPUT:
            depth[name] = 0
        else:
            depth[name] = 1 + max(
                (depth[f] for f in node.fanins), default=0
            )
    return max(depth.values(), default=0)


def _violations(profile: DagProfile, circuit: Circuit) -> List[str]:
    """Why a candidate misses its profile (empty list == accepted)."""
    problems: List[str] = []
    depth = _structural_depth(circuit)
    if profile.min_depth and depth < profile.min_depth:
        problems.append(f"depth {depth} < min_depth {profile.min_depth}")
    if profile.max_depth and depth > profile.max_depth:
        problems.append(f"depth {depth} > max_depth {profile.max_depth}")
    fanouts = circuit.fanouts()
    if profile.max_fanout:
        worst = max((len(v) for v in fanouts.values()), default=0)
        if worst > profile.max_fanout:
            problems.append(
                f"fanout {worst} > max_fanout {profile.max_fanout}"
            )
    if profile.require_live:
        live = set(circuit.transitive_fanin(circuit.outputs))
        for name in circuit.inputs:
            if not fanouts[name]:
                problems.append(f"dead input {name}")
                break
        for name in circuit.gate_names():
            if name not in live:
                problems.append(f"gate {name} unreachable from outputs")
                break
    return problems


def random_dag(profile: DagProfile) -> Circuit:
    """Attempt-and-retry generation: redraw until the candidate meets the
    profile's structural targets.  Deterministic in ``profile`` alone."""
    rng = random.Random(f"fuzz-dag:{profile.seed}")
    last: List[str] = ["no attempt made"]
    for __ in range(max(1, profile.attempts)):
        candidate = _draw_candidate(profile, rng)
        candidate.validate()
        last = _violations(profile, candidate)
        if not last:
            return candidate
    raise GenerationError(
        f"no candidate met profile {profile.circuit_name()!r} within "
        f"{profile.attempts} attempts (last: {'; '.join(last)})"
    )


def random_gate_circuit(
    seed: int,
    num_inputs: int = 3,
    num_gates: int = 6,
    max_delay: int = 2,
    num_outputs: int = 2,
    name: str = "",
) -> Circuit:
    """Small unconstrained random circuit for oracle-based property tests
    (the consolidated replacement for the ad-hoc per-suite builders)."""
    profile = DagProfile(
        seed=seed,
        num_inputs=num_inputs,
        num_gates=num_gates,
        num_outputs=min(num_outputs, num_gates),
        max_delay=max_delay,
        locality=max(4, num_gates),
        require_live=False,
        name=name or f"rand{seed}",
    )
    return random_dag(profile)


# ----------------------------------------------------------------------
# Corpus definition (consumed by scenario streams and `trued fuzz corpus`)
# ----------------------------------------------------------------------
#: size class -> (num_inputs, num_gates, num_outputs, min_depth)
_SIZE_CLASSES: Dict[str, Tuple[int, int, int, int]] = {
    "small": (6, 30, 3, 4),
    "medium": (12, 220, 8, 8),
    "large": (16, 2100, 12, 12),
}


def corpus_profiles(
    seed: int, count: int, size: str = "small"
) -> List[DagProfile]:
    """The deterministic corpus slice ``(seed, count, size)`` names.

    Entry ``i``'s profile (and therefore its circuit) depends only on
    ``(seed, i, size)``; its name ``fz<size[0]><seed>x<i>`` encodes
    that full parameterisation.
    """
    try:
        inputs, gates, outputs, min_depth = _SIZE_CLASSES[size]
    except KeyError:
        raise ValueError(
            f"unknown corpus size {size!r} "
            f"(expected one of {', '.join(sorted(_SIZE_CLASSES))})"
        )
    profiles = []
    for index in range(count):
        profiles.append(
            DagProfile(
                seed=seed * 100_003 + index,
                num_inputs=inputs,
                num_gates=gates,
                num_outputs=outputs,
                min_depth=min_depth,
                max_fanout=12,
                max_delay=2,
                name=f"fz{size[0]}{seed}x{index}",
            )
        )
    return profiles
