"""The combinational circuit model.

A :class:`Circuit` is a DAG of named nodes.  Each node is a primary input or
a gate with a fixed integer *propagation* delay (Sec. IV of the paper: the
gate switches instantly but communicates the event ``d`` units later).  Wire
and pin-to-pin delays are modelled by inserting buffers
(:mod:`repro.network.transform`), as the paper prescribes (Sec. V-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .gates import (
    GateType,
    SOURCE_GATES,
    evaluate_gate,
    validate_arity,
)


@dataclass(frozen=True)
class Edit:
    """One journal entry: a mutation applied to an existing circuit.

    ``op`` is one of ``set_delay``/``rewire``/``replace_gate``/
    ``remove_gate``; ``name`` is the edited node; ``detail`` carries the
    op-specific payload (new delay, new fanins, ...) and ``revision`` the
    circuit revision the edit produced.  The journal is what lets an
    incremental consumer (:mod:`repro.incremental`) mark dirty fanout
    cones instead of recomputing the whole circuit.
    """

    op: str
    name: str
    detail: Tuple
    revision: int


@dataclass
class Node:
    """One vertex of the circuit DAG."""

    name: str
    gate_type: GateType
    fanins: Tuple[str, ...] = ()
    delay: int = 1

    def __post_init__(self):
        self.fanins = tuple(self.fanins)
        validate_arity(self.gate_type, self.name, len(self.fanins))
        if self.gate_type == GateType.INPUT:
            self.delay = 0
        if self.delay < 0:
            raise ValueError(f"node {self.name!r} has negative delay")


def _edit_field(edit: dict, field: str, optional: bool = False):
    """The value of ``field`` in a JSON edit, checked for its type: a
    ``delay`` is an integer (not a bool), ``fanins`` a list of strings and
    a ``gate_type`` a string.  A value of another type raises a ValueError
    naming the field; a missing one, KeyError unless ``optional`` (then
    it and null read as None)."""
    value = edit.get(field) if optional else edit[field]
    if value is None and optional:
        return None
    if field == "delay":
        valid = isinstance(value, int) and not isinstance(value, bool)
        wanted = "an integer"
    elif field == "fanins":
        valid = isinstance(value, list) and all(
            isinstance(fanin, str) for fanin in value
        )
        wanted = "a list of node names"
    else:
        valid = isinstance(value, str)
        wanted = "a gate type name"
    if not valid:
        raise ValueError(
            f"edit field {field!r} must be {wanted}, not {value!r}"
        )
    return value


class Circuit:
    """A combinational logic network with per-gate fixed delays."""

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._topo_cache: Optional[List[str]] = None
        self._fanout_cache: Optional[Dict[str, List[str]]] = None
        # The compiled simulation program of this revision
        # (repro.sim.wordsim.program_for), and the latest program of this
        # structure, which a delay-only revision's program is retimed
        # from: derived like the two caches above, never pickled.  Every
        # invalidation drops the first; a structural one or a change of
        # outputs drops both.
        self._program = None
        self._program_base = None
        self._journal: List[Edit] = []
        self._revision: int = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input."""
        self._add_node(Node(name, GateType.INPUT))
        self._inputs.append(name)
        return name

    def add_gate(
        self,
        name: str,
        gate_type: GateType,
        fanins: Sequence[str] = (),
        delay: int = 1,
    ) -> str:
        """Add a gate; fanins may be declared later but must exist before use."""
        if gate_type == GateType.INPUT:
            raise ValueError("use add_input for primary inputs")
        self._add_node(Node(name, gate_type, tuple(fanins), delay))
        return name

    def _add_node(self, node: Node) -> None:
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._invalidate()

    def set_outputs(self, names: Sequence[str]) -> None:
        self._outputs = list(names)
        self._program = self._program_base = None

    def add_output(self, name: str) -> None:
        if name not in self._outputs:
            self._outputs.append(name)
            self._program = self._program_base = None

    def set_delay(self, name: str, delay: int) -> None:
        """Change one gate's delay (journalled; delay-only invalidation).

        Delays do not enter the graph structure, so the cached
        ``topological_order``/``fanouts`` survive and the compiled program
        is retimed, not recompiled — only derived *timing* (``levels``,
        analyses) is affected, which consumers detect through the
        journal/revision counters.
        """
        if delay < 0:
            raise ValueError("delay must be non-negative")
        node = self.node(name)
        if node.delay == delay:
            return
        node.delay = delay
        self._record("set_delay", name, (delay,))
        self._invalidate_delays()

    # ------------------------------------------------------------------
    # Edits (journalled mutations of an existing circuit)
    # ------------------------------------------------------------------
    def rewire(self, name: str, fanins: Sequence[str]) -> None:
        """Replace a gate's fanin list (order matters; journalled).

        Validates arity, fanin existence, and acyclicity; an edit that
        would introduce a cycle is rolled back and raises ValueError.
        """
        node = self.node(name)
        if node.gate_type in SOURCE_GATES:
            raise ValueError(f"cannot rewire source node {name!r}")
        self._replace_node(name, node.gate_type, tuple(fanins), node.delay)
        self._record("rewire", name, (tuple(fanins),))

    def replace_gate(
        self,
        name: str,
        gate_type: Optional[GateType] = None,
        fanins: Optional[Sequence[str]] = None,
        delay: Optional[int] = None,
    ) -> None:
        """Swap a gate's type, fanins, and/or delay in place (journalled).

        A delay-only replacement keeps the structure caches (equivalent to
        :meth:`set_delay`); anything structural invalidates them.
        """
        node = self.node(name)
        if node.gate_type in SOURCE_GATES and (
            gate_type is not None or fanins is not None
        ):
            raise ValueError(f"cannot restructure source node {name!r}")
        new_type = node.gate_type if gate_type is None else gate_type
        new_fanins = node.fanins if fanins is None else tuple(fanins)
        new_delay = node.delay if delay is None else delay
        if new_type == GateType.INPUT:
            raise ValueError("a gate cannot become a primary input")
        structural = (
            new_type != node.gate_type or new_fanins != node.fanins
        )
        if structural:
            self._replace_node(name, new_type, new_fanins, new_delay)
        elif new_delay != node.delay:
            if new_delay < 0:
                raise ValueError(f"node {name!r} has negative delay")
            node.delay = new_delay
            self._invalidate_delays()
        else:
            return  # no observable change: keep the journal quiet
        self._record(
            "replace_gate", name, (new_type.value, new_fanins, new_delay)
        )

    def remove_gate(self, name: str) -> None:
        """Delete a fanout-free, non-output gate (journalled).

        Restricting removal to dead gates keeps every remaining node's
        fanin list valid without cascading; rewire consumers away first.
        """
        node = self.node(name)
        if node.gate_type == GateType.INPUT:
            raise ValueError(f"cannot remove primary input {name!r}")
        if name in self._outputs:
            raise ValueError(f"cannot remove primary output {name!r}")
        if self.fanouts()[name]:
            raise ValueError(
                f"cannot remove {name!r}: it still feeds "
                f"{self.fanouts()[name]}"
            )
        del self._nodes[name]
        self._record("remove_gate", name, ())
        self._invalidate()

    def apply_edit(self, edit) -> None:
        """Apply one edit written as a JSON object, the form a ``trued
        serve`` ``edit`` request and a fuzz scenario both carry::

            {"op": "set_delay", "name": "g1", "delay": 3}
            {"op": "rewire", "name": "g2", "fanins": ["a", "b"]}
            {"op": "replace_gate", "name": "g3", "gate_type": "NAND",
             "fanins": ["a", "b"], "delay": 2}
            {"op": "remove_gate", "name": "g4"}

        ``replace_gate`` keeps whichever of ``gate_type``, ``fanins`` and
        ``delay`` it is not given (or is given as null).  ``delay`` must
        be an integer, ``fanins`` a list of node names and ``gate_type``
        a gate type name.  A malformed edit, or one the circuit rejects,
        raises ValueError (a missing node or field, KeyError) and leaves
        the circuit as it was.
        """
        if not isinstance(edit, dict):
            raise ValueError("each edit must be a JSON object")
        op = edit.get("op")
        name = edit.get("name")
        if not isinstance(name, str):
            raise ValueError("each edit needs a 'name'")
        if op == "set_delay":
            self.set_delay(name, _edit_field(edit, "delay"))
        elif op == "rewire":
            self.rewire(name, _edit_field(edit, "fanins"))
        elif op == "replace_gate":
            gate_type = _edit_field(edit, "gate_type", optional=True)
            self.replace_gate(
                name,
                gate_type=None if gate_type is None else GateType(gate_type),
                fanins=_edit_field(edit, "fanins", optional=True),
                delay=_edit_field(edit, "delay", optional=True),
            )
        elif op == "remove_gate":
            self.remove_gate(name)
        else:
            raise ValueError(f"unknown edit op {op!r}")

    def _replace_node(
        self, name: str, gate_type: GateType, fanins: Tuple[str, ...],
        delay: int,
    ) -> None:
        """Swap in a revalidated node and check acyclicity, rolling back
        on failure so a rejected edit leaves the circuit untouched."""
        for fanin in fanins:
            if fanin not in self._nodes:
                raise ValueError(
                    f"node {name!r} references missing fanin {fanin!r}"
                )
        old = self._nodes[name]
        self._nodes[name] = Node(name, gate_type, fanins, delay)
        self._invalidate()
        try:
            self.topological_order()
        except ValueError:
            self._nodes[name] = old
            self._invalidate()
            raise ValueError(
                f"rewiring {name!r} to {list(fanins)} would create a cycle"
            )

    def _record(self, op: str, name: str, detail: Tuple) -> None:
        self._revision += 1
        self._journal.append(Edit(op, name, detail, self._revision))

    # ------------------------------------------------------------------
    # Journal / revision introspection
    # ------------------------------------------------------------------
    @property
    def revision(self) -> int:
        """Monotone edit counter (0 for a freshly constructed circuit)."""
        return self._revision

    @property
    def journal_length(self) -> int:
        return len(self._journal)

    def journal(self) -> Tuple[Edit, ...]:
        return tuple(self._journal)

    def edits_since(self, index: int) -> Tuple[Edit, ...]:
        """Journal entries recorded at or after position ``index``."""
        return tuple(self._journal[index:])

    def _invalidate(self) -> None:
        """Structural invalidation: the graph itself changed, so every
        derived structure (topological order, fanout map) is stale."""
        self._topo_cache = None
        self._fanout_cache = None
        self._program = self._program_base = None

    def _invalidate_delays(self) -> None:
        """Delay-only invalidation: gate delays changed but the graph did
        not, so ``topological_order``/``fanouts`` stay valid.  Derived
        timing is recomputed on demand (``levels`` is never cached), the
        compiled simulation program (which carries the delays) is
        dropped, and analysis consumers key off the revision counters.
        The structure's latest program stays: the next ``program_for``
        retimes it, sharing its tables and recomputing only the delays
        and windows, and leaves the dropped program as it was."""
        self._program = None

    def __getstate__(self) -> dict:
        # The compiled programs are per-process derived state: pickled
        # circuits (worker payloads, cache entries) travel without them.
        state = dict(self.__dict__)
        state.pop("_program", None)
        state.pop("_program_base", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Pickles from before the compiled program existed carry no
        # program either, so both kinds unpickle the same way.
        self.__dict__.update(state)
        self._program = self._program_base = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> List[str]:
        return list(self._inputs)

    @property
    def outputs(self) -> List[str]:
        return list(self._outputs)

    def node(self, name: str) -> Node:
        return self._nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def gate_names(self) -> List[str]:
        """Names of all non-input nodes."""
        return [n.name for n in self._nodes.values() if n.gate_type != GateType.INPUT]

    @property
    def num_gates(self) -> int:
        return sum(1 for n in self._nodes.values() if n.gate_type != GateType.INPUT)

    def literal_count(self) -> int:
        """Total fanin count over all gates — the network 'literals' metric
        reported in Table I for mapped circuits."""
        return sum(
            len(n.fanins)
            for n in self._nodes.values()
            if n.gate_type != GateType.INPUT
        )

    def validate(self) -> None:
        """Check structural sanity: arity, fanins exist, outputs exist,
        acyclic.  Re-checking arity here (the Node constructor already
        enforces it) catches nodes corrupted after construction, so the
        scalar and word-level evaluators reject them identically."""
        for node in self._nodes.values():
            validate_arity(node.gate_type, node.name, len(node.fanins))
            for fanin in node.fanins:
                if fanin not in self._nodes:
                    raise ValueError(
                        f"node {node.name!r} references missing fanin {fanin!r}"
                    )
        for name in self._outputs:
            if name not in self._nodes:
                raise ValueError(f"output {name!r} is not a node")
        self.topological_order()  # raises on cycles

    # ------------------------------------------------------------------
    # Graph structure
    # ------------------------------------------------------------------
    def topological_order(self) -> List[str]:
        """Node names, fanins before fanouts.  Raises ValueError on cycles."""
        if self._topo_cache is not None:
            return self._topo_cache
        in_degree = {name: len(node.fanins) for name, node in self._nodes.items()}
        fanouts = self.fanouts()
        ready = [name for name, deg in in_degree.items() if deg == 0]
        order: List[str] = []
        while ready:
            name = ready.pop()
            order.append(name)
            for fo in fanouts[name]:
                in_degree[fo] -= 1
                if in_degree[fo] == 0:
                    ready.append(fo)
        if len(order) != len(self._nodes):
            raise ValueError("circuit graph contains a cycle")
        self._topo_cache = order
        return order

    def canonical_topological_order(self) -> List[str]:
        """Topological order that is a pure function of the graph.

        Unlike :meth:`topological_order`, which is sensitive to node
        insertion order, ties are broken by name — so two structurally
        equal circuits serialise identically (netlist exports are
        byte-stable round trips).  Raises ValueError on cycles.
        """
        import heapq

        in_degree = {name: len(node.fanins) for name, node in self._nodes.items()}
        fanouts = self.fanouts()
        ready = [name for name, deg in in_degree.items() if deg == 0]
        heapq.heapify(ready)
        order: List[str] = []
        while ready:
            name = heapq.heappop(ready)
            order.append(name)
            for fo in fanouts[name]:
                in_degree[fo] -= 1
                if in_degree[fo] == 0:
                    heapq.heappush(ready, fo)
        if len(order) != len(self._nodes):
            raise ValueError("circuit graph contains a cycle")
        return order

    def fanouts(self) -> Dict[str, List[str]]:
        """Map from node name to the names of nodes it feeds."""
        if self._fanout_cache is not None:
            return self._fanout_cache
        result: Dict[str, List[str]] = {name: [] for name in self._nodes}
        for node in self._nodes.values():
            for fanin in node.fanins:
                result[fanin].append(node.name)
        self._fanout_cache = result
        return result

    def levels(self) -> Dict[str, int]:
        """Longest graphical delay from any input to each node's output
        (the paper's Delta); inputs are level 0."""
        result: Dict[str, int] = {}
        for name in self.topological_order():
            node = self._nodes[name]
            if not node.fanins:
                result[name] = 0
            else:
                result[name] = node.delay + max(result[f] for f in node.fanins)
        return result

    def min_levels(self) -> Dict[str, int]:
        """Shortest graphical delay to each node (the paper's delta)."""
        result: Dict[str, int] = {}
        for name in self.topological_order():
            node = self._nodes[name]
            if not node.fanins:
                result[name] = 0
            else:
                result[name] = node.delay + min(result[f] for f in node.fanins)
        return result

    def residual_delays(self) -> Dict[str, int]:
        """Longest graphical delay from each node to any primary output —
        the ``w_g`` of the event-suppression rule (Sec. V-D).

        Nodes that reach no output get ``-inf``-like minimal value -1.
        """
        order = self.topological_order()
        fanouts = self.fanouts()
        result: Dict[str, int] = {}
        output_set = set(self._outputs)
        for name in reversed(order):
            best = 0 if name in output_set else None
            for fo in fanouts[name]:
                downstream = result.get(fo)
                if downstream is None or downstream < 0:
                    continue
                candidate = downstream + self._nodes[fo].delay
                if best is None or candidate > best:
                    best = candidate
            result[name] = -1 if best is None else best
        return result

    def topological_delay(self) -> int:
        """The longest-path (graphical) delay — the paper's omega / 'l.d.'."""
        if not self._outputs:
            raise ValueError("circuit has no outputs")
        levels = self.levels()
        return max(levels[name] for name in self._outputs)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, input_values: Dict[str, bool]) -> Dict[str, bool]:
        """Steady-state value of every node under an input assignment.

        ``input_values`` must cover every primary input (a missing one
        raises a ValueError naming it); extra keys are tolerated — the
        sequential simulation passes state+input supersets."""
        values: Dict[str, bool] = {}
        for name in self.topological_order():
            node = self._nodes[name]
            if node.gate_type == GateType.INPUT:
                try:
                    values[name] = bool(input_values[name])
                except KeyError:
                    raise ValueError(
                        f"missing value for primary input {name!r} of "
                        f"circuit {self.name!r}"
                    ) from None
            else:
                if not node.fanins and node.gate_type not in SOURCE_GATES:
                    # A node corrupted after construction: refuse to fold
                    # it into a constant (the word-level kernel raises the
                    # identical error at compile time).
                    validate_arity(node.gate_type, name, 0)
                values[name] = evaluate_gate(
                    node.gate_type, [values[f] for f in node.fanins]
                )
        return values

    def evaluate_outputs(self, input_values: Dict[str, bool]) -> Dict[str, bool]:
        values = self.evaluate(input_values)
        return {name: values[name] for name in self._outputs}

    # ------------------------------------------------------------------
    # Copies
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Circuit":
        # Inputs are re-declared in their original order, not in
        # topological order: declaration order fixes vector rendering,
        # engine variable order, and the content fingerprint.
        clone = Circuit(name or self.name)
        for input_name in self._inputs:
            clone.add_input(input_name)
        for node_name in self.topological_order():
            node = self._nodes[node_name]
            if node.gate_type != GateType.INPUT:
                clone.add_gate(node.name, node.gate_type, node.fanins, node.delay)
        clone.set_outputs(self._outputs)
        # The clone is structurally identical, so the derived graph
        # structures transfer verbatim — a delay-only transform chain
        # (copy + set_delay) never recomputes them, and retimes the
        # structure's program instead of compiling it.  The journal does
        # NOT transfer: a copy is a fresh circuit with no edit history.
        if self._topo_cache is not None:
            clone._topo_cache = list(self._topo_cache)
        if self._fanout_cache is not None:
            clone._fanout_cache = {
                fanin: list(fanouts)
                for fanin, fanouts in self._fanout_cache.items()
            }
        clone._program_base = self._program_base
        return clone

    def transitive_fanin(self, names: Iterable[str]) -> List[str]:
        """All nodes in the cones of ``names`` (topologically ordered)."""
        marked = set()
        stack = list(names)
        while stack:
            name = stack.pop()
            if name in marked:
                continue
            marked.add(name)
            stack.extend(self._nodes[name].fanins)
        return [name for name in self.topological_order() if name in marked]

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, inputs={len(self._inputs)}, "
            f"outputs={len(self._outputs)}, gates={self.num_gates})"
        )
