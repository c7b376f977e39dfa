"""Vectors, vector pairs and delay certificates.

The practical output of TrueD (Sec. I): "it not only results in a delay
calculation but outputs a vector sequence that may be timing simulated to
*certify* static timing verification."

Symbolic models live in a *doubled* variable space (Sec. V-C): for every
primary input ``a`` there are two Boolean variables — ``a@-`` (the value
under the previous vector ``v_-1``) and ``a@0`` (the value under the current
vector ``v_0``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

PREV_SUFFIX = "@-"
CUR_SUFFIX = "@0"


class AttributionError(RuntimeError):
    """A delay witness matched no candidate output's predicate.

    Raised instead of silently mis-naming the critical output in a
    certificate: the witness (completed exactly as reported, don't-cares
    pinned to False) must re-evaluate true under some eligible output's
    predicate, or the engine model and the certificate disagree."""


def prev_var(name: str) -> str:
    """Symbolic variable carrying input ``name`` under ``v_-1``."""
    return name + PREV_SUFFIX


def cur_var(name: str) -> str:
    """Symbolic variable carrying input ``name`` under ``v_0``."""
    return name + CUR_SUFFIX


def format_vector(vector: Dict[str, bool], inputs: Sequence[str]) -> str:
    """Render a vector as a bit string in the given input order."""
    return "".join("1" if vector[name] else "0" for name in inputs)


@dataclass
class VectorPair:
    """A concrete ``(v_-1, v_0)`` stimulus."""

    v_prev: Dict[str, bool]
    v_next: Dict[str, bool]

    @classmethod
    def from_model(
        cls,
        model: Dict[str, bool],
        inputs: Sequence[str],
        fill: bool = False,
    ) -> "VectorPair":
        """Build a total vector pair from a (possibly partial) satisfying
        assignment over doubled variables; don't-cares become ``fill``."""
        v_prev = {
            name: bool(model.get(prev_var(name), fill)) for name in inputs
        }
        v_next = {
            name: bool(model.get(cur_var(name), fill)) for name in inputs
        }
        return cls(v_prev, v_next)

    def to_model(self) -> Dict[str, bool]:
        """The doubled-space assignment corresponding to this pair."""
        model: Dict[str, bool] = {}
        for name, value in self.v_prev.items():
            model[prev_var(name)] = bool(value)
        for name, value in self.v_next.items():
            model[cur_var(name)] = bool(value)
        return model

    def changed_inputs(self) -> List[str]:
        return [
            name
            for name in self.v_prev
            if self.v_prev[name] != self.v_next[name]
        ]

    def render(self, inputs: Sequence[str]) -> str:
        return (
            f"<{format_vector(self.v_prev, inputs)}, "
            f"{format_vector(self.v_next, inputs)}>"
        )


@dataclass
class DelayCertificate:
    """The result of a certified delay computation.

    ``delay``       — the computed delay (mode given by ``mode``).
    ``output``      — the primary output at which the last event occurs.
    ``value``       — the logical value the output settles to under the
                      witness (the 'val' column of Tables II/III).
    ``witness``     — the floating-mode witness vector, if single-vector.
    ``pair``        — the transition-mode witness vector pair, if two-vector.
    ``checks``      — number of satisfiability/tautology checks performed
                      (the '#check' column).
    """

    mode: str
    delay: int
    output: Optional[str] = None
    value: Optional[bool] = None
    witness: Optional[Dict[str, bool]] = None
    pair: Optional[VectorPair] = None
    checks: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    def describe(self, inputs: Sequence[str]) -> str:
        lines = [f"{self.mode} delay = {self.delay}"]
        if self.output is not None:
            lines.append(f"  critical output : {self.output}")
        if self.value is not None:
            lines.append(f"  settles to      : {int(self.value)}")
        if self.witness is not None:
            lines.append(
                f"  witness vector  : {format_vector(self.witness, inputs)}"
            )
        if self.pair is not None:
            lines.append(f"  vector pair     : {self.pair.render(inputs)}")
        lines.append(f"  checks          : {self.checks}")
        return "\n".join(lines)

    def record(self, inputs: Sequence[str]) -> Dict[str, object]:
        """The answer as a deterministic JSON-able record: ``delay``, then
        ``value``, ``witness`` and ``pair`` where present, the vectors
        rendered over ``inputs`` with an input they do not cover pinned
        to 0.  ``checks`` is accounting and stays out of it."""

        def bits(vector: Dict[str, bool]) -> str:
            return "".join("1" if vector.get(name) else "0" for name in inputs)

        data: Dict[str, object] = {"delay": self.delay}
        if self.value is not None:
            data["value"] = int(self.value)
        if self.witness is not None:
            data["witness"] = bits(self.witness)
        if self.pair is not None:
            data["pair"] = [bits(self.pair.v_prev), bits(self.pair.v_next)]
        return data
