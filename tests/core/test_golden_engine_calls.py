"""Golden engine calls: the Boolean-engine operations of the symbolic delay
analyses, in the order they are made.

``golden_engine_calls.json`` holds, per case, how many engine facade
calls (``var``, ``not_``, ``and_``, ``or_``, ``xor_``, ``and_many``,
``or_many``, ``sat_one`` and ``evaluate``) floating, transition and
bounded delay make, and a sha256 digest of ``(method, arguments,
result)`` over those calls in call order.  The certificates golden pins
witnesses and counters, and the SAT-trajectory golden pins the CDCL runs,
but neither pins the order in which BDDs are applied or AIG nodes are
built.  A change that only removes interpreter work around the engines
must leave both numbers as they are; one that reorders a fanin list, or
builds one more function, does not.

The cases are c17, c432, c880, csa8, alu8skip and mult4 on the ``bdd``
and ``sat`` engines, c17 with staggered ``input_times`` and the planet
controller under its Sec. VI constraints on all three engines, and a
small hand-built circuit whose longest path runs through CONST0 and
CONST1 gates on ``bdd`` and ``sat`` (no registry circuit has a constant
gate, and a constant must cost no engine call).

Re-record only on a commit whose analyses are trusted::

    PYTHONPATH=src python -m tests.core.test_golden_engine_calls
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.boolfn.interface import BddEngine, SatEngine
from repro.circuits import build_circuit, build_fsm_logic
from repro.core import (
    compute_bounded_transition_delay,
    compute_floating_delay,
    compute_transition_delay,
)
from repro.fsm import reachable_states_constraint, transition_pair_constraint
from repro.network import Circuit, GateType
from repro.runtime.cache import DelayCache

GOLDEN_PATH = Path(__file__).with_name("golden_engine_calls.json")

NO_CACHE = DelayCache(enabled=False)

FACADE = (
    "var", "not_", "and_", "or_", "xor_", "and_many", "or_many", "sat_one",
    "evaluate",
)
CIRCUITS = ["c17", "c432", "c880", "csa8", "alu8skip", "mult4"]
#: Staggered clock times for c17's inputs (Sec. V-C).
C17_INPUT_TIMES = {"G1": 0, "G2": 1, "G3": 3, "G6": 2, "G7": 5}


def canonical(value):
    """A model or an assignment as sorted pairs; anything else as is."""
    if isinstance(value, dict):
        return tuple(sorted((name, bool(bit)) for name, bit in value.items()))
    return value


@contextmanager
def recorded_calls():
    """Count and digest every facade call made inside the block."""
    record = {"calls": 0, "sha": hashlib.sha256()}

    def note(method, args, result):
        record["calls"] += 1
        record["sha"].update(repr((method, args, result)).encode())

    def wrap(method, original):
        if method in ("and_many", "or_many"):
            def call(self, fs):
                if isinstance(fs, (list, tuple)):
                    result = original(self, fs)
                    note(method, tuple(fs), result)
                    return result
                # A generator builds its items while the engine consumes
                # them, so record them as they pass.
                items = []

                def passing():
                    for f in fs:
                        items.append(f)
                        yield f

                result = original(self, passing())
                note(method, tuple(items), result)
                return result
        else:
            def call(self, *args):
                result = original(self, *args)
                note(method, tuple(map(canonical, args)), canonical(result))
                return result
        return call

    originals = [
        (cls, method, cls.__dict__[method])
        for cls in (BddEngine, SatEngine) for method in FACADE
    ]
    for cls, method, original in originals:
        setattr(cls, method, wrap(method, original))
    try:
        yield record
    finally:
        for cls, method, original in originals:
            setattr(cls, method, original)


def engine_calls(circuit, engine, floating_constraint=None, constraint=None,
                 input_times=None) -> dict:
    """The facade calls of floating, transition and bounded delay."""
    with recorded_calls() as record:
        compute_floating_delay(
            circuit, engine_name=engine, constraint=floating_constraint,
            input_times=input_times, cache=NO_CACHE,
        )
        compute_transition_delay(
            circuit, engine_name=engine, constraint=constraint,
            input_times=input_times, cache=NO_CACHE,
        )
        compute_bounded_transition_delay(
            circuit, engine_name=engine, constraint=constraint,
            input_times=input_times, cache=NO_CACHE,
        )
    return {"calls": record["calls"], "digest": record["sha"].hexdigest()}


def circuit_case(name: str, engine: str, **options):
    return lambda: engine_calls(build_circuit(name), engine, **options)


def planet_case(engine: str):
    def build():
        logic = build_fsm_logic("planet")
        return engine_calls(
            logic.circuit, engine,
            floating_constraint=reachable_states_constraint(logic),
            constraint=transition_pair_constraint(logic),
        )
    return build


def constants_circuit():
    """``out = OR(NAND(OR(AND(a, 1), 0), b), c)``: the constants sit on
    the longest path."""
    circuit = Circuit("constants")
    for name in ("a", "b", "c"):
        circuit.add_input(name)
    circuit.add_gate("one", GateType.CONST1)
    circuit.add_gate("zero", GateType.CONST0)
    circuit.add_gate("t1", GateType.AND, ("a", "one"))
    circuit.add_gate("t2", GateType.OR, ("t1", "zero"))
    circuit.add_gate("t3", GateType.NAND, ("t2", "b"))
    circuit.add_gate("out", GateType.OR, ("t3", "c"))
    circuit.set_outputs(["out"])
    return circuit


def constants_case(engine: str):
    return lambda: engine_calls(constants_circuit(), engine)


CASES = {}
for _name in CIRCUITS:
    for _engine in ("bdd", "sat"):
        CASES[f"{_name}/{_engine}"] = circuit_case(_name, _engine)
for _engine in ("bdd", "sat", "auto"):
    CASES[f"c17/input-times/{_engine}"] = circuit_case(
        "c17", _engine, input_times=C17_INPUT_TIMES
    )
    CASES[f"planet/constrained/{_engine}"] = planet_case(_engine)
for _engine in ("bdd", "sat"):
    CASES[f"constants/{_engine}"] = constants_case(_engine)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_calls_match_golden(golden, case):
    got = CASES[case]()
    want = golden[case]
    assert got["calls"] == want["calls"], f"{case}: call count differs"
    assert got["digest"] == want["digest"], f"{case}: call sequence differs"


def record() -> None:
    lines = [
        f"{json.dumps(name)}: "
        f"{json.dumps(build(), sort_keys=True, separators=(',', ':'))}"
        for name, build in CASES.items()
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    record()
