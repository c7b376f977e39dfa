"""Differential oracles: four independent ways to cross-check one scenario.

Every oracle runs the *same* analysis through two execution paths that
must agree byte for byte:

* ``jobs``        — ``jobs=1`` vs ``jobs=2`` Monte-Carlo replay of the
                    scenario's certification pairs;
* ``incremental`` — warm :class:`~repro.incremental.engine.IncrementalTimingEngine`
                    after the scenario's edits vs a cold from-scratch query;
* ``wordsim``     — scalar settle vs bit-parallel word lanes (the
                    fuzzer's one lane-vs-scalar check: a divergence
                    fails as ``lane=<i>`` with both states), and the
                    worst of 8 scalar pair replays vs one lane replay of
                    all 8 (``EventSimulator.worst_pair_delay``);
* ``cache``       — cache-cold vs cache-warm certificates (and the warm
                    run must actually hit the cache).

A mismatch produces a failing :class:`OracleVerdict` carrying the
expected/actual canonical serialisations, the certificate ``#check``
counters where available, and the metrics-counter snapshot of the
diverging run — enough to file the scenario as a ``.repro.json`` without
re-running anything.

The ``plant`` hook injects a deliberate divergence (``plant="xor"``
perturbs the incremental oracle's answer iff the edited circuit contains
an XOR gate) so CI can prove, end to end, that a real divergence is
caught, shrunk, and replayed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core import VectorPair, collect_certification_pairs, monte_carlo_delay
from ..core.transition import compute_transition_delay
from ..core.floating import compute_floating_delay
from ..incremental.cones import KINDS
from ..incremental.engine import IncrementalTimingEngine, cold_query
from ..network.circuit import Circuit
from ..network.gates import GateType
from ..runtime.cache import DelayCache
from ..runtime.metrics import METRICS
from ..sim import EventSimulator, batch_settle, settle
from .scenario import Scenario, apply_edits, materialize

__all__ = [
    "ORACLES",
    "OracleVerdict",
    "run_oracle",
    "run_scenario",
]

ORACLES = ("jobs", "incremental", "wordsim", "cache")


@dataclass
class OracleVerdict:
    """One oracle's pass/fail answer for one scenario."""

    scenario_id: str
    oracle: str
    ok: bool
    detail: str = ""
    expected: str = ""
    actual: str = ""
    checks: int = 0
    metrics: Dict[str, int] = field(default_factory=dict)

    def verdict_line(self) -> str:
        """Canonical one-line rendering — the unit of the determinism
        check (jobs=1 and jobs=N sweeps must emit identical lines)."""
        status = "PASS" if self.ok else "FAIL"
        return f"{self.scenario_id}\t{self.oracle}\t{status}\t{self.detail}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario_id": self.scenario_id,
            "oracle": self.oracle,
            "ok": self.ok,
            "detail": self.detail,
            "expected": self.expected,
            "actual": self.actual,
            "checks": self.checks,
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "OracleVerdict":
        return cls(
            scenario_id=str(data["scenario_id"]),
            oracle=str(data["oracle"]),
            ok=bool(data["ok"]),
            detail=str(data.get("detail", "")),
            expected=str(data.get("expected", "")),
            actual=str(data.get("actual", "")),
            checks=int(data.get("checks", 0)),
            metrics={
                str(k): int(v)
                for k, v in (data.get("metrics") or {}).items()
            },
        )


def edited_circuit(scenario: Scenario) -> Circuit:
    """The scenario's post-edit circuit (what most oracles analyse)."""
    circuit = materialize(scenario)
    apply_edits(circuit, scenario.edits)
    return circuit


def _no_cache() -> DelayCache:
    return DelayCache(enabled=False)


# ----------------------------------------------------------------------
# The four oracles.  Each returns (ok, detail, expected, actual, checks).
# ----------------------------------------------------------------------
def _oracle_jobs(scenario: Scenario, plant):
    circuit = edited_circuit(scenario)
    pairs = collect_certification_pairs(circuit, cache=_no_cache())
    if not pairs:
        return True, "pairs=0", "", "", 0
    vector_pairs = [pairs[out][1] for out in sorted(pairs)]
    samples = max(1, scenario.corner.option("samples", 8))
    serial = monte_carlo_delay(
        circuit, vector_pairs, num_samples=samples,
        seed=scenario.seed, jobs=1,
    )
    sharded = monte_carlo_delay(
        circuit, vector_pairs, num_samples=samples,
        seed=scenario.seed, jobs=2,
    )
    expected = json.dumps(serial.samples)
    actual = json.dumps(sharded.samples)
    return expected == actual, f"samples={samples}", expected, actual, 0


def _oracle_incremental(scenario: Scenario, plant):
    circuit = materialize(scenario)
    engine = IncrementalTimingEngine(circuit)
    for kind in KINDS:
        engine.query(kind)  # warm the cone memo pre-edit
    apply_edits(circuit, scenario.edits)
    planted = plant == "xor" and any(
        node.gate_type == GateType.XOR for node in circuit.nodes()
    )
    delays = []
    for kind in KINDS:
        warm = engine.query(kind)
        cold = cold_query(circuit, kind)
        actual = warm.record_json()
        if planted:
            record = json.loads(actual)
            record["delay"] = int(record["delay"]) + 1
            actual = json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )
        expected = cold.record_json()
        delays.append(str(cold.delay))
        if actual != expected:
            return (
                False,
                f"kind={kind}",
                expected,
                actual,
                warm.stats.get("checks", 0),
            )
    return True, "delays=" + ",".join(delays), "", "", 0


def _oracle_wordsim(scenario: Scenario, plant):
    circuit = edited_circuit(scenario)
    rng = random.Random(f"fuzz-vec:{scenario.scenario_id}")
    vectors = [
        {name: bool(rng.getrandbits(1)) for name in circuit.inputs}
        for __ in range(16)
    ]
    scalar = [settle(circuit, vector) for vector in vectors]
    lanes = batch_settle(circuit, vectors)
    for index, (expect, got) in enumerate(zip(scalar, lanes)):
        if expect != got:
            return (
                False,
                f"lane={index}",
                json.dumps(
                    {k: int(v) for k, v in sorted(expect.items())},
                    sort_keys=True,
                ),
                json.dumps(
                    {k: int(v) for k, v in sorted(got.items())},
                    sort_keys=True,
                ),
                0,
            )
    # The 16 vectors as 8 pairs: one lane replay against the worst of the
    # 8 scalar replays.
    pairs = [VectorPair(*vectors[i:i + 2]) for i in range(0, 16, 2)]
    simulator = EventSimulator(circuit)
    worst = max(
        simulator.measure_pair_delay(pair.v_prev, pair.v_next)
        for pair in pairs
    )
    replay = simulator.worst_pair_delay(pairs)
    if replay != worst:
        return False, "replay", str(worst), str(replay), 0
    ones = sum(
        int(lane[out]) for lane in lanes for out in circuit.outputs
    )
    return True, f"lanes=16 ones={ones} replay={replay}", "", "", 0


def _counters_since(before: Dict[str, int]) -> Dict[str, int]:
    """How far each counter moved since ``before``, an earlier
    ``METRICS.snapshot()["counters"]`` (counters first seen since are
    kept even at zero)."""
    return {
        name: value - before.get(name, 0)
        for name, value in METRICS.snapshot()["counters"].items()
        if name not in before or value != before[name]
    }


def _oracle_cache(scenario: Scenario, plant):
    circuit = edited_circuit(scenario)
    store = DelayCache(memory_items=64)
    cold_t = compute_transition_delay(circuit, cache=store)
    cold_f = compute_floating_delay(circuit, cache=store)
    before = METRICS.snapshot()["counters"]
    warm_t = compute_transition_delay(circuit, cache=store)
    warm_f = compute_floating_delay(circuit, cache=store)
    warm = _counters_since(before)
    hits = warm.get("cache.memory_hits", 0) + warm.get("cache.disk_hits", 0)
    checks = cold_t.checks + cold_f.checks
    inputs = circuit.inputs

    def canonical(*certs) -> str:
        return json.dumps([[c.mode, c.output, c.record(inputs)] for c in certs])

    expected = canonical(cold_t, cold_f)
    actual = canonical(warm_t, warm_f)
    if expected != actual:
        return False, "cold-vs-warm", expected, actual, checks
    if hits < 2:
        return (
            False,
            "warm-run-missed-cache",
            "hits>=2",
            f"hits={hits}",
            checks,
        )
    return (
        True,
        f"delay={cold_t.delay}/{cold_f.delay} checks={checks}",
        "",
        "",
        checks,
    )


_ORACLE_FUNCS = {
    "jobs": _oracle_jobs,
    "incremental": _oracle_incremental,
    "wordsim": _oracle_wordsim,
    "cache": _oracle_cache,
}


def run_oracle(
    scenario: Scenario,
    oracle: str,
    plant: Optional[str] = None,
) -> OracleVerdict:
    """Run one oracle against one scenario.

    The oracle records into the caller's :data:`METRICS`, so its spans
    stay in the caller's trace; on a mismatch the verdict carries the
    counters the oracle moved (engine ``#check`` counters, cache hit/miss
    counters, shard accounting), so the divergence's accounting survives
    into the ``.repro.json``.
    """
    if oracle not in _ORACLE_FUNCS:
        raise ValueError(
            f"unknown oracle {oracle!r} "
            f"(expected one of {', '.join(ORACLES)})"
        )
    before = METRICS.snapshot()["counters"]
    ok, detail, expected, actual, checks = _ORACLE_FUNCS[oracle](
        scenario, plant
    )
    captured = {} if ok else _counters_since(before)
    return OracleVerdict(
        scenario_id=scenario.scenario_id,
        oracle=oracle,
        ok=ok,
        detail=detail,
        expected="" if ok else expected,
        actual="" if ok else actual,
        checks=checks,
        metrics=captured,
    )


def run_scenario(
    scenario: Scenario,
    oracles: Sequence[str] = ORACLES,
    plant: Optional[str] = None,
) -> List[OracleVerdict]:
    """Run the requested oracles in canonical order."""
    ordered = [name for name in ORACLES if name in set(oracles)]
    return [
        run_oracle(scenario, name, plant=plant) for name in ordered
    ]
