"""The four benchmark workloads, their ops and their golden checks.

An op is one public call a user would make.  Each workload builds its
inputs and runs one untimed warm-up op per op kind in :meth:`setup`, then
hands out rounds of ops; every round runs the same ops, in an order the
seed permutes.  The seed never changes an answer that golden.json
records, nor the work an op does: it permutes op order and orders the
what-if edit stream.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.circuits import build_circuit, build_fsm_logic
from repro.core import (
    certify,
    compute_bounded_transition_delay,
    compute_floating_delay,
    compute_transition_delay,
)
from repro.fsm import reachable_states_constraint, transition_pair_constraint
from repro.incremental import IncrementalTimingEngine, cold_query
from repro.network.transform import scale_delays
from repro.runtime.cache import DelayCache
from repro.sim.event_sim import EventSimulator

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: The result cache stays off for every delay query outside ``whatif``.
NO_CACHE = DelayCache(enabled=False)

#: Table II/III inputs.  c1355, c2670, c5315 and c7552 are left out: an
#: op of 0.2 s or more averages the host's noise instead of dodging it,
#: and each of them would cost 0.9-2.4 s per round.
TABLE_CIRCUITS = ["c17", "c432", "c499", "c880", "c1908", "c3540"]
#: Sec. VI controllers, queried under their reachability constraints.
TABLE_FSMS = ["planet", "sand", "styr", "scf", "sticky"]
#: Multilevel+SAT (Sec. V-G) inputs: refutation-heavy circuits mixed with
#: ones that simulation signatures answer alone.  c3540 and c5315 are
#: left out for the same reason as above (0.5-1 s floating ops).
SAT_CIRCUITS = [
    "c1908", "csa12", "alu16", "alu8skip", "csa8", "mult4", "cmp64", "alu8",
]
#: Sec. VII flow inputs: certified against a 2x-scaled verifier model,
#: with a Monte Carlo follow-up; c17 covers the CERTIFIED verdict.
CERTIFY_CIRCUITS = ["c432", "csa8", "alu8skip", "csa12", "csa16", "c880"]
MC_SAMPLES = 16

WHATIF_CIRCUIT = "rand210"
#: Kind A is written (recomputed) after an edit; B is only read back.
WHATIF_WRITE, WHATIF_READ = "floating", "transition"
WHATIF_POOL_SEED = 210
#: Pool gates reach at least this many of the 8 outputs.
WHATIF_MIN_REACH = 5
#: Items the session's cone cache holds (``DelayCache``'s default).
WHATIF_LRU_ITEMS = 256
WHATIF_CHECK_EVERY = 10


def digest(value) -> str:
    """Short content digest of a JSON-able value."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_golden() -> Dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())


@dataclass
class Op:
    """One timed public call, with its untimed checks.

    ``run(answers)`` gets the answers of the round's earlier ops by key;
    ``check(answer)`` returns an error message or None; ``checks(answer)``
    is the paper's ``#check`` spent by the call.
    """

    key: str
    run: Callable[[Dict[str, object]], object]
    check: Callable[[object], Optional[str]]
    checks: Callable[[object], int]


def _cert_checks(cert) -> int:
    return cert.checks


def _mismatch(what: str, got, want) -> Optional[str]:
    return None if got == want else f"{what} {got!r}, expected {want!r}"


class Workload:
    """Base: a named op mix with a seeded order."""

    name = ""
    #: Wall seconds one round takes, checks included, on a busy 2-core
    #: host.  A run of ``seconds`` times a fixed number of rounds,
    #: ``seconds / round_s`` rounded, whatever the speed of the code.
    round_s = 1.0

    def __init__(self, seed: int, quick: bool = False,
                 golden: Optional[dict] = None):
        self.seed = seed
        self.quick = quick
        #: Read only inside checks, so golden.py can run ops without it.
        self.golden = load_golden() if golden is None else golden
        self.rng = random.Random(f"e2e:{self.name}:{seed}")

    def rounds(self, seconds: float) -> int:
        """How many rounds a run of ``seconds`` times (one if quick)."""
        if self.quick:
            return 1
        return max(1, round(seconds / self.round_s))

    def setup(self) -> None:
        raise NotImplementedError

    def round_ops(self) -> List[Op]:
        raise NotImplementedError


class TableExact(Workload):
    """Table II/III: floating, transition (upper=f.d.) and bounded delay
    per input, engine ``auto``, cache off."""

    name = "table-exact"
    round_s = 0.9

    def setup(self) -> None:
        names = TABLE_CIRCUITS + TABLE_FSMS
        if self.quick:
            names = ["c17", "c432", "sticky"]
        self.inputs = {}
        for name in names:
            if name in TABLE_FSMS:
                logic = build_fsm_logic(name)
                self.inputs[name] = (
                    logic.circuit,
                    reachable_states_constraint(logic),
                    transition_pair_constraint(logic),
                )
            else:
                self.inputs[name] = (build_circuit(name), None, None)
        self.simulators = {
            name: EventSimulator(circuit)
            for name, (circuit, __, __) in self.inputs.items()
        }
        for name in ("c17", "sticky"):
            circuit, floating_c, pair_c = self.inputs[name]
            fd = compute_floating_delay(
                circuit, constraint=floating_c, cache=NO_CACHE
            ).delay
            compute_transition_delay(
                circuit, upper=fd, constraint=pair_c, cache=NO_CACHE
            )
            compute_bounded_transition_delay(
                circuit, upper=fd, constraint=pair_c, cache=NO_CACHE
            )

    def _ops_for(self, name: str) -> List[Op]:
        circuit, floating_c, pair_c = self.inputs[name]
        simulator = self.simulators[name]

        def floating(answers):
            return compute_floating_delay(
                circuit, constraint=floating_c, cache=NO_CACHE
            )

        def transition(answers):
            return compute_transition_delay(
                circuit, upper=answers[f"{name}/floating"].delay,
                constraint=pair_c, cache=NO_CACHE,
            )

        def bounded(answers):
            return compute_bounded_transition_delay(
                circuit, upper=answers[f"{name}/floating"].delay,
                constraint=pair_c, cache=NO_CACHE,
            )

        def checker(kind):
            def check(cert):
                want = self.golden[self.name][f"{name}/{kind}"]
                problem = _mismatch(
                    f"{kind} delay", cert.delay, want["delay"]
                ) or _mismatch("#check", cert.checks, want["checks"])
                if problem or kind != "transition" or cert.pair is None:
                    return problem
                replay = simulator.simulate_transition(
                    cert.pair.v_prev, cert.pair.v_next
                )
                return _mismatch("witness replay", replay.delay, cert.delay)
            return check

        return [
            Op(f"{name}/floating", floating, checker("floating"),
               _cert_checks),
            Op(f"{name}/transition", transition, checker("transition"),
               _cert_checks),
            Op(f"{name}/bounded", bounded, checker("bounded"), _cert_checks),
        ]

    def round_ops(self) -> List[Op]:
        names = list(self.inputs)
        self.rng.shuffle(names)
        return [op for name in names for op in self._ops_for(name)]


class SatRefute(Workload):
    """Sec. V-G: the multilevel+SAT engine, floating then transition."""

    name = "sat-refute"
    round_s = 1.1

    def setup(self) -> None:
        names = ["alu8skip", "mult4"] if self.quick else SAT_CIRCUITS
        self.circuits = {name: build_circuit(name) for name in names}
        c17 = build_circuit("c17")
        fd = compute_floating_delay(c17, engine_name="sat", cache=NO_CACHE)
        compute_transition_delay(
            c17, engine_name="sat", upper=fd.delay, cache=NO_CACHE
        )

    def _ops_for(self, name: str) -> List[Op]:
        circuit = self.circuits[name]

        def floating(answers):
            return compute_floating_delay(
                circuit, engine_name="sat", cache=NO_CACHE
            )

        def transition(answers):
            return compute_transition_delay(
                circuit, engine_name="sat",
                upper=answers[f"{name}/floating"].delay, cache=NO_CACHE,
            )

        def checker(kind):
            key = f"{name}/{kind}"
            return lambda cert: _mismatch(
                f"{kind} delay (auto engine answer)", cert.delay,
                self.golden[self.name][key],
            )

        return [
            Op(f"{name}/floating", floating, checker("floating"),
               _cert_checks),
            Op(f"{name}/transition", transition, checker("transition"),
               _cert_checks),
        ]

    def round_ops(self) -> List[Op]:
        names = list(self.circuits)
        self.rng.shuffle(names)
        return [op for name in names for op in self._ops_for(name)]


def mc_seed(name: str) -> int:
    """The Monte Carlo seed of one circuit.  It does not follow the
    benchmark seed: other draws would change how much an op replays."""
    blob = f"mc:{name}".encode()
    return int(hashlib.sha256(blob).hexdigest()[:8], 16)


def certify_summary(report) -> dict:
    samples = report.statistics.samples if report.statistics else None
    return {
        "verdict": report.verdict.value,
        "transition": report.transition.delay,
        "gamma": report.gamma,
        "pairs": len(report.pairs),
        "samples": None if samples is None else digest(samples),
    }


class CertifyMc(Workload):
    """Sec. VII: certify against the accurate model, then Monte Carlo."""

    name = "certify-mc"
    round_s = 1.0

    def setup(self) -> None:
        names = ["c432"] if self.quick else CERTIFY_CIRCUITS
        self.inputs = {}
        for name in names:
            accurate = build_circuit(name)
            self.inputs[name] = (scale_delays(accurate, 2), accurate)
        self.c17 = build_circuit("c17")
        scaled, accurate = self.inputs["c432"]
        certify(scaled, accurate_circuit=accurate, statistical_samples=2,
                jobs=1, cache=NO_CACHE)
        certify(self.c17, jobs=1, cache=NO_CACHE)

    def _op_for(self, name: str) -> Op:
        if name == "c17":
            def run(answers):
                return certify(self.c17, jobs=1, cache=NO_CACHE)
        else:
            scaled, accurate = self.inputs[name]
            seed = mc_seed(name)

            def run(answers):
                return certify(
                    scaled, accurate_circuit=accurate,
                    statistical_samples=MC_SAMPLES, seed=seed,
                    jobs=1, cache=NO_CACHE,
                )

        def check(report):
            golden = self.golden["certify"][name]
            got = certify_summary(report)
            for field, value in got.items():
                problem = _mismatch(field, value, golden[field])
                if problem:
                    return problem
            return None

        def checks(report):
            return report.floating.checks + report.transition.checks

        return Op(name, run, check, checks)

    def round_ops(self) -> List[Op]:
        names = list(self.inputs) + ["c17"]
        self.rng.shuffle(names)
        return [self._op_for(name) for name in names]


def whatif_pool(circuit) -> List[tuple]:
    """The fixed (gate, delay increment) edit pool.

    A write stores one cone result per output its gate reaches.  Gates
    join the pool, two edits (+1, +2) each, until for every edit the other
    edits of one pass store more results than the LRU holds: an edit's
    results are then always evicted before it recurs, and every write is
    recomputed.
    """
    reach: Dict[str, int] = {}
    for out in circuit.outputs:
        for name in circuit.transitive_fanin([out]):
            if name not in circuit.inputs:
                reach[name] = reach.get(name, 0) + 1
    eligible = sorted(
        name for name, count in reach.items() if count >= WHATIF_MIN_REACH
    )
    random.Random(WHATIF_POOL_SEED).shuffle(eligible)
    gates: List[str] = []
    stored = 0
    for gate in eligible:
        gates.append(gate)
        stored += 2 * reach[gate]
        if stored - max(reach[g] for g in gates) > WHATIF_LRU_ITEMS:
            break
    else:
        raise ValueError(f"{circuit.name}: too few gates for the edit pool")
    return [(gate, step) for gate in gates for step in (1, 2)]


class WhatIf(Workload):
    """An incremental what-if session (the ``trued serve`` query path):
    edit + write query, revert + read, read of the other kind."""

    name = "whatif"
    round_s = 5.0

    def setup(self) -> None:
        self.circuit = build_circuit(WHATIF_CIRCUIT)
        self.base_delay = {
            node.name: node.delay for node in self.circuit.nodes()
        }
        self.engine = IncrementalTimingEngine(
            self.circuit, cache=DelayCache(memory_items=WHATIF_LRU_ITEMS)
        )
        # The base state: fills the cone cache every read is served from.
        for kind in (WHATIF_WRITE, WHATIF_READ):
            self.engine.query(kind)
        pool = whatif_pool(self.circuit)
        # Warm up the write path on a gate outside the pool.
        in_pool = {gate for gate, __ in pool}
        spare = next(
            name for name in sorted(self.circuit.transitive_fanin(
                self.circuit.outputs))
            if name not in in_pool and name not in self.circuit.inputs
        )
        self.circuit.set_delay(spare, self.base_delay[spare] + 1)
        self.engine.query(WHATIF_WRITE)
        self.circuit.set_delay(spare, self.base_delay[spare])
        self.engine.query(WHATIF_WRITE)
        self.engine.query(WHATIF_READ)
        # One fixed order, replayed every round: each edit then recurs
        # after every other pool edit, whatever the seed.
        self.stream = list(pool)
        self.rng.shuffle(self.stream)
        if self.quick:
            self.stream = self.stream[:4]

    def _base_check(self, kind: str):
        """A read must return the base-state record golden.json holds."""
        return lambda result: _mismatch(
            f"{kind} record digest", digest(result.record_json()),
            self.golden[self.name][kind],
        )

    def round_ops(self) -> List[Op]:
        ops = []
        circuit, engine = self.circuit, self.engine

        def stats_checks(result):
            return result.stats["checks"]

        for trial, (gate, step) in enumerate(self.stream):
            base = self.base_delay[gate]

            def write(answers, gate=gate, delay=base + step):
                circuit.set_delay(gate, delay)
                return engine.query(WHATIF_WRITE)

            def revert(answers, gate=gate, delay=base):
                circuit.set_delay(gate, delay)
                return engine.query(WHATIF_WRITE)

            def read(answers):
                return engine.query(WHATIF_READ)

            if trial % WHATIF_CHECK_EVERY == 0:
                def write_check(result):
                    cold = cold_query(circuit, WHATIF_WRITE)
                    return _mismatch(
                        "write record vs cold_query",
                        result.record_json(), cold.record_json(),
                    )
            else:
                def write_check(result):
                    return None

            edit = f"{gate}+{step}"
            ops += [
                Op(f"write:{edit}", write, write_check, stats_checks),
                Op(f"revert:{edit}", revert,
                   self._base_check(WHATIF_WRITE), stats_checks),
                Op(f"read:{edit}", read,
                   self._base_check(WHATIF_READ), stats_checks),
            ]
        return ops


WORKLOADS = {
    workload.name: workload
    for workload in (TableExact, SatRefute, CertifyMc, WhatIf)
}
