"""Golden SAT trajectory: every CDCL search the solver runs, step for step.

``golden_sat_trajectory.json`` holds, per case, one record per
``SatSolver.solve`` call: its result, the solver's ``num_conflicts``,
``num_decisions`` and ``num_propagations`` after the call, and a digest
of ``model()`` when the call is satisfiable.  The decision rule (VSIDS
order with its tie-break, phase saving), the watch order, 1UIP learning,
the backtrack level and the Luby restarts all show in these numbers, so
a kernel change that moves one decision or one propagation fails here
even where every answer stays the same.  The SAT witnesses of the delay
analyses are read off these models.

The cases are seeded random 3-SAT near the 4.26 clause/variable
threshold (loaded through ``add_cnf``, solved with and without
assumptions), pigeonhole formulas (loaded through ``add_clause``), and
every CDCL call that floating and transition delay make with
``engine_name="sat"`` on four sat-refute circuits.  Every case adds all
of its clauses before its first solve.

Re-record only on a commit whose solver is trusted::

    PYTHONPATH=src python -m tests.boolfn.test_golden_sat_trajectory
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.boolfn import Cnf, SatSolver
from repro.circuits import build_circuit
from repro.core import compute_floating_delay, compute_transition_delay
from repro.runtime.cache import DelayCache

GOLDEN_PATH = Path(__file__).with_name("golden_sat_trajectory.json")

NO_CACHE = DelayCache(enabled=False)

#: Circuits of the e2e sat-refute workload whose CDCL calls are pinned.
CIRCUITS = ["alu8skip", "csa8", "mult4", "c1908"]


def solve_record(solver: SatSolver, result: bool) -> list:
    record = [
        result, solver.num_conflicts, solver.num_decisions,
        solver.num_propagations,
    ]
    if result:
        blob = json.dumps(sorted(solver.model().items())).encode()
        record.append(hashlib.sha256(blob).hexdigest()[:16])
    return record


@contextmanager
def recorded_solves():
    """Record every ``SatSolver.solve`` call made inside the block."""
    records: list = []
    original = SatSolver.solve

    def solve(self, assumptions=()):
        result = original(self, assumptions)
        records.append(solve_record(self, result))
        return result

    SatSolver.solve = solve
    try:
        yield records
    finally:
        SatSolver.solve = original


def random_3sat(seed: int, num_vars: int) -> Cnf:
    rng = random.Random(seed)
    cnf = Cnf(num_vars)
    for _ in range(round(4.26 * num_vars)):
        clause = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in clause])
    return cnf


def random_case(seed: int, num_vars: int):
    def build():
        cnf = random_3sat(seed, num_vars)
        rng = random.Random(seed + 1)
        solver = SatSolver()
        solver.add_cnf(cnf)
        records = [solve_record(solver, solver.solve())]
        for _ in range(4):
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), 4)
            ]
            records.append(solve_record(solver, solver.solve(assumptions)))
        return records
    return build


def pigeonhole_case(holes: int):
    """``holes + 1`` pigeons into ``holes`` holes: unsatisfiable."""
    def build():
        solver = SatSolver()

        def var(p, h):
            return p * holes + h + 1

        for p in range(holes + 1):
            solver.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(holes + 1):
                for p2 in range(p1 + 1, holes + 1):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        return [solve_record(solver, solver.solve())]
    return build


def delay_case(name: str):
    """Every CDCL call of floating, then transition delay bounded by it."""
    def build():
        circuit = build_circuit(name)
        with recorded_solves() as records:
            floating = compute_floating_delay(
                circuit, engine_name="sat", cache=NO_CACHE
            )
            compute_transition_delay(
                circuit, engine_name="sat", upper=floating.delay,
                cache=NO_CACHE,
            )
        return records
    return build


CASES = {}
for _num_vars, _seed in (
    (80, 7), (100, 1), (100, 2), (100, 4), (100, 5), (100, 6), (120, 4),
    (120, 6), (120, 8),
):
    CASES[f"random3sat/{_num_vars}v/seed{_seed}"] = random_case(
        _seed, _num_vars
    )
for _holes in (4, 5, 6):
    CASES[f"pigeonhole/{_holes + 1}into{_holes}"] = pigeonhole_case(_holes)
for _name in CIRCUITS:
    CASES[f"delay/{_name}/sat"] = delay_case(_name)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_every_case_is_recorded(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_matches_golden(golden, case):
    got = json.loads(json.dumps(CASES[case]()))
    want = golden[case]
    assert len(got) == len(want), f"{case}: {len(got)} solves, not {len(want)}"
    for index, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{case}: solve {index} differs"


def record() -> None:
    lines = [
        f"{json.dumps(name)}: {json.dumps(build(), separators=(',', ':'))}"
        for name, build in CASES.items()
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    record()
