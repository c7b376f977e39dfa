"""Ablation — Sec. V-G engine choice: ROBDD vs multilevel-network + SAT.

The paper keeps the symbolic functions as multilevel networks checked with
Larrabee's satisfiability procedure because "in the case of circuits like
multipliers, constructing ROBDD's ... is infeasible".  This ablation times
both engines on an adder-dominated circuit (BDD-friendly) and demonstrates
the BDD node-budget overflow + automatic SAT fallback on a multiplier.
"""

import time


from repro.boolfn import BddEngine, BddOverflow, SatEngine
from repro.core import compute_transition_delay
from repro.circuits import build_circuit

from .common import render_rows, write_result


def run_engines():
    rows = []
    adder = build_circuit("csa8")
    for engine in (BddEngine(), SatEngine()):
        start = time.process_time()
        cert = compute_transition_delay(adder, engine=engine)
        rows.append(
            [
                "csa8",
                engine.name,
                cert.delay,
                cert.checks,
                f"{time.process_time() - start:.2f}",
            ]
        )
    assert rows[0][2] == rows[1][2]

    # The multiplier: a small node budget forces the paper's scenario
    # (middle product bits have exponentially-sized BDDs).
    mult = build_circuit("mult8")
    overflowed = False
    start = time.process_time()
    try:
        compute_transition_delay(mult, engine=BddEngine(max_nodes=60_000))
    except BddOverflow:
        overflowed = True
    bdd_time = time.process_time() - start
    rows.append(
        ["mult8", "bdd(60k cap)", "overflow" if overflowed else "?", "-",
         f"{bdd_time:.2f}"]
    )
    start = time.process_time()
    cert = compute_transition_delay(mult, engine=SatEngine())
    rows.append(
        ["mult8", "sat", cert.delay, cert.checks,
         f"{time.process_time() - start:.2f}"]
    )
    return rows, overflowed


def test_engine_ablation():
    rows, overflowed = run_engines()
    write_result(
        "ablation_engine",
        render_rows(
            "Engine ablation (Sec. V-G)",
            rows,
            ["EX", "engine", "t.d.", "#check", "CPU s"],
        ),
    )
    assert overflowed, "the multiplier must exhaust the capped BDD budget"
