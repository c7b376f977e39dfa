"""Shared helpers for the paper's table and figure suites.

Every table/figure benchmark writes its reproduction table into
``benchmarks/results/<name>.txt`` (pytest captures stdout, so files are the
durable record) and also returns the rows for assertions.  Absolute CPU
numbers are *ours* (pure Python), not the paper's SUN-4 seconds; the
reproduction target is the shape — see EXPERIMENTS.md.  Circuits come from
the closed catalog in :mod:`repro.circuits.registry`
(``build_circuit``/``build_fsm_logic``).

These suites check answers, not speed: run them with
``python -m pytest -q benchmarks --ignore=benchmarks/e2e``.  Speed is
measured end to end by ``benchmarks/e2e/`` (see its README).

The delay cores consult the process-global runtime cache, so a warm rerun
of the suites reuses analyses across tables: ``REPRO_CACHE=1`` (memory) or
``REPRO_CACHE_DIR=<dir>`` (memory + disk) turns it on (see
``docs/RUNTIME.md``).
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core import (
    compute_bounded_transition_delay,
    compute_floating_delay,
    compute_transition_delay,
)
from repro.fsm import (
    reachable_states_constraint,
    transition_pair_constraint,
)
from repro.sta import render_table

RESULTS_DIR = Path(__file__).parent / "results"

#: Set REPRO_BENCH_HEAVY=1 to include the slowest stand-ins (c6288-scale).
HEAVY = os.environ.get("REPRO_BENCH_HEAVY", "") not in ("", "0")


def write_result(name: str, text: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(text)
    return path


def table2_row(name: str, circuit, logic=None) -> List[object]:
    """One Table II-style row: EX, val, l.d., f.d., #check, CPU, t.d.

    ``logic`` (an FsmLogic) switches on the Sec. VI vector restrictions.
    #check is the transition query's satisfiability-check count; CPU covers
    floating + transition computation, as in the paper.
    """
    start = time.process_time()
    if logic is not None:
        floating = compute_floating_delay(
            circuit, constraint=reachable_states_constraint(logic)
        )
        transition = compute_transition_delay(
            circuit,
            upper=floating.delay,
            constraint=transition_pair_constraint(logic),
        )
    else:
        floating = compute_floating_delay(circuit)
        transition = compute_transition_delay(circuit, upper=floating.delay)
    cpu = time.process_time() - start
    val = "-" if transition.value is None else int(transition.value)
    return [
        name,
        val,
        circuit.topological_delay(),
        floating.delay,
        transition.checks,
        f"{cpu:.2f}",
        transition.delay,
    ]


def table3_row(name: str, circuit, logic=None) -> List[object]:
    """One Table III-style row under monotone-speedup bounds [0, d]."""
    start = time.process_time()
    if logic is not None:
        floating = compute_floating_delay(
            circuit, constraint=reachable_states_constraint(logic)
        )
        bounded = compute_bounded_transition_delay(
            circuit,
            upper=floating.delay,
            constraint=transition_pair_constraint(logic),
        )
    else:
        floating = compute_floating_delay(circuit)
        bounded = compute_bounded_transition_delay(
            circuit, upper=floating.delay
        )
    cpu = time.process_time() - start
    val = "-" if bounded.value is None else int(bounded.value)
    return [
        name,
        val,
        circuit.topological_delay(),
        floating.delay,
        bounded.checks,
        f"{cpu:.2f}",
        bounded.delay,
    ]


TABLE2_HEADERS = ["EX", "val", "l.d.", "f.d.", "#check", "CPU s", "t.d."]


def render_rows(title: str, rows: Sequence[Sequence[object]],
                headers: Optional[Sequence[str]] = None) -> str:
    return render_table(headers or TABLE2_HEADERS, rows, title=title)
