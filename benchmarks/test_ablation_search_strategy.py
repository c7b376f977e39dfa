"""Ablation — floating-delay query orderings.

The paper's procedure asks "is the delay >= delta?" from an upper bound
downward; our implementation adds bisection and an ascending order tuned
to the SAT engine (where upward probes are satisfiable and the random-
simulation signatures answer them nearly for free).  All three must agree
on the answer; the check counts and times differ.
"""

import time

from repro.boolfn import BddEngine, SatEngine
from repro.core import compute_floating_delay
from repro.circuits import build_circuit

from .common import render_rows, write_result


def run_strategies():
    rows = []
    cases = {name: build_circuit(name) for name in ("c1908", "csa16")}
    for name, circuit in cases.items():
        answers = set()
        for engine_cls in (BddEngine, SatEngine):
            for search in ("linear", "binary", "ascending"):
                start = time.process_time()
                cert = compute_floating_delay(
                    circuit, engine=engine_cls(), search=search
                )
                rows.append(
                    [
                        name,
                        engine_cls.name,
                        search,
                        cert.delay,
                        cert.checks,
                        f"{time.process_time() - start:.2f}",
                    ]
                )
                answers.add(cert.delay)
        assert len(answers) == 1, (name, answers)
    return rows


def test_search_strategy_ablation():
    rows = run_strategies()
    write_result(
        "ablation_search_strategy",
        render_rows(
            "Floating-delay search-order ablation",
            rows,
            ["EX", "engine", "search", "f.d.", "#check", "CPU s"],
        ),
    )
    # Binary search uses the fewest checks on the BDD engine for circuits
    # with a wide l.d. - f.d. gap.
    by_key = {(r[0], r[1], r[2]): r for r in rows}
    for name in ("c1908", "csa16"):
        assert (
            by_key[(name, "bdd", "binary")][4]
            <= by_key[(name, "bdd", "linear")][4]
        )
