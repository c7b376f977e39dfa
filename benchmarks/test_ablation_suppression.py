"""Ablation — symbolic event suppression (Sec. V-D).

Compares the number of per-interval functions built (and the time) with
the lazy query-driven evaluation (which subsumes the w_g rule) against
building every in-window function, and reports the w_g plan itself.
"""

import time

from repro.boolfn import BddEngine
from repro.core import (
    TransitionAnalysis,
    build_all_functions,
    compute_floating_delay,
    compute_transition_delay,
    suppression_plan,
)
from repro.circuits import build_circuit

from .common import render_rows, write_result


def run_case(name, circuit):
    floating = compute_floating_delay(circuit)
    # Lazy (production path).
    lazy_analysis = TransitionAnalysis(circuit, BddEngine())
    start = time.process_time()
    cert = compute_transition_delay(
        circuit, upper=floating.delay, analysis=lazy_analysis
    )
    lazy_time = time.process_time() - start
    # Eager (suppression disabled).
    eager_analysis = TransitionAnalysis(circuit, BddEngine())
    start = time.process_time()
    total = build_all_functions(eager_analysis)
    eager_cert = compute_transition_delay(
        circuit, upper=floating.delay, analysis=eager_analysis
    )
    eager_time = time.process_time() - start
    assert eager_cert.delay == cert.delay
    plan = suppression_plan(circuit, cert.delay)
    return [
        name,
        cert.delay,
        lazy_analysis.num_functions(),
        total,
        plan.total_needed,
        f"{lazy_time:.2f}",
        f"{eager_time:.2f}",
    ]


def run_all():
    return [
        run_case("c880", build_circuit("c880")),
        run_case("csa16", build_circuit("csa16")),
    ]


def test_suppression_ablation():
    rows = run_all()
    write_result(
        "ablation_suppression",
        render_rows(
            "Event-suppression ablation (Sec. V-D)",
            rows,
            [
                "EX",
                "t.d.",
                "lazy fns",
                "all fns",
                "w_g-plan fns",
                "lazy CPU s",
                "eager CPU s",
            ],
        ),
    )
    for row in rows:
        __, __, lazy_fns, all_fns, plan_fns, __, __ = row
        assert lazy_fns <= plan_fns <= all_fns
        assert lazy_fns < all_fns
