"""Statistical timing (Sec. VII follow-up, ref. [11]).

Compares three estimates of the delay distribution under +-1 gate-delay
variation on a carry-skip adder:

* the analytical propagation (vector-independent, no false-path awareness),
* Monte Carlo over the topological delay (same model, sampled),
* Monte Carlo replay of the certification vector pairs (vector-driven —
  false paths excluded).

The vector-driven distribution must sit left of (faster than) the
vector-independent ones: the statistical measure of false-path pessimism.
"""

from repro.core import (
    circuit_delay_distribution,
    collect_certification_pairs,
    monte_carlo_delay,
    monte_carlo_topological,
    uniform_delay_model,
    uniform_variation,
)
from repro.circuits import build_circuit

from .common import render_rows, write_result


def run_comparison():
    circuit = build_circuit("csa8")
    analytic = circuit_delay_distribution(circuit, uniform_delay_model(1))
    topo = monte_carlo_topological(
        circuit, num_samples=120, delay_model=uniform_variation(1)
    )
    pairs = [
        pair for __, pair in collect_certification_pairs(circuit).values()
    ]
    vector_driven = monte_carlo_delay(
        circuit, pairs, num_samples=120, delay_model=uniform_variation(1)
    )
    rows = [
        [
            "analytical (topological)",
            f"{analytic.mean:.2f}",
            analytic.quantile(0.95),
            analytic.support_max,
        ],
        [
            "Monte Carlo (topological)",
            f"{topo.mean:.2f}",
            topo.percentile(95),
            topo.max,
        ],
        [
            "Monte Carlo (certification pairs)",
            f"{vector_driven.mean:.2f}",
            vector_driven.percentile(95),
            vector_driven.max,
        ],
    ]
    return rows, analytic, topo, vector_driven


def test_statistical_timing():
    rows, analytic, topo, vector_driven = run_comparison()
    write_result(
        "statistical_timing",
        render_rows(
            "Statistical timing under +-1 delay variation (csa8)",
            rows,
            ["method", "mean", "p95", "max"],
        ),
    )
    # Vector-driven (false paths excluded) is faster than topological.
    assert vector_driven.mean < topo.mean
    assert abs(analytic.mean - topo.mean) < 1.0
