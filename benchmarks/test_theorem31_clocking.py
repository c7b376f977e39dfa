"""Theorem 3.1 — clock-period validity from the transition delay.

Checks the theorem's bound empirically across circuits: every certified
period latches correctly on random vector sequences, and Fig. 2's period 4
(below the floating delay 5) is valid.
"""

from repro.core import (
    compute_transition_delay,
    smallest_empirical_period,
    theorem31_min_period,
    validate_period_by_simulation,
)
from repro.circuits import build_circuit

from .common import render_rows, write_result


def analyse():
    rows = []
    cases = {name: build_circuit(name) for name in ("c17", "csa8", "fig2")}
    for name, circuit in cases.items():
        cert = compute_transition_delay(circuit)
        tau = theorem31_min_period(circuit, cert.delay)
        validation = validate_period_by_simulation(
            circuit, tau, num_vectors=40
        )
        empirical = smallest_empirical_period(circuit, num_vectors=40)
        rows.append(
            [
                name,
                circuit.topological_delay(),
                cert.delay,
                tau,
                validation.ok,
                empirical,
            ]
        )
    return rows


def test_theorem31():
    rows = analyse()
    write_result(
        "theorem31_clocking",
        render_rows(
            "Theorem 3.1 validation",
            rows,
            ["EX", "omega", "t.d.", "certified tau", "valid", "empirical min"],
        ),
    )
    for __, omega, td, tau, ok, empirical in rows:
        assert ok
        assert tau >= td and 2 * tau > omega
        assert empirical <= tau
