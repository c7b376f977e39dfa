"""Delay-fault-testing application (paper Sec. VIII).

Generates hazard-free robust tests for the longest paths of the small
benchmark set, reporting coverage; false paths (the skip-adder ripple
chains) must come back untestable, and every generated test must survive
fault injection.
"""

from repro.core import (
    PathFaultGenerator,
    validate_test_by_fault_injection,
)
from repro.circuits import build_circuit

from .common import render_rows, write_result


def run_coverage():
    rows = []
    cases = {
        name: build_circuit(name)
        for name in ("c17", "c432", "csa8", "parity16")
    }
    validations = []
    for name, circuit in cases.items():
        generator = PathFaultGenerator(circuit)
        # The skip adder needs a deeper enumeration to get past its false
        # ripple chains to the first testable (true) paths.
        count = 40 if name == "csa8" else 6
        coverage = generator.generate_for_longest_paths(count, strong=True)
        rows.append(
            [
                name,
                coverage.total,
                len(coverage.tests),
                len(coverage.untestable),
                f"{coverage.coverage:.0%}",
            ]
        )
        if coverage.tests:
            validations.append(
                validate_test_by_fault_injection(circuit, coverage.tests[0])
            )
    return rows, validations


def test_delay_fault_coverage():
    rows, validations = run_coverage()
    write_result(
        "delay_fault_coverage",
        render_rows(
            "Path-delay-fault test generation (6 longest paths, both edges)",
            rows,
            ["EX", "faults", "tested", "untestable", "coverage"],
        ),
    )
    by_name = {row[0]: row for row in rows}
    # The skip adder's graphically-longest faults are false -> untestable.
    assert by_name["csa8"][3] > 0
    # The parity tree is fully single-path sensitizable.
    assert by_name["parity16"][4] == "100%"
    assert all(validations)
