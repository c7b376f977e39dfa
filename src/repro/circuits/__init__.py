"""Benchmark circuits: generators, figure circuits, ISCAS/MCNC stand-ins.

Named benchmark inputs (one name == one fingerprint across suites and
the runtime cache) live in
:mod:`repro.circuits.registry` — build through
:func:`~repro.circuits.registry.build_circuit` /
:func:`~repro.circuits.registry.build_fsm_logic`.
"""

from . import iscas, mcnc
from .registry import (
    available_circuits,
    available_fsm_logic,
    build_circuit,
    build_fsm_logic,
    circuit_stats,
    register_circuit,
    registry_stats,
    unregister_circuit,
)
from .figures import (
    FIG2_CRITICAL_PATH,
    fig1_circuit,
    fig1_vector_pair,
    fig2_circuit,
    fig3_circuit,
    fig5_circuit,
)
from .generators import (
    alu,
    array_multiplier,
    carry_skip_adder,
    comparator,
    decoder,
    error_corrector,
    parity_tree,
    random_logic,
    ripple_carry_adder,
)

__all__ = [
    "iscas",
    "mcnc",
    "available_circuits",
    "available_fsm_logic",
    "build_circuit",
    "build_fsm_logic",
    "circuit_stats",
    "register_circuit",
    "registry_stats",
    "unregister_circuit",
    "fig1_circuit",
    "fig1_vector_pair",
    "fig2_circuit",
    "fig3_circuit",
    "fig5_circuit",
    "FIG2_CRITICAL_PATH",
    "ripple_carry_adder",
    "carry_skip_adder",
    "array_multiplier",
    "parity_tree",
    "error_corrector",
    "alu",
    "decoder",
    "comparator",
    "random_logic",
]
