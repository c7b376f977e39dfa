"""One closed catalog of named benchmark circuits.

The benchmark suites used to construct their circuits ad hoc —
``carry_skip_adder(16, 4)`` here, ``iscas.build("c880")`` there — so the
same analysis input went by different spellings and parameterisations in
different suites, and a suite's answers could not be correlated with
the runtime cache entries the run produced.  This registry is the single
place a *named* benchmark input is defined: every suite builds through
:func:`build_circuit` / :func:`build_fsm_logic`, so one name always
means one :func:`~repro.runtime.fingerprint.circuit_fingerprint` — the
key the result cache uses.

The catalog is closed: nothing registers circuits at run time, and no
parameter is smuggled through a name.  A new benchmark gets a new named
entry here, which keeps fingerprint identity reviewable in one diff.
Netlist files are read by path (:func:`repro.network.load_circuit`),
never through the registry.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from . import iscas, mcnc
from .figures import fig1_circuit, fig2_circuit, fig5_circuit
from .generators import (
    alu,
    array_multiplier,
    carry_skip_adder,
    comparator,
    decoder,
    error_corrector,
    parity_tree,
    ripple_carry_adder,
    random_logic,
)

#: Combinational inputs: name -> zero-argument builder.
CIRCUITS: Dict[str, Callable] = {
    # Paper figure circuits.
    "fig1": fig1_circuit,
    "fig2": fig2_circuit,
    "fig5": fig5_circuit,
    # Generator-based stand-ins, canonical parameterisations.
    "csa8": lambda: carry_skip_adder(8, 4),
    "csa12": lambda: carry_skip_adder(12, 4),
    "csa16": lambda: carry_skip_adder(16, 4),
    "mult8": lambda: array_multiplier(8),
    "parity16": lambda: parity_tree(16),
    # The incremental benchmark's 210-gate random network.
    "rand210": lambda: random_logic(
        num_inputs=12, num_gates=210, num_outputs=8, seed=42
    ),
    # Characterization-corpus variants (spec-addressable, one canonical
    # parameterisation per name — the catalog stays closed).
    "rca8": lambda: ripple_carry_adder(8),
    "rca16": lambda: ripple_carry_adder(16),
    "rca32": lambda: ripple_carry_adder(32),
    "rca64": lambda: ripple_carry_adder(64),
    "csa24": lambda: carry_skip_adder(24, 4),
    "csa32": lambda: carry_skip_adder(32, 4),
    "csa48": lambda: carry_skip_adder(48, 4),
    "csa64": lambda: carry_skip_adder(64, 4),
    "mult4": lambda: array_multiplier(4),
    "mult12": lambda: array_multiplier(12),
    "mult16": lambda: array_multiplier(16),
    "parity32": lambda: parity_tree(32),
    "parity64": lambda: parity_tree(64),
    "parity128": lambda: parity_tree(128),
    "alu8": lambda: alu(8),
    "alu16": lambda: alu(16),
    "alu8skip": lambda: alu(8, with_carry_skip=True),
    "alu16skip": lambda: alu(16, with_carry_skip=True),
    "dec4": lambda: decoder(4),
    "dec5": lambda: decoder(5),
    "dec6": lambda: decoder(6),
    "cmp16": lambda: comparator(16),
    "cmp32": lambda: comparator(32),
    "cmp64": lambda: comparator(64),
    "ecc32": lambda: error_corrector(data_bits=32, check_bits=9, seed=499),
    # Seeded random-logic instances: rand<gates>x<seed>.
    "rand120x7": lambda: random_logic(
        num_inputs=10, num_gates=120, num_outputs=6, seed=7
    ),
    "rand120x19": lambda: random_logic(
        num_inputs=10, num_gates=120, num_outputs=6, seed=19
    ),
    "rand350x5": lambda: random_logic(
        num_inputs=14, num_gates=350, num_outputs=10, seed=5
    ),
    "rand350x23": lambda: random_logic(
        num_inputs=14, num_gates=350, num_outputs=10, seed=23
    ),
    "rand600x11": lambda: random_logic(
        num_inputs=16, num_gates=600, num_outputs=12, seed=11
    ),
}
# Every ISCAS-85 stand-in under its paper name (c17 .. c7552).
CIRCUITS.update({name: (lambda n=name: iscas.build(n))
                 for name in iscas.available()})

#: Sequential inputs (FSM logic with reachability constraints):
#: name -> zero-argument builder returning an ``FsmLogic``.
FSM_LOGIC: Dict[str, Callable] = {
    name: (lambda n=name: mcnc.build(n, fanin_limit=2))
    for name in mcnc.available()
}
FSM_LOGIC["sticky"] = lambda: mcnc.sticky_bit_controller(chain_len=6)


def available_circuits() -> List[str]:
    return sorted(CIRCUITS)


def available_fsm_logic() -> List[str]:
    return sorted(FSM_LOGIC)


def build_circuit(name: str):
    """Build the named combinational benchmark circuit."""
    try:
        builder = CIRCUITS[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark circuit {name!r}; "
            f"available: {', '.join(available_circuits())}"
        )
    return builder()


def build_fsm_logic(name: str):
    """Build the named FSM benchmark logic (circuit + constraints)."""
    try:
        builder = FSM_LOGIC[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark FSM {name!r}; "
            f"available: {', '.join(available_fsm_logic())}"
        )
    return builder()
