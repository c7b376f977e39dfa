"""The symbolic analyses see every revision of the circuit they analyse.

The analyses read their slots, variable order and windows off the
circuit's compiled program, which each edit drops.  So on one
:class:`~repro.network.circuit.Circuit` object, edited in place, every
certificate must equal the one computed on a fresh copy of the same
revision: delay, output, value, witness or pair, and ``#check``.
"""

from __future__ import annotations

import pytest

from repro.core import (
    certify,
    compute_bounded_transition_delay,
    compute_floating_delay,
    compute_transition_delay,
    format_vector,
)
from repro.network import GateType
from repro.runtime.cache import DelayCache

from tests.helpers import c17

NO_CACHE = DelayCache(enabled=False)

#: In-place edits of c17; the two delay edits move every delay.
EDITS = [
    ("set_delay up", lambda c: c.set_delay("G19", 3)),
    ("set_delay down", lambda c: c.set_delay("G19", 2)),
    ("rewire", lambda c: c.rewire("G23", ["G10", "G19"])),
    ("replace_gate", lambda c: c.replace_gate("G19", gate_type=GateType.XOR)),
    ("add_output", lambda c: c.add_output("G16")),
    ("set_outputs", lambda c: c.set_outputs(["G16", "G22"])),
]


def certificates(circuit, engine: str, **options) -> list:
    inputs = circuit.inputs
    certs = [
        compute(circuit, engine_name=engine, cache=NO_CACHE, **options)
        for compute in (
            compute_floating_delay,
            compute_transition_delay,
            compute_bounded_transition_delay,
        )
    ]
    return [
        {
            "mode": cert.mode,
            "delay": cert.delay,
            "output": cert.output,
            "value": cert.value,
            "witness": cert.witness and format_vector(cert.witness, inputs),
            "pair": cert.pair and cert.pair.render(inputs),
            "checks": cert.checks,
        }
        for cert in certs
    ]


@pytest.mark.parametrize("engine", ["bdd", "sat"])
def test_each_edit_is_analysed_as_a_fresh_copy(engine):
    circuit = c17()
    seen = [certificates(circuit, engine)]
    for label, edit in EDITS:
        edit(circuit)
        got = certificates(circuit, engine)
        assert got == certificates(circuit.copy(), engine), label
        seen.append(got)
    delays = [[cert["delay"] for cert in certs] for certs in seen[:3]]
    assert delays == [[3, 3, 3], [5, 5, 5], [4, 4, 4]]


@pytest.mark.parametrize("engine", ["bdd", "sat"])
def test_clocked_query_leaves_the_plain_windows_alone(engine):
    circuit = c17()
    times = {"G1": 0, "G2": 1, "G3": 3, "G6": 2, "G7": 5}
    clocked = certificates(circuit, engine, input_times=times)
    plain = certificates(circuit, engine)
    assert clocked != plain
    assert plain == certificates(circuit.copy(), engine)
    assert clocked == certificates(circuit.copy(), engine, input_times=times)


def corrupted_c17():
    """A c17 whose gate ``G16`` names a missing fanin, never compiled."""
    circuit = c17()
    circuit.node("G16").fanins = ("G2", "G99")
    return circuit


@pytest.mark.parametrize("compute", (
    compute_floating_delay,
    compute_transition_delay,
    compute_bounded_transition_delay,
    certify,
))
def test_an_invalid_circuit_raises_its_validation_error(compute):
    """An analysis validates its revision by compiling the program, and
    certify's first step is an analysis: on a corrupted circuit each
    raises what ``circuit.validate()`` raises."""
    with pytest.raises(ValueError) as expected:
        corrupted_c17().validate()
    with pytest.raises(ValueError) as raised:
        compute(corrupted_c17(), cache=NO_CACHE)
    assert str(raised.value) == str(expected.value)
