"""The circuit registry: the spec-addressable corpus must build and
stay a closed catalog."""

import pytest

from repro.circuits.registry import available_circuits, build_circuit

#: Representative sample of the characterization-corpus variants; kept
#: small enough that building them all stays fast.
VARIANT_SAMPLE = [
    "rca8", "rca32", "csa32", "mult4", "parity64", "alu8",
    "alu8skip", "dec4", "cmp16", "ecc32", "rand120x7", "rand350x5",
]


def test_corpus_variants_are_registered():
    names = set(available_circuits())
    expected = {
        "rca8", "rca16", "rca32", "rca64",
        "csa24", "csa32", "csa48", "csa64",
        "mult4", "mult12", "mult16",
        "parity32", "parity64", "parity128",
        "alu8", "alu16", "alu8skip", "alu16skip",
        "dec4", "dec5", "dec6",
        "cmp16", "cmp32", "cmp64",
        "ecc32",
        "rand120x7", "rand120x19", "rand350x5", "rand350x23",
        "rand600x11",
    }
    assert expected <= names


@pytest.mark.parametrize("name", VARIANT_SAMPLE)
def test_variants_build_valid_circuits(name):
    circuit = build_circuit(name)
    circuit.validate()
    assert circuit.num_gates > 0
    assert circuit.topological_delay() > 0


def test_builds_are_reproducible():
    from repro.runtime.fingerprint import circuit_fingerprint

    assert (circuit_fingerprint(build_circuit("rand350x5"))
            == circuit_fingerprint(build_circuit("rand350x5")))
    # Different seed, different circuit.
    assert (circuit_fingerprint(build_circuit("rand350x5"))
            != circuit_fingerprint(build_circuit("rand350x23")))


def test_unknown_name_lists_catalog():
    with pytest.raises(ValueError, match="unknown benchmark circuit"):
        build_circuit("rca128")


def test_builders_ignore_global_random_state():
    """Regression: registry builds must be a pure function of the name.

    Seeded builders must use their own private ``random.Random``; a
    builder that reads the *global* generator would produce different
    circuits depending on unrelated code having touched ``random.seed``.
    """
    import random

    from repro.runtime.fingerprint import circuit_fingerprint

    sample = ["rand120x7", "rand350x5", "c880", "ecc32"]
    random.seed(1)
    first = {n: circuit_fingerprint(build_circuit(n)) for n in sample}
    random.seed(999983)
    random.random()
    second = {n: circuit_fingerprint(build_circuit(n)) for n in sample}
    assert first == second


class TestStatsAndRegistration:
    def test_circuit_stats_shape(self):
        from repro.sta import circuit_stats

        circuit = build_circuit("c17")
        stats = circuit_stats(circuit)
        assert stats["inputs"] == len(circuit.inputs)
        assert stats["outputs"] == len(circuit.outputs)
        assert stats["gates"] == circuit.num_gates
        assert stats["delay"] == circuit.topological_delay()
        assert stats["literals"] >= stats["gates"]
