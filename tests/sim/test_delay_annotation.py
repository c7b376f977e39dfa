"""The ``delays=`` annotation of EventSimulator and the shared compiled
program it runs on."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import Circuit, CircuitBuilder
from repro.sim import EventSimulator, all_input_vectors, batch_settle
from repro.sim.wordsim import program_for

from tests.helpers import c17, random_circuit


def records(result):
    waveforms = result.waveforms
    return [
        (name, waveforms[name].initial, waveforms[name].events)
        for name in waveforms
    ]


def two_input_buffer():
    """``g = BUF(a)`` (delay 4) feeding the output ``h = BUF(g)``; ``b``
    is an unused input a rewire can switch ``g`` to."""
    b = CircuitBuilder("rewired")
    a, bb = b.inputs("a", "b")
    g = b.buf(a, name="g", delay=4)
    h = b.buf(g, name="h", delay=1)
    b.output(h)
    return b.build()


class TestAnnotationEqualsSetDelay:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_waveforms_match_a_reannotated_copy(self, seed, data):
        circuit = random_circuit(seed, num_inputs=3, num_gates=7)
        delays = data.draw(st.dictionaries(
            st.sampled_from(circuit.gate_names()), st.integers(0, 3)
        ))
        input_times = data.draw(st.dictionaries(
            st.sampled_from(circuit.inputs), st.integers(0, 2)
        ))
        copy = circuit.copy()
        for name, delay in delays.items():
            copy.set_delay(name, delay)
        annotated = EventSimulator(circuit, delays=delays)
        reference = EventSimulator(copy)
        vectors = all_input_vectors(circuit)
        for prev in vectors:
            for nxt in vectors:
                got = annotated.simulate_transition(
                    prev, nxt, input_times=input_times
                )
                want = reference.simulate_transition(
                    prev, nxt, input_times=input_times
                )
                assert records(got) == records(want)
                assert got.delay == want.delay
        assert circuit.journal() == ()


class TestAnnotationErrors:
    def test_negative_delay_raises_like_set_delay(self):
        with pytest.raises(ValueError) as annotated:
            EventSimulator(c17(), delays={"G10": -1})
        with pytest.raises(ValueError) as edited:
            c17().set_delay("G10", -1)
        assert str(annotated.value) == str(edited.value)

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError):
            EventSimulator(c17(), delays={"G99": 2})

    def test_validates_the_circuit(self):
        circuit = c17()
        circuit.node("G10").fanins = ()
        with pytest.raises(ValueError, match="needs at least one fanin"):
            EventSimulator(circuit, delays={"G11": 2})


class TestEditsAfterConstruction:
    """A simulator compiles nothing of its own: every replay runs on the
    circuit's current program, so journalled edits are seen at once."""

    def test_set_delay_is_seen(self):
        circuit = two_input_buffer()
        simulator = EventSimulator(circuit)
        up = ({"a": False, "b": False}, {"a": True, "b": False})
        assert simulator.measure_pair_delay(*up) == 5
        circuit.set_delay("g", 7)
        assert simulator.measure_pair_delay(*up) == 8

    def test_rewire_is_seen(self):
        circuit = two_input_buffer()
        simulator = EventSimulator(circuit)
        b_rises = ({"a": False, "b": False}, {"a": False, "b": True})
        assert simulator.measure_pair_delay(*b_rises) == 0
        circuit.rewire("g", ["b"])
        result = simulator.simulate_transition(*b_rises)
        assert result.waveforms["h"].events == [(5, True)]
        assert result.delay == 5

    def test_annotation_keeps_overriding_an_edited_gate(self):
        circuit = two_input_buffer()
        simulator = EventSimulator(circuit, delays={"g": 2})
        up = ({"a": False, "b": False}, {"a": True, "b": False})
        assert simulator.measure_pair_delay(*up) == 3
        circuit.set_delay("g", 9)
        circuit.set_delay("h", 3)
        assert simulator.measure_pair_delay(*up) == 5


class TestSharedProgram:
    def test_one_program_serves_both_simulators(self):
        circuit = c17()
        program = program_for(circuit)
        batch_settle(circuit, all_input_vectors(circuit))
        simulator = EventSimulator(circuit)
        simulator.measure_pair_delay(
            {n: False for n in circuit.inputs},
            {n: True for n in circuit.inputs},
        )
        assert simulator._compiled()[0] is program
        assert program_for(circuit) is program

    def test_every_edit_drops_the_program(self):
        circuit = two_input_buffer()
        first = program_for(circuit)
        circuit.set_delay("g", 3)
        second = program_for(circuit)
        assert second is not first and second.delays != first.delays
        circuit.rewire("g", ["b"])
        assert program_for(circuit) is not second

    def test_unjournalled_growth_drops_the_program(self):
        circuit = two_input_buffer()
        before = program_for(circuit)
        circuit.add_gate("k", circuit.node("h").gate_type, ["b"], delay=2)
        circuit.add_output("k")
        after = program_for(circuit)
        assert after is not before and after.outputs == ["h", "k"]
        result = EventSimulator(circuit).simulate_transition(
            {"a": False, "b": False}, {"a": False, "b": True}
        )
        assert result.delay == 2

    def test_pickled_circuits_travel_without_it(self):
        circuit = c17()
        program_for(circuit)
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone._program is None
        assert program_for(clone).order == program_for(circuit).order

    def test_pickles_without_a_program_entry_unpickle(self):
        # A circuit pickled before circuits kept a compiled program has
        # no ``_program`` entry at all; the pickled state is that shape.
        circuit = c17()
        program_for(circuit)
        state = circuit.__getstate__()
        assert "_program" not in state
        clone = Circuit.__new__(Circuit)
        clone.__setstate__(state)
        assert program_for(clone).order == program_for(circuit).order
        vectors = all_input_vectors(circuit)
        assert batch_settle(clone, vectors) == batch_settle(circuit, vectors)
