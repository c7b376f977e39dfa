"""Simulators: zero-delay, word-level bit-parallel, event-driven timing,
and ternary bounded-delay."""

from .event_sim import ClockedResult, EventSimulator, TransitionResult
from .logic_sim import (
    all_input_vectors,
    functional_sequence,
    settle,
    settle_outputs,
)
from .wordsim import (
    batch_settle,
    batch_settle_outputs,
    pack_vectors,
    simulate_words,
    unpack_word,
)
from .ternary import (
    ONE,
    X,
    ZERO,
    bounded_transition_analysis,
    fixed_bounds,
    monotone_bounds,
    pair_bounded_delay,
    ternary_gate,
    ternary_settle,
)
from .vcd import dump_vcd, dumps_vcd, loads_vcd
from .waveform import Waveform, WaveformSet

__all__ = [
    "EventSimulator",
    "TransitionResult",
    "ClockedResult",
    "settle",
    "settle_outputs",
    "simulate_words",
    "batch_settle",
    "batch_settle_outputs",
    "pack_vectors",
    "unpack_word",
    "all_input_vectors",
    "functional_sequence",
    "Waveform",
    "WaveformSet",
    "dumps_vcd",
    "dump_vcd",
    "loads_vcd",
    "ZERO",
    "ONE",
    "X",
    "ternary_gate",
    "ternary_settle",
    "monotone_bounds",
    "fixed_bounds",
    "bounded_transition_analysis",
    "pair_bounded_delay",
]
