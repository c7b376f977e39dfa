"""Figs. 3 and 4 — possible-transition windows of the four-gate example.

Regenerates the waveform windows of Fig. 4 from the circuit of Fig. 3 by
symbolic simulation with per-input clock times (i1-i3 switch between time
points 0 and 1; the late i4 between 5 and 6).
"""

from repro.boolfn import BddEngine
from repro.core import TransitionAnalysis
from repro.circuits import fig3_circuit

from .common import render_rows, write_result

#: Paper windows, written as (from, to) interval labels.
PAPER_WINDOWS = {
    "g1": [(1, 2)],
    "g2": [(2, 3)],
    "g3": [(1, 2), (3, 4)],
    "g4": [(5, 6), (6, 7), (7, 8), (9, 10)],
}


def analyse():
    circuit, input_times = fig3_circuit()
    analysis = TransitionAnalysis(
        circuit, BddEngine(), input_times=input_times
    )
    windows = {
        g: [(t - 1, t) for t in analysis.possible_transition_times(g)]
        for g in ("g1", "g2", "g3", "g4")
    }
    return windows


def test_fig4_windows():
    windows = analyse()
    rows = [
        [gate, str(windows[gate]), str(PAPER_WINDOWS[gate])]
        for gate in ("g1", "g2", "g3", "g4")
    ]
    write_result(
        "fig4_transition_windows",
        render_rows(
            "Fig. 4 possible-transition windows",
            rows,
            ["gate", "ours", "paper"],
        ),
    )
    assert windows == PAPER_WINDOWS
