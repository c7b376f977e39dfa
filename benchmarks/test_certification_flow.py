"""Sec. VII — the complete certified-timing-verification flow.

Runs TrueD end-to-end on a carry-skip adder with pessimistic verifier
delays and a faster 'post-layout' annotation: floating bound, transition
delay + per-output vectors, replay on the accurate simulator, verdict, and
the statistical (yield) follow-up between gamma and delta.
"""

from repro.core import Verdict, certify
from repro.network import scale_delays
from repro.circuits import build_circuit

from .common import render_rows, write_result


def run_flow():
    silicon = build_circuit("csa12")
    estimated = scale_delays(silicon, 2)   # verifier margins
    report = certify(
        estimated, accurate_circuit=silicon, statistical_samples=40
    )
    exact = certify(build_circuit("c17"))
    return report, exact


def test_certification_flow():
    report, exact = run_flow()
    stats = report.statistics
    rows = [
        ["circuit", report.circuit_name],
        ["l.d. (estimated delays)", report.topological_delay],
        ["f.d. (delta)", report.floating.delay],
        ["t.d.", report.transition.delay],
        ["certification pairs", len(report.pairs)],
        ["replay on verifier model", report.model_replay_delay],
        ["replay on silicon (gamma)", report.accurate_replay_delay],
        ["verdict", report.verdict.value],
        ["Theorem 3.1 min period", report.certified_min_period],
        ["statistical mean", f"{stats.mean:.2f}"],
        ["statistical p95", stats.percentile(95)],
        ["yield at gamma", f"{stats.yield_at(report.gamma):.2f}"],
    ]
    write_result(
        "certification_flow",
        render_rows("Sec. VII certification flow", rows, ["step", "value"]),
    )
    assert report.verdict == Verdict.CERTIFIED_CONSERVATIVE
    assert report.model_replay_delay == report.transition.delay
    assert report.gamma < report.transition.delay
    assert exact.verdict == Verdict.CERTIFIED
