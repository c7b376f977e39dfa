"""Record golden.json, the answers every benchmark op is checked against.

    PYTHONPATH=src python -m benchmarks.e2e.golden

Re-record only on a commit whose answers are trusted: the benchmark then
holds every later commit to them.  ``sat-refute`` answers come from the
``auto`` engine, so the SAT path is checked against the other engine.
"""

from __future__ import annotations

import json

from repro.circuits import build_circuit
from repro.core import compute_floating_delay, compute_transition_delay
from repro.incremental import IncrementalTimingEngine
from repro.runtime.cache import DelayCache

from benchmarks.e2e.workloads import (
    GOLDEN_PATH,
    NO_CACHE,
    SAT_CIRCUITS,
    WHATIF_CIRCUIT,
    WHATIF_READ,
    WHATIF_WRITE,
    CertifyMc,
    TableExact,
    certify_summary,
    digest,
)


def record() -> dict:
    # Any benchmark seed gives the same answers; 1 is as good as any.
    table = TableExact(1, golden={})
    table.setup()
    answers = {}
    for op in table.round_ops():
        answers[op.key] = op.run(answers)
    golden = {
        "table-exact": {
            key: {"delay": cert.delay, "checks": cert.checks}
            for key, cert in answers.items()
        },
    }

    sat = {}
    for name in SAT_CIRCUITS:
        circuit = build_circuit(name)
        floating = compute_floating_delay(circuit, cache=NO_CACHE)
        transition = compute_transition_delay(
            circuit, upper=floating.delay, cache=NO_CACHE
        )
        sat[f"{name}/floating"] = floating.delay
        sat[f"{name}/transition"] = transition.delay
    golden["sat-refute"] = sat

    flow = CertifyMc(1, golden={})
    flow.setup()
    golden["certify"] = {
        op.key: certify_summary(op.run({})) for op in flow.round_ops()
    }

    engine = IncrementalTimingEngine(
        build_circuit(WHATIF_CIRCUIT), cache=DelayCache()
    )
    golden["whatif"] = {
        kind: digest(engine.query(kind).record_json())
        for kind in (WHATIF_WRITE, WHATIF_READ)
    }
    return golden


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(record(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
