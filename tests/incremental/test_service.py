"""The JSON-lines query service: protocol, golden session, transports."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.fuzz.scenario import apply_edits
from repro.incremental import QueryService, serve_stream
from repro.network import dumps_bench, loads_bench
from repro.runtime import METRICS, WorkerPool

from tests.helpers import C17_BENCH

REPO_ROOT = Path(__file__).resolve().parents[2]
SERVICE_DIR = REPO_ROOT / "tests" / "service"
sys.path.insert(0, str(SERVICE_DIR))
from normalize import normalize_line  # noqa: E402


def run_session(requests, **service_kwargs):
    service = QueryService(**service_kwargs)
    reader = io.StringIO(
        "\n".join(json.dumps(request) for request in requests) + "\n"
    )
    writer = io.StringIO()
    serve_stream(service, reader, writer)
    return [json.loads(line) for line in writer.getvalue().splitlines()]


def test_request_ids_are_deterministic_counters():
    responses = run_session(
        [{"op": "load", "bench": C17_BENCH}, {"op": "stats"}]
    )
    assert [r["id"] for r in responses] == ["req-000001", "req-000002"]
    assert all(r["ok"] for r in responses)


def test_errors_are_reported_not_fatal():
    service = QueryService()
    lines = [
        json.dumps({"op": "query", "kind": "floating"}),  # nothing loaded
        "not json at all",
        json.dumps({"op": "frobnicate"}),
        json.dumps({"op": ["load"]}),  # an op that is not a string
        json.dumps({"op": "load", "bench": C17_BENCH}),
        json.dumps({"op": "edit", "edits": [
            {"op": "rewire", "name": "G22", "fanins": ["G22"]}  # cycle
        ]}),
        json.dumps({"op": "query", "kind": "floating"}),
    ]
    writer = io.StringIO()
    serve_stream(service, io.StringIO("\n".join(lines) + "\n"), writer)
    responses = [json.loads(line) for line in writer.getvalue().splitlines()]
    assert [r["ok"] for r in responses] == [
        False, False, False, False, True, False, True,
    ]
    # The cycle-rejected edit left the circuit intact and queryable.
    assert responses[-1]["result"]["record"]["delay"] == 3


def test_unknown_query_kind_names_the_kinds():
    responses = run_session(
        [{"op": "load", "bench": C17_BENCH}, {"op": "query", "kind": "bogus"}]
    )
    assert responses[1]["ok"] is False
    assert responses[1]["error"] == (
        "unknown delay kind 'bogus' "
        "(expected one of ('topological', 'floating', 'transition'))"
    )


def test_serve_and_the_fuzzer_apply_one_edit_list_alike():
    """One edit list, two consumers: a serve ``edit`` request and
    ``fuzz.scenario.apply_edits`` both apply it through
    ``Circuit.apply_edit``, so the two copies of c17 end alike."""
    edits = [
        {"op": "set_delay", "name": "G10", "delay": 3},
        {"op": "rewire", "name": "G16", "fanins": ["G2", "G3"]},
        {"op": "replace_gate", "name": "G19", "gate_type": "NOR",
         "fanins": ["G7", "G16"], "delay": 2},
        {"op": "remove_gate", "name": "G11"},  # no fanout left
    ]
    service = QueryService()
    service.handle_line(json.dumps({"op": "load", "bench": C17_BENCH}))
    response = service.handle_line(json.dumps({"op": "edit", "edits": edits}))
    assert response["result"] == {"applied": 4, "revision": 4}
    circuit = service.engine.circuit
    fuzzed = loads_bench(C17_BENCH)
    assert apply_edits(fuzzed, edits) == 4
    assert circuit.journal() == fuzzed.journal()
    assert [edit.op for edit in circuit.journal()] == [
        edit["op"] for edit in edits
    ]
    assert dumps_bench(circuit) == dumps_bench(fuzzed)


def test_shutdown_op_ends_the_loop():
    responses = run_session(
        [
            {"op": "load", "bench": C17_BENCH},
            {"op": "shutdown"},
            {"op": "stats"},  # never reached
        ]
    )
    assert len(responses) == 2
    assert responses[-1]["result"] == {"stopping": True}


def test_scripted_session_matches_golden():
    """The CI serve-protocol check, in-process: replay the scripted
    session and diff the normalised responses against the golden file."""
    session = (SERVICE_DIR / "session.jsonl").read_text().splitlines()
    golden = (SERVICE_DIR / "golden_session.jsonl").read_text().splitlines()
    # The stats op reports process-global counters; zero them so the
    # in-process replay matches a fresh ``repro serve`` process.
    METRICS.reset()
    service = QueryService()
    writer = io.StringIO()
    serve_stream(service, iter(session), writer)
    got = [
        normalize_line(line, strip_stats=False)
        for line in writer.getvalue().splitlines()
    ]
    assert got == golden


def test_scripted_session_over_subprocess_cli():
    """End to end through ``python -m repro serve`` on stdio."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "serve"],
        input=(SERVICE_DIR / "session.jsonl").read_text(),
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    got = [
        normalize_line(line, strip_stats=False)
        for line in completed.stdout.splitlines()
    ]
    golden = (SERVICE_DIR / "golden_session.jsonl").read_text().splitlines()
    assert got == golden


def test_degraded_warm_pool_round_preserves_records():
    """A crashing worker (injected) degrades the warm pool to serial
    execution; every record and certification vector stays identical."""
    os.environ["REPRO_FAULT_INJECT"] = "crash:0"
    try:
        session = (SERVICE_DIR / "session.jsonl").read_text().splitlines()
        pool = WorkerPool(jobs=2)
        try:
            service = QueryService(pool=pool)
            writer = io.StringIO()
            serve_stream(service, iter(session), writer)
        finally:
            pool.close()
        degraded = [
            normalize_line(line, strip_stats=True)
            for line in writer.getvalue().splitlines()
        ]
    finally:
        del os.environ["REPRO_FAULT_INJECT"]
    golden = [
        normalize_line(line, strip_stats=True)
        for line in (SERVICE_DIR / "golden_session.jsonl")
        .read_text()
        .splitlines()
    ]
    assert degraded == golden


def test_final_line_without_trailing_newline_is_serviced():
    """Regression: a stream ending without '\\n' on the last request
    used to drop it; readline-based framing services it at EOF."""
    service = QueryService()
    reader = io.StringIO(
        json.dumps({"op": "load", "bench": C17_BENCH})
        + "\n"
        + json.dumps({"op": "query", "kind": "transition"})  # no newline
    )
    writer = io.StringIO()
    serve_stream(service, reader, writer)
    responses = [json.loads(line) for line in writer.getvalue().splitlines()]
    assert len(responses) == 2
    assert responses[1]["ok"]
    assert responses[1]["result"]["record"]["delay"] == 3


def test_final_line_without_trailing_newline_over_subprocess_cli():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    payload = (
        json.dumps({"op": "load", "bench": C17_BENCH})
        + "\n"
        + json.dumps({"op": "query", "kind": "transition"})  # no newline
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "serve"],
        input=payload,
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    responses = [
        json.loads(line) for line in completed.stdout.splitlines()
    ]
    assert len(responses) == 2
    assert responses[1]["result"]["record"]["delay"] == 3


def test_a_malformed_edit_value_is_an_error_response_over_stdio():
    """A ``"delay": null`` edit answers ``ok: false`` naming the field;
    ``python -m repro serve`` goes on to answer the next query and exits
    0 (it used to die with a TypeError traceback)."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    requests = [
        {"op": "load", "bench": C17_BENCH},
        {"op": "edit", "edits": [
            {"op": "set_delay", "name": "G10", "delay": None},
        ]},
        {"op": "query", "kind": "floating"},
    ]
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "serve"],
        input="".join(json.dumps(request) + "\n" for request in requests),
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    responses = [
        json.loads(line) for line in completed.stdout.splitlines()
    ]
    assert [r["ok"] for r in responses] == [True, False, True]
    assert "'delay'" in responses[1]["error"]
    assert responses[2]["result"]["record"]["delay"] == 3


def test_reload_on_a_warm_pool_answers_again_and_counts():
    """'load' on an already-loaded session replaces the engine on the
    same warm pool: the reloaded circuit answers as before, and 'stats'
    reports the reload."""
    pool = WorkerPool(jobs=2)
    try:
        service = QueryService(pool=pool)
        responses = []
        reader = iter(
            [
                json.dumps({"op": "load", "bench": C17_BENCH}),
                json.dumps({"op": "query", "kind": "transition"}),
                json.dumps({"op": "load", "bench": C17_BENCH}),
                json.dumps({"op": "query", "kind": "transition"}),
                json.dumps({"op": "stats"}),
            ]
        )
        writer = io.StringIO()
        serve_stream(service, reader, writer)
        responses = [
            json.loads(line) for line in writer.getvalue().splitlines()
        ]
        assert all(r["ok"] for r in responses)
        assert responses[3]["result"]["record"] == (
            responses[1]["result"]["record"]
        )
        assert responses[4]["result"]["reloads"] == 1
        assert responses[4]["result"]["jobs"] == 2
        assert responses[4]["result"]["pool"] == pool.stats()
    finally:
        pool.close()
