"""The span tree of the one recorder: nesting, events, worker-chunk
attribution, export, scopes, and the rule that the counters summed over
the tree equal the flat totals."""

import json

import pytest

from repro.runtime import METRICS, Metrics, metrics_scope


def _spans(span):
    yield span
    for child in span.children:
        yield from _spans(child)


def _summed_counters(root):
    totals = {}
    for span in _spans(root):
        for name, amount in span.counters.items():
            totals[name] = totals.get(name, 0) + amount
    return totals


def test_spans_nest_under_their_parent():
    metrics = Metrics()
    with metrics.span("outer"):
        with metrics.span("inner", worker=7):
            pass
        with metrics.span("sibling"):
            pass
    root = metrics.finalize()
    assert root.name == "session"
    (outer,) = root.children
    assert outer.name == "outer"
    assert [child.name for child in outer.children] == ["inner", "sibling"]
    assert outer.children[0].attrs == {"worker": 7}


def test_root_covers_all_child_spans():
    metrics = Metrics()
    with metrics.span("a"):
        pass
    with metrics.span("b"):
        with metrics.span("b.child"):
            pass
    root = metrics.finalize()
    assert root.elapsed >= sum(child.elapsed for child in root.children)
    b = root.children[1]
    assert b.elapsed >= b.children[0].elapsed


def test_events_and_counters_attach_to_the_current_span():
    metrics = Metrics()
    with metrics.span("phase"):
        metrics.event("retry", attempt=1, tasks=3)
        metrics.incr("chunks", 2)
        metrics.incr("chunks")
        metrics.gauge_max("peak", 5)
        metrics.gauge_max("peak", 3)
    span = metrics.root.children[0]
    assert span.events == [{"event": "retry", "attempt": 1, "tasks": 3}]
    assert span.counters == {"chunks": 3}
    assert span.gauges == {"peak": 5}
    # The same calls wrote the totals, and nothing else in the tree.
    assert metrics.counter("chunks") == 3
    assert metrics.gauge("peak") == 5
    assert metrics.root.counters == {} and metrics.root.gauges == {}


def test_add_span_attaches_premeasured_worker_chunks():
    metrics = Metrics()
    with metrics.span("parallel"):
        metrics.add_span(
            "chunk", 0.25, counters={"probes": 4}, gauges={"nodes": 9},
            chunk=0, worker=1234,
        )
    parallel = metrics.root.children[0]
    (chunk,) = parallel.children
    assert chunk.elapsed == 0.25
    assert chunk.counters == {"probes": 4}
    assert chunk.gauges == {"nodes": 9}
    assert chunk.attrs == {"chunk": 0, "worker": 1234}
    # Folded into the totals and onto the chunk span only.
    assert parallel.counters == {} and parallel.gauges == {}
    assert metrics.counter("probes") == 4
    assert metrics.gauge("nodes") == 9
    # Worker time is not this process's wall time.
    assert "chunk" not in metrics.snapshot()["phases"]


def test_exceptions_still_close_the_span():
    metrics = Metrics()
    with pytest.raises(RuntimeError):
        with metrics.span("boom"):
            raise RuntimeError("x")
    metrics.incr("after")
    assert metrics.root.counters == {"after": 1}
    assert metrics.root.children[0].elapsed >= 0.0
    assert "boom" in metrics.snapshot()["phases"]


def test_json_export_roundtrips(tmp_path):
    metrics = Metrics()
    with metrics.span("phase", kind="test"):
        metrics.incr("n", 1)
        metrics.event("marker")
    path = tmp_path / "trace.json"
    metrics.export(path)
    data = json.loads(path.read_text())
    assert data["name"] == "session"
    (phase,) = data["children"]
    assert phase["name"] == "phase"
    assert phase["attrs"] == {"kind": "test"}
    assert phase["counters"] == {"n": 1}
    assert phase["events"] == [{"event": "marker"}]
    assert data["elapsed_ms"] >= phase["elapsed_ms"]


def test_render_is_an_indented_tree():
    metrics = Metrics()
    with metrics.span("outer"):
        with metrics.span("inner"):
            metrics.event("degrade-serial", items=2)
    text = metrics.render()
    lines = text.splitlines()
    assert lines[0] == "execution trace"
    outer_line = next(line for line in lines if "outer" in line)
    inner_line = next(line for line in lines if "inner" in line)
    indent = len(outer_line) - len(outer_line.lstrip())
    assert len(inner_line) - len(inner_line.lstrip()) > indent
    assert any("! degrade-serial" in line for line in lines)


def test_global_metrics_nest_spans_in_their_own_tree():
    METRICS.reset()
    with METRICS.span("outer.phase"):
        with METRICS.span("inner.phase"):
            METRICS.incr("probe", 2)
    outer = METRICS.root.children[-1]
    assert outer.name == "outer.phase"
    assert outer.children[0].name == "inner.phase"
    assert outer.children[0].counters == {"probe": 2}
    assert METRICS.counter("probe") == 2
    assert set(METRICS.snapshot()["phases"]) == {"outer.phase", "inner.phase"}


def test_private_metrics_instances_do_not_touch_the_global_instance():
    METRICS.reset()
    private = Metrics()
    with private.span("quiet"):
        private.incr("quiet.counter")
    assert METRICS.root.children == []
    assert METRICS.root.counters == {}
    assert METRICS.snapshot()["counters"] == {}


def test_metrics_scope_isolates_spans_from_the_global_instance():
    METRICS.reset()
    with metrics_scope() as session:
        with METRICS.span("session-only"):
            METRICS.event("inside")
        assert session.root.children[0].name == "session-only"
    # The global instance never saw the scoped session's spans.
    assert METRICS.root.children == []


def test_metrics_scope_accepts_an_explicit_instance():
    mine = Metrics()
    with metrics_scope(mine) as active:
        assert active is mine
        with METRICS.span("routed"):
            pass
    assert mine.root.children[0].name == "routed"


@pytest.mark.parametrize("fault", [None, "crash:0"])
def test_summed_span_counters_equal_the_totals(fault, monkeypatch):
    """Every count is written once to the totals and once to the tree —
    sharded chunks included, on the plain and on the retry path."""
    from repro.circuits import build_circuit
    from repro.core import PathFaultGenerator

    if fault is None:
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
    else:
        monkeypatch.setenv("REPRO_FAULT_INJECT", fault)
    generator = PathFaultGenerator(build_circuit("c880"))
    # 128 tasks: the chunk that does not crash is still running when
    # the crash breaks the pool, so both chunks fail and are retried.
    with metrics_scope() as metrics:
        generator.generate_for_longest_paths(64, jobs=2)
    totals = metrics.snapshot()["counters"]
    assert totals["faults.sat_probes"] > 0
    assert _summed_counters(metrics.root) == totals
    events = [
        event["event"]
        for span in _spans(metrics.root)
        for event in span.events
    ]
    if fault is None:
        assert events == []
    else:
        assert events.count("worker-died") == 2
        assert events.count("retry") == 1
