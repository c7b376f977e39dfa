"""Metrics totals: counters, gauges, span wall times, worker fold-in,
reporting, and scopes."""

from repro.runtime import Metrics


def test_counters_accumulate():
    m = Metrics()
    m.incr("sat.checks")
    m.incr("sat.checks", 4)
    assert m.counter("sat.checks") == 5
    assert m.counter("missing") == 0


def test_gauge_keeps_the_high_water_mark():
    m = Metrics()
    m.gauge_max("bdd.nodes", 10)
    m.gauge_max("bdd.nodes", 7)
    m.gauge_max("bdd.nodes", 12)
    assert m.gauge("bdd.nodes") == 12


def test_phase_times_accumulate_and_survive_exceptions():
    m = Metrics()
    with m.span("work"):
        pass
    try:
        with m.span("work"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert m.phase_seconds("work") >= 0.0
    assert "work" in m.snapshot()["phases"]


def test_merge_counters_folds_worker_results():
    """A worker chunk's counters merge into the totals through the one
    call that attaches its span."""
    m = Metrics()
    m.incr("pairs.sat_probes", 3)
    m.add_span(
        "pairs.chunk", 0.1,
        counters={"pairs.sat_probes": 2, "pairs.functions_built": 7},
    )
    assert m.counter("pairs.sat_probes") == 5
    assert m.counter("pairs.functions_built") == 7


def test_reset_clears_everything():
    m = Metrics()
    m.incr("a")
    m.gauge_max("b", 1)
    with m.span("c"):
        pass
    m.reset()
    snap = m.snapshot()
    assert snap == {"counters": {}, "gauges": {}, "phases": {}}
    assert m.root.children == [] and m.root.counters == {}


def test_report_is_stable_and_readable():
    m = Metrics()
    assert "(no activity recorded)" in m.report()
    m.incr("zeta", 1)
    m.incr("alpha", 2)
    report = m.report()
    assert report.index("alpha") < report.index("zeta")
    assert "counters:" in report
    m.gauge_max("nodes", 9)
    with m.span("slow"):
        pass
    report = m.report()
    assert "gauges:" in report and "phases:" in report and "ms" in report


def test_merge_gauges_keeps_the_max_across_workers():
    m = Metrics()
    m.gauge_max("boolfn.peak_nodes", 40)
    m.add_span(
        "pairs.chunk", 0.1, gauges={"boolfn.peak_nodes": 56, "other.peak": 3}
    )
    m.add_span("pairs.chunk", 0.1, gauges={"boolfn.peak_nodes": 12})
    assert m.gauge("boolfn.peak_nodes") == 56
    assert m.gauge("other.peak") == 3


def test_metrics_scope_isolates_counters_from_the_global_instance():
    from repro.runtime import GLOBAL_METRICS, METRICS, metrics_scope

    before = GLOBAL_METRICS.counter("scope.probe")
    with metrics_scope() as session:
        METRICS.incr("scope.probe", 3)
        assert METRICS.counter("scope.probe") == 3
        assert session.counter("scope.probe") == 3
    # Outside the scope the proxy resolves to the global again.
    assert GLOBAL_METRICS.counter("scope.probe") == before
    assert session.counter("scope.probe") == 3


def test_metrics_scope_crosses_threads_only_when_entered_inside():
    """Contextvars do not propagate into executor threads on their own —
    the server enters the scope *inside* the worker thread; this pins
    the behaviour that makes that wrapping necessary."""
    import threading

    from repro.runtime import METRICS, Metrics, current_metrics, metrics_scope

    session = Metrics()
    seen = {}

    def worker():
        # Fresh thread => fresh context => the global instance.
        seen["before"] = current_metrics() is session
        with metrics_scope(session):
            with METRICS.span("thread.span"):
                METRICS.incr("thread.probe")
            seen["inside"] = current_metrics() is session

    with metrics_scope(session):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert seen == {"before": False, "inside": True}
    assert session.counter("thread.probe") == 1
    assert session.root.children[0].counters == {"thread.probe": 1}
