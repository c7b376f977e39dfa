"""Benchmark-suite plumbing: every suite runs on a ``BenchRecorder``.

This conftest *overrides* the ``benchmark`` fixture (pytest-benchmark's,
when that plugin is installed) with a thin proxy onto one
:class:`repro.bench.recorder.BenchRecorder` per suite module.  Suites
keep the familiar ``benchmark.pedantic(fn, ...)`` call shape and gain:

* canonical ``BENCH_<suite>.json`` records (schema in
  ``repro/bench/schema.py``) written at session end — one per suite
  module, into ``$REPRO_BENCH_OUT`` or ``benchmarks/results/``;
* warmup/repeat control from the ``trued bench run`` driver via
  ``REPRO_BENCH_REPEATS`` / ``REPRO_BENCH_WARMUP`` (suite-declared
  ``rounds`` are the fallback when the env is absent);
* opt-in profiling via ``REPRO_BENCH_PROFILE=cprofile``.

The proxy's extensions over pytest-benchmark's API:

* ``benchmark.pedantic(..., circuit=c)`` — stamps the case with the
  circuit's runtime-cache fingerprint
  (:func:`repro.runtime.fingerprint.circuit_fingerprint`), so bench
  results and cache entries key identically;
* ``benchmark.measure(name)`` — context manager recording one sample of
  an inline block (for suites that phase their timing by hand);
* ``benchmark.annotate(name, **metrics)`` — attach suite-specific
  numeric results to a case.

Only absolute imports here: the bench runner copies nothing, but the
unit tests exercise this file from a scratch suites directory.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench.recorder import BenchRecorder

_RESULTS_DIR = Path(__file__).parent / "results"

_recorders = {}


def pytest_configure(config):
    """Fully take over the ``benchmark`` fixture: pytest-benchmark's
    ``makereport`` hook type-checks the fixture value and rejects any
    other provider, so when the plugin is installed it must be
    unregistered for this directory's runs (shadowing alone is not
    enough)."""
    plugin = config.pluginmanager.get_plugin("benchmark")
    if plugin is not None:
        config.pluginmanager.unregister(plugin)


def _env_int(name: str):
    value = os.environ.get(name, "").strip()
    if not value:
        return None
    try:
        return int(value)
    except ValueError:
        return None


def _suite_name(module_name: str) -> str:
    tail = module_name.rpartition(".")[2]
    return tail[len("test_"):] if tail.startswith("test_") else tail


def _recorder_for(module_name: str) -> BenchRecorder:
    suite = _suite_name(module_name)
    if suite not in _recorders:
        _recorders[suite] = BenchRecorder(
            suite,
            repeats=_env_int("REPRO_BENCH_REPEATS") or 1,
            warmup=_env_int("REPRO_BENCH_WARMUP") or 0,
            profile=os.environ.get("REPRO_BENCH_PROFILE") or None,
        )
    return _recorders[suite]


class BenchmarkProxy:
    """The per-test face of the suite recorder."""

    def __init__(self, recorder: BenchRecorder, default_name: str) -> None:
        self._recorder = recorder
        self._default_name = default_name

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1,
                 warmup_rounds=0, name=None, circuit=None):
        """pytest-benchmark-compatible measurement.  ``REPRO_BENCH_*``
        env (the ``trued bench run`` driver) overrides ``rounds`` /
        ``warmup_rounds``; ``iterations`` is accepted for compatibility
        but each round records one call."""
        repeats = _env_int("REPRO_BENCH_REPEATS") or max(1, rounds)
        warmup = _env_int("REPRO_BENCH_WARMUP")
        if warmup is None:
            warmup = warmup_rounds
        return self._recorder.run(
            name or self._default_name, fn, args=args, kwargs=kwargs,
            repeats=repeats, warmup=warmup, circuit=circuit,
        )

    def __call__(self, fn, *args, **kwargs):
        return self.pedantic(fn, args=args, kwargs=kwargs)

    def measure(self, name=None, circuit=None):
        return self._recorder.measure(
            name or self._default_name, circuit=circuit
        )

    def annotate(self, name=None, circuit=None, **extra):
        self._recorder.annotate(
            name or self._default_name, circuit=circuit, **extra
        )


@pytest.fixture
def benchmark(request):
    """Override pytest-benchmark's fixture with the BenchRecorder proxy
    (the plugin stays importable; its fixture is simply shadowed)."""
    recorder = _recorder_for(request.node.module.__name__)
    # Parametrised tests measure one case per parameter; plain tests one
    # case per test.  Strip the test_ prefix for readable case names.
    name = request.node.name
    if name.startswith("test_"):
        name = name[len("test_"):]
    return BenchmarkProxy(recorder, name)


def pytest_sessionfinish(session, exitstatus):
    """Write one ``BENCH_<suite>.json`` per suite that recorded cases."""
    if exitstatus != 0:
        return  # a failed suite must not publish a half-measured record
    out_dir = Path(os.environ.get("REPRO_BENCH_OUT") or _RESULTS_DIR)
    out_dir.mkdir(parents=True, exist_ok=True)
    for suite, recorder in sorted(_recorders.items()):
        if len(recorder):
            recorder.write(out_dir / f"BENCH_{suite}.json")
