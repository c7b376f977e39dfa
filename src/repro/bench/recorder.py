"""``BenchRecorder`` — the per-suite measurement collector.

Every benchmark suite funnels its measured work through one recorder
(via the ``benchmark`` fixture in ``benchmarks/conftest.py``).  A *case*
is one named measurement; each repeat of a case captures

* wall-clock seconds (``time.perf_counter``),
* the delta of every :data:`repro.runtime.METRICS` counter — from which
  the ``checks`` rollup (every ``*.checks`` counter summed) and the
  cache hit rate (``cache.memory_hits``/``cache.disk_hits`` vs
  ``cache.misses``) are derived,
* the process peak-RSS high-water mark (``resource.getrusage``; the
  kernel never lowers it, so the per-case value is "peak so far" — still
  the honest upper bound for the case),
* a rollup of the trace spans opened underneath the case span (name,
  call count, total milliseconds), pulled from the span tree of
  :data:`repro.runtime.METRICS`.

Per-metric medians across repeats become the case record; the raw
samples ride along so the noise is inspectable (schema in
:mod:`repro.bench.schema`).
"""

from __future__ import annotations

import platform
import sys
import time
from typing import Callable, Dict, List, Optional

from ..runtime.fingerprint import circuit_fingerprint
from ..runtime.metrics import METRICS, Span
from .profiling import profile_block
from .schema import SCHEMA_VERSION, dump_record, median

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None


def peak_rss_kb() -> int:
    """Process peak resident set size in KiB (0 where unavailable).

    Linux reports ``ru_maxrss`` in KiB, macOS in bytes — normalise to KiB
    so records from both are comparable.
    """
    if resource is None:  # pragma: no cover
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover
        peak //= 1024
    return int(peak)


def _span_rollup(span: Span) -> List[Dict[str, object]]:
    """Fold the descendants of ``span`` into per-name totals, ordered by
    total time descending (ties by name for determinism)."""
    totals: Dict[str, List[float]] = {}

    def walk(node: Span) -> None:
        for child in node.children:
            entry = totals.setdefault(child.name, [0, 0.0])
            entry[0] += 1
            entry[1] += child.elapsed
            walk(child)

    walk(span)
    return [
        {"name": name, "calls": calls, "total_ms": round(seconds * 1000, 3)}
        for name, (calls, seconds) in sorted(
            totals.items(), key=lambda item: (-item[1][1], item[0])
        )
    ]


class _CaseData:
    __slots__ = ("name", "samples", "counter_samples", "rss_samples",
                 "span_samples", "fingerprint", "extra", "profile")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[float] = []
        self.counter_samples: List[Dict[str, int]] = []
        self.rss_samples: List[int] = []
        self.span_samples: List[List[Dict[str, object]]] = []
        self.fingerprint: Optional[str] = None
        self.extra: Dict[str, object] = {}
        self.profile: List[dict] = []


class BenchRecorder:
    """Collects cases for one suite and renders the suite record.

    ``repeats``/``warmup`` are the *defaults* for :meth:`run`; the bench
    runner overrides them per invocation through the fixture layer.
    ``profile`` is ``None`` or ``"cprofile"`` (see
    :mod:`repro.bench.profiling`).
    """

    def __init__(self, suite: str, repeats: int = 1, warmup: int = 0,
                 profile: Optional[str] = None) -> None:
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        self.suite = suite
        self.repeats = repeats
        self.warmup = max(0, warmup)
        self.profile = profile
        self._cases: Dict[str, _CaseData] = {}

    # -- measurement ---------------------------------------------------
    def _case(self, name: str) -> _CaseData:
        if name not in self._cases:
            self._cases[name] = _CaseData(name)
        return self._cases[name]

    def run(
        self,
        name: str,
        fn: Callable,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        repeats: Optional[int] = None,
        warmup: Optional[int] = None,
        circuit=None,
    ):
        """Measure ``fn(*args, **kwargs)``: ``warmup`` discarded runs,
        then ``repeats`` recorded samples.  Returns the last result."""
        kwargs = kwargs or {}
        repeats = self.repeats if repeats is None else max(1, repeats)
        warmup = self.warmup if warmup is None else max(0, warmup)
        case = self._case(name)
        if circuit is not None:
            case.fingerprint = circuit_fingerprint(circuit)
        result = None
        for _ in range(warmup):
            fn(*args, **kwargs)
        for _ in range(repeats):
            with self.measure(name):
                result = fn(*args, **kwargs)
        return result

    def measure(self, name: str, circuit=None):
        """Context manager recording one sample of an inline block —
        the migration path for suites that time sections by hand.  The
        yielded object exposes ``elapsed`` (seconds) after the block
        exits, so suites can assert on the very timing that is recorded
        instead of keeping a parallel ``perf_counter`` harness."""
        return _Measurement(self, self._case(name), circuit)

    def annotate(self, name: str, circuit=None, **extra) -> None:
        """Attach suite-specific numeric metrics (and/or the analysed
        circuit's fingerprint) to a case."""
        case = self._case(name)
        if circuit is not None:
            case.fingerprint = circuit_fingerprint(circuit)
        for key, value in extra.items():
            case.extra[str(key)] = value

    # -- rendering -----------------------------------------------------
    @staticmethod
    def _case_record(case: _CaseData) -> dict:
        counters: Dict[str, float] = {}
        for key in {k for sample in case.counter_samples for k in sample}:
            counters[key] = median(
                [sample.get(key, 0) for sample in case.counter_samples]
            )
        checks = sum(
            value for key, value in counters.items()
            if key.endswith(".checks")
        )
        hits = counters.get("cache.memory_hits", 0) + counters.get(
            "cache.disk_hits", 0
        )
        misses = counters.get("cache.misses", 0)
        lookups = hits + misses
        spans = case.span_samples[-1] if case.span_samples else []
        record = {
            "name": case.name,
            "wall_s": round(median(case.samples), 6),
            "samples": [round(s, 6) for s in case.samples],
            "checks": checks,
            "counters": counters,
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
            },
            "peak_rss_kb": max(case.rss_samples) if case.rss_samples else 0,
            "spans": spans,
        }
        if case.fingerprint:
            record["fingerprint"] = case.fingerprint
        if case.extra:
            record["extra"] = case.extra
        if case.profile:
            record["profile"] = case.profile
        return record

    def record(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "suite",
            "suite": self.suite,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "profile": self.profile,
            "env": {
                "python": platform.python_version(),
                "platform": sys.platform,
            },
            "cases": [
                self._case_record(case) for case in self._cases.values()
            ],
        }

    def write(self, path) -> dict:
        record = self.record()
        dump_record(record, path)
        return record

    def __len__(self) -> int:
        return len(self._cases)


class _Measurement:
    """One recorded sample: snapshots counters, opens a trace span (with
    the optional profiler attached), and folds the deltas on exit."""

    def __init__(self, recorder: BenchRecorder, case: _CaseData,
                 circuit=None) -> None:
        self._recorder = recorder
        self._case = case
        self.elapsed = 0.0
        if circuit is not None:
            case.fingerprint = circuit_fingerprint(circuit)

    def __enter__(self):
        self._before = METRICS.snapshot()["counters"]
        self._span_cm = METRICS.span(f"bench.{self._case.name}")
        self._span = self._span_cm.__enter__()
        self._profile_cm = profile_block(self._recorder.profile)
        self._frames = self._profile_cm.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self._start
        self.elapsed = elapsed
        self._profile_cm.__exit__(exc_type, exc, tb)
        self._span_cm.__exit__(exc_type, exc, tb)
        if exc_type is not None:
            return False
        after = METRICS.snapshot()["counters"]
        delta = {
            key: after[key] - self._before.get(key, 0)
            for key in after
            if after[key] != self._before.get(key, 0)
        }
        case = self._case
        case.samples.append(elapsed)
        case.counter_samples.append(delta)
        case.rss_samples.append(peak_rss_kb())
        case.span_samples.append(_span_rollup(self._span))
        if self._frames:
            case.profile = list(self._frames)
        return False
