"""Performance observatory: schema'd benchmark records, regression gating.

The 20 suites under ``benchmarks/`` used to emit ad-hoc text artifacts
that nothing collected, compared, or gated.  This package turns every
suite run into a versioned, machine-comparable record:

* :mod:`repro.bench.schema` — the versioned result schema
  (``BENCH_<suite>.json`` per suite, ``BENCH_summary.json`` aggregate)
  with a hand-rolled validator (no external deps);
* :mod:`repro.bench.recorder` — :class:`~repro.bench.recorder.BenchRecorder`,
  the per-suite collector every benchmark is migrated onto: wall clock,
  ``#check`` counters, cache hit rates, peak RSS, and trace-span rollups
  pulled from :mod:`repro.runtime.metrics`;
* :mod:`repro.bench.runner` — suite discovery and the subprocess runner
  behind ``trued bench run`` (warmup + repeat control);
* :mod:`repro.bench.compare` — noise-aware two-run comparison with
  per-metric tolerances and regression/new/missing verdicts, the engine
  of ``trued bench compare`` (non-zero exit on regression);
* :mod:`repro.bench.report` — markdown rendering for records and
  comparison reports;
* :mod:`repro.bench.profiling` — the opt-in ``--profile cprofile`` hook
  that folds top-N cumulative frames into the trace tree.

Methodology (warmup/repeats, thresholds, how to read ``compare`` output):
``docs/BENCHMARKS.md``.
"""

from .compare import (
    DEFAULT_TOLERANCES,
    CaseComparison,
    ComparisonReport,
    Tolerance,
    compare_results,
    parse_tolerance_spec,
)
from .recorder import BenchRecorder
from .report import render_comparison_markdown, render_record_markdown
from .runner import discover_suites, run_suites, write_summary
from .schema import (
    SCHEMA_VERSION,
    load_record,
    validate_record,
    validate_summary,
)

__all__ = [
    "BenchRecorder",
    "CaseComparison",
    "ComparisonReport",
    "DEFAULT_TOLERANCES",
    "SCHEMA_VERSION",
    "Tolerance",
    "compare_results",
    "discover_suites",
    "load_record",
    "parse_tolerance_spec",
    "render_comparison_markdown",
    "render_record_markdown",
    "run_suites",
    "validate_record",
    "validate_summary",
    "write_summary",
]
