"""Incremental what-if timing: edit journals, cone reuse, a query service.

The batch cores in :mod:`repro.core` recompute a circuit's delay from
scratch on every call — they implement the paper's Secs. IV–VII analyses
as one-shot queries.  This package is infrastructure *around* those
analyses (the paper computes once; an edit loop re-computes): it answers
the what-if workflow — edit a gate, re-query, repeat — in time
proportional to what the edit touched, while returning byte-identical
results (design reference: ``docs/INCREMENTAL.md``):

* :mod:`repro.incremental.cones` — per-output fanin-cone extraction and
  evaluation (results are pure functions of cone content);
* :mod:`repro.incremental.engine` — the
  :class:`~repro.incremental.engine.IncrementalTimingEngine`: consumes the
  circuit's edit journal, marks dirty fanout cones, reuses clean-cone
  results, and caches per-cone answers under content fingerprints;
* :mod:`repro.incremental.service` — the ``repro serve`` JSON-lines
  query service (stdio; the multi-client asyncio front-end behind
  ``--tcp`` / ``--socket`` lives in :mod:`repro.serve` and runs one
  :class:`~repro.incremental.service.QueryService` per connection).
"""

from .cones import KINDS, evaluate_cone, extract_cone
from .engine import IncrementalResult, IncrementalTimingEngine, cold_query
from .service import QueryService, serve_stdio, serve_stream

__all__ = [
    "KINDS",
    "evaluate_cone",
    "extract_cone",
    "IncrementalResult",
    "IncrementalTimingEngine",
    "cold_query",
    "QueryService",
    "serve_stdio",
    "serve_stream",
]
