"""The parameter manager: execute a characterization plan.

Three layers, all producing *plain-dict* job results (picklable for the
cache and JSON-serialisable for the datasheet, so serial, sharded, and
warm-cache runs are value-identical):

* :func:`execute_payload` — one job, dispatched by analysis name; this
  is what the ``characterize`` worker calls per job, in this process or
  a pool worker, so it takes only a picklable payload dict and rebuilds
  its circuit from the registry by name.
* :func:`run_plan` — fans a job list through the sharded runtime
  (:func:`repro.runtime.parallel.shard_map`, label ``characterize``,
  inheriting its per-round timeout and the in-process completion of
  failed chunks), serving repeat jobs from the
  content-addressed :class:`~repro.runtime.cache.DelayCache` *in the
  parent* — cache lookups happen before dispatch and stores after
  harvest, so hit counters are deterministic and independent of worker
  scheduling.
* :func:`run_spec` — plan + run + collate + provenance: the one-call
  entry point behind ``trued characterize run``.

Replay-heavy steps (certification replay, Monte Carlo settles, fault
validation) ride on the word-level batch kernel inside the cores; this
module never re-implements an analysis, it only orchestrates them.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..circuits.registry import build_circuit
from ..runtime.cache import resolve_cache
from ..runtime.metrics import METRICS
from ..runtime.parallel import shard_map
from .collate import collate
from .plan import Job, plan_jobs
from .spec import CharacterizeSpec


def job_payload(job: Job) -> Dict[str, object]:
    """The picklable worker payload for one job."""
    return {
        "job_id": job.job_id,
        "circuit": job.circuit,
        "corner": job.corner,
        "analysis": job.analysis,
        "engine": job.engine,
        "options": job.option_dict,
    }


def _input_skew_times(circuit, skew: int) -> Dict[str, int]:
    """The ``clocked`` corner's arrival-time profile: odd-indexed primary
    inputs arrive ``skew`` late (a deterministic two-phase skew pattern,
    Sec. VI per-input clocking)."""
    return {
        name: (skew if index % 2 else 0)
        for index, name in enumerate(circuit.inputs)
    }


def execute_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one measurement job and return its plain-dict result.

    Runs identically in the parent (``jobs=1``) and in worker
    processes; every analysis is invoked serially (``jobs=1``) here —
    parallelism lives one level up, across jobs.
    """
    circuit = build_circuit(str(payload["circuit"]))
    analysis = str(payload["analysis"])
    engine = str(payload["engine"])
    options = dict(payload.get("options") or {})

    if analysis == "certify":
        return _run_certify(circuit, engine)
    if analysis == "clocked":
        return _run_clocked(circuit, engine, int(options["skew"]))
    if analysis == "bounded":
        return _run_bounded(circuit, engine)
    if analysis.startswith("faults"):
        return _run_faults(
            circuit, engine, int(options["paths"]), str(options["strength"])
        )
    if analysis == "monte_carlo":
        return _run_monte_carlo(circuit, engine, options)
    raise ValueError(f"unknown characterize analysis {analysis!r}")


def _run_certify(circuit, engine: str) -> Dict[str, object]:
    from ..core.certify import certify

    report = certify(circuit, engine_name=engine)
    return {
        "topological": report.topological_delay,
        "floating": report.floating.delay,
        "transition": report.transition.delay,
        "pairs": len(report.pairs),
        "gamma": report.gamma,
        "verdict": report.verdict.value,
        "min_period": report.certified_min_period,
        "checks": report.floating.checks + report.transition.checks,
    }


def _run_clocked(circuit, engine: str, skew: int) -> Dict[str, object]:
    from ..core.clocking import theorem31_min_period
    from ..core.floating import compute_floating_delay
    from ..core.transition import compute_transition_delay

    input_times = _input_skew_times(circuit, skew)
    floating = compute_floating_delay(
        circuit, engine_name=engine, input_times=input_times
    )
    transition = compute_transition_delay(
        circuit, engine_name=engine, upper=floating.delay,
        input_times=input_times,
    )
    return {
        "topological": circuit.topological_delay(),
        "skew": skew,
        "floating": floating.delay,
        "transition": transition.delay,
        "min_period": theorem31_min_period(circuit, transition.delay),
        "checks": floating.checks + transition.checks,
    }


def _run_bounded(circuit, engine: str) -> Dict[str, object]:
    from ..core.bounded import compute_bounded_transition_delay

    certificate = compute_bounded_transition_delay(
        circuit, engine_name=engine
    )
    return {
        "bounded_delay": certificate.delay,
        "checks": certificate.checks,
    }


def _run_faults(circuit, engine: str, paths: int,
                strength: str) -> Dict[str, object]:
    from ..core.delay_fault import PathFaultGenerator, TestStrength

    generator = PathFaultGenerator(circuit, engine_name=engine)
    coverage = generator.generate_for_longest_paths(
        paths, TestStrength(strength)
    )
    return {
        "paths": paths,
        "strength": strength,
        "tests": len(coverage.tests),
        "untestable": len(coverage.untestable),
        "total": coverage.total,
        "coverage": coverage.coverage,
        "checks": getattr(generator.engine, "num_sat_checks", 0),
    }


def _run_monte_carlo(circuit, engine: str,
                     options: Dict[str, object]) -> Dict[str, object]:
    from ..core.statistical import (
        monte_carlo_delay,
        speedup_only_variation,
        uniform_variation,
    )
    from ..core.transition import collect_certification_pairs

    model = str(options["model"])
    spread = int(options["spread"])
    samples = int(options["samples"])
    seed = int(options["seed"])
    pairs = collect_certification_pairs(circuit, engine_name=engine)
    result: Dict[str, object] = {
        "model": model,
        "spread": spread,
        "seed": seed,
        "num_samples": samples,
        "pairs_used": len(pairs),
        "samples": [],
    }
    if not pairs:
        result["note"] = (
            "no certification pairs: no output ever transitions, so there "
            "is nothing to replay statistically"
        )
        return result
    delay_model = (
        speedup_only_variation() if model == "speedup"
        else uniform_variation(spread)
    )
    statistics = monte_carlo_delay(
        circuit,
        [pair for __, pair in pairs.values()],
        num_samples=samples,
        delay_model=delay_model,
        seed=seed,
    )
    result["samples"] = list(statistics.samples)
    return result


def run_plan(
    spec: CharacterizeSpec,
    plan: List[Job],
    jobs: int = 1,
    cache=None,
) -> Dict[str, Dict[str, object]]:
    """Execute a plan, returning ``{job_id: result dict}``.

    Caching happens here in the parent: every job is looked up in the
    content-addressed cache *before* dispatch (kind
    ``characterize.<analysis>``, keyed on the circuit fingerprint and
    the job options), only misses are executed, and fresh results are
    stored on harvest.  A warm rerun therefore reproduces identical
    results with ``cache.memory_hits``/``cache.disk_hits`` > 0 and never
    touches a worker — and the counters do not depend on scheduling.
    """
    store = resolve_cache(cache)
    circuits = {name: build_circuit(name) for name in spec.circuits}
    results: Dict[str, Dict[str, object]] = {}
    pending: List[Job] = []
    tokens: Dict[str, Optional[str]] = {}
    with METRICS.span("characterize.plan"):
        for job in plan:
            token = store.token(
                circuits[job.circuit],
                "characterize." + job.analysis,
                job.engine,
                None,
                job.option_dict,
            )
            tokens[job.job_id] = token
            cached = store.get(token) if token is not None else None
            if cached is not None:
                METRICS.incr("characterize.job_cache_hits")
                results[job.job_id] = cached
            else:
                pending.append(job)

        METRICS.incr("characterize.jobs", len(plan))
        fresh = shard_map(
            "characterize", spec.spec_id,
            [job_payload(job) for job in pending], jobs,
        )
        for job, result in zip(pending, fresh):
            results[job.job_id] = result
            store.put(tokens[job.job_id], result)
    return results


def run_spec(
    spec: CharacterizeSpec,
    jobs: int = 1,
    cache=None,
) -> Dict[str, object]:
    """Plan, execute, and collate a spec into a datasheet document.

    The returned document separates measurement content (deterministic:
    identical for every ``jobs`` value and for cold vs warm caches) from
    the ``"provenance"`` section (wall clock, worker count, cache-hit
    counters) — :func:`repro.characterize.datasheet.normalized` strips
    the latter for byte-identity comparisons.
    """
    counter_names = (
        "cache.memory_hits", "cache.disk_hits", "cache.misses",
        "characterize.job_cache_hits",
    )
    before = {name: METRICS.counter(name) for name in counter_names}
    start = time.perf_counter()
    with METRICS.span("characterize.run", spec=spec.spec_id):
        plan = plan_jobs(spec)
        results = run_plan(spec, plan, jobs=jobs, cache=cache)
        document = collate(spec, plan, results)
    elapsed = time.perf_counter() - start
    store = resolve_cache(cache)
    document["provenance"] = {
        "elapsed_seconds": round(elapsed, 6),
        "jobs": jobs,
        "cache": {
            "enabled": store.enabled,
            "hits": (
                METRICS.counter("cache.memory_hits")
                - before["cache.memory_hits"]
                + METRICS.counter("cache.disk_hits")
                - before["cache.disk_hits"]
            ),
            "misses": (
                METRICS.counter("cache.misses") - before["cache.misses"]
            ),
            "job_hits": (
                METRICS.counter("characterize.job_cache_hits")
                - before["characterize.job_cache_hits"]
            ),
        },
    }
    return document
