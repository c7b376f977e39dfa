"""Sweep orchestration: generate scenarios, run oracles, file repros.

``run_sweep`` is the engine behind ``trued fuzz run``: it enumerates a
deterministic scenario stream, fans the scenarios across worker
processes (:func:`repro.runtime.parallel.shard_map`), renders
one canonical verdict line per (scenario, oracle), and — for every
failure — shrinks the scenario and writes a self-contained
``.repro.json`` that ``trued fuzz replay`` can re-execute anywhere.

The verdict stream is a pure function of the sweep parameters: jobs=1
and jobs=N sweeps write byte-identical ``verdicts.txt`` files, which CI
diffs directly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..runtime.metrics import METRICS
from ..runtime.parallel import shard_map
from .oracle import ORACLES, OracleVerdict, run_oracle
from .scenario import Scenario, scenario_for
from .shrink import ShrinkResult, shrink_scenario

__all__ = [
    "REPRO_FORMAT",
    "REPRO_VERSION",
    "SweepReport",
    "load_repro",
    "replay_repro",
    "run_sweep",
    "write_repro",
]

REPRO_FORMAT = "trued-fuzz-repro"
#: Version 2 writes edits as ``trued serve`` reads them, ``replace_gate``'s
#: type under ``gate_type``.  Version 1 wrote it under ``gate``, which
#: would now replay silently as an edit of fanins and delay alone.
REPRO_VERSION = 2


@dataclass
class SweepReport:
    """Everything a sweep produced, in deterministic order."""

    seed: int
    count: int
    oracles: Tuple[str, ...]
    verdicts: List[OracleVerdict] = field(default_factory=list)
    repro_paths: List[str] = field(default_factory=list)
    shrink_stats: List[Dict[str, object]] = field(default_factory=list)

    @property
    def failures(self) -> List[OracleVerdict]:
        return [v for v in self.verdicts if not v.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def verdict_text(self) -> str:
        """The canonical ``verdicts.txt`` content."""
        return (
            "\n".join(v.verdict_line() for v in self.verdicts) + "\n"
            if self.verdicts
            else ""
        )

    def summary_line(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"fuzz sweep seed={self.seed} scenarios={self.count} "
            f"oracles={','.join(self.oracles)}: {status}"
        )


def _repro_envelope(
    scenario: Scenario,
    failure: OracleVerdict,
    oracles: Sequence[str],
    plant: Optional[str],
    shrink: Optional[ShrinkResult],
) -> Dict[str, object]:
    return {
        "format": REPRO_FORMAT,
        "version": REPRO_VERSION,
        "scenario": scenario.to_dict(),
        "oracles": list(oracles),
        "plant": plant,
        "failure": failure.to_dict(),
        "shrink": None if shrink is None else shrink.to_dict(),
    }


def write_repro(path: str, envelope: Dict[str, object]) -> None:
    with open(path, "w") as handle:
        json.dump(envelope, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_repro(path: str) -> Dict[str, object]:
    with open(path) as handle:
        envelope = json.load(handle)
    if envelope.get("format") != REPRO_FORMAT:
        raise ValueError(
            f"{path}: not a {REPRO_FORMAT} file "
            f"(format={envelope.get('format')!r})"
        )
    if envelope.get("version") != REPRO_VERSION:
        raise ValueError(
            f"{path}: repro version {envelope.get('version')} is not "
            f"version {REPRO_VERSION}; re-run the sweep to file it again"
        )
    return envelope


def _shrink_failure(
    scenario: Scenario,
    failure: OracleVerdict,
    plant: Optional[str],
    max_evaluations: int,
) -> Optional[ShrinkResult]:
    def fails(candidate: Scenario) -> bool:
        return not run_oracle(candidate, failure.oracle, plant=plant).ok

    try:
        with METRICS.span(
            "fuzz.shrink",
            scenario=scenario.scenario_id,
            oracle=failure.oracle,
        ):
            return shrink_scenario(
                scenario, fails, max_evaluations=max_evaluations
            )
    except ValueError:
        # The failure did not reproduce under re-execution (flaky
        # environment, exhausted budget): file the unshrunk scenario.
        return None


def run_sweep(
    seed: int,
    count: int,
    oracles: Sequence[str] = ORACLES,
    jobs: int = 1,
    size: str = "small",
    max_edits: int = 4,
    out_dir: Optional[str] = None,
    plant: Optional[str] = None,
    shrink_failures: bool = True,
    shrink_budget: int = 200,
) -> SweepReport:
    """Run a seeded differential sweep.

    Scenario ``i`` of a given ``(seed, size, max_edits)`` is always the
    same case, and every oracle's verdict line is deterministic, so two
    sweeps with equal parameters — at any ``jobs`` value — produce
    byte-identical verdict streams.  Failures are shrunk (bounded by
    ``shrink_budget`` predicate evaluations each) and written to
    ``out_dir/<scenario_id>.repro.json`` alongside ``verdicts.txt``.
    """
    ordered = tuple(name for name in ORACLES if name in set(oracles))
    if not ordered:
        raise ValueError(
            f"no known oracles in {list(oracles)!r} "
            f"(expected from {', '.join(ORACLES)})"
        )
    report = SweepReport(seed=seed, count=count, oracles=ordered)
    with METRICS.span("fuzz.sweep", seed=seed, count=count, jobs=jobs):
        with METRICS.span("fuzz.generate"):
            scenarios = [
                scenario_for(seed, index, size=size, max_edits=max_edits)
                for index in range(count)
            ]
        METRICS.incr("fuzz.scenarios", len(scenarios))
        config = {"oracles": ordered, "plant": plant}
        per_scenario = shard_map("fuzz", config, scenarios, jobs)
        for scenario, verdicts in zip(scenarios, per_scenario):
            report.verdicts.extend(verdicts)
            failed = [v for v in verdicts if not v.ok]
            METRICS.incr("fuzz.verdicts", len(verdicts))
            if not failed:
                continue
            METRICS.incr("fuzz.failures", len(failed))
            if out_dir is None:
                continue
            failure = failed[0]
            shrink = None
            if shrink_failures:
                shrink = _shrink_failure(
                    scenario, failure, plant, shrink_budget
                )
            minimal = shrink.scenario if shrink is not None else scenario
            envelope = _repro_envelope(
                minimal, failure, ordered, plant, shrink
            )
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(
                out_dir, f"{scenario.scenario_id}.repro.json"
            )
            write_repro(path, envelope)
            report.repro_paths.append(path)
            if shrink is not None:
                report.shrink_stats.append(shrink.to_dict())
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "verdicts.txt"), "w") as handle:
            handle.write(report.verdict_text())
    return report


def replay_repro(path: str) -> Tuple[bool, List[OracleVerdict]]:
    """Re-execute a filed repro.

    Returns ``(reproduced, verdicts)`` where ``reproduced`` is True when
    the recorded oracle fails again on the embedded scenario.  The
    original plant (if any) is re-applied — a planted repro reproduces
    anywhere, which is what the CI golden path checks.
    """
    envelope = load_repro(path)
    scenario = Scenario.from_dict(envelope["scenario"])
    failure = OracleVerdict.from_dict(envelope["failure"])
    with METRICS.span(
        "fuzz.replay", scenario=scenario.scenario_id, oracle=failure.oracle
    ):
        verdict = run_oracle(
            scenario, failure.oracle, plant=envelope.get("plant")
        )
    METRICS.incr("fuzz.replays")
    return (not verdict.ok), [verdict]
