"""Scenario fuzzer and its random-DAG circuit corpus.

Four layers (see ``docs/FUZZING.md``):

* **corpus**    — :mod:`.generate` (seeded random DAGs under structural
  profiles, in three size classes);
* **scenarios** — :mod:`.scenario` (circuit × delay-model corner ×
  journalled edit sequence, as deterministic seeded streams);
* **oracles**   — :mod:`.oracle` (differential checks: serial vs
  sharded, cold vs incremental, scalar vs word lanes, cache-cold vs
  cache-warm);
* **shrinking** — :mod:`.shrink` (greedy delta-debugging to a minimal
  self-contained repro) and :mod:`.runner` (sweeps, ``.repro.json``
  filing and replay — the engine behind ``trued fuzz``).
"""

from .generate import (
    DagProfile,
    GenerationError,
    corpus_profiles,
    random_dag,
    random_gate_circuit,
)
from .oracle import ORACLES, OracleVerdict, run_oracle, run_scenario
from .runner import (
    SweepReport,
    load_repro,
    replay_repro,
    run_sweep,
    write_repro,
)
from .scenario import (
    CORNER_KINDS,
    Corner,
    Scenario,
    apply_edits,
    materialize,
    random_edit,
    scenario_for,
    scenario_stream,
)
from .shrink import ShrinkResult, scenario_size, shrink_scenario

__all__ = [
    "CORNER_KINDS",
    "Corner",
    "DagProfile",
    "GenerationError",
    "ORACLES",
    "OracleVerdict",
    "Scenario",
    "ShrinkResult",
    "SweepReport",
    "apply_edits",
    "corpus_profiles",
    "load_repro",
    "materialize",
    "random_dag",
    "random_edit",
    "random_gate_circuit",
    "replay_repro",
    "run_oracle",
    "run_scenario",
    "run_sweep",
    "scenario_for",
    "scenario_size",
    "scenario_stream",
    "shrink_scenario",
    "write_repro",
]
