"""Characterization datasheet pipeline (CACE-style spec -> measure -> collate).

The paper's end product is a *verdict* — a circuit is certified at clock
period tau, has fault coverage from a test set, and exhibits a yield
curve between the estimator's bound ``gamma`` and the verifier's bound
``delta`` (Sec. VII).  This package turns one-off ``trued`` CLI runs
into that product shape:

* :mod:`.spec` — the declarative spec format (TOML/JSON): circuits from
  the :mod:`repro.circuits` registry, delay-model corners (fixed /
  bounded / statistical / per-input clocking), and named parameters with
  pass/fail targets;
* :mod:`.plan` — spec expansion into a deterministic list of
  (circuit x corner x analysis) jobs;
* :mod:`.runner` — the parameter manager: fans the plan through the
  sharded runtime (:mod:`repro.runtime.parallel`), whose failed chunks
  finish in-process, serves repeat jobs from the content-addressed
  :class:`~repro.runtime.cache.DelayCache`, and tags tracing spans with
  spec/corner ids;
* :mod:`.collate` — folds job results into per-parameter
  measured-vs-target verdicts;
* :mod:`.datasheet` — the versioned machine-readable ``DATASHEET.json``
  schema plus the rendered markdown datasheet.

CLI: ``trued characterize run SPEC`` / ``trued characterize report
DATASHEET.json``.  Reference: ``docs/CHARACTERIZE.md``.
"""

from .collate import collate, evaluate_parameter
from .datasheet import (
    DATASHEET_SCHEMA,
    dump_datasheet,
    load_datasheet,
    normalized,
    render_datasheet_markdown,
    validate_datasheet,
)
from .plan import Job, plan_jobs
from .runner import execute_payload, run_plan, run_spec
from .spec import (
    CharacterizeSpec,
    CornerSpec,
    ParameterSpec,
    SpecError,
    load_spec,
    parse_spec,
)

__all__ = [
    "CharacterizeSpec",
    "CornerSpec",
    "DATASHEET_SCHEMA",
    "Job",
    "ParameterSpec",
    "SpecError",
    "collate",
    "dump_datasheet",
    "evaluate_parameter",
    "execute_payload",
    "load_datasheet",
    "load_spec",
    "normalized",
    "parse_spec",
    "plan_jobs",
    "render_datasheet_markdown",
    "run_plan",
    "run_spec",
    "validate_datasheet",
]
