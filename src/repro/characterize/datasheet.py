"""The versioned ``DATASHEET.json`` schema and its renderers.

Document shape (hand-rolled validator, zero runtime dependencies, every
problem reported at once)::

    {
      "schema": 1,
      "kind": "datasheet",
      "spec": {"id", "title", "source", "engine", "circuits": [...]},
      "corners": {"<name>": {"kind": "fixed", "options": {...}}},
      "jobs": [{"id", "circuit", "corner", "analysis", "result": {...}}],
      "parameters": [{
        "id", "kind", "corner",
        "target": {"op": "<=", "value": 20},
        "rows": [{"circuit", "job", "measured", "pass", "detail", ...}],
        "pass": true
      }],
      "counters": {"jobs", "checks", "parameters", "parameters_passed"},
      "verdict": "PASS" | "FAIL",
      "provenance": {"elapsed_seconds", "jobs", "cache": {...}}
    }

Everything except ``provenance`` is deterministic — identical for every
``--jobs`` value and for cold vs warm caches.  :func:`normalized` strips
the provenance section so two runs can be compared byte-for-byte
(serialised with ``sort_keys``), which is exactly what the CI
``characterize-golden`` job does.
"""

from __future__ import annotations

import copy
import json
from typing import Dict, List, Optional

#: Bump when a datasheet field changes meaning; readers refuse to load
#: documents from a different schema (the verdicts would not be
#: comparable).
DATASHEET_SCHEMA = 1

_REQUIRED_FIELDS = {
    "schema": int,
    "kind": str,
    "spec": dict,
    "corners": dict,
    "jobs": list,
    "parameters": list,
    "counters": dict,
    "verdict": str,
}

_OPTIONAL_FIELDS = {
    "provenance": dict,
}

_REQUIRED_SPEC_FIELDS = {
    "id": str,
    "title": str,
    "source": str,
    "engine": str,
    "circuits": list,
}

_REQUIRED_PARAMETER_FIELDS = {
    "id": str,
    "kind": str,
    "corner": str,
    "target": dict,
    "rows": list,
    "pass": bool,
}

_REQUIRED_ROW_FIELDS = {
    "circuit": str,
    "job": str,
    "measured": (int, float),
    "pass": bool,
    "detail": str,
}

_REQUIRED_JOB_FIELDS = {
    "id": str,
    "circuit": str,
    "corner": str,
    "analysis": str,
    "result": dict,
}


def _check_fields(obj: dict, spec: dict, where: str, problems: List[str],
                  optional: Optional[dict] = None) -> None:
    for field, types in spec.items():
        if field not in obj:
            problems.append(f"{where}: missing field {field!r}")
        elif not isinstance(obj[field], types):
            problems.append(
                f"{where}: field {field!r} has type "
                f"{type(obj[field]).__name__}"
            )
    for field, types in (optional or {}).items():
        if field in obj and not isinstance(obj[field], types):
            problems.append(
                f"{where}: field {field!r} has type "
                f"{type(obj[field]).__name__}"
            )


def validate_datasheet(document: object) -> List[str]:
    """Validate a datasheet document; returns a list of human-readable
    problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["datasheet: not an object"]
    _check_fields(document, _REQUIRED_FIELDS, "datasheet", problems,
                  optional=_OPTIONAL_FIELDS)
    if document.get("kind") not in (None, "datasheet"):
        problems.append(
            f"datasheet: kind is {document.get('kind')!r}, expected "
            "'datasheet'"
        )
    if (isinstance(document.get("schema"), int)
            and document["schema"] != DATASHEET_SCHEMA):
        problems.append(
            f"datasheet: schema version {document['schema']} "
            f"(this reader understands {DATASHEET_SCHEMA})"
        )
    if document.get("verdict") not in (None, "PASS", "FAIL"):
        problems.append(
            f"datasheet: verdict is {document.get('verdict')!r}, expected "
            "PASS or FAIL"
        )
    if isinstance(document.get("spec"), dict):
        _check_fields(document["spec"], _REQUIRED_SPEC_FIELDS, "spec",
                      problems)
    jobs = document.get("jobs")
    if isinstance(jobs, list):
        seen = set()
        for index, job in enumerate(jobs):
            where = f"jobs[{index}]"
            if not isinstance(job, dict):
                problems.append(f"{where}: not an object")
                continue
            _check_fields(job, _REQUIRED_JOB_FIELDS, where, problems)
            job_id = job.get("id")
            if job_id in seen:
                problems.append(f"{where}: duplicate job id {job_id!r}")
            seen.add(job_id)
    parameters = document.get("parameters")
    if isinstance(parameters, list):
        seen = set()
        for index, parameter in enumerate(parameters):
            name = (parameter.get("id")
                    if isinstance(parameter, dict) else None)
            where = f"parameters[{index}]" + (f" ({name})" if name else "")
            if not isinstance(parameter, dict):
                problems.append(f"{where}: not an object")
                continue
            _check_fields(parameter, _REQUIRED_PARAMETER_FIELDS, where,
                          problems)
            if name in seen:
                problems.append(f"{where}: duplicate parameter id")
            seen.add(name)
            target = parameter.get("target")
            if isinstance(target, dict):
                if target.get("op") not in ("<=", ">="):
                    problems.append(
                        f"{where}: target.op is {target.get('op')!r}"
                    )
                if not isinstance(target.get("value"), (int, float)):
                    problems.append(
                        f"{where}: target.value missing or non-numeric"
                    )
            rows = parameter.get("rows")
            if isinstance(rows, list):
                if not rows:
                    problems.append(f"{where}: empty rows array")
                for row_index, row in enumerate(rows):
                    row_where = f"{where}.rows[{row_index}]"
                    if not isinstance(row, dict):
                        problems.append(f"{row_where}: not an object")
                        continue
                    _check_fields(row, _REQUIRED_ROW_FIELDS, row_where,
                                  problems)
                    if isinstance(row.get("measured"), bool):
                        problems.append(
                            f"{row_where}: measured must be numeric"
                        )
    counters = document.get("counters")
    if isinstance(counters, dict):
        for key in ("jobs", "checks", "parameters", "parameters_passed"):
            if not isinstance(counters.get(key), int):
                problems.append(
                    f"datasheet: counters.{key} missing or non-integer"
                )
    return problems


def load_datasheet(path) -> dict:
    """Read a ``DATASHEET.json``, raising ``ValueError`` with every
    validation problem when the document does not conform."""
    with open(path) as handle:
        document = json.load(handle)
    problems = validate_datasheet(document)
    if problems:
        raise ValueError(
            f"{path}: invalid datasheet:\n  " + "\n  ".join(problems)
        )
    return document


def dump_datasheet(document: Dict, path) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def normalized(document: Dict) -> Dict:
    """The deterministic core of a datasheet: a deep copy with the
    ``provenance`` section removed.  Two runs of the same spec must agree
    on this byte-for-byte (``json.dumps(..., sort_keys=True)``) whatever
    their ``--jobs`` value or cache temperature."""
    stripped = copy.deepcopy(document)
    stripped.pop("provenance", None)
    return stripped


# ----------------------------------------------------------------------
# Markdown rendering
# ----------------------------------------------------------------------
def _format_measured(parameter: Dict, value) -> str:
    if parameter["kind"] in ("fault_coverage", "yield"):
        return f"{float(value):.3f}"
    return str(value)


def render_datasheet_markdown(document: Dict) -> str:
    """The human-facing datasheet: one verdict table per parameter, with
    #check counters and cache-hit provenance at the end."""
    spec = document["spec"]
    counters = document["counters"]
    lines = [
        f"# Datasheet: {spec['title']}",
        "",
        f"- spec: `{spec['id']}` ({spec['source']})",
        f"- engine: `{spec['engine']}`",
        f"- circuits: {', '.join('`%s`' % c for c in spec['circuits'])}",
        "- corners: " + ", ".join(
            f"`{name}` ({corner['kind']})"
            for name, corner in document["corners"].items()
        ),
        "",
        f"**Verdict: {document['verdict']}** "
        f"({counters['parameters_passed']}/{counters['parameters']} "
        f"parameters pass, {counters['jobs']} jobs, "
        f"{counters['checks']} satisfiability #checks)",
        "",
        "| parameter | kind | corner | target | worst measured | verdict |",
        "|---|---|---|---|---|---|",
    ]
    for parameter in document["parameters"]:
        target = parameter["target"]
        measured = [row["measured"] for row in parameter["rows"]]
        worst = (max(measured) if target["op"] == "<="
                 else min(measured))
        verdict = "PASS" if parameter["pass"] else "**FAIL**"
        lines.append(
            f"| `{parameter['id']}` | {parameter['kind']} "
            f"| `{parameter['corner']}` "
            f"| {target['op']} {target['value']} "
            f"| {_format_measured(parameter, worst)} | {verdict} |"
        )
    for parameter in document["parameters"]:
        target = parameter["target"]
        lines += [
            "",
            f"## `{parameter['id']}` — {parameter['kind']} "
            f"(target {target['op']} {target['value']})",
            "",
            "| circuit | measured | verdict | detail |",
            "|---|---|---|---|",
        ]
        for row in parameter["rows"]:
            verdict = "pass" if row["pass"] else "**fail**"
            lines.append(
                f"| `{row['circuit']}` "
                f"| {_format_measured(parameter, row['measured'])} "
                f"| {verdict} | {row['detail']} |"
            )
    provenance = document.get("provenance")
    if provenance:
        cache = provenance.get("cache", {})
        lines += [
            "",
            "---",
            "",
            f"Run: {provenance.get('elapsed_seconds', 0):.2f}s at "
            f"jobs={provenance.get('jobs', 1)}; cache "
            f"{'enabled' if cache.get('enabled') else 'disabled'} "
            f"(job hits {cache.get('job_hits', 0)}, "
            f"raw hits {cache.get('hits', 0)}, "
            f"misses {cache.get('misses', 0)}).",
        ]
    lines.append("")
    return "\n".join(lines)
