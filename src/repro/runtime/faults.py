"""Deterministic fault injection for the runtime's degradation paths.

A degradation path that only triggers under real resource exhaustion (an
OOM-killed worker, a hung SAT probe, a half-written cache file) would
otherwise be trusted on faith; this hook makes each one reproducible in CI:

``REPRO_FAULT_INJECT=crash:1``
    the worker running sharded task 1 dies via ``os._exit`` — no Python
    exception crosses back, exactly like an OOM kill; the parent sees a
    ``BrokenProcessPool``.
``REPRO_FAULT_INJECT=hang:0``
    the worker running sharded task 0 sleeps for
    ``REPRO_FAULT_HANG_SECONDS`` (default 30) — long enough to trip any
    sensible ``--timeout``.
``REPRO_FAULT_INJECT=corrupt-cache:<token-prefix>``
    the first disk-cache read of any token with the given hex prefix sees
    corrupted bytes; the entry is then quarantined and rebuilt.

Task indices number the chunk tasks of one sharded run from 0, so an
injected crash/hang fires once per run; the failed chunks then finish
in-process, where no fault is injected.  Every run starts again at 0: a
long-lived process such as the query service meets the fault once in
each sharded query.  ``corrupt-cache`` fires once per token per process.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass
from typing import Optional, Set

ENV_VAR = "REPRO_FAULT_INJECT"
HANG_ENV_VAR = "REPRO_FAULT_HANG_SECONDS"

#: Kinds injected inside worker processes (keyed by sharded-task index).
WORKER_KINDS = ("crash", "hang")
KINDS = WORKER_KINDS + ("corrupt-cache",)


@dataclass(frozen=True)
class FaultSpec:
    """A parsed ``kind:target`` injection directive."""

    kind: str
    target: str

    @property
    def task_index(self) -> int:
        return int(self.target)


def parse_fault_spec(text: Optional[str]) -> Optional[FaultSpec]:
    """Parse ``kind:target``; unintelligible specs warn and inject nothing
    (a typo must never silently alter a production run)."""
    if not text:
        return None
    kind, sep, target = text.partition(":")
    kind = kind.strip().lower()
    target = target.strip()
    if not sep or not target or kind not in KINDS:
        warnings.warn(
            f"ignoring unrecognised {ENV_VAR}={text!r} "
            f"(expected <kind>:<target> with kind in {'/'.join(KINDS)})",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    if kind in WORKER_KINDS:
        try:
            int(target)
        except ValueError:
            warnings.warn(
                f"ignoring {ENV_VAR}={text!r}: {kind} takes an integer "
                "task index",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
    return FaultSpec(kind, target)


def active_fault() -> Optional[FaultSpec]:
    """The environment's injection directive (re-read on every call so
    tests can monkeypatch it per case)."""
    return parse_fault_spec(os.environ.get(ENV_VAR, ""))


def worker_fault() -> Optional[FaultSpec]:
    """The active spec if it targets worker processes, else ``None``.

    Parsed in the parent and shipped to workers inside the task payload,
    so injection does not depend on environment inheritance across
    process-start methods.
    """
    spec = active_fault()
    if spec is not None and spec.kind in WORKER_KINDS:
        return spec
    return None


def hang_seconds() -> float:
    try:
        return float(os.environ.get(HANG_ENV_VAR, "30"))
    except ValueError:
        return 30.0


def inject_worker_fault(spec: Optional[FaultSpec], task_index: int) -> None:
    """Called inside a worker before it runs a sharded task."""
    if spec is None or spec.task_index != task_index:
        return
    if spec.kind == "crash":
        # os._exit skips all cleanup: no exception crosses back to the
        # parent, which therefore sees a BrokenProcessPool — the same
        # signature as an OOM kill.
        os._exit(87)
    if spec.kind == "hang":
        time.sleep(hang_seconds())


_corrupted_tokens: Set[str] = set()


def should_corrupt_cache_entry(token: str) -> bool:
    """One-shot corruption trigger for a disk-cache read of ``token``."""
    spec = active_fault()
    if spec is None or spec.kind != "corrupt-cache":
        return False
    if not token.startswith(spec.target) or token in _corrupted_tokens:
        return False
    _corrupted_tokens.add(token)
    return True


def reset_fault_state() -> None:
    """Forget which tokens were already corrupted (tests)."""
    _corrupted_tokens.clear()
