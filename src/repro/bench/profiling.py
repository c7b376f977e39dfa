"""Opt-in profiling hook for benchmark cases (``--profile cprofile``).

``cprofile`` wraps the measured block in :mod:`cProfile` and folds the
top-N frames *by cumulative time* into the span tree of
:data:`repro.runtime.METRICS` as ``profile:<module>:<function>`` child
spans of the case span, so ``trued <cmd> --metrics`` and the exported
``--trace`` JSON show where the time went.  A frame's call count and own
time are span attributes, not counters, so they never reach the counter
totals or the bench record's counter deltas.  Frames are restricted to
this package's own modules, which is where the hot paths live
(``core/floating.py``, ``core/transition.py``, ``incremental/engine.py``,
``runtime/parallel.py``, the Boolean engines); stdlib noise is dropped.

The context manager yields a list that is populated *in place* on exit
with ``{"site", "calls", "cumulative_ms", "own_ms"}`` dicts (empty when
profiling is off), so callers can close over it before the data exists.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from contextlib import contextmanager
from typing import Iterator, List, Optional

from ..runtime.metrics import METRICS

#: Top-N cumulative frames folded into the trace tree.
TOP_FRAMES = 10

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _frame_site(filename: str, lineno: int, func: str) -> Optional[str]:
    """``repro/<path>:<func>`` for frames inside this package, else None."""
    try:
        relative = os.path.relpath(filename, _PACKAGE_ROOT)
    except ValueError:  # pragma: no cover - different drive on win32
        return None
    if relative.startswith(".."):
        return None
    return f"repro/{relative}:{func}"


def top_frames(profile: cProfile.Profile, top: int = TOP_FRAMES) -> List[dict]:
    """The top ``top`` in-package frames by cumulative time."""
    stats = pstats.Stats(profile)
    rows = []
    for (filename, lineno, func), (cc, nc, tt, ct, _callers) in \
            stats.stats.items():
        site = _frame_site(filename, lineno, func)
        if site is None:
            continue
        rows.append({
            "site": site,
            "calls": int(nc),
            "cumulative_ms": round(ct * 1000, 3),
            "own_ms": round(tt * 1000, 3),
        })
    rows.sort(key=lambda row: (-row["cumulative_ms"], row["site"]))
    return rows[:top]


@contextmanager
def profile_block(mode: Optional[str], top: int = TOP_FRAMES) \
        -> Iterator[List[dict]]:
    """Profile the block according to ``mode`` and fold the result into
    the innermost open span.  Yields the (initially empty) frame list."""
    frames: List[dict] = []
    if mode == "cprofile":
        profile = cProfile.Profile()
        profile.enable()
        try:
            yield frames
        finally:
            profile.disable()
            frames.extend(top_frames(profile, top=top))
            for frame in frames:
                METRICS.add_span(
                    f"profile:{frame['site']}",
                    elapsed=frame["cumulative_ms"] / 1000,
                    calls=frame["calls"],
                    own_ms=frame["own_ms"],
                )
    elif mode in (None, "", "off"):
        yield frames
    else:
        raise ValueError(
            f"unknown profile mode {mode!r} (expected cprofile)"
        )
