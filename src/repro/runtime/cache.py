"""Two-tier certificate/result cache keyed by circuit content.

Keys are ``sha256(schema | fingerprint | kind | engine | constraint-id |
params)``.  Because the circuit fingerprint is a content hash, entries can
never go stale — editing a circuit in any observable way changes the key.
The only invalidation rule needed is the :data:`CACHE_SCHEMA` version salt,
bumped whenever the *meaning* of a cached payload changes (see
``docs/RUNTIME.md``).

Tiers:

* an in-memory LRU (``OrderedDict``), always on when the cache is enabled;
* an optional on-disk pickle store under ``cache_dir`` for cross-process
  reuse (warm benchmark reruns, CLI ``--cache DIR``).

Both tiers hold one encoding: ``put`` pickles a value once and hands the
same bytes to each tier, and every hit unpickles, so each caller gets a
fresh object it may mutate without reaching the stored entry.

Constraints are opaque callables, so a result computed under a constraint
is cacheable only when the callable carries a ``cache_id`` attribute that
identifies it; otherwise :meth:`DelayCache.token` returns ``None`` and the
callers skip the cache entirely (miss-safe by construction).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from .faults import should_corrupt_cache_entry
from .fingerprint import circuit_fingerprint, params_token
from .metrics import METRICS

#: Version salt baked into every key.  Bump when cached payloads change
#: meaning (e.g. a certificate field is redefined).  "2": Monte Carlo
#: samples became jobs-invariant (the serial path now draws from the same
#: per-sample sub-streams as the sharded path), so any cached report that
#: embeds a sample list from the old serial stream is orphaned.  "3":
#: certify's transition certificate counts every check of the
#: mode-agreement fast path (it used to report 1 whatever it spent).
#: "4": cone fingerprints hash a fixed, length-prefixed layout instead of
#: JSON, so every cone key changed with the encoding; the bump orphans
#: every entry stored before it at once.  "5": a cone entry holds the
#: cone's own ``DelayCertificate`` instead of a second result type copied
#: from it.  "6": a cone key is a shape digest plus the cone's delays
#: (:func:`~repro.runtime.fingerprint.cone_key`) instead of a Merkle
#: hash over per-node cone hashes, so every cone key changed again.
CACHE_SCHEMA = "6"


def constraint_cache_id(constraint) -> Optional[str]:
    """Stable identity for a constraint callable, or ``None`` if unkeyable.

    ``None`` constraints key as the empty id.  Callables advertise identity
    via a ``cache_id`` string attribute (e.g. reachability constraints tag
    themselves with the FSM fingerprint).  Anything else is uncacheable.
    """
    if constraint is None:
        return "-"
    tag = getattr(constraint, "cache_id", None)
    if isinstance(tag, str) and tag:
        return "c:" + tag
    return None


class DelayCache:
    """Memory-LRU + optional disk store for delay/certification results."""

    def __init__(
        self,
        memory_items: int = 256,
        cache_dir: Optional[str] = None,
        enabled: bool = True,
    ) -> None:
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        self._memory_items = max(0, int(memory_items))
        self._dir = Path(cache_dir) if cache_dir else None
        self._enabled = bool(enabled)

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def cache_dir(self) -> Optional[Path]:
        return self._dir

    def __len__(self) -> int:
        return len(self._memory)

    # -- keying -------------------------------------------------------
    def token(
        self,
        circuit,
        kind: str,
        engine: str = "auto",
        constraint=None,
        params: Optional[Dict[str, object]] = None,
    ) -> Optional[str]:
        """Cache key for an analysis, or ``None`` when uncacheable."""
        if not self._enabled:
            return None
        cid = constraint_cache_id(constraint)
        if cid is None:
            return None
        return self.token_for(
            circuit_fingerprint(circuit), kind, engine,
            constraint_id=cid, params=params,
        )

    def token_for(
        self,
        fingerprint: str,
        kind: str,
        engine: str = "auto",
        constraint_id: str = "-",
        params: Optional[Dict[str, object]] = None,
    ) -> Optional[str]:
        """Cache key for an arbitrary content ``fingerprint``.

        The fingerprint need not be a whole-circuit hash: the incremental
        engine keys per-output results on *cone* fingerprints
        (:func:`~repro.runtime.fingerprint.cone_fingerprint`), which are
        namespaced (``cone:`` prefix) so they can never collide with
        whole-circuit keys.
        """
        if not self._enabled:
            return None
        payload = "|".join(
            [
                CACHE_SCHEMA,
                fingerprint,
                kind,
                engine,
                constraint_id,
                params_token(params),
            ]
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- lookup / store -----------------------------------------------
    def get(self, token: Optional[str]) -> Any:
        if token is None or not self._enabled:
            return None
        data = self._memory.get(token)
        if data is not None:
            self._memory.move_to_end(token)
            METRICS.incr("cache.memory_hits")
            return pickle.loads(data)
        data, value = self._disk_get(token)
        if data is not None:
            METRICS.incr("cache.disk_hits")
            self._memory_put(token, data)
            return value
        METRICS.incr("cache.misses")
        return None

    def put(self, token: Optional[str], value: Any) -> None:
        if token is None or not self._enabled or value is None:
            return
        METRICS.incr("cache.stores")
        try:
            data = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
        except pickle.PickleError:
            # A value that does not pickle is not cached.
            return
        self._memory_put(token, data)
        self._disk_put(token, data)

    # -- memory tier --------------------------------------------------
    def _memory_put(self, token: str, data: bytes) -> None:
        if self._memory_items == 0:
            return
        self._memory[token] = data
        self._memory.move_to_end(token)
        while len(self._memory) > self._memory_items:
            self._memory.popitem(last=False)

    # -- disk tier ----------------------------------------------------
    def _disk_path(self, token: str) -> Path:
        # Two-level fan-out keeps directories small on big stores.
        return self._dir / token[:2] / (token + ".pkl")

    def _disk_get(self, token: str) -> Tuple[Optional[bytes], Any]:
        """The entry's file bytes and their value, or ``(None, None)`` on
        a miss.  Unpickling the bytes is their check, and its value is the
        one the hit returns."""
        if self._dir is None:
            return None, None
        path = self._disk_path(token)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            # Genuinely missing — the ordinary miss.
            return None, None
        except OSError:
            # Unreadable (permissions, I/O error): a miss, but not
            # corruption — the entry may be perfectly fine for others.
            return None, None
        if should_corrupt_cache_entry(token):
            # Deterministic fault injection (REPRO_FAULT_INJECT=
            # corrupt-cache:<prefix>): pretend the read returned garbage
            # so the quarantine path below is exercised.
            data = b"\x00repro-fault-injection\x00"
        try:
            return data, pickle.loads(data)
        except Exception:
            # Corrupt entry (truncated write, garbage bytes, payload from
            # an incompatible class layout): unpickling garbage can raise
            # nearly anything, so the net is deliberately wide.  Quarantine
            # the file so the entry is rebuilt once instead of being
            # re-read (and re-failing) forever.
            METRICS.incr("cache.disk_corrupt")
            self._quarantine(path)
            return None, None

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a corrupt entry aside (`.bad`, for post-mortems), or drop
        it when even the rename fails."""
        try:
            path.rename(path.with_suffix(".bad"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def _disk_put(self, token: str, data: bytes) -> None:
        if self._dir is None:
            return
        path = self._disk_path(token)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full disk must never fail the analysis.
            pass


_GLOBAL: Optional[DelayCache] = None


_TRUTHY = frozenset({"1", "true", "yes", "on"})
_FALSY = frozenset({"0", "false", "no", "off"})


def _env_flag(name: str) -> Optional[bool]:
    """Tri-state boolean env var: ``True``/``False`` when recognised
    (``1/true/yes/on`` and ``0/false/no/off``, case-insensitive), ``None``
    when unset or empty.  Unintelligible values warn and count as unset —
    a typo must never silently flip caching semantics."""
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return None
    lowered = raw.strip().lower()
    if lowered in _TRUTHY:
        return True
    if lowered in _FALSY:
        return False
    warnings.warn(
        f"ignoring unrecognised {name}={raw!r} (expected one of "
        "1/true/yes/on or 0/false/no/off)",
        RuntimeWarning,
        stacklevel=2,
    )
    return None


def _cache_from_env() -> DelayCache:
    """Build the default cache from ``REPRO_CACHE`` / ``REPRO_CACHE_DIR``.

    The cache is *disabled* by default so test and library behaviour is
    bit-identical with and without this package.  ``REPRO_CACHE_DIR=<dir>``
    enables memory + disk tiers; a truthy ``REPRO_CACHE`` enables memory
    only; a falsy ``REPRO_CACHE`` force-disables even when a dir is set.
    """
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    flag = _env_flag("REPRO_CACHE")
    enabled = (bool(cache_dir) or flag is True) and flag is not False
    return DelayCache(cache_dir=cache_dir, enabled=enabled)


def get_cache() -> DelayCache:
    """The process-global cache (lazily built from the environment)."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = _cache_from_env()
    return _GLOBAL


def configure_cache(
    enabled: bool = True,
    cache_dir: Optional[str] = None,
    memory_items: int = 256,
) -> DelayCache:
    """Replace the process-global cache (CLI flags, benchmark harness)."""
    global _GLOBAL
    _GLOBAL = DelayCache(
        memory_items=memory_items, cache_dir=cache_dir, enabled=enabled
    )
    return _GLOBAL


def resolve_cache(cache: Optional[DelayCache]) -> DelayCache:
    """An explicit per-call cache wins; otherwise the process global."""
    return cache if cache is not None else get_cache()
