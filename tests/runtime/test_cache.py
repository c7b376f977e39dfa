"""DelayCache behaviour: keying, LRU eviction, disk roundtrip, and the
miss-safe handling of unkeyable constraints."""

import os
import time

import pytest
import pickle

from repro.circuits import build_circuit
from repro.core import compute_floating_delay, compute_transition_delay
from repro.incremental import evaluate_cone, extract_cone
from repro.runtime import (
    DelayCache,
    configure_cache,
    constraint_cache_id,
    get_cache,
    metrics_scope,
)

from tests.helpers import c17, counted_checks, result_cache_off, tiny_and_or


def test_disabled_cache_yields_no_token():
    cache = DelayCache(enabled=False)
    assert cache.token(c17(), "floating") is None
    cache.put(None, object())
    assert cache.get(None) is None
    assert len(cache) == 0


def test_token_distinguishes_kind_engine_and_params():
    cache = DelayCache()
    circuit = c17()
    base = cache.token(circuit, "floating", "auto", None, {"upper": None})
    assert base is not None
    assert base != cache.token(circuit, "transition", "auto", None,
                               {"upper": None})
    assert base != cache.token(circuit, "floating", "bdd", None,
                               {"upper": None})
    assert base != cache.token(circuit, "floating", "auto", None,
                               {"upper": 3})
    assert base == cache.token(circuit.copy(), "floating", "auto", None,
                               {"upper": None})


def test_untagged_constraint_is_uncacheable():
    def constraint(analysis):
        return analysis.engine.const1

    assert constraint_cache_id(constraint) is None
    assert DelayCache().token(c17(), "floating", constraint=constraint) is None


def test_tagged_constraint_is_keyable():
    def constraint(analysis):
        return analysis.engine.const1

    constraint.cache_id = "unit-test"
    assert constraint_cache_id(constraint) == "c:unit-test"
    token = DelayCache().token(c17(), "floating", constraint=constraint)
    assert token is not None


def test_memory_roundtrip_returns_copies():
    cache = DelayCache()
    token = cache.token(c17(), "floating")
    payload = {"delay": 3, "witness": {"a": True}}
    cache.put(token, payload)
    first = cache.get(token)
    assert first == payload
    first["witness"]["a"] = False
    assert cache.get(token)["witness"]["a"] is True


def _stored_result(kind):
    """A result the cache stores whole: a cone's transition
    ``DelayCertificate`` (its ``VectorPair``) or a whole circuit's
    floating one (its witness); both carry an ``extra`` dict."""
    if kind == "cone":
        return evaluate_cone(extract_cone(c17(), "G22"), "transition")
    return compute_floating_delay(c17(), cache=DelayCache(enabled=False))


def _scribble(result):
    """Change, in place, every field and nested container of a result."""
    result.delay += 100
    result.checks += 100
    result.extra["scribbled"] = True
    vectors = [result.witness]
    if result.pair is not None:
        vectors += [result.pair.v_prev, result.pair.v_next]
    for vector in vectors:
        if vector is not None:
            for name in vector:
                vector[name] = not vector[name]
            vector["scribbled"] = True


@pytest.mark.parametrize("kind", ["cone", "certificate"])
def test_a_hit_cannot_be_changed_through_an_earlier_hit(tmp_path, kind):
    """Every hit is a fresh object: scribbling over the stored value or
    over any earlier hit, from either tier, leaves the next hit as
    stored."""
    expected = _stored_result(kind)
    assert (expected.pair if kind == "cone" else expected.witness)
    stored = _stored_result(kind)
    cache = DelayCache(cache_dir=str(tmp_path))
    token = cache.token_for("cone:" + "0" * 64, "transition")
    cache.put(token, stored)
    _scribble(stored)
    with metrics_scope() as metrics:
        memory_hit = cache.get(token)
        assert memory_hit == expected
        _scribble(memory_hit)
        assert cache.get(token) == expected
        # A fresh instance reads the disk tier, then refills its memory.
        reader = DelayCache(cache_dir=str(tmp_path))
        disk_hit = reader.get(token)
        assert disk_hit == expected
        _scribble(disk_hit)
        refill_hit = reader.get(token)
        assert refill_hit == expected
        _scribble(refill_hit)
        assert reader.get(token) == expected
    assert metrics.counter("cache.memory_hits") == 4
    assert metrics.counter("cache.disk_hits") == 1


def test_lru_eviction_drops_the_oldest():
    cache = DelayCache(memory_items=2)
    tokens = [
        cache.token(c17(), "floating", params={"i": i}) for i in range(3)
    ]
    for i, token in enumerate(tokens):
        cache.put(token, i)
    assert cache.get(tokens[0]) is None
    assert cache.get(tokens[1]) == 1
    assert cache.get(tokens[2]) == 2


def test_disk_roundtrip_across_instances(tmp_path):
    writer = DelayCache(cache_dir=str(tmp_path))
    token = writer.token(tiny_and_or(), "transition")
    writer.put(token, {"delay": 2})
    # A fresh instance (fresh memory tier) must hit the disk tier.
    reader = DelayCache(cache_dir=str(tmp_path))
    assert reader.get(token) == {"delay": 2}


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    cache = DelayCache(cache_dir=str(tmp_path))
    token = cache.token(c17(), "certify")
    cache.put(token, {"ok": True})
    path = tmp_path / token[:2] / (token + ".pkl")
    path.write_bytes(b"not a pickle")
    fresh = DelayCache(cache_dir=str(tmp_path))
    assert fresh.get(token) is None


def test_disk_entries_unpickle_standalone(tmp_path):
    cache = DelayCache(cache_dir=str(tmp_path))
    token = cache.token(c17(), "floating")
    cache.put(token, [1, 2, 3])
    path = tmp_path / token[:2] / (token + ".pkl")
    with open(path, "rb") as handle:
        assert pickle.load(handle) == [1, 2, 3]


def test_global_cache_is_disabled_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    import repro.runtime.cache as cache_mod

    monkeypatch.setattr(cache_mod, "_GLOBAL", None)
    assert get_cache().enabled is False


def test_env_dir_enables_the_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    import repro.runtime.cache as cache_mod

    monkeypatch.setattr(cache_mod, "_GLOBAL", None)
    cache = get_cache()
    assert cache.enabled is True
    assert str(cache.cache_dir) == str(tmp_path)


def test_cached_floating_delay_matches_uncached():
    circuit = c17()
    reference = compute_floating_delay(circuit)
    cache = DelayCache()
    cold = compute_floating_delay(circuit, cache=cache)
    warm = compute_floating_delay(circuit, cache=cache)
    assert cold.delay == warm.delay == reference.delay
    assert cold.witness == warm.witness == reference.witness
    assert cold.checks == warm.checks == reference.checks
    assert len(cache) >= 1


def test_warm_rerun_on_c432_is_identical_faster_and_checkless(
    tmp_path, monkeypatch
):
    """The Table II queries (floating, then transition under it) on c432,
    cold and then warm from each tier: certificates are identical, warm
    runs are pure hits that make no checks, and the best of three warm
    runs per tier takes under half the cold time (a hit skips the whole
    symbolic build, so the margin is wide).  The cold run's checks are
    pinned exactly."""
    result_cache_off(monkeypatch)
    circuit = build_circuit("c432")
    cache = DelayCache(cache_dir=str(tmp_path))

    def queries(cache):
        start = time.perf_counter()
        floating = compute_floating_delay(circuit, cache=cache)
        transition = compute_transition_delay(
            circuit, upper=floating.delay, cache=cache
        )
        return floating, transition, time.perf_counter() - start

    with metrics_scope() as metrics:
        with counted_checks() as cold_checks:
            cold_f, cold_t, cold_s = queries(cache)
        with counted_checks() as memory_checks:
            memory = [queries(cache) for __ in range(3)]
        assert metrics.counter("cache.stores") >= 2
        assert metrics.counter("cache.memory_hits") >= 6
        # A fresh process misses the memory tier and hits the disk tier.
        with counted_checks() as disk_checks:
            disk = [
                queries(DelayCache(cache_dir=str(tmp_path)))
                for __ in range(3)
            ]
        assert metrics.counter("cache.disk_hits") >= 6

    assert cold_checks == {"floating.checks": 1, "transition.checks": 1}
    assert memory_checks == disk_checks == {}
    for floating, transition, __ in memory + disk:
        assert floating.delay == cold_f.delay
        assert floating.witness == cold_f.witness
        assert transition.delay == cold_t.delay
        assert transition.output == cold_t.output
        assert transition.pair.v_prev == cold_t.pair.v_prev
        assert transition.pair.v_next == cold_t.pair.v_next
    assert min(run[2] for run in memory) < cold_s / 2
    assert min(run[2] for run in disk) < cold_s / 2


def test_configure_cache_replaces_the_global(monkeypatch):
    import repro.runtime.cache as cache_mod

    monkeypatch.setattr(cache_mod, "_GLOBAL", None)
    replaced = configure_cache(enabled=True, memory_items=4)
    assert get_cache() is replaced
    monkeypatch.setattr(cache_mod, "_GLOBAL", None)


def test_readonly_disk_never_fails_the_analysis(tmp_path):
    if os.geteuid() == 0:
        # Root bypasses file permissions; the guard is untestable here.
        import pytest

        pytest.skip("running as root: chmod cannot revoke write access")
    cache = DelayCache(cache_dir=str(tmp_path))
    token = cache.token(c17(), "floating")
    os.chmod(tmp_path, 0o500)
    try:
        cache.put(token, {"delay": 3})  # must not raise
    finally:
        os.chmod(tmp_path, 0o700)


def test_corrupt_disk_entry_is_quarantined_and_counted(tmp_path):
    from repro.runtime import METRICS

    cache = DelayCache(cache_dir=str(tmp_path))
    token = cache.token(c17(), "certify")
    cache.put(token, {"ok": True})
    path = tmp_path / token[:2] / (token + ".pkl")
    path.write_bytes(b"not a pickle")
    before = METRICS.counter("cache.disk_corrupt")
    fresh = DelayCache(cache_dir=str(tmp_path))
    assert fresh.get(token) is None
    assert METRICS.counter("cache.disk_corrupt") == before + 1
    # Quarantined, not left in place: the bad bytes are never re-read.
    assert not path.exists()
    assert path.with_suffix(".bad").exists()
    # The entry is rebuilt once and round-trips again.
    fresh.put(token, {"ok": True})
    assert DelayCache(cache_dir=str(tmp_path)).get(token) == {"ok": True}
    assert METRICS.counter("cache.disk_corrupt") == before + 1


def test_missing_disk_entry_is_not_counted_as_corrupt(tmp_path):
    from repro.runtime import METRICS

    cache = DelayCache(cache_dir=str(tmp_path))
    token = cache.token(c17(), "floating")
    before = METRICS.counter("cache.disk_corrupt")
    assert cache.get(token) is None
    assert METRICS.counter("cache.disk_corrupt") == before


def test_fault_injected_corruption_fires_once(tmp_path, monkeypatch):
    from repro.runtime.faults import reset_fault_state

    cache = DelayCache(cache_dir=str(tmp_path))
    token = cache.token(c17(), "floating")
    cache.put(token, {"delay": 3})
    monkeypatch.setenv("REPRO_FAULT_INJECT", f"corrupt-cache:{token[:6]}")
    reset_fault_state()
    # First disk read sees garbage and quarantines the entry...
    assert DelayCache(cache_dir=str(tmp_path)).get(token) is None
    # ...which is then rebuilt once; the injector does not re-fire.
    rebuilt = DelayCache(cache_dir=str(tmp_path))
    rebuilt.put(token, {"delay": 3})
    assert DelayCache(cache_dir=str(tmp_path)).get(token) == {"delay": 3}


@pytest.mark.parametrize("value", ["1", "true", "YES", "On", " yes "])
def test_env_truthy_values_enable_the_cache(monkeypatch, value):
    import repro.runtime.cache as cache_mod

    monkeypatch.setenv("REPRO_CACHE", value)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setattr(cache_mod, "_GLOBAL", None)
    assert get_cache().enabled is True


@pytest.mark.parametrize("value", ["0", "false", "No", "OFF"])
def test_env_falsy_values_force_disable_even_with_dir(
    monkeypatch, tmp_path, value
):
    import repro.runtime.cache as cache_mod

    monkeypatch.setenv("REPRO_CACHE", value)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(cache_mod, "_GLOBAL", None)
    assert get_cache().enabled is False


def test_env_unrecognized_value_warns_and_is_ignored(monkeypatch):
    import repro.runtime.cache as cache_mod

    monkeypatch.setenv("REPRO_CACHE", "maybe")
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setattr(cache_mod, "_GLOBAL", None)
    with pytest.warns(RuntimeWarning):
        assert get_cache().enabled is False
