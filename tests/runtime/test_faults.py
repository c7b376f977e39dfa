"""Fault-injection regression tests: every degradation path of the
sharded runner must converge to the serial result.

The certification pitch of the paper (Sec. VII) only holds if a ``jobs=N``
run can never silently return *less* than the serial run — a dead worker,
a hung worker, or a poison chunk must degrade throughput, not results.
``REPRO_FAULT_INJECT`` (see :mod:`repro.runtime.faults`) makes each of
those failures deterministic, so these tests assert the recovery machinery
instead of trusting it on faith.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PathFaultGenerator,
    VectorPair,
    monte_carlo_delay,
    uniform_variation,
)
from repro.runtime import METRICS
from repro.runtime.faults import (
    FaultSpec,
    parse_fault_spec,
    worker_fault,
)

from tests.helpers import c17, sharding_policy


def c17_pair():
    return VectorPair(
        {"G1": False, "G2": True, "G3": False, "G6": True, "G7": False},
        {"G1": True, "G2": True, "G3": True, "G6": False, "G7": True},
    )


def longest_path_tests(jobs):
    """Robust tests for c17's 3 longest paths: 3 paths x 2 directions =
    6 ``faults`` tasks."""
    return PathFaultGenerator(c17()).generate_for_longest_paths(3, jobs=jobs)


def assert_coverage_equal(serial, sharded):
    assert len(serial.tests) == len(sharded.tests)
    for a, b in zip(serial.tests, sharded.tests):
        assert str(a.fault) == str(b.fault)
        assert a.pair.v_prev == b.pair.v_prev
        assert a.pair.v_next == b.pair.v_next
    assert [str(f) for f in serial.untestable] == [
        str(f) for f in sharded.untestable
    ]


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
class TestSpecParsing:
    def test_valid_specs(self):
        assert parse_fault_spec("crash:1") == FaultSpec("crash", "1")
        assert parse_fault_spec("hang:0") == FaultSpec("hang", "0")
        assert parse_fault_spec("corrupt-cache:ab12") == FaultSpec(
            "corrupt-cache", "ab12"
        )
        assert parse_fault_spec("CRASH: 2") == FaultSpec("crash", "2")

    def test_empty_is_no_fault(self):
        assert parse_fault_spec("") is None
        assert parse_fault_spec(None) is None

    @pytest.mark.parametrize(
        "text", ["crash", "explode:1", "crash:xyz", "hang:", ":3"]
    )
    def test_garbage_warns_and_injects_nothing(self, text):
        with pytest.warns(RuntimeWarning):
            assert parse_fault_spec(text) is None

    def test_worker_fault_excludes_cache_kind(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "corrupt-cache:ab")
        assert worker_fault() is None
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:0")
        assert worker_fault() == FaultSpec("crash", "0")


# ----------------------------------------------------------------------
# Degradation paths (real worker processes)
# ----------------------------------------------------------------------
class TestDegradationPaths:
    def test_killed_worker_is_retried_and_result_identical(self, monkeypatch):
        serial = longest_path_tests(jobs=1)
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1")
        before = METRICS.counter("parallel.retries")
        sharded = longest_path_tests(jobs=2)
        assert METRICS.counter("parallel.retries") > before
        assert_coverage_equal(serial, sharded)

    def test_hung_worker_times_out_and_result_identical(self, monkeypatch):
        serial = longest_path_tests(jobs=1)
        monkeypatch.setenv("REPRO_FAULT_INJECT", "hang:0")
        # Bounded even if the terminate-on-timeout cleanup were to fail.
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "10")
        before = METRICS.counter("parallel.chunk_timeouts")
        with sharding_policy(timeout=1.0):
            sharded = longest_path_tests(jobs=2)
        assert METRICS.counter("parallel.chunk_timeouts") > before
        assert_coverage_equal(serial, sharded)

    def test_poison_chunk_is_isolated_item_by_item(self, monkeypatch):
        # jobs=2 puts 3 of the 6 tasks in the injected chunk, whose retry
        # must split into 3 single-item tasks.
        serial = longest_path_tests(jobs=1)
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:0")
        before = METRICS.counter("parallel.retries")
        sharded = longest_path_tests(jobs=2)
        assert METRICS.counter("parallel.retries") >= before + 3
        assert_coverage_equal(serial, sharded)

    def test_exhausted_retries_degrade_to_serial_in_process(
        self, monkeypatch
    ):
        serial = longest_path_tests(jobs=1)
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:0")
        before = METRICS.counter("parallel.serial_fallback_items")
        with sharding_policy(retries=0):
            sharded = longest_path_tests(jobs=2)
        assert METRICS.counter("parallel.serial_fallback_items") > before
        assert_coverage_equal(serial, sharded)

    def test_monte_carlo_samples_survive_worker_death(self, monkeypatch):
        pairs = [c17_pair()]
        serial = monte_carlo_delay(
            c17(), pairs, num_samples=6, seed=7, jobs=1
        )
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1")
        sharded = monte_carlo_delay(
            c17(), pairs, num_samples=6, seed=7, jobs=2
        )
        assert sharded.samples == serial.samples


# ----------------------------------------------------------------------
# Monte Carlo jobs-invariance (the determinism bugfix)
# ----------------------------------------------------------------------
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 10_000), num_samples=st.integers(1, 5))
def test_monte_carlo_samples_identical_across_all_jobs(seed, num_samples):
    """The sample list is a pure function of (circuit, pairs, n, seed,
    model) — identical for the serial path and every worker count."""
    pairs = [c17_pair()]
    kwargs = dict(
        num_samples=num_samples, delay_model=uniform_variation(1), seed=seed
    )
    serial = monte_carlo_delay(c17(), pairs, jobs=1, **kwargs)
    for jobs in (2, 3):
        sharded = monte_carlo_delay(c17(), pairs, jobs=jobs, **kwargs)
        assert sharded.samples == serial.samples, jobs


def test_monte_carlo_custom_model_serial_fallback_matches_substreams():
    """A closure without a picklable spec pins jobs!=1 to the serial loop,
    which now draws the same sub-streams — so even that fallback is
    jobs-invariant."""

    def custom(rng, nominal):
        return max(0, nominal + rng.randint(-1, 1))

    pairs = [c17_pair()]
    one = monte_carlo_delay(
        c17(), pairs, num_samples=5, delay_model=custom, seed=3, jobs=1
    )
    two = monte_carlo_delay(
        c17(), pairs, num_samples=5, delay_model=custom, seed=3, jobs=2
    )
    assert one.samples == two.samples
