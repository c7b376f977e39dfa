"""The auto policy's BDD-overflow -> SAT fallback (Sec. V-G pragmatics)."""

import pytest

import repro.boolfn.interface as interface
from repro.boolfn import BddEngine, BddOverflow
from repro.boolfn.interface import SatEngine
from repro.runtime.cache import DelayCache
from repro.core import (
    Verdict,
    certify,
    compute_floating_delay,
    compute_transition_delay,
)
from repro.core.analysis import with_bdd_fallback
from repro.circuits import array_multiplier

from tests.helpers import c17


class TestWithBddFallback:
    def test_success_passes_through(self):
        result = with_bdd_fallback(lambda eng: 42, None, "auto")
        assert result == 42

    def test_overflow_retries_with_sat(self):
        calls = []

        def compute(engine):
            calls.append(engine)
            if engine is None:
                raise BddOverflow("boom")
            return engine.name

        assert with_bdd_fallback(compute, None, "auto") == "sat"
        assert calls[0] is None and isinstance(calls[1], SatEngine)

    def test_explicit_engine_not_retried(self):
        def compute(engine):
            raise BddOverflow("boom")

        with pytest.raises(BddOverflow):
            with_bdd_fallback(compute, BddEngine(), "auto")

    def test_non_auto_name_not_retried(self):
        def compute(engine):
            raise BddOverflow("boom")

        with pytest.raises(BddOverflow):
            with_bdd_fallback(compute, None, "bdd")


#: A BDD node budget that ``array_multiplier(5)``'s floating and transition
#: analyses both exceed, so the auto policy must fall back to SAT.
CAPPED_BDD_NODES = 5_000


@pytest.fixture
def capped_auto(monkeypatch):
    """Cap the auto policy's BDDs at :data:`CAPPED_BDD_NODES`, turn the
    result cache off, and count the SAT fallbacks: returns the list that
    each fallback's engine is appended to."""
    original = interface.make_engine

    def capped(engine="auto", circuit_size=0, max_bdd_nodes=None):
        return original(engine, circuit_size, max_bdd_nodes=CAPPED_BDD_NODES)

    fallbacks = []

    class CountingSatEngine(SatEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fallbacks.append(self)

    monkeypatch.setattr(interface, "make_engine", capped)
    monkeypatch.setattr("repro.core.analysis.make_engine", capped)
    monkeypatch.setattr("repro.core.analysis.SatEngine", CountingSatEngine)
    # A cached answer would skip the analysis, and with it the fallback.
    monkeypatch.setattr(
        "repro.runtime.cache._GLOBAL", DelayCache(enabled=False)
    )
    return fallbacks


class TestEndToEndFallback:
    def test_transition_on_capped_multiplier(self, capped_auto):
        mult = array_multiplier(5)
        cert = compute_transition_delay(mult)
        assert len(capped_auto) == 1
        reference = compute_transition_delay(mult, engine=SatEngine())
        assert cert.delay == reference.delay

    def test_certify_on_capped_multiplier(self, capped_auto):
        # The certify flow's own transition step (mode-agreement fast
        # path, transition search, per-output pairs) falls back too.
        mult = array_multiplier(5)
        assert compute_floating_delay(mult).delay == 20
        assert compute_transition_delay(mult).delay == 20
        assert len(capped_auto) == 2
        report = certify(mult)
        # One more for each of its floating and transition steps.
        assert len(capped_auto) == 4
        assert report.verdict == Verdict.CERTIFIED
        assert report.transition.delay == 20

    def test_explicit_bdd_raises_on_overflow(self):
        mult = array_multiplier(8)
        with pytest.raises(BddOverflow):
            compute_floating_delay(
                mult, engine=BddEngine(max_nodes=10_000)
            )

    def test_auto_small_circuit_stays_on_bdd(self):
        cert = compute_floating_delay(c17())
        assert cert.delay == 3
