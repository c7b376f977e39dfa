import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolfn.interface import BddEngine, BddOverflow, SatEngine
from repro.core import (
    FloatingAnalysis,
    Verdict,
    certify,
    collect_certification_pairs,
)
from repro.network import refined_delay_annotation, scale_delays
from repro.circuits import (
    build_circuit,
    build_fsm_logic,
    carry_skip_adder,
    fig2_circuit,
)
from repro.fsm import reachable_states_constraint, transition_pair_constraint
from repro.runtime import DelayCache

from tests.helpers import c17, random_circuit, result_cache_off

NO_CACHE = DelayCache(enabled=False)

#: Circuits whose per-output pairs must not move when certify starts each
#: output's search at its floating settle time.  On all but rand210 every
#: output's pair sits at that time; rand210's n183 and n192 settle above
#: their latest transitions (bound 12, pair at t=8; bound 15, pair at 14),
#: so their searches still descend.
SETTLE_BOUND_CIRCUITS = [
    "c17", "fig1", "fig5", "c432", "c499", "c880", "c1908", "csa8",
    "csa12", "csa16", "alu8skip", "alu8", "mult4", "rand210",
]


class TestCertifyFlow:
    def test_identical_model_certified(self):
        report = certify(c17())
        assert report.verdict == Verdict.CERTIFIED
        assert report.transition.delay == report.model_replay_delay
        assert report.floating.delay >= report.transition.delay
        assert report.topological_delay >= report.floating.delay

    def test_report_describe(self):
        report = certify(c17())
        text = report.describe()
        assert "CERTIFIED" in text
        assert "floating delay" in text

    def test_faster_accurate_model_is_conservative(self):
        c = carry_skip_adder(8, 4)
        estimated = scale_delays(c, 3)  # pessimistic verifier delays
        accurate = c                     # faster silicon
        report = certify(estimated, accurate_circuit=accurate)
        assert report.verdict == Verdict.CERTIFIED_CONSERVATIVE
        assert report.gamma < report.transition.delay

    def test_slower_accurate_model_flags_pessimism_gap(self):
        c = c17()
        accurate = scale_delays(c, 4)  # silicon slower than the model
        report = certify(c, accurate_circuit=accurate)
        assert report.verdict == Verdict.MODEL_NOT_PESSIMISTIC
        assert any("pessimistic" in note for note in report.notes)

    def test_no_activity_verdict(self):
        report = certify(fig2_circuit())
        assert report.verdict == Verdict.NO_ACTIVITY
        assert report.pairs == {}
        # Theorem 3.1 still certifies omega/2 + 1 = 4.
        assert report.certified_min_period == 4

    def test_per_output_pairs_cover_outputs(self):
        report = certify(c17())
        assert set(report.pairs) == set(c17().outputs)

    def test_statistical_follow_up(self):
        c = carry_skip_adder(8, 4)
        estimated = scale_delays(c, 2)
        report = certify(
            estimated, accurate_circuit=c, statistical_samples=25
        )
        assert report.statistics is not None
        assert len(report.statistics.samples) == 25
        assert "statistical" in report.describe()

    def test_refined_annotation_pipeline(self):
        c = c17()
        accurate = refined_delay_annotation(c, base_scale=1, load_per_fanout=0)
        report = certify(c, accurate_circuit=accurate)
        assert report.verdict == Verdict.CERTIFIED
        assert report.accurate_replay_delay == report.model_replay_delay


class TestReportCache:
    def test_a_disabled_cache_fingerprints_nothing(self, monkeypatch):
        """With no live store there is no key, so certify does not hash
        the accurate circuit."""
        # ``repro.core.certify`` names the function; the module is here.
        certify_mod = sys.modules["repro.core.certify"]
        calls = []

        def counted(circuit):
            calls.append(circuit.name)
            return "unused"

        monkeypatch.setattr(certify_mod, "circuit_fingerprint", counted)
        c = c17()
        certify(c, accurate_circuit=scale_delays(c, 4), cache=NO_CACHE)
        assert calls == []

    def test_accurate_circuits_key_separate_reports(self):
        c = c17()
        cache = DelayCache()
        slower = scale_delays(c, 4)
        same = certify(c, accurate_circuit=c, cache=cache)
        gap = certify(c, accurate_circuit=slower, cache=cache)
        assert same == certify(c, accurate_circuit=c, cache=NO_CACHE)
        assert gap == certify(c, accurate_circuit=slower, cache=NO_CACHE)
        assert same.verdict == Verdict.CERTIFIED
        assert gap.verdict == Verdict.MODEL_NOT_PESSIMISTIC
        assert len(cache) == 2
        # Each accurate circuit is now served its own report.
        assert certify(c, accurate_circuit=slower, cache=cache) == gap
        assert certify(c, accurate_circuit=c, cache=cache) == same


class TestCheckAccounting:
    @pytest.mark.parametrize("name", ["fig2", "csa12", "csa16"])
    def test_reported_checks_equal_engine_checks(self, name, monkeypatch):
        """Every satisfiability check the flow makes — the mode-agreement
        fast path's included, whether or not it succeeds — is reported in
        the floating or the transition certificate, or is a probe of the
        per-output pair step."""
        result_cache_off(monkeypatch)
        probes = TestPairsFromSettleTimes.count_pair_probes(monkeypatch)
        calls = []
        for cls in (BddEngine, SatEngine):
            def counted(engine, f, original=cls.sat_one):
                calls.append(f)
                return original(engine, f)

            monkeypatch.setattr(cls, "sat_one", counted)
        report = certify(scale_delays(build_circuit(name), 2))
        assert len(calls) == (
            report.floating.checks + report.transition.checks + sum(probes)
        )


class TestPairsFromSettleTimes:
    """On BDDs certify starts each output's pair search at its floating
    settle time, capped at the transition delay.  Every probe it skips is
    UNSAT and BDD witnesses are canonical, so its pairs must be those of
    the whole-window search of ``collect_certification_pairs``."""

    @pytest.mark.parametrize("scale", [1, 2])
    @pytest.mark.parametrize("name", SETTLE_BOUND_CIRCUITS)
    def test_pairs_equal_the_whole_window_search(self, name, scale):
        circuit = scale_delays(build_circuit(name), scale)
        report = certify(circuit, engine_name="bdd", cache=NO_CACHE)
        assert report.pairs == collect_certification_pairs(
            circuit, engine_name="bdd", cache=NO_CACHE
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           max_delay=st.integers(min_value=1, max_value=3))
    def test_pairs_equal_the_whole_window_search_on_random_circuits(
        self, seed, max_delay
    ):
        circuit = random_circuit(
            seed, num_inputs=4, num_gates=10, max_delay=max_delay
        )
        report = certify(circuit, engine_name="bdd", cache=NO_CACHE)
        assert report.pairs == collect_certification_pairs(
            circuit, engine_name="bdd", cache=NO_CACHE
        )

    @pytest.mark.parametrize(
        "name", ["planet", "sand", "styr", "scf", "sticky"]
    )
    def test_constrained_pairs_equal_the_whole_window_search(self, name):
        # The settle times ignore the reachability constraints: the
        # unconstrained bound holds under any care set.
        logic = build_fsm_logic(name)
        pair_constraint = transition_pair_constraint(logic)
        report = certify(
            logic.circuit, engine_name="bdd", constraint=pair_constraint,
            floating_constraint=reachable_states_constraint(logic),
            cache=NO_CACHE,
        )
        assert report.pairs == collect_certification_pairs(
            logic.circuit, engine_name="bdd", constraint=pair_constraint,
            cache=NO_CACHE,
        )

    @pytest.mark.parametrize("engine", ["bdd", "sat"])
    def test_constrained_certify_builds_its_care_set_once(self, engine):
        """The witness extension, the transition search and the pair step
        each ask the transition analysis for the pair care set; the
        analysis calls the builder once."""
        logic = build_fsm_logic("sticky")
        pair_constraint = transition_pair_constraint(logic)
        builds = []

        def counted(analysis):
            builds.append(analysis)
            return pair_constraint(analysis)

        certify(
            logic.circuit, engine_name=engine, constraint=counted,
            floating_constraint=reachable_states_constraint(logic),
            cache=NO_CACHE,
        )
        assert len(builds) == 1

    @staticmethod
    def count_pair_probes(monkeypatch):
        """Record the satisfiability checks of each per-output pair loop
        (``pairs_for_outputs``, run by ``certify`` and by
        ``collect_certification_pairs``) on its engine: one per probe."""
        original = sys.modules["repro.core.transition"].pairs_for_outputs
        probes = []

        def counted(analysis, *args, **kwargs):
            before = analysis.engine.num_sat_checks
            result = original(analysis, *args, **kwargs)
            probes.append(analysis.engine.num_sat_checks - before)
            return result

        for module in ("repro.core.transition", "repro.core.certify"):
            monkeypatch.setattr(
                sys.modules[module], "pairs_for_outputs", counted
            )
        return probes

    @pytest.mark.parametrize("engine_name,probes", [("bdd", 17), ("sat", 257)])
    def test_pair_step_probe_count(self, engine_name, probes, monkeypatch):
        """On 2x csa16 the whole-window search makes 257 transition
        probes; starting at the settle times leaves the 17 that find a
        pair.  The SAT engine keeps the whole-window search."""
        counted = self.count_pair_probes(monkeypatch)
        circuit = scale_delays(build_circuit("csa16"), 2)
        certify(circuit, engine_name=engine_name, cache=NO_CACHE)
        collect_certification_pairs(
            circuit, engine_name=engine_name, cache=NO_CACHE
        )
        assert counted == [probes, 257]

    def test_an_overflowing_descent_searches_whole_windows(
        self, monkeypatch
    ):
        counted = self.count_pair_probes(monkeypatch)

        def overflow(self, name, upper):
            raise BddOverflow("floating budget")

        monkeypatch.setattr(FloatingAnalysis, "settle_time", overflow)
        circuit = scale_delays(build_circuit("csa16"), 2)
        report = certify(circuit, engine_name="bdd", cache=NO_CACHE)
        assert counted == [257]
        assert report.pairs == collect_certification_pairs(
            circuit, engine_name="bdd", cache=NO_CACHE
        )
