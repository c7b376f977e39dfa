import pytest

from repro.boolfn.interface import BddEngine, SatEngine
from repro.core import Verdict, certify
from repro.network import refined_delay_annotation, scale_delays
from repro.circuits import build_circuit, carry_skip_adder, fig2_circuit

from tests.helpers import c17, result_cache_off


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

    def test_single_pair_mode(self):
        report = certify(c17(), per_output_pairs=False)
        assert len(report.pairs) == 1

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


class TestCheckAccounting:
    @pytest.mark.parametrize("name", ["fig2", "csa12", "csa16"])
    def test_reported_checks_equal_engine_checks(self, name, monkeypatch):
        """Every satisfiability check the flow makes — the mode-agreement
        fast path's included, whether or not it succeeds — is reported in
        the floating or the transition certificate."""
        result_cache_off(monkeypatch)
        calls = []
        for cls in (BddEngine, SatEngine):
            def counted(engine, f, original=cls.sat_one):
                calls.append(f)
                return original(engine, f)

            monkeypatch.setattr(cls, "sat_one", counted)
        report = certify(
            scale_delays(build_circuit(name), 2), per_output_pairs=False
        )
        assert len(calls) == report.floating.checks + report.transition.checks
