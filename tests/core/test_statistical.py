import pytest

from repro.circuits import build_circuit
from repro.core import (
    StatisticalTimingResult,
    VectorPair,
    collect_certification_pairs,
    monte_carlo_delay,
    monte_carlo_topological,
    speedup_only_variation,
    uniform_variation,
)
from repro.runtime.metrics import metrics_scope

from tests.helpers import c17


def c17_pair():
    return VectorPair(
        {"G1": False, "G2": True, "G3": False, "G6": True, "G7": False},
        {"G1": True, "G2": True, "G3": True, "G6": False, "G7": True},
    )


class TestDelayModels:
    def test_uniform_variation_clips_at_zero(self):
        import random

        model = uniform_variation(3)
        rng = random.Random(0)
        samples = [model(rng, 1) for __ in range(200)]
        assert min(samples) >= 0
        assert max(samples) <= 4

    @pytest.mark.parametrize("spread", [0, 1, 2, 3])
    def test_uniform_variation_draws_what_randint_draws(self, spread):
        """The model takes ``randint(-spread, spread)``'s bits itself: the
        same values, and the generator left in the same state, so every
        Monte Carlo sample stays what it was."""
        import random

        model = uniform_variation(spread)
        for seed in range(5):
            ours, theirs = random.Random(seed), random.Random(seed)
            for nominal in (0, 1, 5) * 40:
                assert model(ours, nominal) == max(
                    0, nominal + theirs.randint(-spread, spread)
                )
                assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("spread", [-1, 1.5, "1"])
    def test_uniform_variation_refuses_a_bad_spread(self, spread):
        with pytest.raises(ValueError, match="spread"):
            uniform_variation(spread)

    def test_speedup_only_never_exceeds_nominal(self):
        import random

        model = speedup_only_variation()
        rng = random.Random(0)
        assert all(model(rng, 5) <= 5 for __ in range(100))


class TestMonteCarloDelay:
    def test_deterministic_given_seed(self):
        left = monte_carlo_delay(c17(), [c17_pair()], num_samples=20, seed=3)
        right = monte_carlo_delay(c17(), [c17_pair()], num_samples=20, seed=3)
        assert left.samples == right.samples

    def test_zero_spread_reproduces_nominal(self):
        result = monte_carlo_delay(
            c17(),
            [c17_pair()],
            num_samples=5,
            delay_model=uniform_variation(0),
        )
        assert len(set(result.samples)) == 1

    def test_speedup_only_never_beats_nominal_delay(self):
        from repro.sim import EventSimulator

        pair = c17_pair()
        nominal = EventSimulator(c17()).measure_pair_delay(
            pair.v_prev, pair.v_next
        )
        result = monte_carlo_delay(
            c17(),
            [pair],
            num_samples=40,
            delay_model=speedup_only_variation(),
        )
        assert result.max <= nominal

    def test_requires_pairs(self):
        with pytest.raises(ValueError):
            monte_carlo_delay(c17(), [], num_samples=3)

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_one_lane_replay_per_sample(self, jobs):
        """Each sample replays all 26 of c880's certification pairs as the
        bit lanes of one event-loop run, on either route."""
        circuit = build_circuit("c880")
        pairs = [
            pair
            for __, pair in collect_certification_pairs(circuit).values()
        ]
        assert len(pairs) == 26
        with metrics_scope() as metrics:
            monte_carlo_delay(circuit, pairs, num_samples=16, jobs=jobs)
        counters = metrics.snapshot()["counters"]
        assert counters["event_sim.replays"] == 16
        assert counters["event_sim.lanes"] == 16 * 26


class TestStatisticsObject:
    def make(self):
        return StatisticalTimingResult([3, 5, 4, 4, 6, 3, 5, 4], pairs_used=1)

    def test_moments(self):
        stats = self.make()
        assert stats.min == 3 and stats.max == 6
        assert abs(stats.mean - 4.25) < 1e-9
        assert stats.std > 0

    def test_percentiles(self):
        stats = self.make()
        assert stats.percentile(0) == 3
        assert stats.percentile(50) == 4
        assert stats.percentile(100) == 6
        with pytest.raises(ValueError):
            stats.percentile(120)

    def test_yield_curve_monotone(self):
        stats = self.make()
        curve = stats.yield_curve()
        values = [y for __, y in curve]
        assert values == sorted(values)
        assert curve[0][0] == 3 and curve[-1][0] == 6
        assert stats.yield_at(6) == 1.0
        assert stats.yield_at(2) == 0.0

    def test_yield_curve_endpoints_agree_with_yield_at(self):
        # The Sec. VII speed binning between gamma and delta: the curve's
        # endpoint values must be exactly yield_at(gamma) / yield_at(delta).
        stats = self.make()
        gamma, delta = 2, 7
        curve = stats.yield_curve(gamma, delta)
        assert curve[0] == (gamma, stats.yield_at(gamma))
        assert curve[-1] == (delta, stats.yield_at(delta))
        assert len(curve) == delta - gamma + 1

    def test_yield_curve_rejects_reversed_bounds(self):
        stats = self.make()
        with pytest.raises(ValueError, match="lo=6 > hi=3"):
            stats.yield_curve(6, 3)
        # Degenerate single-point range is fine.
        assert stats.yield_curve(4, 4) == [(4, stats.yield_at(4))]

    def test_empty_samples_raise_clear_error(self):
        with pytest.raises(ValueError, match="at least one sample"):
            StatisticalTimingResult([], pairs_used=0)


class TestTopologicalMonteCarlo:
    def test_distribution_centred_near_nominal(self):
        # +-1 variation on three levels of unit delay: delays in [0, 6].
        result = monte_carlo_topological(c17(), num_samples=60, seed=5)
        assert 0 <= result.min <= result.max <= 6
        assert result.pairs_used == 0
