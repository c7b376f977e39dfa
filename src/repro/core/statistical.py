"""Statistical timing follow-up (Sec. VII, ref. [11]).

When the accurate simulation of the certification vectors reports a delay
``gamma`` below the verifier's bound ``delta``, the paper suggests
statistical methods to estimate "what percentage of parts are likely to run
at each speed in the range between gamma and delta".  This module samples
per-gate delay distributions (Monte Carlo over manufacturing variation) and
replays the certification vector pairs on each sample, producing a
speed-binning / yield curve.  A sample keeps only the worst delay over its
pairs, so its pairs replay as the bit lanes of one event-loop run
(:meth:`repro.sim.event_sim.EventSimulator.worst_pair_delay`): one run per
sample, not one per pair.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..network.circuit import Circuit
from ..network.gates import GateType
from ..runtime.metrics import METRICS
from ..runtime.parallel import shard_map
from ..sim.event_sim import EventSimulator, LaneReplay
from .vectors import VectorPair

#: Draws a sample delay for a gate given (rng, nominal_delay).
DelayModel = Callable[[random.Random, int], int]


def uniform_variation(spread: int = 1) -> DelayModel:
    """Uniform integer variation of +/- ``spread`` around nominal,
    clipped at 0.

    A draw is ``rng.randint(-spread, spread)`` taken the way ``randint``
    takes it: ``getrandbits(k)`` for the ``k`` bits that ``2 * spread +
    1`` needs, drawn again while it is out of range.  So it consumes the
    same stream and gives the same value, without ``randint``'s chain of
    three calls per draw.
    """
    if not isinstance(spread, int) or spread < 0:
        raise ValueError(f"spread must be an integer >= 0, not {spread!r}")
    width = 2 * spread + 1
    bits = width.bit_length()

    def model(rng: random.Random, nominal: int) -> int:
        draw = rng.getrandbits(bits)
        while draw >= width:
            draw = rng.getrandbits(bits)
        return max(0, nominal - spread + draw)

    # Closures do not cross process boundaries; the spec tuple lets the
    # parallel sharder rebuild this model inside a worker.
    model.spec = ("uniform", spread)
    return model


def speedup_only_variation() -> DelayModel:
    """Monotone speedup sampling: uniform in [0, nominal]."""

    def model(rng: random.Random, nominal: int) -> int:
        return rng.randint(0, nominal)

    model.spec = ("speedup",)
    return model


def resolve_delay_model(spec: Tuple) -> DelayModel:
    """Rebuild a delay model from its picklable spec tuple (workers)."""
    kind = spec[0]
    if kind == "uniform":
        return uniform_variation(spec[1])
    if kind == "speedup":
        return speedup_only_variation()
    raise ValueError(f"unknown delay-model spec {spec!r}")


@dataclass
class StatisticalTimingResult:
    """Empirical delay distribution over manufacturing samples."""

    samples: List[int]
    pairs_used: int

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError(
                "StatisticalTimingResult needs at least one sample: every "
                "statistic (mean, yield, curve) is undefined on an empty "
                "distribution — run the Monte Carlo with num_samples >= 1"
            )

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def std(self) -> float:
        mu = self.mean
        return math.sqrt(
            sum((s - mu) ** 2 for s in self.samples) / len(self.samples)
        )

    @property
    def min(self) -> int:
        return min(self.samples)

    @property
    def max(self) -> int:
        return max(self.samples)

    def percentile(self, q: float) -> int:
        """The q-th percentile (0 <= q <= 100) of the sample delays."""
        ordered = sorted(self.samples)
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        index = min(
            len(ordered) - 1, max(0, math.ceil(q / 100 * len(ordered)) - 1)
        )
        return ordered[index]

    def yield_at(self, period: int) -> float:
        """Fraction of parts that meet a clock period ``period``."""
        return sum(1 for s in self.samples if s <= period) / len(self.samples)

    def yield_curve(
        self, lo: Optional[int] = None, hi: Optional[int] = None
    ) -> List[Tuple[int, float]]:
        """(period, yield) points between ``lo`` and ``hi`` (defaults:
        sample min/max) — the gamma..delta speed-binning of Sec. VII.

        ``lo`` must not exceed ``hi``: a reversed range would silently
        return an empty curve, hiding a swapped gamma/delta at the call
        site.  Curve endpoints agree with :meth:`yield_at` by
        construction (``curve[0] == (lo, yield_at(lo))`` etc.).
        """
        lo = self.min if lo is None else lo
        hi = self.max if hi is None else hi
        if lo > hi:
            raise ValueError(
                f"yield_curve bounds reversed: lo={lo} > hi={hi} "
                "(pass lo=gamma, hi=delta with gamma <= delta)"
            )
        return [(tau, self.yield_at(tau)) for tau in range(lo, hi + 1)]


def _nominal_delays(circuit: Circuit) -> Dict[str, int]:
    return {
        node.name: node.delay
        for node in circuit.nodes()
        if node.gate_type != GateType.INPUT
    }


class _SampleReplay:
    """What every Monte Carlo sample over one circuit and one pair list
    shares: a validated :class:`~repro.sim.event_sim.EventSimulator`, the
    pairs settled and packed as lane words
    (:class:`~repro.sim.event_sim.LaneReplay`) and the program slot of
    each gate in node order.  The ``monte-carlo`` worker builds one per
    call; :meth:`sample` is the one per-sample code path."""

    def __init__(self, circuit: Circuit, pairs: Sequence[VectorPair]):
        self._replay = LaneReplay(EventSimulator(circuit), pairs)
        slots = self._replay.program.slots
        self._gates = [
            (slots[name], nom)
            for name, nom in _nominal_delays(circuit).items()
        ]

    def sample(self, delay_model: DelayModel, rng: random.Random) -> int:
        """One Monte Carlo trial: draw every gate's delay from
        ``delay_model`` (in node order, one draw per gate) and replay all
        pairs as the bit lanes of one run under those delays, returning
        the worst pair's delay.  The circuit is neither copied nor edited,
        and the sample equals the worst per-pair replay of a copy
        re-annotated with ``set_delay``."""
        delays = list(self._replay.program.delays)
        for slot, nom in self._gates:
            delay = delay_model(rng, nom)
            if delay < 0:
                raise ValueError("delay must be non-negative")
            delays[slot] = delay
        return self._replay.worst_delay(delays)


def monte_carlo_delay(
    circuit: Circuit,
    pairs: Sequence[VectorPair],
    num_samples: int = 100,
    delay_model: Optional[DelayModel] = None,
    seed: int = 97,
    jobs: int = 1,
) -> StatisticalTimingResult:
    """Sample per-gate delays and replay the certification pairs.

    Each sample draws every gate's delay independently from ``delay_model``
    (default: +/-1 uniform variation) and records the worst delay observed
    over all ``pairs`` in single-stepping mode.

    The samples run as the ``monte-carlo`` fan-out of
    :mod:`repro.runtime.parallel`, each drawing from its own seeded
    sub-stream (:func:`repro.runtime.parallel.sample_seed`), so the
    sample list is a pure function of ``(circuit, pairs, num_samples,
    seed, model)`` for *all* ``jobs`` values.  Sharding requires a model
    carrying a picklable ``spec`` (the built-in models do); a custom
    closure runs in this process, drawing the very same samples.

    Each sample replays every pair at once, as the bit lanes of one
    event-loop run.  Per worker call the circuit is validated once, and
    the pairs' ``v_-1`` states settle in one bit-parallel pass and their
    ``v_0`` words are packed once: none of it depends on delays, so a
    sample only draws its gate delays and runs — the samples themselves
    are unchanged (the rng draws only gate delays, never settle
    results).
    """
    if not pairs:
        raise ValueError("need at least one certification vector pair")
    delay_model = delay_model or uniform_variation(1)
    spec = getattr(delay_model, "spec", None)
    samples = shard_map(
        "monte-carlo",
        (circuit, list(pairs), seed, delay_model if spec is None else spec),
        range(num_samples), jobs if spec is not None else 1,
    )
    METRICS.incr("monte_carlo.samples", num_samples)
    return StatisticalTimingResult(samples, len(pairs))


def monte_carlo_topological(
    circuit: Circuit,
    num_samples: int = 100,
    delay_model: Optional[DelayModel] = None,
    seed: int = 97,
) -> StatisticalTimingResult:
    """Distribution of the *topological* delay under gate-delay variation —
    the vector-independent statistical baseline (no false-path awareness)."""
    delay_model = delay_model or uniform_variation(1)
    rng = random.Random(seed)
    samples: List[int] = []
    for __ in range(num_samples):
        sample_circuit = circuit.copy()
        for node in circuit.nodes():
            if node.gate_type != GateType.INPUT:
                sample_circuit.set_delay(
                    node.name, delay_model(rng, node.delay)
                )
        samples.append(sample_circuit.topological_delay())
    return StatisticalTimingResult(samples, 0)
