"""Statistical timing follow-up (Sec. VII, ref. [11]).

When the accurate simulation of the certification vectors reports a delay
``gamma`` below the verifier's bound ``delta``, the paper suggests
statistical methods to estimate "what percentage of parts are likely to run
at each speed in the range between gamma and delta".  This module samples
per-gate delay distributions (Monte Carlo over manufacturing variation) and
replays the certification vector pairs on each sample, producing a
speed-binning / yield curve.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..network.circuit import Circuit
from ..network.gates import GateType
from ..runtime.metrics import METRICS
from ..sim.event_sim import EventSimulator
from .vectors import VectorPair

#: Draws a sample delay for a gate given (rng, nominal_delay).
DelayModel = Callable[[random.Random, int], int]


def uniform_variation(spread: int = 1) -> DelayModel:
    """Uniform integer variation of +/- ``spread`` around nominal,
    clipped at 0."""

    def model(rng: random.Random, nominal: int) -> int:
        return max(0, nominal + rng.randint(-spread, spread))

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


def settle_pair_initials(
    circuit: Circuit, pairs: Sequence[VectorPair]
) -> List[Dict[str, bool]]:
    """Settled ``v_-1`` state of every pair, one word-kernel pass.

    Settled values do not depend on gate delays, so one batch serves the
    replay of *every* Monte Carlo sample — the per-sample scalar settles
    the serial loop used to pay are hoisted out entirely.  Shared by the
    serial path and the workers of :mod:`repro.runtime.parallel`.
    """
    from ..sim.wordsim import batch_settle

    return batch_settle(circuit, [pair.v_prev for pair in pairs])


def sample_delay_once(
    circuit: Circuit,
    pairs: Sequence[VectorPair],
    delay_model: DelayModel,
    rng: random.Random,
    nominal: Optional[Dict[str, int]] = None,
    initials: Optional[Sequence[Dict[str, bool]]] = None,
) -> int:
    """One Monte Carlo trial: draw every gate's delay from ``delay_model``
    (in node order, one draw per gate) and replay all pairs, returning the
    worst observed delay.  Shared by the serial loop and the workers of
    :mod:`repro.runtime.parallel`.

    The drawn delays are a ``delays=`` annotation of one
    :class:`~repro.sim.event_sim.EventSimulator` over the circuit's
    compiled program: the circuit is neither copied nor edited, and the
    replays equal those of a copy re-annotated with ``set_delay``.

    ``initials`` optionally carries the pairs' settled ``v_-1`` states
    (see :func:`settle_pair_initials`); absent, they are computed here —
    either way the samples are bit-identical to a scalar-settle replay.
    """
    if nominal is None:
        nominal = _nominal_delays(circuit)
    if initials is None:
        initials = settle_pair_initials(circuit, pairs)
    simulator = EventSimulator(
        circuit,
        delays={name: delay_model(rng, nom) for name, nom in nominal.items()},
    )
    worst = 0
    for pair, initial in zip(pairs, initials):
        worst = max(
            worst,
            simulator.measure_pair_delay(
                pair.v_prev, pair.v_next, initial=initial
            ),
        )
    return worst


def monte_carlo_delay(
    circuit: Circuit,
    pairs: Sequence[VectorPair],
    num_samples: int = 100,
    delay_model: Optional[DelayModel] = None,
    seed: int = 97,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
) -> StatisticalTimingResult:
    """Sample per-gate delays and replay the certification pairs.

    Each sample draws every gate's delay independently from ``delay_model``
    (default: +/-1 uniform variation) and records the worst delay observed
    over all ``pairs`` in single-stepping mode.

    Every sample draws from its own seeded sub-stream
    (:func:`repro.runtime.parallel.sample_seed`), on the serial path and
    in worker processes alike, so the sample list is a pure function of
    ``(circuit, pairs, num_samples, seed, model)`` for *all* ``jobs``
    values — serial and sharded runs are sample-identical.  Sharding
    requires a model carrying a picklable ``spec`` (the built-in models
    do); custom closures fall back to the serial loop, which draws the
    very same samples.  ``timeout``/``retries`` tune the sharded runner's
    fault tolerance (see :mod:`repro.runtime.parallel`).

    Replays are seeded from one bit-parallel settle of all pairs'
    ``v_-1`` states (:func:`settle_pair_initials`): settled values are
    delay-independent, so serial runs and every worker compute them once
    instead of once per sample — the samples themselves are unchanged
    (the rng draws only gate delays, never settle results).
    """
    if not pairs:
        raise ValueError("need at least one certification vector pair")
    delay_model = delay_model or uniform_variation(1)
    spec = getattr(delay_model, "spec", None)
    if jobs != 1 and spec is not None:
        from ..runtime.parallel import shard_map

        samples = shard_map(
            "monte-carlo", (circuit, list(pairs), seed, spec),
            range(num_samples), jobs, timeout=timeout, retries=retries,
        )
    else:
        from ..runtime.parallel import sample_seed

        nominal = _nominal_delays(circuit)
        initials = settle_pair_initials(circuit, pairs)
        samples = [
            sample_delay_once(
                circuit, pairs, delay_model,
                random.Random(sample_seed(seed, index)), nominal,
                initials=initials,
            )
            for index in range(num_samples)
        ]
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
