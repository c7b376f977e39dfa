"""Certified timing verification — the TrueD flow of Sec. VII.

The methodology:

1. derive the upper bound ``delta`` on circuit delay by a *floating delay*
   calculation (it bounds the transition delay from above);
2. pass ``delta`` to the symbolic transition-delay procedure, obtaining the
   transition delay and a certification vector pair (or one pair per
   output);
3. replay the vectors on the timing simulator of choice — here the
   event-driven simulator, optionally under a more accurate ("post-layout")
   delay annotation;
4. compare the simulated delay ``gamma`` with the computed values:

   * ``gamma`` worse than the computation → the verifier's delays were not
     pessimistic enough — fix the models and re-run;
   * ``gamma`` equal → the static result is *certified* by simulation;
   * ``gamma`` below → an aggressive designer may clock at ``gamma``, or a
     statistical analysis estimates yield between ``gamma`` and ``delta``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..network.circuit import Circuit
from ..runtime.cache import resolve_cache
from ..runtime.fingerprint import circuit_fingerprint
from ..runtime.metrics import METRICS
from ..sim.event_sim import EventSimulator
from .analysis import with_bdd_fallback
from .clocking import theorem31_min_period
from .floating import compute_floating_delay
from .statistical import StatisticalTimingResult, monte_carlo_delay
from .transition import (
    PairConstraintBuilder,
    TransitionAnalysis,
    collect_certification_pairs,
    compute_transition_delay,
    witness_extension,
)
from .vectors import DelayCertificate, VectorPair, batch_pair_states


class Verdict(str, Enum):
    """Outcome of the certification replay."""

    #: Simulation reproduced the computed transition delay exactly.
    CERTIFIED = "CERTIFIED"
    #: Simulation (under the accurate models) came in faster; the computed
    #: bound is safely conservative.  Consider the statistical follow-up.
    CERTIFIED_CONSERVATIVE = "CERTIFIED_CONSERVATIVE"
    #: Simulation was slower than the computation: the delays used by the
    #: verifier were not pessimistic enough.  Fix the models and re-run.
    MODEL_NOT_PESSIMISTIC = "MODEL_NOT_PESSIMISTIC"
    #: No output ever transitions — nothing to certify dynamically.
    NO_ACTIVITY = "NO_ACTIVITY"


@dataclass
class CertificationReport:
    """Everything the Sec. VII flow produces."""

    circuit_name: str
    topological_delay: int
    floating: DelayCertificate
    transition: DelayCertificate
    #: Per-output certification pairs: output -> (predicted time, pair).
    pairs: Dict[str, Tuple[int, VectorPair]]
    #: Replay of the pairs on the verifier's own delay model.
    model_replay_delay: int
    #: Replay on the accurate (refined) model, if one was given.
    accurate_replay_delay: Optional[int]
    verdict: Verdict
    #: Theorem 3.1 certified minimum clock period.
    certified_min_period: int
    statistics: Optional[StatisticalTimingResult] = None
    notes: List[str] = field(default_factory=list)

    @property
    def gamma(self) -> Optional[int]:
        """The simulated delay the paper calls gamma."""
        if self.accurate_replay_delay is not None:
            return self.accurate_replay_delay
        return self.model_replay_delay

    def describe(self) -> str:
        lines = [
            f"Certified timing verification of {self.circuit_name}",
            f"  topological delay (l.d.)    : {self.topological_delay}",
            f"  floating delay (f.d.)       : {self.floating.delay}",
            f"  transition delay (t.d.)     : {self.transition.delay}",
            f"  certification pairs         : {len(self.pairs)}",
            f"  replay on verifier model    : {self.model_replay_delay}",
        ]
        if self.accurate_replay_delay is not None:
            lines.append(
                f"  replay on accurate model    : {self.accurate_replay_delay}"
            )
        lines.append(f"  verdict                     : {self.verdict.value}")
        lines.append(
            f"  certified min clock period  : {self.certified_min_period}"
        )
        if self.statistics is not None:
            lines.append(
                "  statistical (n={}): mean={:.2f} std={:.2f} p95={}".format(
                    len(self.statistics.samples),
                    self.statistics.mean,
                    self.statistics.std,
                    self.statistics.percentile(95),
                )
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _transition_certificate(
    circuit: Circuit,
    floating: DelayCertificate,
    analysis: TransitionAnalysis,
    constraint: Optional[PairConstraintBuilder],
) -> DelayCertificate:
    """Step 2's transition certificate, on one analysis.

    Fast path (Sec. VIII mode agreement): if the floating witness extends
    to a vector pair exciting a transition at exactly delta, then
    t.d. == f.d. after a few heavily-restricted checks; otherwise the
    transition delay is searched top-down from delta.  The fast path's
    checks count toward the certificate whether or not it succeeds.
    """
    pair, checks = witness_extension(
        circuit, floating, analysis, constraint=constraint
    )
    if pair is None:
        transition = compute_transition_delay(
            circuit, upper=floating.delay, constraint=constraint,
            analysis=analysis,
        )
        transition.checks += checks
        return transition
    replay = EventSimulator(circuit).simulate_transition(
        pair.v_prev, pair.v_next
    )
    critical = max(
        circuit.outputs,
        key=lambda out: replay.waveforms[out].last_event_time or 0,
    )
    return DelayCertificate(
        mode="transition",
        delay=floating.delay,
        output=critical,
        value=replay.waveforms[critical].final,
        pair=pair,
        checks=checks,
        extra={"mode_agreement_fast_path": True},
    )


def certify(
    circuit: Circuit,
    accurate_circuit: Optional[Circuit] = None,
    engine_name: str = "auto",
    constraint: Optional[PairConstraintBuilder] = None,
    floating_constraint=None,
    per_output_pairs: bool = True,
    statistical_samples: int = 0,
    seed: int = 97,
    jobs: int = 1,
    cache=None,
) -> CertificationReport:
    """Run the complete certified-timing-verification flow.

    ``accurate_circuit`` is the same netlist with the accurate (e.g.
    post-layout) delay annotation; when omitted the replay happens on the
    verifier's own model only.  ``constraint``/``floating_constraint``
    restrict the vector spaces (FSM benchmarks).  ``statistical_samples``
    > 0 enables the Monte Carlo follow-up when the verdict is conservative.

    ``jobs`` shards the Monte Carlo follow-up across worker processes
    (``1`` = serial; ``0`` = all cores) — the report is result-identical
    for every ``jobs`` value (per-sample seeded sub-streams on every
    route); the per-output pairs are always collected on the flow's own
    transition analysis.  Unconstrained runs
    are served whole from the runtime cache (the entire report is cached,
    keyed by both circuits' fingerprints and the flow parameters).
    """
    circuit.validate()
    store = None
    token = None
    if constraint is None and floating_constraint is None:
        store = resolve_cache(cache)
        token = store.token(
            circuit,
            "certify",
            engine_name,
            None,
            {
                "accurate": (
                    circuit_fingerprint(accurate_circuit)
                    if accurate_circuit is not None
                    else None
                ),
                "per_output_pairs": per_output_pairs,
                "samples": statistical_samples,
                "seed": seed,
                # jobs deliberately absent: the report (including the
                # Monte Carlo samples) is the same for every jobs value.
            },
        )
        cached = store.get(token)
        if cached is not None:
            return cached
    omega = circuit.topological_delay()

    # Step 1: the upper bound delta by floating-delay computation.
    floating = compute_floating_delay(
        circuit, engine_name=engine_name, constraint=floating_constraint
    )

    # Step 2: transition delay, queried downward from delta, plus vectors
    # — on one analysis, under the auto BDD->SAT overflow fallback.
    def transition_step(engine):
        analysis = TransitionAnalysis(circuit, engine, engine_name)
        transition = _transition_certificate(
            circuit, floating, analysis, constraint
        )
        pairs: Dict[str, Tuple[int, VectorPair]] = {}
        if per_output_pairs:
            pairs = collect_certification_pairs(
                circuit, analysis=analysis, constraint=constraint
            )
        return transition, pairs

    transition, pairs = with_bdd_fallback(transition_step, None, engine_name)
    if not per_output_pairs and transition.pair is not None:
        pairs = {transition.output: (transition.delay, transition.pair)}

    notes: List[str] = []
    if not pairs:
        report = CertificationReport(
            circuit_name=circuit.name,
            topological_delay=omega,
            floating=floating,
            transition=transition,
            pairs={},
            model_replay_delay=0,
            accurate_replay_delay=None,
            verdict=Verdict.NO_ACTIVITY,
            certified_min_period=theorem31_min_period(circuit, 0),
            notes=["no vector pair produces any output transition"],
        )
        if store is not None:
            store.put(token, report)
        return report

    # Step 3: replay on the verifier's model (an internal self-check: the
    # event simulator must observe exactly the computed transition delay).
    # All pairs' v_-1 settled states come from one pass of the word-level
    # kernel; each event replay starts from its precomputed state.
    pair_list = [pair for __, pair in pairs.values()]
    simulator = EventSimulator(circuit)
    with METRICS.span("certify.replay"):
        initials, __ = batch_pair_states(circuit, pair_list)
        model_replay = max(
            simulator.measure_pair_delay(
                pair.v_prev, pair.v_next, initial=initial
            )
            for pair, initial in zip(pair_list, initials)
        )
    if model_replay != transition.delay:
        notes.append(
            "self-check: replay on the verifier model observed "
            f"{model_replay}, computed {transition.delay}"
        )

    accurate_replay: Optional[int] = None
    if accurate_circuit is not None:
        # Same netlist, different delay annotation: settled states are
        # delay-independent, but batch against the accurate circuit anyway
        # in case its structure was edited too.
        accurate_simulator = EventSimulator(accurate_circuit)
        with METRICS.span("certify.replay"):
            accurate_initials, __ = batch_pair_states(
                accurate_circuit, pair_list
            )
            accurate_replay = max(
                accurate_simulator.measure_pair_delay(
                    pair.v_prev, pair.v_next, initial=initial
                )
                for pair, initial in zip(pair_list, accurate_initials)
            )

    # Step 4: verdict.
    gamma = accurate_replay if accurate_replay is not None else model_replay
    if gamma > transition.delay:
        verdict = Verdict.MODEL_NOT_PESSIMISTIC
        notes.append(
            "simulation exceeded the computed transition delay: the "
            "verifier's gate delays were not pessimistic enough — increase "
            "them and re-run (Sec. VII)"
        )
    elif gamma == transition.delay:
        verdict = Verdict.CERTIFIED
    else:
        verdict = Verdict.CERTIFIED_CONSERVATIVE
        notes.append(
            f"simulated gamma={gamma} below computed delta="
            f"{transition.delay}; statistical follow-up applies"
        )

    statistics: Optional[StatisticalTimingResult] = None
    if statistical_samples > 0:
        with METRICS.span("certify.statistical"):
            statistics = monte_carlo_delay(
                accurate_circuit if accurate_circuit is not None else circuit,
                [pair for __, pair in pairs.values()],
                num_samples=statistical_samples,
                seed=seed,
                jobs=jobs,
            )

    report = CertificationReport(
        circuit_name=circuit.name,
        topological_delay=omega,
        floating=floating,
        transition=transition,
        pairs=pairs,
        model_replay_delay=model_replay,
        accurate_replay_delay=accurate_replay,
        verdict=verdict,
        certified_min_period=theorem31_min_period(circuit, transition.delay),
        statistics=statistics,
        notes=notes,
    )
    if store is not None:
        store.put(token, report)
    return report
