"""TrueD core — the paper's delay analyses, mapped to its sections.

* Sec. III — clock-period validity, Theorem 3.1 (:mod:`.clocking`);
* Sec. IV — the delay models: floating vs. transition delay and the
  monotone-speedup argument (:mod:`.floating`, the Figs. 1/2 analyses);
* Sec. V — symbolic simulation over the doubled vector-pair space:
  fixed delays (:mod:`.transition`), event suppression
  (:mod:`.suppression`), bounded delays (:mod:`.bounded`);
* Sec. VI — the sequential (reachable-pair) restriction, consumed here
  as constraints built by :mod:`repro.fsm.constraints`;
* Sec. VII — the certified-verification flow (:mod:`.certify`);
* Sec. VIII — path-delay-fault test generation (:mod:`.delay_fault`).

Algorithm-level reference: ``docs/ALGORITHMS.md``; subsystem map:
``docs/ARCHITECTURE.md``.
"""

import sys

# The lazy symbolic recurrences recurse through circuit depth; deep mapped
# netlists (multiplier chains after buffer normalisation) exceed CPython's
# default limit.
if sys.getrecursionlimit() < 100_000:
    sys.setrecursionlimit(100_000)

from .bounded import (
    BoundedAnalysis,
    compute_bounded_transition_delay,
    fixed_delay_bounds,
    monotone_speedup_bounds,
)
from .certify import CertificationReport, Verdict, certify
from .delay_fault import (
    FaultCoverage,
    PathFault,
    PathFaultGenerator,
    PathFaultTest,
    TestStrength,
    validate_test_by_fault_injection,
    validate_tests_by_fault_injection,
)
from .clocking import (
    ClockValidation,
    is_certified_period,
    smallest_empirical_period,
    theorem31_min_period,
    validate_period_by_simulation,
)
from .floating import FloatingAnalysis, compute_floating_delay
from .lower_bound import LowerBoundResult, transition_delay_lower_bound
from .statistical import (
    StatisticalTimingResult,
    monte_carlo_delay,
    monte_carlo_topological,
    resolve_delay_model,
    speedup_only_variation,
    uniform_variation,
)
from .statistical_sta import (
    DiscreteDistribution,
    arrival_distributions,
    circuit_delay_distribution,
    fixed_delay_model,
    uniform_delay_model,
)
from .suppression import (
    SuppressionPlan,
    build_all_functions,
    suppression_plan,
)
from .trace import (
    EventChain,
    describe_certificate_path,
    trace_critical_chain,
)
from .transition import (
    TransitionAnalysis,
    collect_certification_pairs,
    compute_transition_delay,
    extend_floating_witness,
    pairs_for_outputs,
    query_delay_at_least,
    validate_certification_pairs,
)
from ..sim.wordsim import canonical_input_order
from .vectors import (
    CUR_SUFFIX,
    PREV_SUFFIX,
    AttributionError,
    DelayCertificate,
    VectorPair,
    cur_var,
    format_vector,
    prev_var,
)

__all__ = [
    "FloatingAnalysis",
    "compute_floating_delay",
    "TransitionAnalysis",
    "compute_transition_delay",
    "collect_certification_pairs",
    "pairs_for_outputs",
    "extend_floating_witness",
    "query_delay_at_least",
    "validate_certification_pairs",
    "LowerBoundResult",
    "transition_delay_lower_bound",
    "EventChain",
    "trace_critical_chain",
    "describe_certificate_path",
    "BoundedAnalysis",
    "compute_bounded_transition_delay",
    "monotone_speedup_bounds",
    "fixed_delay_bounds",
    "SuppressionPlan",
    "suppression_plan",
    "build_all_functions",
    "certify",
    "CertificationReport",
    "Verdict",
    "PathFault",
    "PathFaultTest",
    "PathFaultGenerator",
    "FaultCoverage",
    "TestStrength",
    "validate_test_by_fault_injection",
    "validate_tests_by_fault_injection",
    "theorem31_min_period",
    "is_certified_period",
    "validate_period_by_simulation",
    "smallest_empirical_period",
    "ClockValidation",
    "StatisticalTimingResult",
    "monte_carlo_delay",
    "monte_carlo_topological",
    "resolve_delay_model",
    "uniform_variation",
    "speedup_only_variation",
    "DiscreteDistribution",
    "arrival_distributions",
    "circuit_delay_distribution",
    "uniform_delay_model",
    "fixed_delay_model",
    "AttributionError",
    "canonical_input_order",
    "DelayCertificate",
    "VectorPair",
    "prev_var",
    "cur_var",
    "format_vector",
    "PREV_SUFFIX",
    "CUR_SUFFIX",
]
