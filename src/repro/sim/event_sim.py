"""Event-driven gate-level timing simulation under fixed delays.

This is the repository's "timing simulator of choice" (Sec. VII): the
certification vectors produced by the symbolic transition-delay computation
are replayed here, possibly under a refined delay annotation.

Semantics
---------
* **Propagation-delay interpretation** (Sec. IV): a gate switches instantly;
  the new value reaches its output ``d`` units later (transport delay).
* **Instantaneous glitches are suppressed** (Sec. IV-A): all events sharing
  a timestamp are applied together before any gate is re-evaluated, so a
  zero-width input pulse cannot flip an output.  Pulses of width >= 1 time
  unit propagate.
* **Single-stepping mode** (Sec. III): `simulate_transition` settles the
  circuit under ``v_-1`` and applies ``v_0`` at time 0;
  `worst_pair_delay` does so for many pairs in one run, one bit lane per
  pair, and returns the worst pair's delay.
* **Clocked mode**: `simulate_clocked` applies a vector every ``period``
  units *without* waiting for internal nodes to settle — the regime of
  Theorem 3.1.

Representation
--------------
The event loop runs over the integer slots of the circuit's compiled
program (:func:`repro.sim.wordsim.program_for`, shared with the
word-level kernel): node values, pending events and recorded event times
are lists indexed by slot, gate evaluation is the program's
pre-resolved ``(kind, inverting, fanins)`` entry, and slots are
topologically ordered, so the per-timestamp evaluation heap holds plain
slot numbers.  A slot's recorded events are only their times: every
event flips the value, so values follow from the initial one.
:class:`~repro.sim.waveform.Waveform` objects are built only when a
result's ``waveforms`` is read; ``TransitionResult.delay`` reads the
output slots directly.

Lanes
-----
The one event loop (:meth:`TimingSession.advance`) carries either bools
(one lane) or lane words: Python ints whose bit ``i`` belongs to vector
pair ``i``, as in the word-level kernel.  AND, OR and parity gates fold
their fanin values with ``&``, ``|`` and ``^``, and an inverting gate
flips under the lane mask (``True`` for one lane, so bools stay bools).
Lanes are independent under transport delay, so a word changes at ``t``
exactly when one of its lanes does: the latest output event of a lane
run is the worst of its pairs' delays, which is all the worst-over-pairs
consumers keep (:meth:`EventSimulator.worst_pair_delay` — the Monte
Carlo samples and ``certify``'s step-3 replays; a :class:`LaneReplay`
packs the pairs once for runs under many delay assignments).
Everything else —
sessions, `simulate_transition`, `simulate_clocked` — runs one lane.
Each run counts one ``event_sim.replays`` and its lanes in
``event_sim.lanes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, List, Mapping, Optional, Sequence

from ..network.circuit import Circuit
from ..runtime.metrics import METRICS
from .logic_sim import settle
from .waveform import Waveform, WaveformSet
from .wordsim import ALL, ANY, ONE, pack_vectors, program_for


class TransitionResult:
    """Outcome of simulating one vector pair in single-stepping mode."""

    def __init__(self, session: "TimingSession"):
        self._session = session
        self._waveforms: Optional[WaveformSet] = None

    @property
    def outputs(self) -> List[str]:
        return list(self._session._program.outputs)

    @property
    def waveforms(self) -> WaveformSet:
        """Every node's waveform (built on first access)."""
        if self._waveforms is None:
            self._waveforms = self._session.waveforms
        return self._waveforms

    @property
    def delay(self) -> int:
        """Time of the last transition at any primary output (0 if none) —
        the measured transition delay of this vector pair."""
        times = self._session._times
        latest = 0
        for slot in self._session._program.output_slots:
            recorded = times[slot]
            if recorded and recorded[-1] > latest:
                latest = recorded[-1]
        return latest

    def output_values(self) -> Dict[str, bool]:
        return {name: self.waveforms[name].final for name in self.outputs}


@dataclass
class ClockedResult:
    """Outcome of clocked multi-vector simulation."""

    waveforms: WaveformSet
    outputs: List[str]
    period: int
    sampled: List[Dict[str, bool]] = field(default_factory=list)


class TimingSession:
    """A stateful event-driven simulation: inject input changes at chosen
    times, advance the clock, inspect live values — the engine under
    :class:`EventSimulator` and the sequential (state-feedback) simulation
    in :mod:`repro.fsm.sequential`.

    ``lanes`` > 1 makes every value a lane word (``initial`` then maps
    each node to its settled word); only a :class:`LaneReplay` opens
    such a session.  ``delays`` optionally replaces the simulator's
    per-slot delays for this run (a Monte Carlo sample's draws).
    """

    def __init__(
        self,
        simulator: "EventSimulator",
        initial: Mapping[str, bool],
        lanes: int = 1,
        delays: Optional[Sequence[int]] = None,
    ):
        program, own_delays = simulator._compiled()
        self._program = program
        self._delays = own_delays if delays is None else delays
        self._initial = dict(initial)
        # One lane holds bools (``True & x``, ``True ^ x`` stay bools);
        # more hold lane words under an all-ones mask.
        self._mask = True if lanes == 1 else (1 << lanes) - 1
        METRICS.incr("event_sim.replays")
        METRICS.incr("event_sim.lanes", lanes)
        self.now = 0
        self._current = list(map(self._initial.__getitem__, program.order))
        # The value each gate is heading to once its scheduled events
        # land; a re-evaluation that matches it schedules nothing.
        self._projected = list(self._current)
        # Event times recorded per slot (None until the first event).
        self._times: List[Optional[List[int]]] = [None] * len(self._current)
        # Pending events: time -> {slot: value}, plus a heap of the times.
        self._pending: Dict[int, Dict[int, bool]] = {}
        self._heap: List[int] = []
        # Highest timestamp whose batch is already committed; injections
        # at or below this must merge, never queue a second batch.
        self._drained = -1

    # ------------------------------------------------------------------
    def inject(self, time: int, changes: Dict[str, bool]) -> None:
        """Schedule primary-input changes at ``time`` (>= now).

        An injection at a timestamp the session has already committed
        (``time == now`` right after an ``advance`` drained that time
        point — the regime of the sequential state-feedback loop) is
        *merged* into that time point immediately rather than queued:
        applying it as a second batch at the same time would let a
        zero-width input pulse straddle the two batches and defeat the
        Sec. IV-A instantaneous-glitch suppression.  Merging re-applies
        the batch semantics: a late change that reverts a value set at
        ``time`` coalesces to no event at all, and downstream projections
        are recomputed accordingly.
        """
        slots = self._program.slots
        self._inject_slots(
            time, {slots[name]: bool(value) for name, value in changes.items()}
        )

    def _inject_slots(self, time: int, changes: Dict[int, bool]) -> None:
        """:meth:`inject` over slots; the session takes ``changes`` over."""
        if time < self.now:
            raise ValueError("cannot inject into the past")
        bucket = self._pending.get(time)
        if bucket is None:
            self._pending[time] = changes
            heappush(self._heap, time)
        else:
            bucket.update(changes)
        if time <= self._drained:
            # Every batch left pending is later than the drained time, so
            # this commits the merged batch alone.
            self.advance(until=time)

    def value_at_sample(self, name: str) -> bool:
        """Current (edge-inclusive) value of a signal."""
        return self._current[self._program.slots[name]]

    def advance(self, until: Optional[int] = None) -> int:
        """Process events up to and including time ``until`` (or to
        quiescence).  Returns the simulation time reached.

        Each timestamp's batch applies all of its changes at that time
        ``t`` before re-evaluating any gate (the zero-width glitch
        filter), cascades zero-delay gates within ``t``, and schedules
        the rest.  Values are bools or lane words alike (see the module
        docstring): a gate folds its fanins from the lane mask (AND) or
        ``False`` (OR, parity), then flips under the mask if inverting.
        """
        program = self._program
        gates, fanouts, delays = program.gates, program.fanouts, self._delays
        current, projected, times = self._current, self._projected, self._times
        pending, heap = self._pending, self._heap
        mask = self._mask
        while heap and (until is None or heap[0] <= until):
            t = heappop(heap)
            changes = pending.pop(t)
            if t > self.now:
                self.now = t
            if t > self._drained:
                self._drained = t
            evaluate: List[int] = []
            for slot, value in changes.items():
                if current[slot] == value:
                    continue
                current[slot] = value
                recorded = times[slot]
                if recorded is None:
                    times[slot] = [t]
                elif recorded and recorded[-1] == t:
                    # Flipping back within one timestamp cancels its event.
                    recorded.pop()
                else:
                    recorded.append(t)
                evaluate.extend(fanouts[slot])
            # Evaluate affected gates in topological (= slot) order;
            # zero-delay gates cascade within the same timestamp.  A gate
            # queued twice pops twice in a row: the repeat is skipped.
            heapify(evaluate)
            last = -1
            while evaluate:
                gate = heappop(evaluate)
                if gate == last:
                    continue
                last = gate
                kind, inverting, fanins = gates[gate]
                if kind == ALL:
                    value = mask
                    for fanin in fanins:
                        value &= current[fanin]
                elif kind == ANY:
                    value = False
                    for fanin in fanins:
                        value |= current[fanin]
                elif kind == ONE:
                    value = current[fanins[0]]
                else:  # PARITY
                    value = False
                    for fanin in fanins:
                        value ^= current[fanin]
                if inverting:
                    value ^= mask
                delay = delays[gate]
                if delay == 0:
                    if value != current[gate]:
                        current[gate] = value
                        projected[gate] = value
                        recorded = times[gate]
                        if recorded is None:
                            times[gate] = [t]
                        elif recorded and recorded[-1] == t:
                            recorded.pop()
                        else:
                            recorded.append(t)
                        for fanout in fanouts[gate]:
                            heappush(evaluate, fanout)
                elif value != projected[gate]:
                    projected[gate] = value
                    at = t + delay
                    bucket = pending.get(at)
                    if bucket is None:
                        pending[at] = {gate: value}
                        heappush(heap, at)
                    else:
                        bucket[gate] = value
        if until is not None:
            self.now = max(self.now, until)
            self._drained = max(self._drained, until)
        return self.now

    @property
    def quiescent(self) -> bool:
        return not self._heap

    @property
    def waveforms(self) -> WaveformSet:
        """Every node's waveform so far, keyed like the initial state."""
        slots, times = self._program.slots, self._times
        waveforms = {}
        for name, initial in self._initial.items():
            events = []
            value = bool(initial)
            for t in times[slots[name]] or ():
                value = not value
                events.append((t, value))
            waveforms[name] = Waveform(initial, events)
        return WaveformSet(waveforms)


class LaneReplay:
    """Vector pairs packed once as the bit lanes of event-loop runs
    (:meth:`EventSimulator.worst_pair_delay`): the ``v_-1`` words settled
    in one pass of the word-level kernel
    (:meth:`~repro.sim.wordsim.CircuitProgram.simulate`) and the ``v_0``
    words injected at t = 0, over the simulator's current program.
    Neither depends on delays, so one packing serves runs under any
    per-slot delays of that program (the Monte Carlo samples of one
    worker call, :mod:`repro.core.statistical`).
    """

    def __init__(self, simulator: "EventSimulator", pairs: Sequence):
        if not pairs:
            raise ValueError("need at least one vector pair")
        program, __ = simulator._compiled()
        self.program = program
        self._simulator = simulator
        self._lanes = len(pairs)
        self._settled = program.simulate(
            pack_vectors([pair.v_prev for pair in pairs], program.inputs),
            width=self._lanes,
        )
        words = pack_vectors([pair.v_next for pair in pairs], program.inputs)
        self._stimulus = dict(zip(
            program.input_slots, map(words.__getitem__, program.inputs)
        ))

    def worst_delay(self, delays: Optional[Sequence[int]] = None) -> int:
        """The latest output event of one run over all lanes, under
        per-slot ``delays`` of :attr:`program` (default: the
        simulator's)."""
        session = TimingSession(
            self._simulator, self._settled, lanes=self._lanes, delays=delays
        )
        session._inject_slots(0, dict(self._stimulus))
        session.advance()
        return TransitionResult(session).delay


class EventSimulator:
    """Event-driven transport-delay simulator for a fixed circuit.

    ``delays`` optionally re-annotates gate delays by name for this
    simulator only — the circuit and its journal are untouched, and the
    replays equal those of a copy with ``set_delay`` applied per entry.
    Journalled edits to the circuit made later are seen by the next
    replay; an annotated delay keeps overriding its gate's.
    """

    def __init__(
        self, circuit: Circuit, delays: Optional[Mapping[str, int]] = None
    ):
        if circuit._program_base is None:
            # A compiled structure was validated by its compile, and a
            # delay edit since leaves it valid (its program is retimed);
            # compiling here instead would only move that work to
            # construction.
            circuit.validate()
        self.circuit = circuit
        self._annotation = dict(delays or {})
        for name, delay in self._annotation.items():
            if delay < 0:
                raise ValueError("delay must be non-negative")
            circuit.node(name)  # KeyError for an unknown node
        self._program = None
        self._delays: List[int] = []

    def _compiled(self):
        """The circuit's current program and this simulator's per-slot
        delays over it."""
        program = program_for(self.circuit)
        if program is not self._program:
            delays = program.delays
            if self._annotation:
                delays = list(delays)
                for name, delay in self._annotation.items():
                    delays[program.slots[name]] = delay
            self._program, self._delays = program, delays
        return program, self._delays

    # ------------------------------------------------------------------
    def session(self, initial_inputs: Dict[str, bool]) -> TimingSession:
        """Open a stateful session, settled under ``initial_inputs``."""
        return TimingSession(self, settle(self.circuit, initial_inputs))

    # ------------------------------------------------------------------
    def simulate_transition(
        self,
        v_prev: Dict[str, bool],
        v_next: Dict[str, bool],
        input_times: Optional[Dict[str, int]] = None,
        initial: Optional[Dict[str, bool]] = None,
    ) -> TransitionResult:
        """Single-stepping simulation of the vector pair ``(v_prev, v_next)``.

        ``input_times`` optionally staggers when each input takes its new
        value (default 0 for all) — the per-input clocking of Sec. V-C and
        the late-arriving ``i4`` of Fig. 3.

        ``initial`` optionally supplies the settled per-node state under
        ``v_prev`` (it must equal ``settle(self.circuit, v_prev)``).
        Settled values are delay-independent, so one state serves replays
        of the same pair under any re-annotated delays (the fault-injection
        validation of :mod:`repro.core.delay_fault` settles each test
        once for its baseline and every slowed replay).
        """
        if initial is None:
            initial = settle(self.circuit, v_prev)
        session = TimingSession(self, initial)
        program = session._program
        if input_times:
            stimuli: Dict[int, Dict[int, bool]] = {}
            for name, slot in zip(program.inputs, program.input_slots):
                time = input_times.get(name, 0)
                stimuli.setdefault(time, {})[slot] = bool(v_next[name])
        else:
            stimuli = {0: dict(zip(
                program.input_slots,
                map(bool, map(v_next.__getitem__, program.inputs)),
            ))}
        for time, changes in stimuli.items():
            session._inject_slots(time, changes)
        session.advance()
        return TransitionResult(session)

    def measure_pair_delay(
        self, v_prev: Dict[str, bool], v_next: Dict[str, bool]
    ) -> int:
        """Shorthand: the transition delay observed for one vector pair."""
        return self.simulate_transition(v_prev, v_next).delay

    def worst_pair_delay(self, pairs: Sequence) -> int:
        """The largest :meth:`measure_pair_delay` over ``pairs`` (objects
        with ``v_prev`` and ``v_next``, like :class:`repro.core.VectorPair`),
        from one event-loop run whose bit lane ``i`` replays ``pairs[i]``.

        Every ``v_-1`` state settles as lane words in one word-kernel pass,
        every ``v_0`` word is injected at t = 0, and the result is the
        latest output event over all lanes.  A word changes at t exactly
        when one of its lanes does, so that is the worst pair's delay; no
        slot of this one-batch run changes twice in one timestamp, so the
        loop's flip-back rule never fires.  A :class:`LaneReplay` keeps
        the whole packing for many runs (the Monte Carlo samples of a
        worker call share one).
        """
        return LaneReplay(self, pairs).worst_delay()

    def simulate_clocked(
        self,
        vectors: Sequence[Dict[str, bool]],
        period: int,
    ) -> ClockedResult:
        """Apply ``vectors[0]`` and settle, then apply each subsequent vector
        every ``period`` units without waiting for internal quiescence:
        ``vectors[k]`` (k >= 1) is applied at time ``(k-1)*period``.

        ``sampled[i]`` holds the primary-output values a latch clocked at the
        period would capture for ``vectors[i+1]`` — the values observed one
        period after that vector was applied.  Capture is *edge-inclusive*
        (an event landing exactly on the clock edge is latched), matching
        Theorem 3.1's claim that the transition delay itself is a valid
        period.  Events of the next vector cannot contaminate the sample as
        long as every output is driven through at least one positive-delay
        gate (true for all library circuits except explicitly zero-delay
        output buffers).
        """
        if not vectors:
            raise ValueError("need at least one vector")
        if period <= 0:
            raise ValueError("period must be positive")
        session = self.session(vectors[0])
        for k, vector in enumerate(vectors[1:], start=1):
            session.inject(
                (k - 1) * period,
                {name: vector[name] for name in self.circuit.inputs},
            )
        session.advance()
        waveforms = session.waveforms
        outputs = self.circuit.outputs
        sampled: List[Dict[str, bool]] = []
        for k in range(1, len(vectors)):
            sample_time = k * period
            sampled.append(
                {out: waveforms[out].value_at(sample_time) for out in outputs}
            )
        return ClockedResult(waveforms, outputs, period, sampled)
