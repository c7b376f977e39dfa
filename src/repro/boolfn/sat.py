"""A CDCL satisfiability solver (Larrabee-style engine for TrueD).

The paper (Sec. V-G) keeps the symbolic functions as multilevel networks and
checks satisfiability with Larrabee's Boolean-satisfiability procedure when
ROBDDs are infeasible (e.g. multipliers).  This module provides the modern
equivalent: a conflict-driven clause-learning solver with two-literal
watching, 1UIP learning, VSIDS-style activities, phase saving and Luby
restarts.  It is deliberately self-contained pure Python.

Variables are external positive integers (1-based, DIMACS convention), as in
:class:`repro.boolfn.cnf.Cnf`.  Internally variable ``v`` (0-based) has the
literals ``2v`` (positive) and ``2v + 1`` (negative), and the solver keeps
one value per internal literal, so reading a literal's value is one list
index.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence

from .cnf import Cnf

#: Value of an unassigned literal; an assigned one is 1 (true) or 0 (false).
_UNASSIGNED = -1


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence
    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ..."""
    if i < 1:
        raise ValueError("luby is 1-based")
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class SatSolver:
    """CDCL solver over an incrementally grown clause database.

    Typical use::

        solver = SatSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        solver.add_clause([-a, b])
        assert solver.solve()
        model = solver.model()        # {1: ..., 2: True}

    ``solve(assumptions=...)`` answers the query under temporary unit
    assumptions, which is how delay queries re-use one solver instance.
    Clauses may be added between solves.

    The search is deterministic.  It decides the unassigned variable of
    highest activity (lowest index on ties) in its saved phase (False at
    first), watches the first two literals of each clause, visits a watch
    list in order, learns the 1UIP clause and restarts after
    ``100 * luby(i)`` conflicts.
    """

    def __init__(self):
        self._num_vars = 0
        # Per internal literal (2v / 2v+1).
        self._values: List[int] = []     # 1 / 0 / _UNASSIGNED
        self._watches: List[List[List[int]]] = []  # clauses watching it
        # Per variable (index = internal var, 0-based).
        self._level: List[int] = []
        self._reason: List[Optional[List[int]]] = []
        self._activity: List[float] = []
        self._phase: List[int] = []      # saved phase, as the literal to decide
        self._seen: List[bool] = []      # conflict-analysis marks, all False
        self._queued: List[bool] = []    # has an entry with its current key
        self._clauses: List[List[int]] = []
        self._learned: List[List[int]] = []
        self._trail: List[int] = []      # internal literals, assignment order
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        # Lazy max-activity heap of (-activity, var): every unassigned
        # variable has an entry keyed by its current activity; entries of
        # assigned variables and older keys are skipped when popped.  A
        # variable is ``_queued`` from the push of such an entry until one
        # of its entries is popped.
        self._heap: List[tuple] = []
        self._ok = True                  # False once root-level conflict found
        self.num_conflicts = 0
        self.num_decisions = 0
        self.num_propagations = 0

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable; returns the external (1-based) index."""
        self.ensure_vars(self._num_vars + 1)
        return self._num_vars

    def ensure_vars(self, n: int) -> None:
        """Allocate variables until ``n`` external variables exist."""
        first = self._num_vars
        count = n - first
        if count <= 0:
            return
        self._num_vars = n
        self._values.extend([_UNASSIGNED] * (2 * count))
        self._watches.extend([] for _ in range(2 * count))
        self._level.extend([0] * count)
        self._reason.extend([None] * count)
        self._activity.extend([0.0] * count)
        self._phase.extend(range(2 * first + 1, 2 * n, 2))
        self._seen.extend([False] * count)
        self._queued.extend([True] * count)
        # Every existing entry is below (0.0, first), so appending the new
        # entries in index order keeps the heap property.
        self._heap.extend((0.0, var) for var in range(first, n))

    @staticmethod
    def _to_internal(lit: int) -> int:
        var = abs(lit) - 1
        return 2 * var + (1 if lit < 0 else 0)

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause (external literals). Returns False if the database
        became unsatisfiable at the root level.

        The solver first returns to decision level 0, so a clause added
        after a satisfiable ``solve()`` binds every later solve."""
        if not self._ok:
            return False
        self._backtrack(0)
        seen: Dict[int, None] = {}
        internal: List[int] = []
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self.ensure_vars(abs(lit))
            ilit = self._to_internal(lit)
            if ilit ^ 1 in seen:
                return True  # tautology: clause always satisfied
            if ilit in seen:
                continue
            seen[ilit] = None
            internal.append(ilit)
        # At level 0 every assigned literal is fixed: drop the false ones,
        # and the clause if one is true.
        values = self._values
        filtered: List[int] = []
        for ilit in internal:
            val = values[ilit]
            if val == 1:
                return True
            if val == _UNASSIGNED:
                filtered.append(ilit)
        if not filtered:
            self._ok = False
            return False
        if len(filtered) == 1:
            self._assign(filtered[0], None)
            if self._propagate() is not None:
                self._ok = False
                return False
            return True
        clause = filtered
        self._clauses.append(clause)
        self._attach(clause)
        return True

    def add_cnf(self, cnf: Cnf) -> bool:
        """Load every clause of a :class:`Cnf`. Returns False on root conflict.

        While nothing is assigned, a 2- or 3-literal clause over distinct
        variables passes every check of :meth:`add_clause` unchanged, so it
        is attached as it stands (a :class:`Cnf` holds only literals of its
        own variables).  Any other clause goes through :meth:`add_clause`."""
        self.ensure_vars(cnf.num_vars)
        clauses, watches, trail = self._clauses, self._watches, self._trail
        fresh = self._ok and not trail
        for lits in cnf.clauses:
            if fresh:
                size = len(lits)
                if size == 2:
                    a, b = lits
                    if a != b and a != -b:
                        clause = [
                            2 * a - 2 if a > 0 else -2 * a - 1,
                            2 * b - 2 if b > 0 else -2 * b - 1,
                        ]
                        clauses.append(clause)
                        watches[clause[0]].append(clause)
                        watches[clause[1]].append(clause)
                        continue
                elif size == 3:
                    a, b, c = lits
                    x, y, z = abs(a), abs(b), abs(c)
                    if x != y and y != z and z != x:
                        clause = [
                            2 * a - 2 if a > 0 else -2 * a - 1,
                            2 * b - 2 if b > 0 else -2 * b - 1,
                            2 * c - 2 if c > 0 else -2 * c - 1,
                        ]
                        clauses.append(clause)
                        watches[clause[0]].append(clause)
                        watches[clause[1]].append(clause)
                        continue
            if not self.add_clause(lits):
                return False
            fresh = not trail
        return True

    # ------------------------------------------------------------------
    # Assignment machinery
    # ------------------------------------------------------------------
    def _attach(self, clause: List[int]) -> None:
        # watches[l] holds the clauses in which literal l is watched.
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    def _assign(self, ilit: int, reason: Optional[List[int]]) -> None:
        """Make the unassigned literal ``ilit`` true at the current level."""
        values = self._values
        values[ilit] = 1
        values[ilit ^ 1] = 0
        var = ilit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(ilit)

    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation; returns the conflicting clause or None.

        A clause in ``watches[l]`` has ``l`` as its literal 0 or 1.  When
        ``l`` becomes false the clause is swapped so that ``l`` is literal
        1, then kept if literal 0 is true, moved to the first literal from
        index 2 on that is not false, or else kept and either assigns
        literal 0 or is the conflict."""
        trail = self._trail
        values = self._values
        watches = self._watches
        level = self._level
        reason = self._reason
        depth = len(self._trail_lim)
        qhead = start = self._qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watchlist = iter(watches[false_lit])
            kept: List[List[int]] = []
            keep = kept.append
            for clause in watchlist:
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                val = values[first]
                if val == 1:
                    keep(clause)
                    continue
                size = len(clause)
                if size == 3:
                    lit = clause[2]
                    if values[lit]:  # true or unassigned: watch it
                        clause[1] = lit
                        clause[2] = false_lit
                        watches[lit].append(clause)
                        continue
                elif size > 3:
                    moved = False
                    for k in range(2, size):
                        lit = clause[k]
                        if values[lit]:
                            clause[1] = lit
                            clause[k] = false_lit
                            watches[lit].append(clause)
                            moved = True
                            break
                    if moved:
                        continue
                keep(clause)
                if val == 0:
                    # Conflict: keep the remaining watches and report.
                    kept.extend(watchlist)
                    watches[false_lit] = kept
                    self._qhead = len(trail)
                    self.num_propagations += qhead - start
                    return clause
                values[first] = 1
                values[first ^ 1] = 0
                var = first >> 1
                level[var] = depth
                reason[var] = clause
                trail.append(first)
            watches[false_lit] = kept
        self._qhead = qhead
        self.num_propagations += qhead - start
        return None

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def _rescale(self) -> None:
        """Scale every activity and the bump increment by 1e-100, and
        re-key the heap so it orders by the scaled activities."""
        activity = self._activity
        for var in range(self._num_vars):
            activity[var] *= 1e-100
        self._var_inc *= 1e-100
        values = self._values
        queued = self._queued
        heap = self._heap
        heap.clear()
        for var in range(self._num_vars):
            queued[var] = values[2 * var] == _UNASSIGNED
            if queued[var]:
                heap.append((-activity[var], var))
        heapify(heap)

    def _analyze(self, conflict: List[int]) -> tuple:
        """1UIP learning. Returns (learned clause, backtrack level).

        Every variable met at a level above 0 is bumped once.  The learned
        clause is the negated UIP followed by the lower-level literals in
        the order they were met, with the first one of the highest of
        those levels swapped into position 1."""
        seen = self._seen
        level = self._level
        activity = self._activity
        heap = self._heap
        queued = self._queued
        trail = self._trail
        depth = len(self._trail_lim)
        var_inc = self._var_inc
        learned: List[int] = [0]  # placeholder for the asserting literal
        counter = 0
        index = len(trail) - 1
        reason: List[int] = conflict
        start = 0
        while True:
            for k in range(start, len(reason)):
                q = reason[k]
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    act = activity[var] + var_inc
                    activity[var] = act
                    if act > 1e100:
                        self._rescale()
                        var_inc = self._var_inc
                        act = activity[var]
                    heappush(heap, (-act, var))
                    queued[var] = True
                    if level[var] == depth:
                        counter += 1
                    else:
                        learned.append(q)
            while True:
                p = trail[index]
                index -= 1
                if seen[p >> 1]:
                    break
            counter -= 1
            seen[p >> 1] = False
            if counter == 0:
                break
            reason = self._reason[p >> 1]
            # Put p first so the skip (start=1) drops it from resolution.
            if reason[0] != p:
                reason = [p] + [lit for lit in reason if lit != p]
            start = 1
        for k in range(1, len(learned)):
            seen[learned[k] >> 1] = False
        learned[0] = p ^ 1
        if len(learned) == 1:
            bt_level = 0
        else:
            # Second-highest level among learned literals.
            max_i = 1
            bt_level = level[learned[1] >> 1]
            for k in range(2, len(learned)):
                lit_level = level[learned[k] >> 1]
                if lit_level > bt_level:
                    max_i, bt_level = k, lit_level
            learned[1], learned[max_i] = learned[max_i], learned[1]
        self._var_inc = var_inc / self._var_decay
        return learned, bt_level

    def _backtrack(self, level: int) -> None:
        """Undo every level above ``level``, saving each variable's phase
        and giving it a heap entry again unless it has a current one."""
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        values = self._values
        phase = self._phase
        activity = self._activity
        heap = self._heap
        queued = self._queued
        limit = trail_lim[level]
        for i in range(len(trail) - 1, limit - 1, -1):
            ilit = trail[i]
            var = ilit >> 1
            phase[var] = ilit
            values[ilit] = _UNASSIGNED
            values[ilit ^ 1] = _UNASSIGNED
            if not queued[var]:
                heappush(heap, (-activity[var], var))
                queued[var] = True
        del trail[limit:]
        del trail_lim[level:]
        self._qhead = limit

    def _pick_branch_var(self) -> Optional[int]:
        """The unassigned variable of highest activity, lowest index on
        ties; None when every variable is assigned."""
        heap = self._heap
        values = self._values
        queued = self._queued
        while heap:
            var = heappop(heap)[1]
            queued[var] = False
            if values[2 * var] == _UNASSIGNED:
                return var
        for var in range(self._num_vars):
            if values[2 * var] == _UNASSIGNED:
                return var
        return None

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Decide satisfiability under the given external assumption literals."""
        if not self._ok:
            return False
        self._backtrack(0)
        if self._propagate() is not None:
            self._ok = False
            return False
        internal_assumptions = []
        for lit in assumptions:
            self.ensure_vars(abs(lit))
            internal_assumptions.append(self._to_internal(lit))
        num_assumed = len(internal_assumptions)
        trail = self._trail
        trail_lim = self._trail_lim
        values = self._values
        level = self._level
        reason = self._reason
        phase = self._phase
        propagate = self._propagate
        restart = 1
        budget = 100 * luby(restart)
        conflicts_here = 0
        while True:
            conflict = propagate()
            depth = len(trail_lim)
            if conflict is not None:
                self.num_conflicts += 1
                conflicts_here += 1
                if depth == 0:
                    self._ok = False
                    return False
                if depth <= num_assumed:
                    # Conflict forced by the assumptions alone.
                    self._backtrack(0)
                    return False
                learned, bt_level = self._analyze(conflict)
                bt_level = max(bt_level, num_assumed)
                if bt_level >= depth:
                    bt_level = depth - 1
                self._backtrack(bt_level)
                if len(learned) == 1:
                    self._backtrack(0)
                    self._assign(learned[0], None)
                else:
                    self._learned.append(learned)
                    self._attach(learned)
                    self._assign(learned[0], learned)
                if conflicts_here >= budget and len(trail_lim) > num_assumed:
                    self._backtrack(num_assumed)
                    restart += 1
                    budget = 100 * luby(restart)
                    conflicts_here = 0
                continue
            # Assumption decisions first.
            if depth < num_assumed:
                ilit = internal_assumptions[depth]
                val = values[ilit]
                if val == 0:
                    self._backtrack(0)
                    return False
                trail_lim.append(len(trail))
                if val == _UNASSIGNED:
                    self._assign(ilit, None)
                continue
            var = self._pick_branch_var()
            if var is None:
                return True
            self.num_decisions += 1
            trail_lim.append(len(trail))
            ilit = phase[var]
            values[ilit] = 1
            values[ilit ^ 1] = 0
            level[var] = depth + 1
            reason[var] = None
            trail.append(ilit)

    def model(self) -> Dict[int, bool]:
        """The satisfying assignment found by the last successful solve()."""
        values = self._values
        return {
            var + 1: values[2 * var] == 1
            for var in range(self._num_vars)
            if values[2 * var] != _UNASSIGNED
        }


def solve_cnf(cnf: Cnf, assumptions: Sequence[int] = ()) -> Optional[Dict[int, bool]]:
    """One-shot convenience: returns a model dict or None if unsatisfiable."""
    solver = SatSolver()
    if not solver.add_cnf(cnf):
        return None
    if not solver.solve(assumptions):
        return None
    model = solver.model()
    for var in range(1, cnf.num_vars + 1):
        model.setdefault(var, False)
    return model
