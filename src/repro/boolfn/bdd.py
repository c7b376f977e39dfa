"""Reduced, ordered binary decision diagrams (Bryant [4]).

One of the two Boolean-function engines used by the symbolic delay
computations (Sec. V-G of the paper): "we could have used reduced, ordered
Binary Decision Diagram representations for these functions".  The manager
uses a unique table for canonicity and raises :class:`BddOverflow` past a
configurable node budget so the caller can fall back to the SAT engine (the
paper's multiplier pragmatics).

Nodes are small integers: ``0`` is FALSE, ``1`` is TRUE; internal nodes index
parallel arrays.  Variable order is creation order.

Each operator has its own memoised recursion (Bryant's apply): ``not_``,
``and_``, ``or_`` and ``xor_``, each with its own terminal cases and its own
computed table of finished results.  The binary tables are keyed on the
ordered argument pair, so ``and_(f, g)`` and ``and_(g, f)`` share one entry.
``xnor_``, ``implies`` and ``ite`` are built from them.

There are no complement edges.  They would make ``not_`` constant-time and
roughly halve the node count, but every apply step would then carry the
edges' parity bookkeeping; in pure Python that cost more per step than the
fewer steps saved, and the what-if, Table II/III and certification workloads
all ran slower with them.  Without them a negation is one memoised walk,
whose entries are stored both ways (``not_`` is an involution).

A manager can be returned to an earlier state: :meth:`BddManager.checkpoint`
records the lengths of the node arrays, the variable table, the unique table
and the computed tables, and :meth:`BddManager.rollback` drops everything
added since.  Nodes are only ever appended and table entries only ever
added, never changed, and dicts keep insertion order, so truncating the
arrays and popping the newest entries restores the recorded state exactly.  An ROBDD is canonical for a
fixed variable order, so functions built after a rollback have the same
graphs, ``sat_one`` paths and sizes as in a fresh manager with that order;
only their node numbers differ.  The what-if engine re-searches a cone on
one kept manager this way (``docs/INCREMENTAL.md`` §3).
"""

from __future__ import annotations

import sys
from typing import Dict, Iterator, List, Optional, Tuple

FALSE = 0
TRUE = 1
#: The terminals' level: below every variable's (a variable's level is
#: its index in creation order), so a walk that compares levels stops at
#: a terminal without a special case.
_TERMINAL_LEVEL = sys.maxsize


class BddOverflow(Exception):
    """Raised when the manager exceeds its node budget."""


class BddManager:
    """A shared-node ROBDD manager."""

    def __init__(self, max_nodes: Optional[int] = None):
        # Parallel node arrays; entries 0/1 are the terminals.
        self._var: List[int] = [_TERMINAL_LEVEL, _TERMINAL_LEVEL]
        self._lo: List[int] = [FALSE, TRUE]
        self._hi: List[int] = [FALSE, TRUE]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        # Computed tables: finished apply results per operator.
        self._not_cache: Dict[int, int] = {}
        self._and_cache: Dict[Tuple[int, int], int] = {}
        self._or_cache: Dict[Tuple[int, int], int] = {}
        self._xor_cache: Dict[Tuple[int, int], int] = {}
        self._names: List[str] = []
        self._name_to_index: Dict[str, int] = {}
        self.max_nodes = max_nodes
        #: Table lengths :meth:`rollback` returns to (see :meth:`checkpoint`).
        self._checkpoint: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------------
    # Checkpoint / rollback
    # ------------------------------------------------------------------
    def _tables(self) -> Tuple[dict, ...]:
        """The tables rollback pops: variable index, unique, computed."""
        return (
            self._name_to_index, self._unique, self._not_cache,
            self._and_cache, self._or_cache, self._xor_cache,
        )

    def checkpoint(self) -> None:
        """Record the current state for :meth:`rollback`: the lengths of
        the node arrays, the variable table, the unique table and the four
        computed tables."""
        self._checkpoint = (
            len(self._var), len(self._names),
            *(len(table) for table in self._tables()),
        )

    def rollback(self) -> None:
        """Drop every node, variable and table entry added since the last
        :meth:`checkpoint` (see the module docstring)."""
        nodes, names, *lengths = self._checkpoint
        for array in (self._var, self._lo, self._hi):
            del array[nodes:]
        del self._names[names:]
        for table, length in zip(self._tables(), lengths):
            for __ in range(len(table) - length):
                table.popitem()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._var)

    @property
    def num_vars(self) -> int:
        return len(self._names)

    def var(self, name: str) -> int:
        """The function of a single variable, creating it on first use."""
        if name in self._name_to_index:
            index = self._name_to_index[name]
        else:
            index = len(self._names)
            self._names.append(name)
            self._name_to_index[name] = index
        return self._mk(index, FALSE, TRUE)

    def var_name(self, index: int) -> str:
        return self._names[index]

    def has_var(self, name: str) -> bool:
        return name in self._name_to_index

    def _mk(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        node = self._unique.get(key)
        if node is not None:
            return node
        if self.max_nodes is not None and len(self._var) >= self.max_nodes:
            raise BddOverflow(f"BDD node budget of {self.max_nodes} exceeded")
        node = len(self._var)
        self._var.append(var)
        self._lo.append(lo)
        self._hi.append(hi)
        self._unique[key] = node
        return node

    # ------------------------------------------------------------------
    # Apply: one memoised recursion per operator
    # ------------------------------------------------------------------
    # Each binary recursion orders its arguments (the operators commute,
    # so one computed-table entry serves both orders) and answers its
    # terminal cases; both arguments are then internal nodes.  It splits
    # on the top variable of the two: an argument at that level
    # contributes its cofactors, the other passes through unchanged.

    def not_(self, f: int) -> int:
        if f <= TRUE:
            return TRUE - f
        result = self._not_cache.get(f)
        if result is not None:
            return result
        result = self._mk(
            self._var[f], self.not_(self._lo[f]), self.not_(self._hi[f])
        )
        self._not_cache[f] = result
        self._not_cache[result] = f
        return result

    def and_(self, f: int, g: int) -> int:
        if f > g:
            f, g = g, f
        if f == FALSE or f == g:
            return f
        if f == TRUE:
            return g
        key = (f, g)
        result = self._and_cache.get(key)
        if result is not None:
            return result
        var, lo, hi = self._var, self._lo, self._hi
        f_var, g_var = var[f], var[g]
        if f_var == g_var:
            result = self._mk(
                f_var, self.and_(lo[f], lo[g]), self.and_(hi[f], hi[g])
            )
        elif f_var < g_var:
            result = self._mk(f_var, self.and_(lo[f], g), self.and_(hi[f], g))
        else:
            result = self._mk(g_var, self.and_(f, lo[g]), self.and_(f, hi[g]))
        self._and_cache[key] = result
        return result

    def or_(self, f: int, g: int) -> int:
        if f > g:
            f, g = g, f
        if f == FALSE or f == g:
            return g
        if f == TRUE:
            return TRUE
        key = (f, g)
        result = self._or_cache.get(key)
        if result is not None:
            return result
        var, lo, hi = self._var, self._lo, self._hi
        f_var, g_var = var[f], var[g]
        if f_var == g_var:
            result = self._mk(
                f_var, self.or_(lo[f], lo[g]), self.or_(hi[f], hi[g])
            )
        elif f_var < g_var:
            result = self._mk(f_var, self.or_(lo[f], g), self.or_(hi[f], g))
        else:
            result = self._mk(g_var, self.or_(f, lo[g]), self.or_(f, hi[g]))
        self._or_cache[key] = result
        return result

    def xor_(self, f: int, g: int) -> int:
        if f > g:
            f, g = g, f
        if f == g:
            return FALSE
        if f == FALSE:
            return g
        if f == TRUE:
            return self.not_(g)
        key = (f, g)
        result = self._xor_cache.get(key)
        if result is not None:
            return result
        var, lo, hi = self._var, self._lo, self._hi
        f_var, g_var = var[f], var[g]
        if f_var == g_var:
            result = self._mk(
                f_var, self.xor_(lo[f], lo[g]), self.xor_(hi[f], hi[g])
            )
        elif f_var < g_var:
            result = self._mk(f_var, self.xor_(lo[f], g), self.xor_(hi[f], g))
        else:
            result = self._mk(g_var, self.xor_(f, lo[g]), self.xor_(f, hi[g]))
        self._xor_cache[key] = result
        return result

    def xnor_(self, f: int, g: int) -> int:
        return self.not_(self.xor_(f, g))

    def implies(self, f: int, g: int) -> int:
        return self.or_(self.not_(f), g)

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: f·g + f'·h."""
        return self.or_(self.and_(f, g), self.and_(self.not_(f), h))

    def and_many(self, fs) -> int:
        result = TRUE
        for f in fs:
            result = self.and_(result, f)
            if result == FALSE:
                break
        return result

    def or_many(self, fs) -> int:
        result = FALSE
        for f in fs:
            result = self.or_(result, f)
            if result == TRUE:
                break
        return result

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_tautology(self, f: int) -> bool:
        return f == TRUE

    def is_unsat(self, f: int) -> bool:
        return f == FALSE

    def equiv(self, f: int, g: int) -> bool:
        """Canonical form makes equivalence a pointer comparison."""
        return f == g

    def evaluate(self, f: int, assignment: Dict[str, bool]) -> bool:
        """Evaluate under a total assignment of the support variables."""
        node = f
        while node > TRUE:
            name = self._names[self._var[node]]
            node = self._hi[node] if assignment[name] else self._lo[node]
        return node == TRUE

    def sat_one(self, f: int) -> Optional[Dict[str, bool]]:
        """One satisfying assignment (over the variables on the chosen path),
        or None if ``f`` is FALSE."""
        if f == FALSE:
            return None
        assignment: Dict[str, bool] = {}
        node = f
        while node > TRUE:
            name = self._names[self._var[node]]
            if self._hi[node] != FALSE:
                assignment[name] = True
                node = self._hi[node]
            else:
                assignment[name] = False
                node = self._lo[node]
        return assignment

    def sat_count(self, f: int, num_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``num_vars`` total variables
        (default: all variables known to the manager)."""
        if num_vars is None:
            num_vars = len(self._names)
        cache: Dict[int, int] = {}

        def count(node: int) -> int:
            # Solutions over variables at levels >= node's level, given node.
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1
            if node in cache:
                return cache[node]
            level = self._var[node]
            lo, hi = self._lo[node], self._hi[node]
            result = count(lo) * (1 << (self._gap(node, lo, num_vars))) + count(
                hi
            ) * (1 << (self._gap(node, hi, num_vars)))
            cache[node] = result
            return result

        if f == TRUE:
            return 1 << num_vars
        if f == FALSE:
            return 0
        return count(f) << min(self._var[f], num_vars)

    def _gap(self, parent: int, child: int, num_vars: int) -> int:
        parent_level = self._var[parent]
        child_level = self._var[child] if child > TRUE else num_vars
        return child_level - parent_level - 1

    def support(self, f: int) -> List[str]:
        """Variable names the function structurally depends on."""
        seen = set()
        names = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            names.add(self._names[self._var[node]])
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return sorted(names)

    def size(self, f: int) -> int:
        """Number of internal nodes in the (shared) graph rooted at ``f``."""
        seen = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return len(seen)

    # ------------------------------------------------------------------
    # Substitution / quantification
    # ------------------------------------------------------------------
    def restrict(self, f: int, name: str, value: bool) -> int:
        """Cofactor with respect to variable ``name``."""
        if name not in self._name_to_index:
            return f
        target = self._name_to_index[name]
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if self._var[node] > target:
                return node
            if node in cache:
                return cache[node]
            if self._var[node] == target:
                result = self._hi[node] if value else self._lo[node]
            else:
                result = self._mk(
                    self._var[node], walk(self._lo[node]), walk(self._hi[node])
                )
            cache[node] = result
            return result

        return walk(f)

    def exists(self, f: int, names) -> int:
        """Existential quantification over an iterable of variable names."""
        result = f
        for name in names:
            lo = self.restrict(result, name, False)
            hi = self.restrict(result, name, True)
            result = self.or_(lo, hi)
        return result

    def forall(self, f: int, names) -> int:
        result = f
        for name in names:
            lo = self.restrict(result, name, False)
            hi = self.restrict(result, name, True)
            result = self.and_(lo, hi)
        return result

    def compose(self, f: int, name: str, g: int) -> int:
        """Substitute function ``g`` for variable ``name`` in ``f``."""
        var_node = self.var(name)
        lo = self.restrict(f, name, False)
        hi = self.restrict(f, name, True)
        del var_node
        return self.ite(g, hi, lo)

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def cubes(self, f: int) -> Iterator[Dict[str, bool]]:
        """Iterate the cubes (paths to TRUE) of ``f``."""

        def walk(node: int, partial: Dict[str, bool]) -> Iterator[Dict[str, bool]]:
            if node == FALSE:
                return
            if node == TRUE:
                yield dict(partial)
                return
            name = self._names[self._var[node]]
            partial[name] = False
            yield from walk(self._lo[node], partial)
            partial[name] = True
            yield from walk(self._hi[node], partial)
            del partial[name]

        yield from walk(f, {})
