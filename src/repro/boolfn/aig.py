"""Hash-consed AND-inverter graphs.

This is the "multilevel logic network" representation of Sec. V-G: symbolic
functions are kept as a shared network "not much larger than the circuit
itself" and satisfiability is decided with a SAT procedure rather than by
building canonical BDDs.  Two engineering touches make this practical:

* **structural hashing** with constant/idempotence/complement simplification
  at node creation, and
* **256-lane random simulation signatures** per node, so most disequality
  queries are refuted, and most satisfiable ones answered, without ever
  calling the SAT solver.

Literals are integers: node index ``i`` contributes literals ``2*i``
(positive) and ``2*i + 1`` (complemented).  Node 0 is the constant FALSE
node, hence ``CONST0 == 0`` and ``CONST1 == 1`` as literals.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from .cnf import Cnf
from .sat import SatSolver

CONST0 = 0
CONST1 = 1

#: Random-simulation lanes per signature.  Lane ``k`` of every variable's
#: signature is one random input assignment, so lane ``k`` of a node's
#: signature is the node's value under it.
SIG_LANES = 256

_SIG_MASK = (1 << SIG_LANES) - 1


class Aig:
    """An AND-inverter-graph manager with named input variables."""

    def __init__(self, sig_seed: int = 0xC0FFEE):
        # Node arrays. fanin arrays hold literals; variable nodes have (-1,-1).
        self._fanin0: List[int] = [-1]
        self._fanin1: List[int] = [-1]
        self._sig: List[int] = [0]
        self._strash: Dict[Tuple[int, int], int] = {}
        self._names: List[str] = []
        self._name_to_lit: Dict[str, int] = {}
        self._var_of_node: Dict[int, str] = {}
        # Lanes 0-63 of each variable come from one 64-bit draw of
        # ``_rng``, lanes 64 and up from ``_wide_rng``, both in variable
        # creation order.  So the low 64 lanes, and every witness read off
        # them, do not depend on SIG_LANES.
        self._rng = random.Random(sig_seed)
        self._wide_rng = random.Random(f"aig-lanes-64+:{sig_seed}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._fanin0)

    @property
    def var_names(self) -> List[str]:
        return list(self._names)

    def var(self, name: str) -> int:
        """Literal for input variable ``name`` (created on first use)."""
        lit = self._name_to_lit.get(name)
        if lit is not None:
            return lit
        node = len(self._fanin0)
        self._fanin0.append(-1)
        self._fanin1.append(-1)
        self._sig.append(
            self._rng.getrandbits(64)
            | (self._wide_rng.getrandbits(SIG_LANES - 64) << 64)
        )
        lit = 2 * node
        self._names.append(name)
        self._name_to_lit[name] = lit
        self._var_of_node[node] = name
        return lit

    def has_var(self, name: str) -> bool:
        return name in self._name_to_lit

    def is_var(self, lit: int) -> bool:
        return (lit >> 1) in self._var_of_node

    def lit_sig(self, lit: int) -> int:
        sig = self._sig[lit >> 1]
        return sig ^ _SIG_MASK if lit & 1 else sig

    def not_(self, lit: int) -> int:
        return lit ^ 1

    def and_(self, a: int, b: int) -> int:
        """Conjunction with structural hashing and local simplification."""
        if a > b:
            a, b = b, a
        if a == CONST0:
            return CONST0
        if a == CONST1:
            return b
        if a == b:
            return a
        if a == (b ^ 1):
            return CONST0
        key = (a, b)
        node = self._strash.get(key)
        if node is not None:
            return 2 * node
        node = len(self._fanin0)
        self._fanin0.append(a)
        self._fanin1.append(b)
        self._sig.append(self.lit_sig(a) & self.lit_sig(b))
        self._strash[key] = node
        return 2 * node

    def or_(self, a: int, b: int) -> int:
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor_(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, b ^ 1), self.and_(a ^ 1, b))

    def xnor_(self, a: int, b: int) -> int:
        return self.xor_(a, b) ^ 1

    def implies(self, a: int, b: int) -> int:
        return self.or_(a ^ 1, b)

    def ite(self, f: int, g: int, h: int) -> int:
        return self.or_(self.and_(f, g), self.and_(f ^ 1, h))

    def and_many(self, lits: Sequence[int]) -> int:
        result = CONST1
        for lit in lits:
            result = self.and_(result, lit)
            if result == CONST0:
                break
        return result

    def or_many(self, lits: Sequence[int]) -> int:
        result = CONST0
        for lit in lits:
            result = self.or_(result, lit)
            if result == CONST1:
                break
        return result

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, lit: int, assignment: Dict[str, bool]) -> bool:
        """Evaluate ``lit`` under a (total over its support) assignment."""
        cache: Dict[int, bool] = {0: False}
        stack = [lit >> 1]
        while stack:
            node = stack[-1]
            if node in cache:
                stack.pop()
                continue
            if node in self._var_of_node:
                cache[node] = bool(assignment[self._var_of_node[node]])
                stack.pop()
                continue
            f0, f1 = self._fanin0[node], self._fanin1[node]
            n0, n1 = f0 >> 1, f1 >> 1
            missing = [n for n in (n0, n1) if n not in cache]
            if missing:
                stack.extend(missing)
                continue
            v0 = cache[n0] ^ bool(f0 & 1)
            v1 = cache[n1] ^ bool(f1 & 1)
            cache[node] = v0 and v1
            stack.pop()
        return cache[lit >> 1] ^ bool(lit & 1)

    def support(self, lit: int) -> List[str]:
        """Input variable names in the structural support of ``lit``."""
        seen = set()
        names = set()
        stack = [lit >> 1]
        while stack:
            node = stack.pop()
            if node == 0 or node in seen:
                continue
            seen.add(node)
            name = self._var_of_node.get(node)
            if name is not None:
                names.add(name)
                continue
            stack.append(self._fanin0[node] >> 1)
            stack.append(self._fanin1[node] >> 1)
        return sorted(names)

    def cone_size(self, lit: int) -> int:
        """Number of AND nodes in the cone of ``lit``."""
        seen = set()
        stack = [lit >> 1]
        count = 0
        while stack:
            node = stack.pop()
            if node == 0 or node in seen or node in self._var_of_node:
                continue
            seen.add(node)
            count += 1
            stack.append(self._fanin0[node] >> 1)
            stack.append(self._fanin1[node] >> 1)
        return count

    # ------------------------------------------------------------------
    # SAT interface (Tseitin)
    # ------------------------------------------------------------------
    def to_cnf(self, lits: Sequence[int]) -> Tuple[Cnf, Dict[int, int], Dict[str, int]]:
        """Tseitin-encode the cones of ``lits``.

        Returns ``(cnf, lit_to_cnfvar, varname_to_cnfvar)``: the CNF contains
        the functional constraints of every AND node in the cones;
        ``lit_to_cnfvar[l]`` is the *signed* CNF literal equivalent to AIG
        literal ``l``.

        CNF variable ``i`` is the ``i``-th cone node in index (topological)
        order, after one constant variable if a literal in ``lits`` is a
        constant.  Node ``n = a & b`` contributes ``(-n, a)``, ``(-n, b)``,
        ``(n, -a, -b)`` in node order.  :meth:`and_` folds constants away,
        so no AND node has a constant fanin.
        """
        fanin0, fanin1 = self._fanin0, self._fanin1
        # Collect cone nodes in topological (index) order.  Variable nodes
        # (and the constant node 0) have fanin -1.
        seen = set()
        stack = [lit >> 1 for lit in lits]
        cone: List[int] = []
        while stack:
            node = stack.pop()
            if node == 0 or node in seen:
                continue
            seen.add(node)
            cone.append(node)
            f0 = fanin0[node]
            if f0 >= 0:
                stack.append(f0 >> 1)
                stack.append(fanin1[node] >> 1)
        cone.sort()

        const_var = 1 if any(lit in (CONST0, CONST1) for lit in lits) else 0
        cnf = Cnf(const_var + len(cone))
        # Every literal below is a variable allocated here, so the clauses
        # are appended without Cnf.add_clause's range checks.
        clauses = cnf.clauses
        if const_var:
            clauses.append((const_var,))  # const_var == TRUE
        node_var = {node: var for var, node in enumerate(cone, const_var + 1)}
        var_of_node = self._var_of_node
        name_var = {
            var_of_node[node]: var for node, var in node_var.items()
            if fanin0[node] < 0
        }
        for node in cone:
            f0 = fanin0[node]
            if f0 < 0:
                continue
            out = node_var[node]
            a = node_var[f0 >> 1]
            if f0 & 1:
                a = -a
            f1 = fanin1[node]
            b = node_var[f1 >> 1]
            if f1 & 1:
                b = -b
            clauses.append((-out, a))
            clauses.append((-out, b))
            clauses.append((out, -a, -b))

        lit_map: Dict[int, int] = {}
        for lit in lits:
            if lit == CONST0:
                lit_map[lit] = -const_var
            elif lit == CONST1:
                lit_map[lit] = const_var
            else:
                var = node_var[lit >> 1]
                lit_map[lit] = -var if lit & 1 else var
        return cnf, lit_map, name_var

    def sat_one(self, lit: int) -> Optional[Dict[str, bool]]:
        """A satisfying assignment of ``lit`` over its support, or None.

        Fast path: each of the :data:`SIG_LANES` signature lanes is a
        concrete random input assignment, so a non-zero signature *is* a
        witness — the CDCL solver only runs when random simulation found
        none.  The witness is read off the lowest set lane.
        """
        if lit == CONST0:
            return None
        if lit == CONST1:
            return {}
        sig = self.lit_sig(lit)
        if sig:
            bit = (sig & -sig).bit_length() - 1
            # Read the witness assignment straight off the signature lane
            # for every variable (a superset of the support, and O(vars)
            # instead of a cone walk).
            return {
                name: bool((self._sig[var_lit >> 1] >> bit) & 1)
                for name, var_lit in self._name_to_lit.items()
            }
        cnf, lit_map, name_var = self.to_cnf([lit])
        cnf.add_clause([lit_map[lit]])
        solver = SatSolver()
        if not solver.add_cnf(cnf):
            return None
        if not solver.solve():
            return None
        model = solver.model()
        return {
            name: model.get(var, False) for name, var in name_var.items()
        }

    def is_tautology(self, lit: int) -> bool:
        return self.sat_one(lit ^ 1) is None

    def equiv(self, a: int, b: int) -> bool:
        """Semantic equivalence: structural fast path, then signature
        refutation, then a SAT check on the XOR miter."""
        if a == b:
            return True
        if self.lit_sig(a) != self.lit_sig(b):
            return False
        return self.sat_one(self.xor_(a, b)) is None
