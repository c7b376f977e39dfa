import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolfn import BddManager, BddOverflow, FALSE, TRUE


@pytest.fixture
def mgr():
    return BddManager()


class TestBasicOperations:
    def test_terminals(self, mgr):
        assert mgr.is_unsat(FALSE)
        assert mgr.is_tautology(TRUE)

    def test_var_and_not(self, mgr):
        a = mgr.var("a")
        assert mgr.evaluate(a, {"a": True})
        assert not mgr.evaluate(a, {"a": False})
        na = mgr.not_(a)
        assert mgr.evaluate(na, {"a": False})
        assert mgr.not_(na) == a

    def test_var_is_idempotent(self, mgr):
        assert mgr.var("a") == mgr.var("a")

    def test_and_or_truth_tables(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f_and, f_or = mgr.and_(a, b), mgr.or_(a, b)
        for va, vb in itertools.product([False, True], repeat=2):
            env = {"a": va, "b": vb}
            assert mgr.evaluate(f_and, env) == (va and vb)
            assert mgr.evaluate(f_or, env) == (va or vb)

    def test_xor_xnor_implies(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        for va, vb in itertools.product([False, True], repeat=2):
            env = {"a": va, "b": vb}
            assert mgr.evaluate(mgr.xor_(a, b), env) == (va != vb)
            assert mgr.evaluate(mgr.xnor_(a, b), env) == (va == vb)
            assert mgr.evaluate(mgr.implies(a, b), env) == ((not va) or vb)

    def test_canonicity(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        left = mgr.or_(mgr.and_(a, b), mgr.and_(a, mgr.not_(b)))
        assert left == a  # absorption reduces to the variable itself

    def test_complement_laws(self, mgr):
        a = mgr.var("a")
        assert mgr.and_(a, mgr.not_(a)) == FALSE
        assert mgr.or_(a, mgr.not_(a)) == TRUE

    def test_and_many_or_many(self, mgr):
        vs = [mgr.var(n) for n in "abc"]
        f = mgr.and_many(vs)
        assert mgr.evaluate(f, {"a": True, "b": True, "c": True})
        assert not mgr.evaluate(f, {"a": True, "b": False, "c": True})
        g = mgr.or_many(vs)
        assert mgr.evaluate(g, {"a": False, "b": False, "c": True})


class TestQueries:
    def test_sat_one_respects_function(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = mgr.and_(mgr.xor_(a, b), c)
        model = mgr.sat_one(f)
        full = {"a": False, "b": False, "c": False}
        full.update(model)
        assert mgr.evaluate(f, full)

    def test_sat_one_of_false(self, mgr):
        assert mgr.sat_one(FALSE) is None

    def test_sat_count(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        assert mgr.sat_count(mgr.and_(a, b), 3) == 2
        assert mgr.sat_count(mgr.or_(a, mgr.and_(b, c)), 3) == 5
        assert mgr.sat_count(TRUE, 3) == 8
        assert mgr.sat_count(FALSE, 3) == 0

    def test_support(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        mgr.var("c")
        assert mgr.support(mgr.and_(a, b)) == ["a", "b"]

    def test_size(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.size(mgr.and_(a, b)) == 2
        assert mgr.size(TRUE) == 0

    def test_cubes_cover_onset(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.or_(a, b)
        minterms = set()
        for cube in mgr.cubes(f):
            free = [v for v in ("a", "b") if v not in cube]
            for bits in itertools.product([False, True], repeat=len(free)):
                full = dict(cube)
                full.update(zip(free, bits))
                minterms.add((full["a"], full["b"]))
        assert minterms == {(True, False), (False, True), (True, True)}


class TestSubstitution:
    def test_restrict(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.and_(a, b)
        assert mgr.restrict(f, "a", True) == b
        assert mgr.restrict(f, "a", False) == FALSE

    def test_restrict_unknown_var_is_noop(self, mgr):
        a = mgr.var("a")
        assert mgr.restrict(a, "zz", True) == a

    def test_exists_forall(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.and_(a, b)
        assert mgr.exists(f, ["a"]) == b
        assert mgr.forall(f, ["a"]) == FALSE
        assert mgr.forall(mgr.or_(a, b), ["a"]) == b

    def test_compose(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        f = mgr.and_(a, b)
        g = mgr.compose(f, "a", mgr.or_(a, c))
        expected = mgr.and_(mgr.or_(a, c), b)
        assert g == expected


class TestOverflow:
    def test_node_budget(self):
        small = BddManager(max_nodes=8)
        with pytest.raises(BddOverflow):
            f = FALSE
            for i in range(10):
                f = small.or_(f, small.and_(small.var(f"a{i}"), small.var(f"b{i}")))


NAMES = ["a", "b", "c", "d", "e"]
#: Row ``r`` of a truth table assigns NAMES[i] bit ``len(NAMES) - 1 - i``
#: of ``r``.
BITS = {name: 1 << (len(NAMES) - 1 - i) for i, name in enumerate(NAMES)}
ROWS = range(1 << len(NAMES))
ENVS = [{name: bool(r & bit) for name, bit in BITS.items()} for r in ROWS]
METHODS = {
    "not": "not_", "and": "and_", "or": "or_", "xor": "xor_",
    "xnor": "xnor_", "implies": "implies", "ite": "ite",
}
expressions = st.recursive(
    st.sampled_from(NAMES),
    lambda sub: st.one_of(
        st.tuples(st.just("not"), sub),
        st.tuples(
            st.sampled_from(["and", "or", "xor", "xnor", "implies"]), sub, sub
        ),
        st.tuples(st.just("ite"), sub, sub, sub),
    ),
    max_leaves=16,
)


def value(expr, env) -> bool:
    if isinstance(expr, str):
        return env[expr]
    op, *args = expr
    x = [value(arg, env) for arg in args]
    if op == "not":
        return not x[0]
    if op == "and":
        return x[0] and x[1]
    if op == "or":
        return x[0] or x[1]
    if op == "xor":
        return x[0] != x[1]
    if op == "xnor":
        return x[0] == x[1]
    if op == "implies":
        return (not x[0]) or x[1]
    return x[1] if x[0] else x[2]


def build(mgr, expr) -> int:
    if isinstance(expr, str):
        return mgr.var(expr)
    op, *args = expr
    return getattr(mgr, METHODS[op])(*(build(mgr, arg) for arg in args))


def subexpressions(expr):
    yield expr
    if not isinstance(expr, str):
        for arg in expr[1:]:
            yield from subexpressions(arg)


def table_of(mgr, f):
    return [mgr.evaluate(f, env) for env in ENVS]


def greedy_witness(table):
    """``sat_one``'s rule by brute force over a truth table: fix the
    lowest-index variable the remaining function depends on, True when
    that leaves it satisfiable, until the function is constant."""
    if not any(table):
        return None
    model = {}
    rows = list(ROWS)
    while True:
        support = [
            name for name in NAMES
            if name not in model
            and any(table[r] != table[r ^ BITS[name]] for r in rows)
        ]
        if not support:
            return model
        name = support[0]
        high = [r for r in rows if r & BITS[name]]
        model[name] = any(table[r] for r in high)
        rows = high if model[name] else [r for r in rows if not r & BITS[name]]


@settings(max_examples=100, deadline=None)
@given(expressions, st.integers(min_value=2, max_value=48))
def test_random_expressions_match_truth_table(expr, budget):
    mgr = BddManager()
    for name in NAMES:
        mgr.var(name)
    for sub in subexpressions(expr):
        f = build(mgr, sub)
        table = [value(sub, env) for env in ENVS]
        assert table_of(mgr, f) == table
        # Canonicity: the same function built another way is the same
        # handle.
        assert mgr.not_(mgr.not_(f)) == f
        if not isinstance(sub, str) and len(sub) == 3:
            g, h = build(mgr, sub[1]), build(mgr, sub[2])
            for op in ("and_", "or_", "xor_", "xnor_"):
                assert getattr(mgr, op)(g, h) == getattr(mgr, op)(h, g)
            assert mgr.or_(g, h) == mgr.not_(
                mgr.and_(mgr.not_(g), mgr.not_(h))
            )
            assert mgr.xor_(g, h) == mgr.or_(
                mgr.and_(g, mgr.not_(h)), mgr.and_(mgr.not_(g), h)
            )
        # The witness rule the golden certificates depend on.
        assert mgr.sat_one(f) == greedy_witness(table)

    f = build(mgr, expr)
    table = [value(expr, env) for env in ENVS]
    assert mgr.sat_count(f) == sum(table)
    for name, bit in BITS.items():
        low = [table[r & ~bit] for r in ROWS]
        high = [table[r | bit] for r in ROWS]
        assert table_of(mgr, mgr.restrict(f, name, False)) == low
        assert table_of(mgr, mgr.restrict(f, name, True)) == high
        assert table_of(mgr, mgr.exists(f, [name])) == [
            lo or hi for lo, hi in zip(low, high)
        ]
        assert table_of(mgr, mgr.forall(f, [name])) == [
            lo and hi for lo, hi in zip(low, high)
        ]
    assert mgr.exists(f, NAMES) == (TRUE if any(table) else FALSE)
    assert mgr.forall(f, NAMES) == (TRUE if all(table) else FALSE)

    # Node budget: a capped manager building the same function holds at
    # most ``budget`` nodes, and overflows exactly when the uncapped one
    # needs more.
    reference = BddManager()
    for name in NAMES:
        reference.var(name)
    build(reference, expr)
    capped = BddManager(max_nodes=budget)
    try:
        for name in NAMES:
            capped.var(name)
        build(capped, expr)
    except BddOverflow:
        assert reference.num_nodes > budget
        assert capped.num_nodes == budget
    else:
        assert capped.num_nodes == reference.num_nodes <= budget


def tables(mgr):
    """Copies of the node arrays, the variable table, the unique table
    and the computed tables, each dict as its items in insertion order."""
    return (
        list(mgr._var), list(mgr._lo), list(mgr._hi), list(mgr._names),
        *(list(table.items()) for table in (
            mgr._name_to_index, mgr._unique, mgr._not_cache,
            mgr._and_cache, mgr._or_cache, mgr._xor_cache,
        )),
    )


def fresh_manager():
    mgr = BddManager()
    for name in NAMES:
        mgr.var(name)
    return mgr


class TestCheckpoint:
    def test_rollback_restores_the_checkpoint(self):
        mgr = fresh_manager()
        a, b, c = (mgr.var(name) for name in "abc")
        kept = mgr.or_(mgr.and_(a, b), mgr.not_(c))
        mgr.checkpoint()
        checkpointed = tables(mgr)
        for attempt in range(2):
            late = mgr.var(f"late{attempt}")
            mgr.xor_(mgr.and_(kept, late), mgr.or_(a, mgr.not_(late)))
            # Entries over old nodes only, and not_ entries both ways.
            mgr.and_(kept, mgr.not_(a))
            mgr.not_(mgr.not_(kept))
            assert tables(mgr) != checkpointed
            mgr.rollback()
            assert tables(mgr) == checkpointed
            assert not mgr.has_var(f"late{attempt}")


@settings(max_examples=60, deadline=None)
@given(expressions, expressions)
def test_functions_rebuilt_after_rollback_match_a_fresh_manager(kept, expr):
    """A manager holding ``kept`` at its checkpoint and rolled back after
    building ``expr`` builds ``expr`` again into the graph a fresh manager
    builds: the same ``sat_one`` path, size and support (only node numbers
    differ)."""
    mgr = fresh_manager()
    build(mgr, kept)
    mgr.checkpoint()
    build(mgr, expr)
    mgr.rollback()
    again = build(mgr, expr)
    reference = fresh_manager()
    f = build(reference, expr)
    assert mgr.sat_one(again) == reference.sat_one(f)
    assert mgr.size(again) == reference.size(f)
    assert mgr.support(again) == reference.support(f)
    assert table_of(mgr, again) == table_of(reference, f)
