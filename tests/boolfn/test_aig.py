import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolfn import Aig, CONST0, CONST1, SatSolver
from repro.boolfn.aig import SIG_LANES

#: The low 64 lanes of every signature: one 64-bit draw per variable from
#: ``random.Random(sig_seed)``.
LOW_LANES = (1 << 64) - 1


@pytest.fixture
def aig():
    return Aig()


class TestConstruction:
    def test_constants(self, aig):
        assert aig.and_(CONST0, aig.var("x")) == CONST0
        assert aig.and_(CONST1, aig.var("x")) == aig.var("x")

    def test_idempotence_and_complement(self, aig):
        x = aig.var("x")
        assert aig.and_(x, x) == x
        assert aig.and_(x, aig.not_(x)) == CONST0

    def test_structural_hashing(self, aig):
        x, y = aig.var("x"), aig.var("y")
        assert aig.and_(x, y) == aig.and_(y, x)
        before = aig.num_nodes
        aig.and_(x, y)
        assert aig.num_nodes == before

    def test_var_identity(self, aig):
        assert aig.var("x") == aig.var("x")
        assert aig.var("x") != aig.var("y")
        assert aig.is_var(aig.var("x"))
        assert not aig.is_var(aig.and_(aig.var("x"), aig.var("y")))

    def test_double_negation(self, aig):
        x = aig.var("x")
        assert aig.not_(aig.not_(x)) == x


class TestSemantics:
    def test_or_xor_ite(self, aig):
        x, y, z = aig.var("x"), aig.var("y"), aig.var("z")
        f_or = aig.or_(x, y)
        f_xor = aig.xor_(x, y)
        f_ite = aig.ite(x, y, z)
        for vx, vy, vz in itertools.product([False, True], repeat=3):
            env = {"x": vx, "y": vy, "z": vz}
            assert aig.evaluate(f_or, env) == (vx or vy)
            assert aig.evaluate(f_xor, env) == (vx != vy)
            assert aig.evaluate(f_ite, env) == (vy if vx else vz)

    def test_constants_evaluate(self, aig):
        assert aig.evaluate(CONST1, {}) is True
        assert aig.evaluate(CONST0, {}) is False

    def test_support_and_cone(self, aig):
        x, y = aig.var("x"), aig.var("y")
        aig.var("z")
        f = aig.and_(x, aig.not_(y))
        assert aig.support(f) == ["x", "y"]
        assert aig.cone_size(f) == 1

    def test_and_many_or_many(self, aig):
        vs = [aig.var(n) for n in "abc"]
        f = aig.and_many(vs)
        assert aig.evaluate(f, {"a": True, "b": True, "c": True})
        assert not aig.evaluate(f, {"a": False, "b": True, "c": True})
        g = aig.or_many(vs)
        assert not aig.evaluate(g, {"a": False, "b": False, "c": False})


class TestSatInterface:
    def test_sat_one_model_valid(self, aig):
        x, y = aig.var("x"), aig.var("y")
        f = aig.and_(aig.xor_(x, y), x)
        model = aig.sat_one(f)
        assert model is not None
        assert aig.evaluate(f, {**{"x": False, "y": False}, **model})

    def test_sat_one_unsat(self, aig):
        x = aig.var("x")
        assert aig.sat_one(aig.and_(x, aig.not_(x))) is None

    def test_sat_one_constants(self, aig):
        assert aig.sat_one(CONST0) is None
        assert aig.sat_one(CONST1) == {}

    def test_is_tautology(self, aig):
        x = aig.var("x")
        assert aig.is_tautology(aig.or_(x, aig.not_(x)))
        assert not aig.is_tautology(x)

    def test_equiv_semantic(self, aig):
        x, y = aig.var("x"), aig.var("y")
        # De Morgan: ~(x & y) == ~x | ~y — different structure, same function
        left = aig.not_(aig.and_(x, y))
        right = aig.or_(aig.not_(x), aig.not_(y))
        assert aig.equiv(left, right)
        assert not aig.equiv(x, y)
        assert not aig.equiv(x, aig.not_(x))

    def test_tseitin_cnf_consistent(self, aig):
        x, y, z = aig.var("x"), aig.var("y"), aig.var("z")
        f = aig.or_(aig.and_(x, y), aig.not_(z))
        cnf, lit_map, name_var = aig.to_cnf([f])
        from repro.boolfn import solve_cnf

        # Force f true, check model satisfies the original function.
        cnf.add_clause([lit_map[f]])
        model = solve_cnf(cnf)
        assert model is not None
        env = {
            name: model[var] for name, var in name_var.items()
        }
        for name in ("x", "y", "z"):
            env.setdefault(name, False)
        assert aig.evaluate(f, env)


class TestSignatures:
    def test_signatures_distinguish_most_functions(self, aig):
        x, y = aig.var("x"), aig.var("y")
        assert aig.lit_sig(x) != aig.lit_sig(y)
        mask = (1 << SIG_LANES) - 1
        assert aig.lit_sig(x) == (~aig.lit_sig(aig.not_(x))) & mask

    def test_signature_of_equal_structures_match(self, aig):
        x, y = aig.var("x"), aig.var("y")
        assert aig.lit_sig(aig.and_(x, y)) == aig.lit_sig(aig.and_(y, x))

    def test_low_lanes_follow_the_seed_stream(self):
        aig = Aig(sig_seed=7)
        stream = random.Random(7)
        for name in "abcdef":
            low = aig.lit_sig(aig.var(name)) & LOW_LANES
            assert low == stream.getrandbits(64)

    def test_high_lane_witness_needs_no_solver(self, aig, monkeypatch):
        lits = [aig.var(f"x{i}") for i in range(16)]
        # The minterm of lane 64's assignment: true on lane 64, and on no
        # low lane unless one drew the same 16 bits.
        f = aig.and_many([
            lit if (aig.lit_sig(lit) >> 64) & 1 else aig.not_(lit)
            for lit in lits
        ])
        assert aig.lit_sig(f) & LOW_LANES == 0
        assert (aig.lit_sig(f) >> 64) & 1

        def no_solve(self, assumptions=()):
            raise AssertionError("CDCL ran on a signature-answered probe")

        monkeypatch.setattr(SatSolver, "solve", no_solve)
        model = aig.sat_one(f)
        assert model is not None
        assert aig.evaluate(f, model)

    def test_witness_is_read_off_the_lowest_set_lane(self, aig):
        lits = [aig.var(name) for name in "abcd"]
        f = aig.and_many(lits[:3])
        sig = aig.lit_sig(f)
        lane = (sig & -sig).bit_length() - 1
        assert sig & LOW_LANES and lane < 64
        assert aig.sat_one(f) == {
            name: bool((aig.lit_sig(lit) >> lane) & 1)
            for name, lit in zip("abcd", lits)
        }


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_aig_matches_truth_table(data):
    aig = Aig()
    names = ["a", "b", "c"]
    variables = {n: aig.var(n) for n in names}

    def build(depth):
        op = data.draw(st.sampled_from(["var", "and", "or", "xor", "not"]))
        if depth == 0 or op == "var":
            name = data.draw(st.sampled_from(names))
            return variables[name], lambda env, n=name: env[n]
        if op == "not":
            f, ef = build(depth - 1)
            return aig.not_(f), lambda env: not ef(env)
        f, ef = build(depth - 1)
        g, eg = build(depth - 1)
        if op == "and":
            return aig.and_(f, g), lambda env: ef(env) and eg(env)
        if op == "or":
            return aig.or_(f, g), lambda env: ef(env) or eg(env)
        return aig.xor_(f, g), lambda env: ef(env) != eg(env)

    f, ef = build(4)
    for bits in itertools.product([False, True], repeat=3):
        env = dict(zip(names, bits))
        assert aig.evaluate(f, env) == ef(env)
