import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolfn import Cnf, SatSolver, luby, solve_cnf


def satisfies(model, clauses) -> bool:
    return all(
        any(model[abs(lit)] == (lit > 0) for lit in clause)
        for clause in clauses
    )


class TestLuby:
    def test_prefix(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [luby(i) for i in range(1, 16)] == expected

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            luby(0)

    def test_powers_at_boundaries(self):
        # The (2^k - 1)-th element is 2^(k-1).
        for k in range(1, 10):
            assert luby((1 << k) - 1) == 1 << (k - 1)


class TestBasicSolving:
    def test_empty_problem_is_sat(self):
        assert SatSolver().solve()

    def test_unit_propagation(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a])
        s.add_clause([-a, b])
        assert s.solve()
        model = s.model()
        assert model[a] and model[b]

    def test_simple_unsat(self):
        s = SatSolver()
        a = s.new_var()
        s.add_clause([a])
        assert not s.add_clause([-a]) or not s.solve()

    def test_unsat_requires_search(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        for clause in ([a, b], [a, -b], [-a, b], [-a, -b]):
            s.add_clause(clause)
        assert not s.solve()

    def test_tautological_clause_ignored(self):
        s = SatSolver()
        a = s.new_var()
        s.add_clause([a, -a])
        assert s.solve()

    def test_duplicate_literals_collapse(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, a, b])
        s.add_clause([-a])
        assert s.solve()
        assert s.model()[b]

    def test_solver_reusable_after_sat(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        clauses = [[a, b], [-a]]
        s.add_clause(clauses[0])
        assert s.solve()
        s.add_clause(clauses[1])
        assert s.solve()
        assert satisfies(s.model(), clauses)

    def test_unit_added_after_sat_binds_at_the_root(self):
        # solve() leaves a=False decided and b=True implied at level 1;
        # the unit -b must go to level 0, not conflict with that trail.
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve()
        assert s.model() == {a: False, b: True}
        assert s.add_clause([-b])
        assert s.solve()
        assert s.model() == {a: True, b: False}
        assert s.solve()

    def test_unit_added_after_sat_binds_later_solves(self):
        # [a or b] and [-a] force b, so [a or -b] leaves no model; a unit
        # enqueued at level 1 would be backtracked away by the next solve.
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve()
        assert s.add_clause([-a])
        assert not s.add_clause([a, -b])
        assert not s.solve()

    def test_model_satisfies_every_clause(self):
        s = SatSolver()
        s.ensure_vars(4)
        clauses = [[1, -2, 3], [-1, 4], [2, -3], [-4, 1, 2]]
        for clause in clauses:
            s.add_clause(clause)
        assert s.solve()
        assert satisfies(s.model(), clauses)


class TestAssumptions:
    def test_assumption_forces_value(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert s.solve([-a])
        assert s.model()[b]

    def test_conflicting_assumptions(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert not s.solve([-a, -b])

    def test_assumption_of_fixed_literal(self):
        s = SatSolver()
        a = s.new_var()
        s.add_clause([a])
        assert s.solve([a])
        assert not s.solve([-a])

    def test_solver_state_survives_assumption_failure(self):
        s = SatSolver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        assert not s.solve([-a, -b])
        assert s.solve()
        assert s.solve([-b])
        assert s.model()[a]


def _brute_force_sat(cnf: Cnf) -> bool:
    n = cnf.num_vars
    for m in range(1 << n):
        assignment = [False] + [bool((m >> i) & 1) for i in range(n)]
        if cnf.evaluate(assignment):
            return True
    return False


class TestAgainstBruteForce:
    def test_seeded_random_instances(self):
        rng = random.Random(12345)
        for _ in range(400):
            nv = rng.randint(1, 7)
            cnf = Cnf(nv)
            for _ in range(rng.randint(1, 20)):
                k = rng.randint(1, 3)
                cnf.add_clause(
                    [rng.choice([1, -1]) * rng.randint(1, nv) for _ in range(k)]
                )
            expected = _brute_force_sat(cnf)
            model = solve_cnf(cnf)
            assert (model is not None) == expected
            if model is not None:
                assignment = [False] + [model[v] for v in range(1, nv + 1)]
                assert cnf.evaluate(assignment)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_hypothesis_instances(self, data):
        nv = data.draw(st.integers(1, 6))
        clauses = data.draw(
            st.lists(
                st.lists(
                    st.integers(1, nv).flatmap(
                        lambda v: st.sampled_from([v, -v])
                    ),
                    min_size=1,
                    max_size=4,
                ),
                min_size=1,
                max_size=16,
            )
        )
        cnf = Cnf(nv)
        for clause in clauses:
            cnf.add_clause(clause)
        model = solve_cnf(cnf)
        assert (model is not None) == _brute_force_sat(cnf)
        if model is not None:
            assignment = [False] + [model[v] for v in range(1, nv + 1)]
            assert cnf.evaluate(assignment)


class TestPigeonhole:
    def test_php_3_into_2_unsat(self):
        # Pigeon p in hole h: var 2*p + h + 1 (p in 0..2, h in 0..1).
        s = SatSolver()
        def var(p, h):
            return 2 * p + h + 1
        s.ensure_vars(6)
        for p in range(3):
            s.add_clause([var(p, 0), var(p, 1)])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    s.add_clause([-var(p1, h), -var(p2, h)])
        assert not s.solve()
        assert s.num_conflicts > 0


class TestDecisionRule:
    def test_picks_follow_current_activity_across_a_rescale(self, monkeypatch):
        # Activities are scaled by 1e-100 once one passes 1e100, about
        # 4,400 conflicts into a solver; start the increment 20 conflicts
        # short of that.  Every pick, also right after the rescale, must be
        # the unassigned variable of highest current activity, lowest index
        # on ties, never one whose heap entry predates the rescale.
        picks = []
        pick = SatSolver._pick_branch_var

        def checked_pick(solver):
            assigned = solver.model()
            free = [v for v in range(solver._num_vars) if v + 1 not in assigned]
            best = min(
                free, key=lambda v: (-solver._activity[v], v), default=None
            )
            got = pick(solver)
            picks.append((got, best))
            return got

        monkeypatch.setattr(SatSolver, "_pick_branch_var", checked_pick)
        rng = random.Random(4)
        num_vars = 100
        s = SatSolver()
        s.ensure_vars(num_vars)
        for _ in range(426):
            clause = rng.sample(range(1, num_vars + 1), 3)
            s.add_clause([v if rng.random() < 0.5 else -v for v in clause])
        s._var_inc = 1e100 * 0.95 ** 20
        assert s.solve()
        assert s._var_inc < 1e10, "no rescale happened"
        assert picks and all(got == best for got, best in picks)
