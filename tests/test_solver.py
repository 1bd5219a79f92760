import random

import pytest

from helpers import random_formula
from maxsat_reference import (
    CnfFormula,
    HardViolation,
    VarRegistry,
    check_assignment,
    hard_clause,
    soft_clause,
    solve,
)
from oracle import BRUTE_FORCE_LIMIT, brute_force_solve


def formula(nvars, hard=(), soft=()):
    reg = VarRegistry()
    for i in range(1, nvars + 1):
        reg.intern(("var", i))
    return CnfFormula(
        reg,
        hard=[hard_clause(lits) for lits in hard],
        soft=[soft_clause(lits, w) for lits, w in soft],
    )


class TestSolve:
    def test_forced_soft_violation(self):
        cnf = formula(1, hard=[(1,)], soft=[((-1,), 2.0)])
        out = solve(cnf)
        assert out.assignment == {1: True}
        assert out.soft_cost == 2.0

    def test_picks_cheaper_branch(self):
        cnf = formula(2, hard=[(1, 2)], soft=[((-1,), 1.0), ((-2,), 3.0)])
        out = solve(cnf)
        assert out.assignment == {1: True, 2: False}
        assert out.soft_cost == 1.0

    def test_hard_unsat(self):
        cnf = formula(1, hard=[(1,), (-1,)])
        assert solve(cnf) is None

    def test_empty_formula_is_error(self):
        with pytest.raises(ValueError):
            solve(CnfFormula(VarRegistry()))

    def test_unconstrained_vars_default_false(self):
        cnf = formula(3, hard=[(2,)])
        out = solve(cnf)
        assert out.assignment == {1: False, 2: True, 3: False}

    def test_tie_break_prefers_false_low_ids(self):
        # both assignments satisfying the pool cost 0; canonical picks x1=False
        cnf = formula(2, hard=[(1, 2)])
        out = solve(cnf)
        assert out.assignment == {1: False, 2: True}

    def test_determinism(self):
        rng = random.Random(1)
        cnf = random_formula(rng, max_vars=12)
        a = solve(cnf)
        b = solve(cnf)
        assert a == b


class TestBruteForce:
    def test_same_three_examples(self):
        for hard, soft, cost in [
            ([(1,)], [((-1,), 2.0)], 2.0),
            ([(1, 2)], [((-1,), 1.0), ((-2,), 3.0)], 1.0),
        ]:
            cnf = formula(2, hard=hard, soft=soft)
            assert brute_force_solve(cnf).soft_cost == cost
        assert brute_force_solve(formula(1, hard=[(1,), (-1,)])) is None

    def test_variable_limit(self):
        cnf = formula(BRUTE_FORCE_LIMIT + 1, hard=[(1,)])
        with pytest.raises(ValueError):
            brute_force_solve(cnf)

    def test_matches_solve_on_random_instances(self):
        rng = random.Random(42)
        for _ in range(60):
            cnf = random_formula(rng, max_vars=10)
            a, b = solve(cnf), brute_force_solve(cnf)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.micro_cost == b.micro_cost
                assert a.assignment == b.assignment


class TestCheckAssignment:
    def test_all_satisfied(self):
        cnf = formula(1, hard=[(1,)], soft=[((1,), 0.5)])
        assert check_assignment(cnf, {1: True}) == 0.0

    def test_counts_falsified_soft(self):
        cnf = formula(1, soft=[((-1,), 0.25)])
        assert check_assignment(cnf, {1: True}) == 0.25

    def test_reports_first_hard_violation(self):
        cnf = formula(2, hard=[(1,), (2,)])
        got = check_assignment(cnf, {1: True, 2: False})
        assert isinstance(got, HardViolation)
        assert got.clause_index == 1

    def test_partial_assignment_rejected(self):
        cnf = formula(2, hard=[(1,)])
        with pytest.raises(ValueError):
            check_assignment(cnf, {1: True})

    def test_soundness_against_solve(self):
        rng = random.Random(9)
        for _ in range(40):
            cnf = random_formula(rng, max_vars=12)
            out = solve(cnf)
            if out is None:
                continue
            assert check_assignment(cnf, out.assignment) == out.soft_cost


class TestMonotonicity:
    def test_adding_clauses_never_cheapens(self):
        rng = random.Random(31)
        for _ in range(30):
            cnf = random_formula(rng, max_vars=10)
            base = solve(cnf)
            if base is None:
                continue
            n = cnf.nvars
            v = rng.randint(1, n)
            with_soft = CnfFormula(
                cnf.registry,
                hard=list(cnf.hard),
                soft=list(cnf.soft) + [soft_clause((v if rng.random() < 0.5 else -v,), 0.7)],
            )
            more = solve(with_soft)
            assert more.micro_cost >= base.micro_cost
            with_hard = CnfFormula(
                cnf.registry,
                hard=list(cnf.hard) + [hard_clause((v,))],
                soft=list(cnf.soft),
            )
            harder = solve(with_hard)
            if harder is not None:
                assert harder.micro_cost >= base.micro_cost
