import time

import pytest

from tmsatlab.corpus import check_solver_agreement
from tmsatlab.machine import accepts_within
from tmsatlab.reduction import reduce_machine
from tmsatlab.sat import (
    DIMACS_VAR_LIMIT,
    BruteForceGuardError,
    CnfFormula,
    DimacsError,
    check_model,
    from_dimacs,
    solve_bruteforce,
    solve_dpll,
    to_cnf,
    to_dimacs,
)


class TestDpll:
    def test_contradiction(self):
        assert not solve_dpll(CnfFormula(1, [[1], [-1]])).satisfiable

    def test_unit_propagation(self):
        result = solve_dpll(CnfFormula(2, [[1, 2], [-1]]))
        assert result.satisfiable
        assert result.assignment == {1: False, 2: True}

    def test_branching_prefers_true(self):
        result = solve_dpll(CnfFormula(2, [[1, 2]]))
        assert result.assignment[1] is True

    def test_deterministic(self):
        f = CnfFormula(4, [[1, -2], [2, 3], [-3, -4], [4, 1]])
        assert solve_dpll(f).assignment == solve_dpll(f).assignment

    def test_decision_scan_is_linear(self):
        # Restarting the scan for the next free variable at variable 1
        # made this quadratic: 57 s at this size (2 cores, Python 3.11).
        n = 50_000
        start = time.monotonic()
        result = solve_dpll(CnfFormula(n, []))
        assert time.monotonic() - start < 10.0
        assert result.assignment == dict.fromkeys(range(1, n + 1), True)

    def test_model_satisfies_every_clause(self, m_parity):
        f = to_cnf(reduce_machine(m_parity, "0", 3))
        result = solve_dpll(f)
        assert result.satisfiable and check_model(f, result.assignment)


class TestBruteForce:
    def test_empty_clause_list_all_false(self):
        result = solve_bruteforce(CnfFormula(2, []))
        assert result.satisfiable
        assert result.assignment == {1: False, 2: False}

    def test_single_positive_unit(self):
        result = solve_bruteforce(CnfFormula(1, [[1]]))
        assert result.assignment == {1: True}

    def test_guard(self):
        with pytest.raises(BruteForceGuardError):
            solve_bruteforce(CnfFormula(25, [[1]]))

    def test_lexicographically_first_model(self):
        # (x1 | x2): false/true on (x1,x2) comes before any x1=true row
        result = solve_bruteforce(CnfFormula(2, [[1, 2]]))
        assert result.assignment == {1: False, 2: True}


class TestCrossValidation:
    def test_verdicts_agree_on_random_cnfs(self):
        assert check_solver_agreement(200, 7) == (200, 200)


class TestDimacs:
    def test_header(self):
        text = to_dimacs(CnfFormula(2, [[1, -2], [2]]))
        assert text.splitlines()[0] == "p cnf 2 2"

    def test_round_trip(self, m_accept1):
        f = to_cnf(reduce_machine(m_accept1, "1", 2))
        back = from_dimacs(to_dimacs(f))
        assert back.var_count == f.var_count
        assert sorted(map(sorted, back.clauses)) == sorted(map(sorted, f.clauses))

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsError):
            from_dimacs("p cnf 2 3\n1 0\n-2 0\n")

    def test_missing_terminating_zero(self):
        with pytest.raises(DimacsError):
            from_dimacs("p cnf 2 1\n1 -2\n")

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsError):
            from_dimacs("p cnf 2 1\n3 0\n")

    def test_malformed_header(self):
        with pytest.raises(DimacsError):
            from_dimacs("p dnf 2 1\n1 0\n")

    def test_missing_header(self):
        with pytest.raises(DimacsError):
            from_dimacs("1 0\n")

    def test_var_count_above_limit(self):
        with pytest.raises(DimacsError, match=f"line 2: {DIMACS_VAR_LIMIT + 1} variables"):
            from_dimacs(f"c big\np cnf {DIMACS_VAR_LIMIT + 1} 0\n")

    def test_var_count_at_limit(self):
        f = from_dimacs(f"p cnf {DIMACS_VAR_LIMIT} 0\n")
        assert (f.var_count, f.clauses) == (DIMACS_VAR_LIMIT, [])
