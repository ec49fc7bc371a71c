import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmsatlab.corpus import check_solver_agreement
from tmsatlab.machine import accepts_within
from tmsatlab.reduction import reduce_machine
from tmsatlab.sat import (
    DIMACS_VAR_LIMIT,
    BruteForceGuardError,
    CnfFormula,
    DimacsError,
    _scan_bulk,
    _scan_lines,
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


@st.composite
def small_cnfs(draw):
    """At most 12 variables and 40 clauses of 1 to 3 literals; the
    clause count is drawn first, so about half the draws are
    unsatisfiable."""
    n = draw(st.integers(1, 12))
    literal = st.integers(-n, n).filter(bool)
    k = draw(st.integers(0, 40))
    return CnfFormula(n, draw(st.lists(st.lists(literal, min_size=1, max_size=3),
                                       min_size=k, max_size=k)))


@settings(max_examples=300, deadline=None)
@given(small_cnfs())
def test_dpll_model_is_the_lexicographically_greatest(f):
    # The greatest model (variable 1 most significant, true above false)
    # is the complement of the brute-force oracle's first model of the
    # formula with every literal negated.
    result = solve_dpll(f)
    assert result.satisfiable == solve_bruteforce(f).satisfiable
    if result.satisfiable:
        flipped = CnfFormula(f.var_count, [[-lit for lit in c] for c in f.clauses])
        first = solve_bruteforce(flipped).assignment
        assert result.assignment == {v: not x for v, x in first.items()}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_check_model_matches_clause_by_clause_reference(data):
    f = data.draw(small_cnfs())
    # A model, when there is one, with a few keys edited: removed, set to
    # a non-bool, or added as 0, a negative key or a key above var_count.
    edits = data.draw(st.dictionaries(
        st.integers(-2, f.var_count + 2),
        st.sampled_from([True, False, None, 0, 1, 2, "remove"]), max_size=4))
    assignment = {**(solve_dpll(f).assignment or {}), **edits}
    assignment = {v: x for v, x in assignment.items() if x != "remove"}
    reference = all(any(assignment.get(abs(lit)) == (lit > 0) for lit in clause)
                    for clause in f.clauses)
    assert check_model(f, assignment) == reference


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

    def test_labeled_text_is_read_in_bulk(self, m_accept1):
        text = to_dimacs(reduce_machine(m_accept1, "1", 2))
        assert _scan_bulk(text) is not None
        assert _scan_bulk(text) == _scan_lines(text)

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
