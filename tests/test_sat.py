import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmsatlab import sat
from tmsatlab.corpus import check_solver_agreement
from tmsatlab.machine import accepts_within
from tmsatlab.reduction import (
    GROUPS,
    LabeledFormula,
    clause_counts,
    input_part,
    reduce_machine,
    run_part,
)
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


class TestBinaryClauses:
    """Binary clauses propagate through implication lists, apart from
    the watched clauses of three or more literals."""

    def test_repeated_literal_acts_as_a_unit(self):
        # Branching tries true first; only the unit makes variable 1 false.
        result = solve_dpll(CnfFormula(2, [(-1, -1), (1, 2, -2)]))
        assert result.assignment == {1: False, 2: True}

    def test_tautology_is_dropped(self):
        assert solve_dpll(CnfFormula(1, [(1, -1)])).assignment == {1: True}
        assert solve_dpll(CnfFormula(1, [(-1, 1), (-1, -1)])).assignment == {1: False}

    def test_binary_conflict_at_level_zero_is_unsat(self):
        # The unit (1, 1) implies 2 and 3, and (-3, -1) then fails: no
        # decision is ever made.
        f = CnfFormula(3, [(1, 1), (-1, 2), (-2, 3), (-3, -1)])
        assert not solve_dpll(f).satisfiable
        assert not solve_bruteforce(f).satisfiable

    def test_binary_conflict_after_a_decision_flips_it(self):
        # Deciding 1 true implies 2, then 3, then -1: the conflict learns
        # the unit -1, and the search goes on to decide 2 true, implying 3.
        f = CnfFormula(3, [(-1, 2), (-2, 3), (-3, -1)])
        assert solve_dpll(f).assignment == {1: False, 2: True, 3: True}
        # Both clauses of the conflict under the decision are binary.
        f = CnfFormula(2, [(-1, 2), (-1, -2)])
        assert solve_dpll(f).assignment == {1: False, 2: True}


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


def _greatest(f: CnfFormula):
    """The brute-force oracle's verdict, and for a Sat verdict the
    greatest model (variable 1 most significant, true above false): the
    complement of its first model of the formula with every literal
    negated."""
    if not solve_bruteforce(f).satisfiable:
        return False, None
    flipped = CnfFormula(f.var_count, [[-lit for lit in c] for c in f.clauses])
    first = solve_bruteforce(flipped).assignment
    return True, {v: not x for v, x in first.items()}


@settings(max_examples=300, deadline=None)
@given(small_cnfs())
def test_dpll_model_is_the_lexicographically_greatest(f):
    result = solve_dpll(f)
    assert (result.satisfiable, result.assignment) == _greatest(f)


def _fields(result):
    return (result.satisfiable, result.assignment, result.decisions, result.conflicts,
            result.propagations, result.learnt, result.max_backjump)


class TestClauseIndex:
    """The set-up of `solve_dpll`: each clause goes in by its length, a
    clause that repeats a variable goes in without the repeats, and a
    watch can move to any literal of a clause of three or more."""

    @pytest.mark.parametrize("clause, distinct", [
        # Variable 1 twice in a clause of three, at positions (0, 1),
        # (0, 2) and (1, 2): with one sign the clause is cut to its two
        # distinct literals, with both it is a tautology and dropped (None).
        ((1, 1, -2), (1, -2)), ((1, -2, 1), (1, -2)), ((-2, 1, 1), (-2, 1)),
        ((1, -1, -2), None), ((1, -2, -1), None), ((-2, 1, -1), None),
        ((1, 2, -3, 2), (1, 2, -3)), ((2, -3, 1, -4, 3), None),
        ((1, 1), (1,)), ((1, -1), None),
    ], ids=["3-at-01", "3-at-02", "3-at-12", "3-at-01-tautology", "3-at-02-tautology",
            "3-at-12-tautology", "4", "5-tautology", "2", "2-tautology"])
    def test_repeated_variable(self, clause, distinct):
        # Under each choice of a positive unit, a negative unit or none for
        # each variable, one more than the clause has: the verdict and model
        # of the brute-force oracle, and every field of the result for the
        # clause cut to its distinct literals or dropped.
        n = max(map(abs, clause)) + 1
        for signs in itertools.product((0, 1, -1), repeat=n):
            units = [(s * v,) for v, s in enumerate(signs, 1) if s]
            f = CnfFormula(n, [clause, *units])
            result = solve_dpll(f)
            assert (result.satisfiable, result.assignment) == _greatest(f)
            cut = CnfFormula(n, [distinct, *units] if distinct else units)
            assert _fields(result) == _fields(solve_dpll(cut))

    @pytest.mark.parametrize("clause", [(1, 2, 3), (1, 2, 3, 4)])
    def test_watch_moves_past_the_first_two_literals(self, clause):
        # The units make every literal but the last false in turn, so a
        # watch moves onto literals that occur only at position 2 or later.
        *rest, last = clause
        f = CnfFormula(last, [clause, *((-v,) for v in rest)])
        assert solve_dpll(f).assignment == {**dict.fromkeys(rest, False), last: True}


def _reference_formula_error(n, clauses):
    """The first error of the clause-by-clause check, or None."""
    for clause in clauses:
        if not clause:
            return "empty clause"
        for lit in clause:
            if lit == 0 or abs(lit) > n:
                return f"literal {lit} out of range 1..{n}"
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6),
       st.lists(st.lists(st.integers(-8, 8), max_size=4), max_size=6))
def test_formula_check_matches_clause_by_clause_reference(n, clauses):
    # Empty clauses, 0 and literals beyond n all occur in the draws.
    expected = _reference_formula_error(n, clauses)
    try:
        f = CnfFormula(n, clauses)
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        assert all(type(c) is tuple for c in f.clauses)
        assert f == CnfFormula(n, [tuple(c) for c in clauses])


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

    def test_literals_are_written_as_str_writes_them(self):
        # Every literal of 3 variables, through the table of literal strings.
        text = to_dimacs(CnfFormula(3, [(1, -1, 2, -2, 3, -3), (-3,), (3, 1)]))
        assert text == "p cnf 3 3\n1 -1 2 -2 3 -3 0\n-3 0\n3 1 0\n"

    @pytest.mark.parametrize("side", [-1, 0, 1], ids=["below", "zero", "above"])
    def test_labeled_literal_out_of_range_is_refused(self, m_accept1, side):
        # 0 and ±(n+1) have no entry in the table of literal strings. The
        # constructor refuses them too, so the fault is set after it.
        grid = reduce_machine(m_accept1, "1", 1).grid
        bad = side * (grid.var_count + 1)
        f = LabeledFormula(grid, {"G1": ((1,),), "G6": ((2, 3),)}, "1")
        f.groups["G6"] = ((2, bad),)
        with pytest.raises(ValueError, match=f"^literal {bad} out of range"):
            to_dimacs(f)

    def test_labeled_empty_clause_is_refused(self, m_accept1):
        # Written as ` 0`, it would be text that from_dimacs refuses.
        grid = reduce_machine(m_accept1, "1", 1).grid
        f = LabeledFormula(grid, {"G1": ((1,),), "G6": ((2, 3),)}, "1")
        f.groups["G1"] = ((1,), ())
        with pytest.raises(ValueError, match="^empty clause$"):
            to_dimacs(f)

    @pytest.mark.parametrize("part", [lambda f: f, input_part, run_part],
                             ids=["all", "input", "run"])
    def test_one_group_line_before_each_group(self, m_parity, part):
        # The input and run parts have empty groups, which read `none`.
        f = part(reduce_machine(m_parity, "11", 3))
        lines = to_dimacs(f).splitlines()
        header = lines.index(f"p cnf {f.var_count} {f.clause_count}")
        assert all(line.startswith("c var ") for line in lines[:header])
        body = lines[header + 1:]
        marks = [i for i, line in enumerate(body) if line.startswith("c")]
        assert [body[i].split()[2] for i in marks] == list(GROUPS)
        first = 1
        for (group, count), start, stop in zip(clause_counts(f).items(), marks,
                                               marks[1:] + [len(body)]):
            span = f"{first}-{first + count - 1}" if count else "none"
            assert body[start] == f"c group {group} clauses {span}"
            rows = [tuple(map(int, row.split())) for row in body[start + 1:stop]]
            assert all(row[-1] == 0 for row in rows)
            assert [row[:-1] for row in rows] == list(f.groups[group])
            first += count
        assert first == f.clause_count + 1

    def test_plain_text_has_no_group_line(self, m_accept1):
        text = to_dimacs(to_cnf(reduce_machine(m_accept1, "1", 2)))
        assert not any(line.startswith("c") for line in text.splitlines())

    def test_labeled_text_is_read_in_bulk(self, m_accept1, m_parity, monkeypatch):
        # Writer output never takes the line-by-line fallback: a short
        # text read by `int` and a long one read through the table.
        formulas = [reduce_machine(m_accept1, "1", 2), reduce_machine(m_parity, "11", 48)]
        texts = [to_dimacs(f) for f in formulas]

        def by_line(*args):
            raise AssertionError("read line by line")
        monkeypatch.setattr(sat, "_line_tokens", by_line)
        for f, text in zip(formulas, texts):
            assert from_dimacs(text) == to_cnf(f)

    def test_table_read_is_not_checked_again(self, m_parity, monkeypatch):
        # The table yields only literals in -n..n and the cut only
        # non-empty clauses, so the formula is built without a range check.
        f = reduce_machine(m_parity, "11", 48)
        text, cnf = to_dimacs(f), to_cnf(f)

        def check(*args):
            raise AssertionError("clauses checked again")
        monkeypatch.setattr(sat, "_check_clauses", check)
        assert from_dimacs(text) == cnf

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
