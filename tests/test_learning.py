"""Clause learning in `solve_dpll`: its counters, the refutations it
learns and `check_refutation`, which replays them, and the guard on the
learnt clauses."""

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmsatlab import sat
from tmsatlab.machine import parse_machine
from tmsatlab.reduction import reduce_machine
from tmsatlab.sat import (
    CnfFormula,
    LearntLimitError,
    check_refutation,
    solve_bruteforce,
    solve_dpll,
    to_cnf,
)

# The DPLL-search cases of the verify-branching benchmark pool, with the
# text of each machine as the pool holds it: (name, text, input), all at
# bound 12.
SEARCH_CASES = [
    ("branch004",
     "states: q0 q1 qacc\nstart: q0\naccept: qacc\nblank: _\ninput_alphabet: 0 1\n"
     "tape_alphabet: 0 1 _\nrule: q0 0 -> q1 0 R\nrule: q0 0 -> q1 1 R\n"
     "rule: q0 1 -> q0 1 R\nrule: q0 1 -> qacc 0 R\nrule: q0 _ -> qacc 1 R\n"
     "rule: q0 _ -> q0 _ R\nrule: q1 0 -> q0 1 R\nrule: q1 0 -> qacc _ R\n"
     "rule: q1 1 -> q0 0 R\nrule: q1 1 -> qacc 0 R\nrule: q1 _ -> qacc _ R\n"
     "rule: q1 _ -> q1 1 R\n",
     "100010010"),
    ("branch018",
     "states: q0 q1 qacc\nstart: q0\naccept: qacc\nblank: _\ninput_alphabet: 0 1\n"
     "tape_alphabet: 0 1 _\nrule: q0 0 -> q0 _ R\nrule: q0 0 -> q0 1 R\n"
     "rule: q0 1 -> qacc 1 R\nrule: q0 1 -> q1 _ R\nrule: q0 _ -> q1 0 R\n"
     "rule: q0 _ -> qacc _ R\nrule: q1 0 -> qacc 1 R\nrule: q1 0 -> qacc _ R\n"
     "rule: q1 1 -> q0 _ R\nrule: q1 1 -> qacc 1 R\nrule: q1 _ -> q1 1 R\n"
     "rule: q1 _ -> qacc 1 R\n",
     "110010010"),
    ("branch037",
     "states: q0 q1 qacc\nstart: q0\naccept: qacc\nblank: _\ninput_alphabet: 0 1\n"
     "tape_alphabet: 0 1 _\nrule: q0 0 -> q0 1 R\nrule: q0 0 -> q0 0 R\n"
     "rule: q0 1 -> q1 _ R\nrule: q0 1 -> qacc 1 R\nrule: q0 _ -> qacc _ R\n"
     "rule: q0 _ -> q0 1 R\nrule: q1 0 -> qacc 1 R\nrule: q1 0 -> q1 1 R\n"
     "rule: q1 1 -> qacc 0 R\nrule: q1 1 -> qacc _ R\nrule: q1 _ -> qacc 1 R\n"
     "rule: q1 _ -> q0 _ R\n",
     "011000110"),
    ("branch039",
     "states: q0 q1 qacc\nstart: q0\naccept: qacc\nblank: _\ninput_alphabet: 0 1\n"
     "tape_alphabet: 0 1 _\nrule: q0 0 -> q1 0 R\nrule: q0 0 -> q1 1 R\n"
     "rule: q0 1 -> qacc 0 R\nrule: q0 1 -> q0 0 R\nrule: q0 _ -> q1 0 R\n"
     "rule: q0 _ -> qacc _ R\nrule: q1 0 -> qacc 0 R\nrule: q1 0 -> q0 0 R\n"
     "rule: q1 1 -> q1 1 R\nrule: q1 1 -> q1 _ R\nrule: q1 _ -> q0 _ R\n"
     "rule: q1 _ -> q0 0 R\n",
     "000001000"),
]


@pytest.fixture(scope="module")
def search_results():
    return {name: solve_dpll(to_cnf(reduce_machine(parse_machine(text, name), y, 12)))
            for name, text, y in SEARCH_CASES}


def _reference_rup(clauses, lemma) -> bool:
    """Whether unit propagation from the lemma's negation reaches a
    falsified clause, by passes over every clause until nothing changes."""
    true = {-lit for lit in lemma}
    if any(-lit in true for lit in true):
        return True
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if any(lit in true for lit in clause):
                continue
            free = {lit for lit in clause if -lit not in true}
            if not free:
                return True
            if len(free) == 1:
                true |= free
                changed = True
    return False


def _reference_refutation(f: CnfFormula, learnt) -> bool:
    clauses = list(f.clauses)
    for lemma in [*learnt, ()]:
        if not _reference_rup(clauses, lemma):
            return False
        clauses.append(tuple(lemma))
    return True


def _drop_literal(learnt, i, j):
    return [*learnt[:i], learnt[i][:j] + learnt[i][j + 1:], *learnt[i + 1:]]


class TestCounters:
    def test_search_cases_are_pinned(self, search_results):
        # (decisions, conflicts, propagations, learnt clauses, most levels
        # one backjump undid); chronological backtracking took 11,933
        # decisions and 11,874 conflicts on these four.
        counts = {name: (r.decisions, r.conflicts, r.propagations, len(r.learnt),
                         r.max_backjump)
                  for name, r in search_results.items()}
        assert counts == {
            "branch004": (44, 10, 1295, 10, 10),
            "branch018": (72, 13, 2627, 13, 10),
            "branch037": (19, 4, 1063, 4, 12),
            "branch039": (65, 13, 1859, 13, 11),
        }
        assert all(r.satisfiable for r in search_results.values())

    def test_search_cases_take_at_most_100_conflicts(self, search_results):
        assert sum(r.conflicts for r in search_results.values()) <= 100

    def test_pigeonhole_is_pinned(self, pigeonhole):
        r = solve_dpll(pigeonhole)
        assert (r.satisfiable, r.decisions, r.conflicts, r.propagations, r.max_backjump) == \
            (False, 8, 9, 75, 1)
        assert r.learnt == ((-2, 7, 4), (-3, 7, 4), (-5, 10, 7), (-1,), (-3, 8, 5),
                            (-4, 11, 8), (-2,), (-4,))

    def test_level_zero_refutation(self):
        # The units fail before any decision: one conflict, nothing learnt.
        r = solve_dpll(CnfFormula(3, [(1, 1), (-1, 2), (-2, 3), (-3, -1)]))
        assert (r.satisfiable, r.decisions, r.conflicts, r.propagations, r.learnt) == \
            (False, 0, 1, 3, ())

    def test_result_built_without_counters(self):
        r = sat.SolveResult(True, {1: True})
        assert (r.decisions, r.conflicts, r.propagations, r.learnt, r.max_backjump) == \
            (0, 0, 0, (), 0)


class TestCheckRefutation:
    def test_learnt_clauses_refute_the_pigeonhole(self, pigeonhole):
        f = pigeonhole
        r = solve_dpll(f)
        assert not r.satisfiable and r.learnt
        assert check_refutation(f, r.learnt)
        # Unit propagation alone does not refute it, nor does any prefix.
        assert not check_refutation(f, ())
        assert not check_refutation(f, r.learnt[:-1])

    def test_seeded_dropped_literal_fails(self, pigeonhole):
        f = pigeonhole
        learnt = solve_dpll(f).learnt
        rng = random.Random(2)
        i = rng.choice([k for k, c in enumerate(learnt) if len(c) > 1])
        mutated = _drop_literal(learnt, i, rng.randrange(len(learnt[i])))
        assert not _reference_refutation(f, mutated)
        assert not check_refutation(f, mutated)

    def test_empty_refutation_at_level_zero(self):
        f = CnfFormula(2, [(1,), (-1, 2), (-2, -1)])
        assert solve_dpll(f).learnt == ()
        assert check_refutation(f, ())

    def test_unit_written_with_a_repeated_literal(self):
        # (1, 1, 1) is the unit 1: counted three times, it would never
        # propagate.
        f = CnfFormula(2, [(1, 1, 1), (-1, 2), (-1, -2)])
        r = solve_dpll(f)
        assert (r.satisfiable, r.learnt) == (False, ())
        assert check_refutation(f, ())
        assert not check_refutation(CnfFormula(2, [(1, 1, 1), (-1, 2)]), ())

    def test_satisfiable_formula_has_no_refutation(self):
        f = CnfFormula(2, [(1, 2), (-1, 2)])
        assert not check_refutation(f, [(2,)])


def test_learnt_clause_watched_on_a_literal_with_no_list():
    # The pigeonhole with each pigeon's clause guarded by -1: deciding 1
    # true sets off the search, which learns clauses of four literals
    # whose asserting literal, a pigeon-hole variable made false, occurs
    # only in binary clauses of the formula, so no watch list held it.
    # The search ends by learning -1, and later watches move on the
    # learnt clauses.
    pigeons, holes = 4, 3
    var = {(p, h): p * holes + h + 2 for p in range(pigeons) for h in range(holes)}
    clauses = [(-1, *(var[p, h] for h in range(holes))) for p in range(pigeons)]
    clauses += [(-var[p, h], -var[q, h]) for h in range(holes)
                for p in range(pigeons) for q in range(p + 1, pigeons)]
    f = CnfFormula(pigeons * holes + 1, clauses)
    r = solve_dpll(f)
    watched = {lit for c in clauses if len(c) > 2 for lit in c}
    assert any(len(c) > 2 and c[0] not in watched for c in r.learnt)
    assert r.satisfiable and r.learnt[-1] == (-1,)
    flipped = CnfFormula(f.var_count, [[-lit for lit in c] for c in f.clauses])
    first = solve_bruteforce(flipped).assignment
    assert r.assignment == {v: not x for v, x in first.items()}


class TestLearntLimit:
    def test_guard_raises_naming_the_constant(self, monkeypatch, pigeonhole):
        f = pigeonhole
        total = sum(map(len, solve_dpll(f).learnt))
        monkeypatch.setattr(sat, "LEARNT_LITERAL_LIMIT", total)
        assert not solve_dpll(f).satisfiable
        monkeypatch.setattr(sat, "LEARNT_LITERAL_LIMIT", total - 1)
        with pytest.raises(LearntLimitError, match="LEARNT_LITERAL_LIMIT"):
            solve_dpll(f)
        assert issubclass(LearntLimitError, sat.SatError)


@st.composite
def threshold_cnfs(draw):
    """At most 12 variables and 3.5 to 5 clauses per variable, around the
    3-SAT threshold of about 4.26, so many draws need a search. Most
    clauses have 3 literals and a few 1, 2, 4 or 5; a literal may repeat,
    and a clause may hold a variable and its negation."""
    n = draw(st.integers(1, 12))
    literal = st.sampled_from([*range(-n, 0), *range(1, n + 1)])
    clause = st.sampled_from((3,) * 30 + (1, 2, 2, 4, 4, 5)).flatmap(
        lambda k: st.lists(literal, min_size=k, max_size=k))
    k = draw(st.integers(round(3.5 * n), 5 * n))
    return CnfFormula(n, draw(st.lists(clause, min_size=k, max_size=k)))


def test_learning_keeps_verdicts_models_and_refutations():
    seen = Counter()

    # Derandomized, so that the draws which reach the learning paths,
    # counted below, are the same on every run.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(threshold_cnfs())
    def check(f):
        result = solve_dpll(f)
        assert result.satisfiable == solve_bruteforce(f).satisfiable
        if result.satisfiable:
            # The greatest model is the complement of the brute-force
            # oracle's first model of the formula with every literal negated.
            flipped = CnfFormula(f.var_count, [[-lit for lit in c] for c in f.clauses])
            first = solve_bruteforce(flipped).assignment
            assert result.assignment == {v: not x for v, x in first.items()}
        else:
            assert check_refutation(f, result.learnt)
            # Dropping any one learnt literal: the checker agrees with
            # the reference on whether the refutation still holds.
            for i, lemma in enumerate(result.learnt):
                for j in range(len(lemma)):
                    mutated = _drop_literal(result.learnt, i, j)
                    assert check_refutation(f, mutated) == \
                        _reference_refutation(f, mutated)
        seen["repeated literal"] += any(len(set(c)) < len(c) for c in f.clauses)
        seen["tautology"] += any(-lit in c for c in f.clauses for lit in c)
        seen["conflict above level 0"] += bool(result.learnt)
        seen["backjump over a level"] += result.max_backjump > 1
        seen["unsat after learning"] += not result.satisfiable and bool(result.learnt)

    check()
    assert all(seen.values()), seen


def seeded_threshold_cnfs(seed: int, count: int):
    """`count` CNFs in the mix of `threshold_cnfs`, drawn from
    random.Random(seed), so they stay the same whatever Hypothesis does."""
    rng = random.Random(seed)
    lengths = (3,) * 30 + (1, 2, 2, 4, 4, 5)
    for _ in range(count):
        n = rng.randint(1, 12)
        literals = [*range(-n, 0), *range(1, n + 1)]
        yield CnfFormula(n, [[rng.choice(literals) for _ in range(rng.choice(lengths))]
                             for _ in range(rng.randint(round(3.5 * n), 5 * n))])


def test_seeded_results_are_pinned():
    # How the clauses are stored sets the order of propagation, and with
    # it the conflicts found, the clauses learnt and every count, though
    # not the model; the digest of every field of 400 results pins them.
    digest = hashlib.sha256()
    satisfiable = learning = 0
    for f in seeded_threshold_cnfs(14, 400):
        r = solve_dpll(f)
        model = sorted(r.assignment.items()) if r.satisfiable else None
        digest.update(repr((r.satisfiable, model, r.decisions, r.conflicts, r.propagations,
                            r.learnt, r.max_backjump)).encode())
        satisfiable += r.satisfiable
        learning += bool(r.learnt)
    assert (satisfiable, learning) == (244, 133)
    assert digest.hexdigest() == \
        "7e08d90b8519db9ca774f488e9c17d51703fe9bc384683ae3c819d095330e453"
