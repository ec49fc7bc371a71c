import operator
import time
from collections import Counter
from itertools import chain, combinations, count

import pytest

from tmsatlab.corpus import CORPUS_BOUND, CORPUS_INPUTS, RANDOM_MACHINE_SEED
from tmsatlab.fixtures import fixture_machines, random_corpus
from tmsatlab.machine import (
    ComputationHistory,
    Configuration,
    Machine,
    TransitionTable,
    accepts_within,
    apply_target,
    initial_configuration,
    moved_head,
)
from tmsatlab.reduction import (
    GROUPS,
    PAD,
    REDUCTION_CLAUSE_LIMIT,
    GridIncompatibleError,
    LabeledFormula,
    MalformedModelError,
    ReductionError,
    clause_counts,
    concatenate,
    decode_assignment,
    encode_history,
    input_part,
    reduce_machine,
    reduction_clause_count,
    reduction_group_counts,
    reduction_var_counts,
    run_part,
)
from tmsatlab.sat import CnfFormula, check_model, solve_dpll, to_cnf

# Fixture bounds of the reference check: small, odd, and up to the
# benchmark's largest tableau.
REFERENCE_BOUNDS = (1, 2, 7, 16, 32, 48)


def corpus_machines():
    """(machine, bound) of the acceptance corpus: the fixtures at T=6 and
    the seeded random machines at CORPUS_BOUND, each run on every input
    of CORPUS_INPUTS."""
    machines = [(m, 6) for m in fixture_machines()]
    return machines + [(m, CORPUS_BOUND) for m in random_corpus(RANDOM_MACHINE_SEED, 52)]


def reference_grid(m, bound):
    """The reference numbering: ids counted up from 1, one key at a time,
    Q, then H, then S, then Tr, each block in lexicographic order."""
    ids = count(1)
    times = cells = range(bound + 1)
    states, symbols = sorted(m.states), sorted(m.tape_alphabet)
    tr_keys = list(range(len(m.rules()))) + [PAD]
    q = {(i, k): next(ids) for i in times for k in states}
    h = {(i, j): next(ids) for i in times for j in cells}
    s = {(i, j, sym): next(ids) for i in times for j in cells for sym in symbols}
    tr = {(i, r): next(ids) for i in range(bound) for r in tr_keys}
    return q, h, s, tr


def reference_groups(m, y, bound):
    """The reference reduction: every clause built one at a time, over
    the reference numbering, group by group in GROUPS order."""
    q, h, s, tr = reference_grid(m, bound)
    T = bound
    states, symbols, rules = sorted(m.states), sorted(m.tape_alphabet), m.rules()
    c = initial_configuration(m, y)

    def exactly_one(ids):
        return [tuple(ids)] + [(-a, -b) for a, b in combinations(ids, 2)]

    g1, g2, g3, g4, g5, g6 = groups = [[] for _ in GROUPS]
    for i in range(T + 1):
        g1.extend(exactly_one([q[(i, k)] for k in states]))
    for i in range(T + 1):
        g2.extend(exactly_one([h[(i, j)] for j in range(T + 1)]))
    for i in range(T + 1):
        for j in range(T + 1):
            g3.extend(exactly_one([s[(i, j, l)] for l in symbols]))
    g4.append((q[(0, c.state)],))
    g4.append((h[(0, c.head)],))
    g4.extend((s[(0, j, c.tape[j] if j < len(c.tape) else m.blank)],) for j in range(T + 1))
    g5.append((q[(T, m.accept)],))
    for i in range(T):
        g6.append(tuple(tr[(i, r)] for r in list(range(len(rules))) + [PAD]))
        for r, (state, symbol, nxt, write, move) in enumerate(rules):
            g6.append((-tr[(i, r)], q[(i, state)]))
            g6.append((-tr[(i, r)], q[(i + 1, nxt)]))
            for j in range(T + 1):
                g6.append((-tr[(i, r)], -h[(i, j)], s[(i, j, symbol)]))
                g6.append((-tr[(i, r)], -h[(i, j)], s[(i + 1, j, write)]))
                g6.append((-tr[(i, r)], -h[(i, j)], h[(i + 1, min(T, moved_head(j, move)))]))
        pad = tr[(i, PAD)]
        g6.append((-pad, q[(i, m.accept)]))
        g6.append((-pad, q[(i + 1, m.accept)]))
        for j in range(T + 1):
            g6.append((-pad, -h[(i, j)], h[(i + 1, j)]))
            for l in symbols:
                g6.append((-pad, -s[(i, j, l)], s[(i + 1, j, l)]))
        for j in range(T + 1):
            for l in symbols:
                g6.append((-s[(i, j, l)], h[(i, j)], s[(i + 1, j, l)]))
    return dict(zip(GROUPS, map(tuple, groups)))


def reference_cases():
    """(machine, input, bound) of the reference check: every corpus
    reduction, and each fixture at REFERENCE_BOUNDS on each corpus input
    that fits."""
    cases = [(m, y, bound) for m, bound in corpus_machines() for y in CORPUS_INPUTS]
    cases += [(m, y, bound) for m in fixture_machines() for bound in REFERENCE_BOUNDS
              for y in CORPUS_INPUTS if len(y) <= bound + 1]
    return cases


class TestReduce:
    def test_variable_grid_sizes(self, m_accept1):
        f = reduce_machine(m_accept1, "1", 1)
        assert len(f.grid.Q) == 6
        assert len(f.grid.H) == 4
        assert len(f.grid.S) == 12

    def test_satisfiable_iff_accepting(self, m_accept1):
        assert solve_dpll(to_cnf(reduce_machine(m_accept1, "1", 1))).satisfiable
        assert not solve_dpll(to_cnf(reduce_machine(m_accept1, "0", 2))).satisfiable

    def test_input_symbol_outside_alphabet(self, m_accept1):
        with pytest.raises(ReductionError, match="^input symbol 'x' not in input alphabet$"):
            reduce_machine(m_accept1, "x", 2)

    def test_input_longer_than_grid(self, m_accept1):
        with pytest.raises(ReductionError):
            reduce_machine(m_accept1, "111", 1)

    def test_bound_must_be_positive(self, m_accept1):
        with pytest.raises(ValueError):
            reduce_machine(m_accept1, "1", 0)

    @pytest.mark.parametrize("bound", [1, 2, 5, 16])
    def test_clause_count_in_closed_form(self, fixture_set, bound):
        for m in fixture_set:
            assert reduction_clause_count(m, bound) == reduce_machine(m, "", bound).clause_count

    def test_sizes_in_closed_form_on_the_corpus(self):
        for m, bound in corpus_machines():
            groups, kinds = reduction_group_counts(m, bound), reduction_var_counts(m, bound)
            assert tuple(groups) == GROUPS
            assert reduction_clause_count(m, bound) == sum(groups.values())
            for y in CORPUS_INPUTS:
                f = reduce_machine(m, y, bound)
                assert clause_counts(f) == groups
                assert f.var_count == sum(kinds.values())
                assert [len(f.grid.Q), len(f.grid.H), len(f.grid.S), len(f.grid.TR)] == \
                    list(kinds.values())

    def test_groups_match_the_reference_builder(self):
        # The same clauses, as the same int tuples, in the same order.
        for m, y, bound in reference_cases():
            assert reduce_machine(m, y, bound).groups == reference_groups(m, y, bound), \
                (m.name, y, bound)

    def test_grid_layout_is_the_reference_numbering(self):
        # The blocks, every row and the labels, each against the reference
        # numbering's keys, one key at a time.
        for m, bound in corpus_machines():
            g = reduce_machine(m, "", bound).grid
            q, h, s, tr = reference_grid(m, bound)
            assert [g.Q, g.H, g.S, g.TR] == [list(d.values()) for d in (q, h, s, tr)]
            states, symbols = sorted(m.states), sorted(m.tape_alphabet)
            tr_keys = list(range(len(m.rules()))) + [PAD]
            cells = range(bound + 1)
            for i in cells:
                assert g.q_row(i) == [q[(i, k)] for k in states]
                assert g.h_row(i) == [h[(i, j)] for j in cells]
                assert g.s_block(i) == [s[(i, j, l)] for j in cells for l in symbols]
                for l in symbols:
                    assert g.s_row(i, l) == [s[(i, j, l)] for j in cells]
            for i in range(bound):
                assert g.tr_row(i) == [tr[(i, r)] for r in tr_keys]
            labels = [(vid, f"Q({i},{k})") for (i, k), vid in q.items()]
            labels += [(vid, f"H({i},{j})") for (i, j), vid in h.items()]
            labels += [(vid, f"S({i},{j},{l})") for (i, j, l), vid in s.items()]
            labels += [(vid, f"Tr({i},{r})") for (i, r), vid in tr.items()]
            assert list(g.labels()) == labels, (m.name, bound)

    def test_every_literal_is_the_grids_own_object(self):
        # One int object per literal: each clause holds the grid's ids[v]
        # for v and its negs[v] for -v, never an equal copy. CPython
        # shares the ints up to 256 anyway, so the corpus reductions pin
        # the negations and the fixtures at the larger REFERENCE_BOUNDS
        # pin the positive literals too.
        cases = [(m, y, bound) for m, bound in corpus_machines() for y in CORPUS_INPUTS]
        cases += [(m, "1", bound) for m in fixture_machines() for bound in REFERENCE_BOUNDS]
        for m, y, bound in cases:
            f = reduce_machine(m, y, bound)
            g = f.grid
            own = set(map(id, g.ids[1:] + g.negs[1:]))
            for group, clauses in f.groups.items():
                copies = [lit for lit in chain.from_iterable(clauses) if id(lit) not in own]
                assert copies == [], (m.name, y, bound, group)

    def test_clause_limit_refuses_before_building(self, m_parity):
        assert reduction_clause_count(m_parity, 48) == 119_893
        assert reduction_clause_count(m_parity, 1000) == 527_049_513
        start = time.monotonic()
        with pytest.raises(ReductionError, match=f"527049513 clauses at bound 1000 "
                                                 f"exceeds the limit of {REDUCTION_CLAUSE_LIMIT}"):
            reduce_machine(m_parity, "0", 1000)
        assert time.monotonic() - start < 1.0

    def test_deterministic_output(self, m_parity):
        from tmsatlab.sat import to_dimacs
        a = to_dimacs(reduce_machine(m_parity, "11", 4))
        b = to_dimacs(reduce_machine(m_parity, "11", 4))
        assert a == b


@pytest.mark.parametrize("move", ["L", "R", "S"])
def test_head_clause_moves_as_the_simulator(move):
    """G6's head clause for a rule names H(i+1, .) at the cell that
    `apply_target` moves the head to, clamped at T: from cells 0 and 1,
    and from cell T, which no run within T steps reaches."""
    T = 3
    target = ("q0", "0", move)
    m = Machine(name="mover", states=frozenset(["q0", "qa"]),
                input_alphabet=frozenset(["0"]), tape_alphabet=frozenset(["0", "_"]),
                blank="_", table=TransitionTable({("q0", "0"): (target,)}),
                start="q0", accept="qa")
    f = reduce_machine(m, "0", T)
    _, h, _, tr = reference_grid(m, T)
    cell = {vid: key for key, vid in h.items()}
    for i in range(T):
        for j in (0, 1, T):
            heads = [cell[c[2]] for c in f.groups["G6"]
                     if c[:2] == (-tr[(i, 0)], -h[(i, j)]) and c[2] in cell]
            moved = apply_target(Configuration("q0", j, ("0",) * (T + 1)), target, "_")
            assert heads == [(i + 1, min(T, moved.head))], (i, j)


class TestPartition:
    def test_input_part_is_four_unit_clauses(self, m_accept1):
        cy = input_part(reduce_machine(m_accept1, "1", 1))
        assert cy.clause_count == len(cy.groups["G4"]) == 4
        assert all(len(c) == 1 for c in cy.groups["G4"])

    def test_input_part_of_run_part_is_empty(self, m_accept1):
        f = reduce_machine(m_accept1, "1", 1)
        assert input_part(run_part(f)).groups == {group: () for group in GROUPS}

    def test_partition_counts(self, m_accept1):
        f = reduce_machine(m_accept1, "1", 2)
        assert input_part(f).clause_count + run_part(f).clause_count == f.clause_count

    def test_run_part_groups(self, m_parity):
        f = reduce_machine(m_parity, "11", 4)
        cr = run_part(f)
        assert [group for group, clauses in cr.groups.items() if clauses] == [
            "G1", "G2", "G3", "G5", "G6"]
        assert cr.groups == {**f.groups, "G4": ()}

    def test_group_counts(self, m_accept1):
        f = reduce_machine(m_accept1, "1", 1)
        counts = clause_counts(f)
        assert counts["G4"] == 4
        assert counts["G5"] == 1
        assert sum(counts.values()) == f.clause_count


class TestConcatenate:
    def test_reassembly_is_original_multiset(self, m_accept1):
        f = reduce_machine(m_accept1, "1", 2)
        back = concatenate(input_part(f), run_part(f))
        assert back.groups == f.groups

    def test_compatible_same_machine_satisfiable(self, m_accept1):
        cy = input_part(reduce_machine(m_accept1, "1", 2))
        cr = run_part(reduce_machine(m_accept1, "1", 2))
        assert solve_dpll(to_cnf(concatenate(cy, cr))).satisfiable

    def test_mismatched_input_part_pins_unsat(self, m_accept1):
        cy = input_part(reduce_machine(m_accept1, "0", 2))
        cr = run_part(reduce_machine(m_accept1, "1", 2))
        assert not solve_dpll(to_cnf(concatenate(cy, cr))).satisfiable

    def test_incompatible_grids_raise(self, m_accept1, m_parity):
        cy = input_part(reduce_machine(m_accept1, "1", 2))
        cr = run_part(reduce_machine(m_parity, "11", 2))
        with pytest.raises(GridIncompatibleError):
            concatenate(cy, cr)

    def test_different_bounds_raise(self, m_accept1):
        cy = input_part(reduce_machine(m_accept1, "1", 2))
        cr = run_part(reduce_machine(m_accept1, "1", 3))
        with pytest.raises(GridIncompatibleError):
            concatenate(cy, cr)

    @pytest.mark.parametrize("y", ["1", "0"])
    def test_base_with_an_extra_rule(self, m_accept1, m_nd, y):
        # m_nd is m_accept1's grid with one more rule: its input part's
        # grid has Tr ids that no clause of the concatenation uses.
        bound = 3
        cy = input_part(reduce_machine(m_nd, y, bound))
        cr = run_part(reduce_machine(m_accept1, y, bound))
        cj = concatenate(cy, cr)
        assert cj.var_count == cr.var_count < cy.var_count
        result = solve_dpll(to_cnf(cj))
        padded = solve_dpll(CnfFormula(cy.var_count, to_cnf(cj).clauses))
        assert result.satisfiable == padded.satisfiable
        own = reduce_machine(m_accept1, y, bound)
        own_result = solve_dpll(to_cnf(own))
        assert result.satisfiable == own_result.satisfiable == (y == "1")
        if result.satisfiable:
            assert all(padded.assignment[v] == value
                       for v, value in result.assignment.items())
            assert decode_assignment(cj, result.assignment) == \
                decode_assignment(own, own_result.assignment)

    def test_input_unit_outside_the_run_parts_grid_is_refused(self, m_accept1, m_nd):
        # A hand-built input part may name a Tr id of its own grid that
        # the run part's smaller grid lacks; the join checks it there.
        cr = run_part(reduce_machine(m_accept1, "1", 3))
        grid = reduce_machine(m_nd, "1", 3).grid
        cy = LabeledFormula(grid, {"G4": ((grid.var_count,),)}, "1")
        with pytest.raises(ValueError, match=f"^literal {grid.var_count} out of range "
                                             f"1..{cr.var_count}$"):
            concatenate(cy, cr)

    def test_argument_roles_enforced(self, m_accept1):
        f = reduce_machine(m_accept1, "1", 1)
        with pytest.raises(ValueError, match="first argument"):
            concatenate(run_part(f), run_part(f))
        with pytest.raises(ValueError, match="second argument"):
            concatenate(input_part(f), f)


class TestGroups:
    def test_absent_groups_are_empty(self, m_accept1):
        grid = reduce_machine(m_accept1, "1", 1).grid
        f = LabeledFormula(grid, {"G6": [(1, 2)], "G1": [(3,)]}, "1")
        assert list(f.groups) == list(GROUPS)
        assert f.groups == {**{group: () for group in GROUPS},
                            "G1": ((3,),), "G6": ((1, 2),)}

    @pytest.mark.parametrize("fault", ["zero", "above", "below", "empty"])
    def test_constructor_refuses_an_ill_formed_clause(self, m_accept1, fault):
        # With the messages `to_cnf` gave when it checked, naming the first
        # fault in GROUPS order whatever order the groups are given in.
        grid = reduce_machine(m_accept1, "1", 1).grid
        n = grid.var_count
        bad = {"zero": (2, 0), "above": (2, n + 1), "below": (-n - 1,), "empty": ()}[fault]
        message = f"literal {bad[-1]} out of range 1..{n}" if bad else "empty clause"
        with pytest.raises(ValueError, match=f"^{message}$"):
            LabeledFormula(grid, {"G6": ((n + 2,),), "G1": ((1,), bad)}, "1")

    def test_to_cnf_hands_over_the_checked_clauses_on_the_corpus(self):
        # `to_cnf` does not check: over every corpus reduction, its parts
        # and joins of parts, its clauses are those a checked CnfFormula
        # keeps, the same tuple objects in the same order.
        for m, bound in corpus_machines():
            formulas = [reduce_machine(m, y, bound) for y in CORPUS_INPUTS]
            for f in formulas:
                cy, cr = input_part(f), run_part(f)
                for h in (f, cy, cr, concatenate(cy, cr), concatenate(cy, run_part(formulas[0]))):
                    clauses = to_cnf(h).clauses
                    checked = CnfFormula(h.var_count, chain.from_iterable(h.groups.values()))
                    assert clauses == checked.clauses, (m.name, f.input)
                    assert all(map(operator.is_, clauses, checked.clauses)), (m.name, f.input)

    def test_groups_are_tuples(self, m_accept1):
        f = reduce_machine(m_accept1, "1", 1)
        assert all(type(clauses) is tuple for clauses in f.groups.values())
        assert all(type(c) is tuple for c in to_cnf(f).clauses)
        for clauses in f.groups.values():
            with pytest.raises(AttributeError):
                clauses.append((1,))

    def test_clause_view_matches_counts_and_cnf(self, m_parity):
        # The benchmark's tracer counts groups and distinct run parts
        # through the `clauses` view; `groups` must give the same counts
        # and order without it.
        f = reduce_machine(m_parity, "11", 3)
        g = reduce_machine(m_parity, "0", 3)
        for h in (f, input_part(f), run_part(f), concatenate(input_part(g), run_part(f))):
            counts = clause_counts(h)
            assert list(h.groups) == list(counts) == list(GROUPS)
            assert counts == {group: len(clauses) for group, clauses in h.groups.items()}
            assert to_cnf(h).clauses == [c for cs in h.groups.values() for c in cs]
            assert h.clause_count == len(to_cnf(h).clauses)
            assert Counter(c.group for c in h.clauses) == {
                group: n for group, n in counts.items() if n}
            assert [c.literals for c in h.clauses] == to_cnf(h).clauses
            assert h.clause_count == sum(counts.values()) == len(h.clauses)


def accept_at_start_machine():
    return Machine(
        name="trivial",
        states=frozenset(["qa"]),
        input_alphabet=frozenset(["0", "1"]),
        tape_alphabet=frozenset(["0", "1", "_"]),
        blank="_",
        table=TransitionTable(),
        start="qa",
        accept="qa",
    )


class TestEncodeHistory:
    def test_induced_assignment_satisfies(self, m_accept1):
        _, witness = accepts_within(m_accept1, "1", 1)
        f, assignment = encode_history(m_accept1, witness, 1)
        assert check_model(to_cnf(f), assignment)

    def test_clause_count_exceeds_transitions(self, fixture_set):
        for m in fixture_set:
            for y in ("", "1", "11"):
                accepted, witness = accepts_within(m, y, 4)
                if not accepted:
                    continue
                f, _ = encode_history(m, witness, 4)
                assert f.clause_count > witness.transitions

    def test_zero_transition_history_padded(self):
        m = accept_at_start_machine()
        h = ComputationHistory((initial_configuration(m, ""),), "")
        f, assignment = encode_history(m, h, 1)
        assert check_model(to_cnf(f), assignment)
        assert solve_dpll(to_cnf(f)).satisfiable

    def test_bound_violation(self, m_parity):
        _, witness = accepts_within(m_parity, "11", 4)
        with pytest.raises(ReductionError):
            encode_history(m_parity, witness, 2)

    def test_non_accepting_history_rejected(self, m_accept1):
        h = ComputationHistory((initial_configuration(m_accept1, "1"),), "1")
        with pytest.raises(ReductionError):
            encode_history(m_accept1, h, 1)

    def test_input_symbol_outside_alphabet_rejected(self):
        # A hand-built history: the oracle never starts on such an input.
        m = accept_at_start_machine()
        h = ComputationHistory((Configuration("qa", 0, ("x",)),), "x")
        with pytest.raises(ReductionError, match="^input symbol 'x' not in input alphabet$"):
            encode_history(m, h, 1)

    def test_induced_assignment_covers_the_grid_on_the_corpus(self):
        for m, bound in corpus_machines():
            for y in CORPUS_INPUTS:
                accepted, witness = accepts_within(m, y, bound)
                if accepted:
                    f, assignment = encode_history(m, witness, bound)
                    assert sorted(assignment) == list(range(1, f.var_count + 1))

    def test_induced_assignment_is_the_reference_on_the_corpus(self):
        # Each variable, one key at a time over the reference numbering:
        # the history padded with its last configuration, and at each step
        # the Tr of the first rule, in m.rules() order, whose target takes
        # the configuration to the next one, or PAD once it has accepted.
        for m, bound in corpus_machines():
            q, h, s, tr = reference_grid(m, bound)
            for y in CORPUS_INPUTS:
                accepted, witness = accepts_within(m, y, bound)
                if not accepted:
                    continue
                configs = list(witness.configs)
                configs += configs[-1:] * (bound + 1 - len(configs))
                chosen = [next(r for r, (state, symbol, *target) in enumerate(m.rules())
                               if (state, symbol) == (c.state, c.tape[c.head])
                               and apply_target(c, target, m.blank) == after)
                          for c, after in zip(witness.configs, witness.configs[1:])]
                chosen += [PAD] * (bound - len(chosen))
                reference = {vid: configs[i].state == k for (i, k), vid in q.items()}
                reference.update({vid: configs[i].head == j for (i, j), vid in h.items()})
                reference.update({vid: (configs[i].tape[j] if j < len(configs[i].tape)
                                        else m.blank) == l for (i, j, l), vid in s.items()})
                reference.update({vid: chosen[i] == r for (i, r), vid in tr.items()})
                assert encode_history(m, witness, bound)[1] == reference, (m.name, y)


class TestDecode:
    def test_solve_then_decode(self, m_accept1):
        f = reduce_machine(m_accept1, "1", 1)
        result = solve_dpll(to_cnf(f))
        h = decode_assignment(f, result.assignment)
        assert [(c.state, c.head) for c in h.configs] == [("q0", 0), ("qacc", 1)]
        assert h.configs[1].tape == ("1", "_")

    def test_encode_decode_round_trip(self, fixture_set):
        for m in fixture_set:
            for y in ("", "1", "11"):
                accepted, witness = accepts_within(m, y, 4)
                if not accepted:
                    continue
                f, assignment = encode_history(m, witness, 4)
                assert decode_assignment(f, assignment) == witness

    def test_reencoding_decoded_history(self, m_parity):
        f = reduce_machine(m_parity, "11", 4)
        result = solve_dpll(to_cnf(f))
        h = decode_assignment(f, result.assignment)
        f2, induced = encode_history(m_parity, h, 4)
        assert check_model(to_cnf(f2), induced)

    @pytest.mark.parametrize("edit", ["two-states", "two-heads", "two-symbols",
                                      "no-state"])
    def test_malformed_model_rejected(self, m_accept1, edit):
        # Every edit hits a row decode reads: the model accepts at time 1,
        # and the head stands on cell 1 then.
        f = reduce_machine(m_accept1, "1", 1)
        q, h, s, _ = reference_grid(m_accept1, 1)
        broken = dict(solve_dpll(to_cnf(f)).assignment)
        if edit == "two-states":
            broken[q[(0, "qrej")]] = True
        elif edit == "two-heads":
            broken[h[(1, 0)]] = True
        elif edit == "two-symbols":
            broken[s[(1, 1, "0")]] = True
        else:
            for k in m_accept1.states:
                broken[q[(1, k)]] = False
        with pytest.raises(MalformedModelError):
            decode_assignment(f, broken)

    @pytest.mark.parametrize("part", [input_part, run_part])
    def test_model_of_a_part_alone_rejected(self, m_accept1, part):
        f = part(reduce_machine(m_accept1, "1", 2))
        with pytest.raises(ValueError, match="every clause group"):
            decode_assignment(f, solve_dpll(to_cnf(f)).assignment)

    def test_unsatisfying_assignment_rejected(self, m_accept1):
        f = reduce_machine(m_accept1, "1", 1)
        result = solve_dpll(to_cnf(f))
        broken = dict(result.assignment)
        q = reference_grid(m_accept1, 1)[0]
        # falsify the G5 unit without breaking uniqueness
        for k in m_accept1.states:
            broken[q[(1, k)]] = k == "qrej"
        with pytest.raises((ValueError, MalformedModelError)):
            decode_assignment(f, broken)
