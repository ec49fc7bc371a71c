import time
from collections import Counter

import pytest

from tmsatlab.machine import (
    ComputationHistory,
    Machine,
    TransitionTable,
    accepts_within,
    initial_configuration,
)
from tmsatlab.reduction import (
    GROUPS,
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
    run_part,
)
from tmsatlab.sat import CnfFormula, check_model, solve_dpll, to_cnf


class TestReduce:
    def test_variable_grid_sizes(self, m_accept1):
        f = reduce_machine(m_accept1, "1", 1)
        assert len(f.grid.q) == 6
        assert len(f.grid.h) == 4
        assert len(f.grid.s) == 12

    def test_satisfiable_iff_accepting(self, m_accept1):
        assert solve_dpll(to_cnf(reduce_machine(m_accept1, "1", 1))).satisfiable
        assert not solve_dpll(to_cnf(reduce_machine(m_accept1, "0", 2))).satisfiable

    def test_input_symbol_outside_alphabet(self, m_accept1):
        with pytest.raises(ReductionError):
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

    def test_groups_are_tuples(self, m_accept1):
        f = reduce_machine(m_accept1, "1", 1)
        assert all(type(clauses) is tuple for clauses in f.groups.values())
        assert all(type(c) is tuple for c in to_cnf(f).clauses)
        with pytest.raises(AttributeError):
            f.clauses.append((1,))

    def test_clause_view_matches_counts_and_cnf(self, m_parity):
        # The benchmark's tracer counts groups and distinct run parts
        # through the `clauses` view.
        f = reduce_machine(m_parity, "11", 3)
        g = reduce_machine(m_parity, "0", 3)
        for h in (f, input_part(f), run_part(f), concatenate(input_part(g), run_part(f))):
            counts = clause_counts(h)
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
        g = f.grid
        broken = dict(solve_dpll(to_cnf(f)).assignment)
        if edit == "two-states":
            broken[g.q[(0, "qrej")]] = True
        elif edit == "two-heads":
            broken[g.h[(1, 0)]] = True
        elif edit == "two-symbols":
            broken[g.s[(1, 1, "0")]] = True
        else:
            for k in g.states:
                broken[g.q[(1, k)]] = False
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
        # falsify the G5 unit without breaking uniqueness
        for k in f.grid.states:
            broken[f.grid.q[(1, k)]] = k == "qrej"
        with pytest.raises((ValueError, MalformedModelError)):
            decode_assignment(f, broken)
