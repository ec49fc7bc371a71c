from typing import List, Tuple

import pytest

from tmsatlab import machine
from tmsatlab.corpus import CORPUS_INPUTS, RANDOM_MACHINE_SEED
from tmsatlab.fixtures import fixture_machines, fixture_text, random_corpus
from tmsatlab.machine import (
    Configuration,
    ComputationHistory,
    IllegalHistoryError,
    Machine,
    MachineSemanticError,
    MachineSyntaxError,
    OracleLimitError,
    TransitionTable,
    accepts_within,
    apply_target,
    extract_particular_table,
    initial_configuration,
    is_deterministic,
    merge_suffix,
    merge_tables,
    parse_machine,
    rename_history,
    step,
    table_generates,
)
from tmsatlab.reduction import reduce_machine
from tmsatlab.sat import solve_dpll, to_cnf


# Two states that rewrite cell 0 in place; every configuration has two
# distinct successors and none accepts, so 2^T paths but 4 configurations.
CELL0_FLIP = """\
states: q0 q1 qacc
start: q0
accept: qacc
blank: _
input_alphabet: 0 1
tape_alphabet: 0 1 _
rule: q0 0 -> q0 1 S
rule: q0 0 -> q1 0 S
rule: q0 1 -> q0 0 S
rule: q0 1 -> q1 1 S
rule: q1 0 -> q1 1 S
rule: q1 0 -> q0 0 S
rule: q1 1 -> q1 0 S
rule: q1 1 -> q0 1 S
"""


def enumerate_accepting_histories(
        m: Machine, input_str: str, bound: int, limit: int) -> List[ComputationHistory]:
    """All accepting histories of at most `bound` transitions, breadth-first,
    ties broken by rule declaration order, truncated at `limit`.

    The search runs over *paths* with no visited set, so its cost grows
    exponentially in `bound` on a branching machine. It is the
    path-by-path reference that `accepts_within` is compared with.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if limit < 1:
        raise ValueError("limit must be at least 1")
    init = initial_configuration(m, input_str)
    out: List[ComputationHistory] = []
    if init.state == m.accept:
        out.append(ComputationHistory((init,), input_str))
        return out[:limit]
    frontier: List[Tuple[Configuration, ...]] = [(init,)]
    for _ in range(bound):
        nxt: List[Tuple[Configuration, ...]] = []
        for path in frontier:
            for nc in step(m, path[-1]):
                new_path = path + (nc,)
                if nc.state == m.accept:
                    out.append(ComputationHistory(new_path, input_str))
                    if len(out) >= limit:
                        return out
                else:
                    nxt.append(new_path)
        frontier = nxt
        if not frontier:
            break
    return out


class TestParse:
    def test_fixture_has_three_entries(self, m_accept1):
        assert len(m_accept1.table.entries) == 3
        assert m_accept1.start == "q0"
        assert m_accept1.accept == "qacc"

    def test_undeclared_target_state(self):
        text = fixture_text("m_accept1") + "rule: q0 1 -> qmissing 1 R\n"
        with pytest.raises(MachineSemanticError):
            parse_machine(text)

    def test_empty_text(self):
        with pytest.raises(MachineSyntaxError):
            parse_machine("")

    def test_comment_only_text(self):
        with pytest.raises(MachineSyntaxError):
            parse_machine("# nothing here\n")

    def test_transition_out_of_accept(self):
        text = fixture_text("m_accept1") + "rule: qacc 1 -> q0 1 R\n"
        with pytest.raises(MachineSemanticError):
            parse_machine(text)

    def test_missing_key(self):
        with pytest.raises(MachineSemanticError):
            parse_machine("states: q0 qacc\nstart: q0\naccept: qacc\n")

    def test_bad_rule_syntax_carries_line_number(self):
        text = fixture_text("m_accept1") + "rule: q0 1 qacc 1 R\n"
        with pytest.raises(MachineSyntaxError, match="line"):
            parse_machine(text)

    def test_repeated_keys_accumulate_targets(self, m_nd):
        assert len(m_nd.table.entries[("q0", "1")]) == 2

    def test_repeated_rule_kept_once_in_first_position(self, m_nd):
        again = parse_machine(fixture_text("m_nd") + "rule: q0 1 -> qacc 1 R\n")
        assert again.rules() == m_nd.rules()


class TestStep:
    def test_single_applicable_rule(self, m_accept1):
        c = Configuration("q0", 0, ("1",))
        assert step(m_accept1, c) == [Configuration("qacc", 1, ("1", "_"))]

    def test_nondeterministic_branching(self, m_nd):
        assert len(step(m_nd, Configuration("q0", 0, ("1",)))) == 2

    def test_stuck_configuration(self, m_parity):
        # qo has no rule on blank
        assert step(m_parity, Configuration("qo", 0, ("_",))) == []

    def test_left_move_clamps_at_zero(self):
        m = parse_machine(
            "states: q0 q1 qacc\nstart: q0\naccept: qacc\nblank: _\n"
            "input_alphabet: 0 1\ntape_alphabet: 0 1 _\n"
            "rule: q0 1 -> q1 1 L\n")
        assert step(m, Configuration("q0", 0, ("1",))) == [
            Configuration("q1", 0, ("1",))]

    def test_step_on_accept_rejected(self, m_accept1):
        with pytest.raises(ValueError):
            step(m_accept1, Configuration("qacc", 0, ("1",)))


class TestBoundedSearch:
    def test_accepts_one_in_one_step(self, m_accept1):
        accepted, witness = accepts_within(m_accept1, "1", 1)
        assert accepted and witness.transitions == 1

    def test_rejects_zero(self, m_accept1):
        accepted, witness = accepts_within(m_accept1, "0", 5)
        assert not accepted and witness is None

    def test_nondeterministic_accept(self, m_nd):
        accepted, witness = accepts_within(m_nd, "1", 1)
        assert accepted and witness.configs[-1].state == "qacc"

    def test_enumerate_single_history(self, m_accept1):
        assert len(enumerate_accepting_histories(m_accept1, "1", 3, 10)) == 1

    def test_loop_never_accepts(self, m_loop):
        assert enumerate_accepting_histories(m_loop, "", 10, 10) == []

    def test_nd_only_accepting_branch(self, m_nd):
        assert len(enumerate_accepting_histories(m_nd, "1", 1, 10)) == 1

    def test_enumeration_deterministic(self, m_nd):
        a = enumerate_accepting_histories(m_nd, "1", 4, 10)
        b = enumerate_accepting_histories(m_nd, "1", 4, 10)
        assert repr(a) == repr(b)

    def test_transition_count(self, m_parity):
        _, witness = accepts_within(m_parity, "11", 4)
        assert witness.transitions == len(witness.configs) - 1 == 3

    def test_input_outside_alphabet(self, m_accept1):
        with pytest.raises(MachineSemanticError):
            accepts_within(m_accept1, "2", 1)

    def test_negative_bound(self, m_accept1):
        with pytest.raises(ValueError):
            accepts_within(m_accept1, "1", -1)

    def test_configuration_limit(self, monkeypatch, tape_growing_text):
        # Within T steps the search visits 2^(T+1) - 1 configurations.
        monkeypatch.setattr(machine, "ORACLE_CONFIG_LIMIT", 15)
        m = parse_machine(tape_growing_text, name="grow")
        assert accepts_within(m, "", 3) == (False, None)
        with pytest.raises(OracleLimitError, match="limit of 15 configurations"):
            accepts_within(m, "", 4)

    def test_cell_limit(self, monkeypatch, right_moving_text):
        # On input "1" the configurations stored within T steps hold
        # 1 + 2 + ... + (T + 1) cells: 21 at T=5, 28 at T=6.
        monkeypatch.setattr(machine, "ORACLE_CELL_LIMIT", 21)
        m = parse_machine(right_moving_text, name="right")
        assert accepts_within(m, "1", 5) == (False, None)
        with pytest.raises(OracleLimitError,
                           match=r"limit of 21 stored tape cells \(ORACLE_CELL_LIMIT\)"):
            accepts_within(m, "1", 6)


@pytest.mark.parametrize(
    "m", fixture_machines() + random_corpus(RANDOM_MACHINE_SEED, 52),
    ids=lambda m: m.name)
def test_oracle_matches_path_enumeration(m):
    """The configuration search returns the path search's verdict and
    witness: shortest first, ties broken by rule declaration order."""
    for y in CORPUS_INPUTS:
        for bound in range(6):
            found = enumerate_accepting_histories(m, y, bound, 1)
            expected = (True, found[0]) if found else (False, None)
            assert accepts_within(m, y, bound) == expected, (y, bound)


def test_oracle_on_branching_flip_machine():
    m = parse_machine(CELL0_FLIP, name="cell0_flip")
    accepted, _ = accepts_within(m, "0", 20)
    assert accepted == solve_dpll(to_cnf(reduce_machine(m, "0", 20))).satisfiable


class TestParticularTables:
    def test_single_transition_extraction(self, m_accept1):
        _, witness = accepts_within(m_accept1, "1", 1)
        t = extract_particular_table(witness, m_accept1)
        assert t.entries == {("q0", "1"): (("qacc", "1", "R"),)}

    def test_single_configuration_gives_empty_table(self, m_accept1):
        h = ComputationHistory((initial_configuration(m_accept1, "1"),), "1")
        assert extract_particular_table(h, m_accept1).entries == {}

    def test_parity_extraction_counts_distinct_pairs(self, m_parity):
        _, witness = accepts_within(m_parity, "11", 4)
        used = set()
        for idx in range(witness.transitions):
            c = witness.configs[idx]
            used.add((c.state, c.tape[c.head]))
        t = extract_particular_table(witness, m_parity)
        assert set(t.entries) == used and len(t.entries) == 3

    def test_targets_in_first_use_order(self):
        # The history uses rule b, then a, then b again, though a is
        # declared first: the table lists each once, in first-use order.
        m = parse_machine("states: q0 qacc\nstart: q0\naccept: qacc\nblank: _\n"
                          "input_alphabet: 1\ntape_alphabet: 0 1 _\n"
                          "rule: q0 1 -> q0 1 R\nrule: q0 1 -> q0 0 R\n"
                          "rule: q0 _ -> qacc _ S\n")
        a, b = m.table.entries[("q0", "1")]
        accept = ("qacc", "_", "S")
        configs = [initial_configuration(m, "111")]
        for target in (b, a, b, accept):
            configs.append(apply_target(configs[-1], target, m.blank))
        t = extract_particular_table(ComputationHistory(tuple(configs), "111"), m)
        assert t.entries == {("q0", "1"): (b, a), ("q0", "_"): (accept,)}

    def test_illegal_history_names_offending_index(self, m_accept1):
        bad = ComputationHistory(
            (initial_configuration(m_accept1, "1"),
             Configuration("qrej", 0, ("1",))), "1")
        with pytest.raises(IllegalHistoryError) as exc:
            extract_particular_table(bad, m_accept1)
        assert exc.value.index == 0

    def test_extraction_generation_round_trip(self, fixture_set):
        for m in fixture_set:
            for y in ("", "0", "1", "11", "110"):
                accepted, witness = accepts_within(m, y, 5)
                if not accepted:
                    continue
                t = extract_particular_table(witness, m)
                assert table_generates(t, witness)
                for key, targets in t.entries.items():
                    assert set(targets) <= set(m.table.entries[key])

    def test_single_config_generated_by_empty_table(self, m_accept1):
        h = ComputationHistory((initial_configuration(m_accept1, "1"),), "1")
        assert table_generates(TransitionTable(), h)

    def test_foreign_history_not_generated(self, m_accept1, m_parity):
        _, witness = accepts_within(m_parity, "11", 4)
        assert not table_generates(m_accept1.table, witness)

    def test_bare_table_licenses_right_move_onto_any_new_cell(self):
        # A bare table names no blank, so the cell a right move off the
        # end adds may hold any symbol, here a non-blank one.
        t = TransitionTable({("q0", "1"): (("q1", "0", "R"),)})
        h = ComputationHistory((Configuration("q0", 0, ("1",)),
                                Configuration("q1", 1, ("0", "1"))), "1")
        assert table_generates(t, h)

    def test_bare_table_rejects_growth_without_right_move_off_end(self):
        t = TransitionTable({("q0", "1"): (("q1", "0", "S"),
                                           ("q1", "0", "R"))})
        c1 = Configuration("q0", 0, ("1", "0"))
        for c2 in (Configuration("q1", 0, ("0", "0", "_")),
                   Configuration("q1", 1, ("0", "0", "_"))):
            assert not table_generates(t, ComputationHistory((c1, c2), "10"))


class TestDeterminism:
    def test_empty_table_deterministic(self):
        assert is_deterministic(TransitionTable())

    def test_extracted_from_deterministic_machine(self, m_accept1):
        _, witness = accepts_within(m_accept1, "1", 1)
        assert is_deterministic(extract_particular_table(witness, m_accept1))

    def test_nondeterministic_table(self, m_nd):
        assert not is_deterministic(m_nd.table)


class TestMerge:
    def make_merged(self, m_accept1, m_parity):
        return merge_tables(m_accept1.table, m_parity.table,
                            m_accept1.start, m_parity.start)

    def test_selector_targets(self, m_accept1, m_parity):
        merged = self.make_merged(m_accept1, m_parity)
        assert merged.selector == ("q0", "qe'")
        assert merged.selector_state == "q_start"

    def test_generates_both_histories(self, m_accept1, m_parity):
        # The second table's states are renamed, so the merged table
        # generates its history only under the same renaming.
        merged = self.make_merged(m_accept1, m_parity)
        _, ha = accepts_within(m_accept1, "1", 1)
        _, hb = accepts_within(m_parity, "11", 4)
        suffix = merge_suffix(m_accept1.table.states() | {m_accept1.start},
                              m_parity.table.states() | {m_parity.start})
        assert suffix == "'"
        assert table_generates(merged, ha)
        assert table_generates(merged, rename_history(hb, suffix))
        assert not table_generates(merged, hb)

    def test_state_set_is_fresh(self, m_accept1, m_parity):
        merged = self.make_merged(m_accept1, m_parity)
        assert merged.states() != m_accept1.table.states()
        assert merged.states() != m_parity.table.states()
        assert "q_start" in merged.states()

    def test_merge_is_nondeterministic(self, m_accept1, m_parity):
        assert not is_deterministic(self.make_merged(m_accept1, m_parity))

    def test_merge_differs_from_inputs(self, m_accept1, m_parity):
        merged = self.make_merged(m_accept1, m_parity)
        assert merged != m_accept1.table and merged != m_parity.table

    def test_colliding_state_names_get_primed(self, m_accept1):
        merged = merge_tables(m_accept1.table, m_accept1.table, "q0", "q0")
        assert merged.selector == ("q0", "q0'")
        assert ("q0'", "1") in merged.entries
        assert ("q0", "1") in merged.entries
