import random
from dataclasses import replace

import pytest

from tmsatlab import parity
from tmsatlab.corpus import CORPUS_BOUND, CORPUS_INPUTS
from tmsatlab.fixtures import fixture_machines, fixture_text, random_corpus
from tmsatlab.machine import (
    ComputationHistory,
    Configuration,
    accepts_within,
    initial_configuration,
    parse_machine,
    table_generates,
)
from tmsatlab.parity import (
    Metrics,
    ParityMachine,
    UndecodedInstanceError,
    build_parity_machine,
    check_counting_claims,
    report_to_dict,
    report_to_json,
    run_parity_machine,
    transition_metrics,
)
from tmsatlab.reduction import encode_history, reduce_machine, run_part


def witness(m, y, bound=4):
    accepted, h = accepts_within(m, y, bound)
    assert accepted
    return h


@pytest.fixture(scope="module")
def single_entry(m_accept1):
    h = witness(m_accept1, "1")
    return build_parity_machine([(m_accept1, h)], 4, m_accept1)


class TestBuild:
    def test_single_entry_library(self, single_entry):
        assert len(single_entry.library) == 1
        groups = single_entry.library[0].groups
        assert [group for group, clauses in groups.items() if not clauses] == ["G4"]
        assert single_entry.incompatible_indices == ()

    def test_empty_library(self, m_accept1):
        pm = build_parity_machine([], 4, m_accept1)
        assert pm.library == []

    def test_mismatched_grid_flagged(self, m_accept1, m_parity):
        pm = build_parity_machine(
            [(m_accept1, witness(m_accept1, "1")),
             (m_parity, witness(m_parity, "11"))],
            4, m_accept1)
        assert pm.incompatible_indices == (1,)


class TestRun:
    def test_single_satisfiable_instance_accepts(self, single_entry):
        report = run_parity_machine(single_entry, "1")
        assert report.counter == 1 and report.accept

    def test_even_count_rejects(self, m_accept1):
        h = witness(m_accept1, "1")
        pm = build_parity_machine([(m_accept1, h), (m_accept1, h)], 4, m_accept1)
        report = run_parity_machine(pm, "1")
        assert report.counter == 2 and not report.accept

    def test_empty_library_rejects(self, m_accept1):
        pm = build_parity_machine([], 4, m_accept1)
        report = run_parity_machine(pm, "1")
        assert report.counter == 0 and not report.accept

    def test_incompatible_entry_counts_unsat(self, m_accept1, m_parity):
        pm = build_parity_machine(
            [(m_parity, witness(m_parity, "11"))], 4, m_accept1)
        report = run_parity_machine(pm, "11")
        assert not report.instances[0].satisfiable
        assert report.counter == 0

    def test_counter_invariant_under_permutation(self, m_accept1, m_nd):
        entries = [(m_accept1, witness(m_accept1, "1")),
                   (m_nd, witness(m_nd, "1")),
                   (m_accept1, witness(m_accept1, "11"))]
        a = run_parity_machine(build_parity_machine(entries, 4, m_accept1), "1")
        b = run_parity_machine(
            build_parity_machine(entries[::-1], 4, m_accept1), "1")
        assert a.counter == b.counter

    def test_cost_monotone_in_library(self, m_accept1):
        h = witness(m_accept1, "1")
        small = run_parity_machine(
            build_parity_machine([(m_accept1, h)], 4, m_accept1), "1")
        large = run_parity_machine(
            build_parity_machine([(m_accept1, h)] * 2, 4, m_accept1), "1")
        assert large.cost > small.cost

    def test_report_json_deterministic(self, single_entry):
        a = report_to_json(run_parity_machine(single_entry, "1"))
        b = report_to_json(run_parity_machine(single_entry, "1"))
        assert a == b


class TestSharedRunParts:
    """Entries whose machines differ at most in name, start state, blank,
    input alphabet or reject state share one run part, solved once per
    input, with per-instance results unchanged."""

    @staticmethod
    def corpus_library():
        machines = fixture_machines()
        aliases = [parse_machine(fixture_text("m_nd"), name) for name in ("nd_a", "nd_b")]
        histories = []
        for m in machines + aliases:
            for y in CORPUS_INPUTS:
                accepted, h = accepts_within(m, y, CORPUS_BOUND)
                if accepted:
                    histories.append((m, h))
        return histories, machines[0]

    def test_shared_library_matches_per_entry_library(self):
        histories, base = self.corpus_library()
        shared = build_parity_machine(histories, CORPUS_BOUND, base)
        per_entry = [run_part(encode_history(m, h, CORPUS_BOUND)[0]) for m, h in histories]
        base_sig = reduce_machine(base, "", CORPUS_BOUND).grid.signature
        incompatible = tuple(idx for idx, entry in enumerate(per_entry)
                             if entry.grid.signature != base_sig)
        direct = ParityMachine(per_entry, base, CORPUS_BOUND, incompatible)
        assert shared.incompatible_indices == incompatible
        assert len({id(entry) for entry in shared.library}) < len(shared.library)
        names = [m.name for m, _ in histories]
        alias_entries = {id(shared.library[i]) for i, n in enumerate(names)
                         if n in ("m_nd", "nd_a", "nd_b")}
        assert len(alias_entries) == 1
        for y in ("0", "1"):
            a = run_parity_machine(shared, y)
            b = run_parity_machine(direct, y)
            assert report_to_dict(a) == report_to_dict(b)
            assert [inst.history for inst in a.instances] == \
                [inst.history for inst in b.instances]
            assert [inst.groups for inst in a.instances] == \
                [inst.groups for inst in b.instances]
            assert len({id(inst.groups) for inst in a.instances}) == len(a.instances)

    def test_one_solve_per_distinct_run_part(self, m_accept1, m_nd, monkeypatch):
        calls = []
        solve = parity.solve_dpll

        def counting_solve(f):
            calls.append(f)
            return solve(f)

        monkeypatch.setattr(parity, "solve_dpll", counting_solve)
        entries = [(m_accept1, witness(m_accept1, y)) for y in ("1", "11", "110", "1")]
        entries.append((m_nd, witness(m_nd, "1")))
        pm = build_parity_machine(entries, 4, m_accept1)
        for y in ("0", "1"):
            calls.clear()
            report = run_parity_machine(pm, y)
            assert len(calls) == 2
            assert len(report.instances) == 5

    @staticmethod
    def variants(m, rng):
        """Four copies of m with a random name, start state, blank, input
        alphabet and reject state."""
        states, symbols = sorted(m.states), sorted(m.tape_alphabet)
        for v in range(4):
            inputs = rng.sample(symbols, rng.randint(1, len(symbols)))
            yield replace(m, name=f"{m.name}_{v}", start=rng.choice(states),
                          blank=rng.choice(symbols), input_alphabet=frozenset(inputs),
                          reject=rng.choice(states + [None]))

    @staticmethod
    def run_part_of(m, bound, rng):
        """What run parts are compared by, on a random input of m."""
        y = "".join(rng.choice(sorted(m.input_alphabet)) for _ in range(rng.randint(0, bound)))
        f = run_part(reduce_machine(m, y, bound))
        return f.groups, f.var_count, f.grid.signature, list(f.grid.labels())

    @pytest.mark.parametrize("bound", [1, 3])
    def test_equal_keys_give_identical_run_parts(self, bound):
        # The README's claim that sharing rests on, over 40 random
        # machines and the fixtures: a run part depends only on the bound,
        # states, tape alphabet, accept state and rules.
        rng = random.Random(bound)
        pairs = 0
        for m in random_corpus(20, 40) + fixture_machines():
            expected = self.run_part_of(m, bound, rng)
            for v in self.variants(m, rng):
                assert parity._run_part_key(v, bound) == parity._run_part_key(m, bound)
                assert self.run_part_of(v, bound, rng) == expected
                pairs += 1
        assert pairs == 44 * 4

    def test_start_and_input_alphabet_do_not_split_run_parts(self, monkeypatch):
        # The three machines differ only in start state or input alphabet,
        # which enter G4 alone, so their run parts are equal.
        rules = ("q0 1 -> qacc 1 R", "q1 1 -> qacc 1 R")
        machines = [grid_machine("a", rules=rules),
                    grid_machine("b", start="q1", rules=rules),
                    grid_machine("c", inputs="1", rules=rules)]
        entries = [(m, witness(m, "1")) for m in machines]
        shared = build_parity_machine(entries, 4, machines[0])
        assert len({id(entry) for entry in shared.library}) == 1
        per_entry = [run_part(encode_history(m, h, 4)[0]) for m, h in entries]
        direct = ParityMachine(per_entry, machines[0], 4, ())
        calls = []
        solve = parity.solve_dpll
        monkeypatch.setattr(parity, "solve_dpll", lambda f: calls.append(f) or solve(f))
        for y in ("0", "1"):
            calls.clear()
            report = run_parity_machine(shared, y)
            assert len(calls) == 1
            assert report_to_dict(report) == report_to_dict(run_parity_machine(direct, y))

    @staticmethod
    def bad_history(kind, m_accept1, m_parity):
        """(machine, good history, bad history, bound) with the bad history
        failing exactly one check of encode_history."""
        if kind == "exceeds bound":
            return m_parity, witness(m_parity, "", 2), witness(m_parity, "11", 8), 2
        if kind == "input too long":
            return m_accept1, witness(m_accept1, "1", 1), witness(m_accept1, "1100", 1), 1
        init = initial_configuration(m_accept1, "0")
        end = "qacc" if kind == "illegal" else "qrej"
        bad = ComputationHistory((init, Configuration(end, 1, ("0", "_"))), "0")
        return m_accept1, witness(m_accept1, "1"), bad, 4

    @pytest.mark.parametrize("kind", ["illegal", "not accepting", "exceeds bound",
                                      "input too long"])
    def test_repeated_entry_still_checked(self, kind, m_accept1, m_parity):
        m, good, bad, bound = self.bad_history(kind, m_accept1, m_parity)
        alias = parse_machine(fixture_text(m.name), "alias")
        with pytest.raises(Exception) as expected:
            encode_history(alias, bad, bound)
        with pytest.raises(expected.type) as got:
            build_parity_machine([(m, good), (alias, bad)], bound, m)
        assert str(got.value) == str(expected.value)

    def test_bound_below_one_rejected(self, m_accept1):
        with pytest.raises(ValueError, match="bound must be at least 1"):
            build_parity_machine([], 0, m_accept1)


def grid_machine(name, start="q0", inputs="0 1", rules=()):
    """A machine over states q0 q1 qacc and tape alphabet 0 1 _."""
    lines = ["states: q0 q1 qacc", f"start: {start}", "accept: qacc", "blank: _",
             f"input_alphabet: {inputs}", "tape_alphabet: 0 1 _"]
    return parse_machine("\n".join(lines + [f"rule: {r}" for r in rules]), name)


class TestDecodeFromInputPart:
    """A satisfiable concatenation decodes to a run of the entry's rules
    from the base machine's initial configuration on y, even where the
    entry's own machine starts elsewhere or does not take y as input."""

    CASES = {
        "other start": (
            grid_machine("base", start="q1"),
            grid_machine("entry", rules=("q0 1 -> qacc 1 R", "q1 1 -> q0 1 S")),
            "1"),
        "narrower input alphabet": (
            grid_machine("base"),
            grid_machine("entry", inputs="0",
                         rules=("q0 0 -> qacc 0 R", "q0 1 -> qacc 1 R")),
            "0"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sat_instance_decodes_from_base_start(self, case):
        base, entry, entry_input = self.CASES[case]
        pm = build_parity_machine([(entry, witness(entry, entry_input))], 4, base)
        report = run_parity_machine(pm, "1")
        inst = report.instances[0]
        assert inst.satisfiable and report.accept
        assert inst.history.configs[0] == initial_configuration(base, "1")
        assert inst.history.configs[-1].state == entry.accept
        assert table_generates(entry.table, inst.history)
        assert check_counting_claims(transition_metrics(report, 0)).chain


class TestMetrics:
    def test_cost_identity_single_entry(self, single_entry):
        report = run_parity_machine(single_entry, "1")
        metrics = transition_metrics(report, 0)
        assert metrics.i == report.input_clause_count + metrics.j
        assert metrics.i > metrics.j

    def test_clause_count_exceeds_transitions(self, single_entry):
        report = run_parity_machine(single_entry, "1")
        metrics = transition_metrics(report, 0)
        assert metrics.j > metrics.k

    def test_full_chain(self, single_entry):
        report = run_parity_machine(single_entry, "1")
        claims = check_counting_claims(transition_metrics(report, 0))
        assert claims.chain and not claims.i_eq_k

    def test_unsatisfiable_instance_has_no_metrics(self, m_accept1, m_parity):
        pm = build_parity_machine(
            [(m_parity, witness(m_parity, "11"))], 4, m_accept1)
        report = run_parity_machine(pm, "11")
        with pytest.raises(UndecodedInstanceError):
            transition_metrics(report, 0)


class TestClaims:
    def test_strict_chain(self):
        claims = check_counting_claims(Metrics(30, 12, 1))
        assert claims.i_gt_j and claims.j_gt_k and not claims.i_eq_k
        assert claims.equality_incompatible_with_chain

    def test_all_equal(self):
        claims = check_counting_claims(Metrics(5, 5, 5))
        assert not claims.chain and claims.i_eq_k
        assert claims.equality_incompatible_with_chain

    def test_chain_excludes_equality_everywhere(self):
        for i in range(6):
            for j in range(6):
                for k in range(6):
                    claims = check_counting_claims(Metrics(i, j, k))
                    if claims.chain:
                        assert not claims.i_eq_k
                        assert claims.equality_incompatible_with_chain
