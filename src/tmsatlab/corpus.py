"""The property suite behind the `corpus-test` CLI command and the
acceptance tests, which run it at two sizes.

`corpus_records` takes each corpus case once through the oracle, one
reduction, one solve, certification and the input/run partition. The
checks count over those records or take their witnesses.

Every check is deterministic: fixed fixtures, fixed seeds, fixed
iteration order, so repeated runs produce byte-identical output.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import argument, parity
from .fixtures import fixture_machines, load_fixture, random_corpus
from .machine import (
    ComputationHistory,
    Machine,
    accepts_within,
    extract_particular_table,
    initial_configuration,
    is_deterministic,
    merge_suffix,
    merge_tables,
    rename_history,
    table_generates,
)
from .reduction import (
    INPUT_GROUP,
    LabeledFormula,
    check_history,
    concatenate,
    decode_assignment,
    induced_assignment,
    input_part,
    reduce_machine,
    run_part,
)
from .sat import CnfFormula, check_model, solve_bruteforce, solve_dpll, to_cnf

CORPUS_INPUTS = ("", "0", "1", "01", "11", "110")
CORPUS_BOUND = 4
RANDOM_MACHINE_SEED = 20240917
RANDOM_CNF_SEED = 424242

History = Tuple[Machine, ComputationHistory]


class CaseRecord(NamedTuple):
    """One corpus case: a machine on one input within one bound."""

    machine: Machine
    fixture: bool
    accepted: bool  # the oracle's verdict
    witness: Optional[ComputationHistory]  # the oracle's witness
    sat: bool  # the solver's verdict on the reduction
    certified: bool  # False when unsatisfiable
    partitioned: bool  # clauses well formed, input + run part == reduction


def corpus_records(random_machines: int, fixture_bound: int) -> List[CaseRecord]:
    """The fixture machines at `fixture_bound` and `random_machines` seeded
    random machines at CORPUS_BOUND, each on every input of CORPUS_INPUTS.
    Each case is reduced once and solved once."""
    machines = [(m, True, fixture_bound) for m in fixture_machines()]
    machines += [(m, False, CORPUS_BOUND)
                 for m in random_corpus(RANDOM_MACHINE_SEED, random_machines)]
    records = []
    for m, fixture, bound in machines:
        for y in CORPUS_INPUTS:
            accepted, witness = accepts_within(m, y, bound)
            f = reduce_machine(m, y, bound)
            cnf = to_cnf(f)
            result = solve_dpll(cnf)
            records.append(CaseRecord(
                m, fixture, accepted, witness, result.satisfiable,
                result.satisfiable and _certified(f, cnf, result.assignment),
                _partitioned(f)))
    return records


def _certified(f: LabeledFormula, cnf: CnfFormula, model: Dict[int, bool]) -> bool:
    """The model decodes to a history that passes `check_history` (accepting,
    within the bound, every step licensed) and induces a model of the same
    formula, the one `encode_history` would build again."""
    history = decode_assignment(f, model)
    rule_ids = check_history(f.machine, history, f.bound)
    return check_model(cnf, induced_assignment(history, f.grid, rule_ids))


def _partitioned(f: LabeledFormula) -> bool:
    """No clause holds a variable and its negation (`to_cnf` already
    refuses an empty one); the input part is G4 units and the run part
    holds no G4 clause; joining the parts gives back every group of the
    reduction, clause for clause and in order."""
    cy, cr = input_part(f), run_part(f)
    units = cy.groups[INPUT_GROUP]
    return (all(len(set(map(abs, c))) == len(set(c))
                for c in chain.from_iterable(f.groups.values()))
            and cy.clause_count == len(units) and all(len(c) == 1 for c in units)
            and not cr.groups[INPUT_GROUP]
            and concatenate(cy, cr).groups == f.groups)


def accepted_histories(records: Sequence[CaseRecord]) -> List[History]:
    """(machine, witness) of every accepted case, in record order."""
    return [(r.machine, r.witness) for r in records if r.accepted]


def random_cnf(rng: random.Random) -> CnfFormula:
    n = rng.randint(5, 20)
    n_clauses = rng.randint(3, 80)
    clauses = []
    for _ in range(n_clauses):
        width = rng.randint(1, 3)
        clause = []
        for _ in range(width):
            var = rng.randint(1, n)
            lit = var if rng.random() < 0.5 else -var
            if -lit not in clause and lit not in clause:
                clause.append(lit)
        if clause:
            clauses.append(clause)
    if not clauses:
        clauses.append([1])
    return CnfFormula(n, clauses)


def check_oracle_equivalence(records: Sequence[CaseRecord]) -> Tuple[int, int]:
    return sum(r.sat == r.accepted for r in records), len(records)


def check_certification(records: Sequence[CaseRecord]) -> Tuple[int, int]:
    return sum(r.certified for r in records), sum(r.sat for r in records)


def check_partition(records: Sequence[CaseRecord]) -> Tuple[int, int]:
    return sum(r.partitioned for r in records), len(records)


def check_particular_tables(histories: Sequence[History]) -> Tuple[int, int]:
    good = 0
    for m, h in histories:
        t = extract_particular_table(h, m)
        subset = all(
            set(targets) <= set(m.table.entries.get(key, ()))
            for key, targets in t.entries.items())
        inherit = (not is_deterministic(m.table)) or is_deterministic(t)
        good += table_generates(t, h) and subset and inherit
    return good, len(histories)


def check_merge(histories: Sequence[History]) -> Tuple[int, int]:
    """Every ordered pair (a, b) of distinct histories: the merged table
    generates a's history and b's with its states renamed as merging did."""
    tables = [(extract_particular_table(h, m), h) for m, h in histories]
    good = total = 0
    for ia, (ta, ha) in enumerate(tables):
        states_a = ta.states() | {ha.configs[0].state}
        for ib, (tb, hb) in enumerate(tables):
            if ia == ib:
                continue
            merged = merge_tables(ta, tb, ha.configs[0].state, hb.configs[0].state)
            states_b = tb.states() | {hb.configs[0].state}
            renamed_hb = rename_history(hb, merge_suffix(states_a, states_b))
            total += 1
            renamed_b = merged.states() - states_a - {merged.selector_state}
            good += (merged.selector == (ha.configs[0].state, renamed_hb.configs[0].state)
                     and table_generates(merged, ha)
                     and table_generates(merged, renamed_hb)
                     and not is_deterministic(merged)
                     and merged.states() > states_a
                     and len(renamed_b) == len(states_b)
                     and merged != ta and merged != tb)
    return good, total


def check_parity_machine(histories: Sequence[History], bases: Sequence[Machine],
                         inputs: Sequence[str]) -> Tuple[int, int, int]:
    """One parity-machine run per base and input over the histories of at
    most CORPUS_BOUND transitions. A run is good when its counts hold the
    claims and every satisfiable instance decodes to a run of its entry's
    table from the base's initial configuration on y that ends in the
    entry's accept state. Returns (good runs, runs, satisfiable instances
    checked)."""
    entries = [(m, h) for m, h in histories if h.transitions <= CORPUS_BOUND]
    good = runs = satisfiable = 0
    for base in bases:
        pm = parity.build_parity_machine(entries, CORPUS_BOUND, base)
        for y in inputs:
            report = parity.run_parity_machine(pm, y)
            runs += 1
            start = initial_configuration(base, y)
            ok = (report.accept == (report.counter % 2 == 1)
                  and report.cost >= report.input_clause_count)
            for inst in report.instances:
                if not inst.satisfiable:
                    continue
                satisfiable += 1
                entry, h = entries[inst.index][0], inst.history
                claims = parity.check_counting_claims(
                    parity.transition_metrics(report, inst.index))
                ok = (ok and claims.i_gt_j and claims.j_gt_k
                      and claims.equality_incompatible_with_chain
                      and h.configs[0] == start
                      and h.configs[-1].state == entry.accept
                      and table_generates(entry.table, h))
            good += ok
    return good, runs, satisfiable


def check_solver_agreement(instances: int, seed: int) -> Tuple[int, int]:
    rng = random.Random(seed)
    agree = 0
    for _ in range(instances):
        f = random_cnf(rng)
        agree += solve_dpll(f).satisfiable == solve_bruteforce(f).satisfiable
    return agree, instances


def check_argument_analysis() -> Tuple[int, int]:
    report = argument.analyze_modus_tollens_schema()
    ok = (report["schema_valid"]
          and not report["schema_vacuous"]
          and report["implication_tautology_under_axiom"]
          and not report["negated_implication_satisfiable_under_axiom"]
          and not report["premise_set_satisfiable"]
          and report["valid"] and report["vacuous"])
    return (1 if ok else 0), 1


def _result(name: str, counts: Tuple[int, int]) -> Tuple[bool, str]:
    good, total = counts
    passed = 0 < total == good
    return passed, f"{'PASS' if passed else 'FAIL'} {name}: {good}/{total}"


def run_corpus_checks() -> Iterator[Tuple[bool, str]]:
    """The suite at `corpus-test` size: fixtures at CORPUS_BOUND plus 10
    random machines, the parity machine over the fixture histories with
    base m_accept1 on inputs 0 and 1, and 100 random CNFs. Yields
    (passed, line) as each check ends. A check passes when it holds on
    every one of a non-empty set of cases."""
    records = corpus_records(10, CORPUS_BOUND)
    histories = accepted_histories(records)
    fixture_histories = accepted_histories([r for r in records if r.fixture])
    yield _result("oracle-equivalence", check_oracle_equivalence(records))
    yield _result("certification-round-trip", check_certification(records))
    yield _result("input-run-partition", check_partition(records))
    yield _result("particular-table-round-trip", check_particular_tables(histories))
    yield _result("merge-properties", check_merge(histories))
    yield _result("parity-machine-claims", check_parity_machine(
        fixture_histories, [load_fixture("m_accept1")], ("0", "1"))[:2])
    yield _result("solver-cross-validation",
                  check_solver_agreement(100, RANDOM_CNF_SEED))
    yield _result("argument-analysis", check_argument_analysis())
