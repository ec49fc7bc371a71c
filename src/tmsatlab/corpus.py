"""The fixture property suite behind the `corpus-test` CLI command.

Every check is deterministic: fixed fixtures, fixed seeds, fixed
iteration order, so repeated runs produce byte-identical output.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, List, Tuple

from . import argument, parity
from .fixtures import fixture_machines, random_corpus
from .machine import (
    accepts_within,
    extract_particular_table,
    is_deterministic,
    merge_tables,
    table_generates,
)
from .reduction import (
    clause_counts,
    concatenate,
    decode_assignment,
    encode_history,
    input_part,
    reduce_machine,
    run_part,
)
from .sat import CnfFormula, check_model, solve_bruteforce, solve_dpll, to_cnf

CORPUS_INPUTS = ("", "0", "1", "01", "11", "110")
CORPUS_BOUND = 4
RANDOM_MACHINE_SEED = 20240917
RANDOM_CNF_SEED = 424242


def corpus_cases(random_machines: int = 10):
    machines = fixture_machines() + random_corpus(RANDOM_MACHINE_SEED, random_machines)
    for m in machines:
        for y in CORPUS_INPUTS:
            yield m, y, CORPUS_BOUND


def corpus_histories(random_machines: int = 10):
    """One shortest witness per accepted corpus case."""
    out = []
    for m, y, bound in corpus_cases(random_machines):
        accepted, witness = accepts_within(m, y, bound)
        if accepted:
            out.append((m, witness))
    return out


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


def check_oracle_equivalence(random_machines: int = 10) -> Tuple[int, int]:
    agree = total = 0
    for m, y, bound in corpus_cases(random_machines):
        accepted, _ = accepts_within(m, y, bound)
        result = solve_dpll(to_cnf(reduce_machine(m, y, bound)))
        total += 1
        if result.satisfiable == accepted:
            agree += 1
    return agree, total


def check_certification(random_machines: int = 10) -> Tuple[int, int]:
    good = total = 0
    for m, y, bound in corpus_cases(random_machines):
        f = reduce_machine(m, y, bound)
        result = solve_dpll(to_cnf(f))
        if not result.satisfiable:
            continue
        total += 1
        history = decode_assignment(f, result.assignment)
        refd, induced = encode_history(m, history, bound)
        if (history.configs[-1].state == m.accept
                and history.transitions <= bound
                and check_model(to_cnf(refd), induced)):
            good += 1
    return good, total


def check_partition(random_machines: int = 10) -> Tuple[int, int]:
    good = total = 0
    for m, y, bound in corpus_cases(random_machines):
        f = reduce_machine(m, y, bound)
        cy, cr = input_part(f), run_part(f)
        total += 1
        ok = (all(c.group == "G4" and len(c.literals) == 1 for c in cy.clauses)
              and all(c.group != "G4" for c in cr.clauses)
              and {c.group for c in cr.clauses} <= {"G1", "G2", "G3", "G5", "G6"}
              and Counter(concatenate(cy, cr).clauses) == Counter(f.clauses)
              and cy.clause_count + cr.clause_count == f.clause_count)
        if ok:
            good += 1
    return good, total


def check_particular_tables(random_machines: int = 10) -> Tuple[int, int]:
    good = total = 0
    for m, h in corpus_histories(random_machines):
        total += 1
        t = extract_particular_table(h, m)
        subset = all(
            set(targets) <= set(m.table.entries.get(key, ()))
            for key, targets in t.entries.items())
        inherit = (not is_deterministic(m.table)) or is_deterministic(t)
        if table_generates(t, h) and subset and inherit:
            good += 1
    return good, total


def check_merge(random_machines: int = 10) -> Tuple[int, int]:
    histories = corpus_histories(random_machines)
    good = total = 0
    for ia, (ma, ha) in enumerate(histories):
        for ib, (mb, hb) in enumerate(histories):
            if ia == ib:
                continue
            ta = extract_particular_table(ha, ma)
            tb = extract_particular_table(hb, mb)
            merged = merge_tables(ta, tb, ha.configs[0].state, hb.configs[0].state)
            total += 1
            states_a = ta.states() | {ha.configs[0].state}
            renamed_b = {s for s in merged.states()
                         if s not in states_a and s != merged.selector_state}
            ok = (table_generates(merged, ha)
                  and table_generates(merged, hb)
                  and not is_deterministic(merged)
                  and merged.selector is not None and len(merged.selector) == 2
                  and merged.states() > states_a
                  and len(renamed_b) == len(tb.states() | {hb.configs[0].state})
                  and merged != ta and merged != tb)
            if ok:
                good += 1
    return good, total


def check_parity_machine() -> Tuple[int, int]:
    machines = fixture_machines()
    base = machines[0]  # m_accept1
    histories = []
    for m in machines:
        for y in CORPUS_INPUTS:
            accepted, witness = accepts_within(m, y, CORPUS_BOUND)
            if accepted:
                histories.append((m, witness))
    pm = parity.build_parity_machine(histories, CORPUS_BOUND, base)
    good = total = 0
    for y in ("0", "1"):
        report = parity.run_parity_machine(pm, y)
        total += 1
        ok = report.accept == (report.counter % 2 == 1)
        ok = ok and report.cost >= report.input_clause_count
        for inst in report.instances:
            if not inst.satisfiable:
                continue
            metrics = parity.transition_metrics(report, inst.index)
            claims = parity.check_counting_claims(metrics)
            ok = ok and claims.i_gt_j and claims.j_gt_k
            ok = ok and claims.equality_incompatible_with_chain
        if ok:
            good += 1
    return good, total


def check_solver_agreement(instances: int = 100) -> Tuple[int, int]:
    rng = random.Random(RANDOM_CNF_SEED)
    agree = 0
    for _ in range(instances):
        f = random_cnf(rng)
        if solve_dpll(f).satisfiable == solve_bruteforce(f).satisfiable:
            agree += 1
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


CHECKS: List[Tuple[str, Callable[[], Tuple[int, int]]]] = [
    ("oracle-equivalence", check_oracle_equivalence),
    ("certification-round-trip", check_certification),
    ("input-run-partition", check_partition),
    ("particular-table-round-trip", check_particular_tables),
    ("merge-properties", check_merge),
    ("parity-machine-claims", check_parity_machine),
    ("solver-cross-validation", check_solver_agreement),
    ("argument-analysis", check_argument_analysis),
]


def run_corpus_checks() -> Tuple[List[str], bool]:
    lines = []
    all_ok = True
    for name, fn in CHECKS:
        good, total = fn()
        ok = good == total
        all_ok = all_ok and ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {good}/{total}")
    return lines, all_ok
