"""The parity-counting machine over a stored run-part library.

Builds the machine from encoded accepting computations, executes its
concatenate-solve-count algorithm, accounts the (i, j, k) transition and
clause counts, and checks their ordering claims.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .machine import ComputationHistory, Machine
from .reduction import (
    INPUT_GROUP,
    LabeledFormula,
    check_history,
    clause_counts,
    concatenate,
    decode_assignment,
    encode_history,
    input_part,
    machine_grid_signature,
    reduce_machine,
    run_part,
)
from .sat import solve_dpll, to_cnf


class ParityMachineError(Exception):
    pass


class UndecodedInstanceError(ParityMachineError):
    """Metrics requested for an instance with no decoded history."""


@dataclass
class ParityMachine:
    """A machine whose program embeds a library of run parts; on input y
    it counts the satisfiable concatenations and accepts on odd parity."""

    library: List[LabeledFormula]
    base: Machine
    bound: int
    incompatible_indices: Tuple[int, ...] = ()


@dataclass
class InstanceResult:
    index: int
    clause_count: int
    groups: Dict[str, int]
    satisfiable: bool
    history: Optional[ComputationHistory]


@dataclass
class RunReport:
    input: str
    bound: int
    instances: List[InstanceResult]
    counter: int
    accept: bool
    cost: int
    input_clause_count: int
    designated: Optional[int]  # first satisfiable instance, if any


@dataclass
class Metrics:
    i: int  # clauses materialized across the whole run (machine-step lower bound)
    j: int  # clause count of the designated instance
    k: int  # transitions of its decoded history


@dataclass
class ClaimReport:
    i_gt_j: bool
    j_gt_k: bool
    i_eq_k: bool
    chain: bool
    equality_incompatible_with_chain: bool


def _run_part_key(m: Machine, bound: int) -> tuple:
    """What the run-part clauses of m at `bound` depend on: the grid
    signature (bound, states, tape alphabet), the accept state (G5 and
    padding) and the rules in order (G6; the Tr variables are numbered by
    rule). The start state, blank and input alphabet enter only G4."""
    return machine_grid_signature(m, bound), m.accept, tuple(m.rules())


def build_parity_machine(histories, bound: int, base: Machine) -> ParityMachine:
    """Encode each (machine, accepting history) pair and keep only the
    run part. Entries with the same `_run_part_key` share one run-part
    object, reduced once; every entry's history still gets every check of
    `encode_history`. Entries whose grid signature differs from the base
    machine's are flagged as incompatible."""
    base_sig = machine_grid_signature(base, bound)
    parts: Dict[tuple, LabeledFormula] = {}
    library: List[LabeledFormula] = []
    incompatible: List[int] = []
    for idx, (m, h) in enumerate(histories):
        key = _run_part_key(m, bound)
        if key in parts:
            check_history(m, h, bound)
        else:
            formula, _ = encode_history(m, h, bound)
            parts[key] = run_part(formula)
        library.append(parts[key])
        if key[0] != base_sig:
            incompatible.append(idx)
    return ParityMachine(library, base, bound, tuple(incompatible))


def run_parity_machine(pm: ParityMachine, y: str) -> RunReport:
    """The embedded algorithm: build the input part for y, concatenate it
    with every stored run part in library order, solve each, count the
    satisfiable ones, and accept iff the count is odd. A satisfiable
    instance decodes to a run of the entry's rules from the input part's
    initial configuration, that of the base machine on y.

    Grid-incompatible entries count as unsatisfiable. Entries that share
    a run-part object, and so its grid signature, are counted, charged and
    reported one by one, but the shared part is solved once per call.
    """
    cy = input_part(reduce_machine(pm.base, y, pm.bound))
    memo = {}  # id of a run-part object -> (clauses, groups, satisfiable, history)
    instances: List[InstanceResult] = []
    counter = 0
    for idx, cr in enumerate(pm.library):
        if id(cr) not in memo:
            groups = clause_counts(cr)
            groups[INPUT_GROUP] += cy.clause_count
            satisfiable, history = False, None
            if idx not in pm.incompatible_indices:
                cj = concatenate(cy, cr)
                result = solve_dpll(to_cnf(cj))
                satisfiable = result.satisfiable
                if satisfiable:
                    history = decode_assignment(cj, result.assignment)
            memo[id(cr)] = (cy.clause_count + cr.clause_count, groups, satisfiable, history)
        clause_count, groups, satisfiable, history = memo[id(cr)]
        counter += satisfiable
        instances.append(InstanceResult(idx, clause_count, dict(groups), satisfiable, history))
    cost = sum(inst.clause_count for inst in instances) + cy.clause_count
    designated = next((inst.index for inst in instances if inst.satisfiable), None)
    return RunReport(
        input=y,
        bound=pm.bound,
        instances=instances,
        counter=counter,
        accept=counter % 2 == 1,
        cost=cost,
        input_clause_count=cy.clause_count,
        designated=designated,
    )


def transition_metrics(report: RunReport, chosen: int) -> Metrics:
    """(i, j, k) for a chosen satisfiable instance: the run's total
    materialized clauses, the instance's clause count, and the decoded
    history's transition count."""
    inst = report.instances[chosen]
    if not inst.satisfiable or inst.history is None:
        raise UndecodedInstanceError(
            f"instance {chosen} is unsatisfiable; no decoded history")
    return Metrics(i=report.cost, j=inst.clause_count, k=inst.history.transitions)


def check_counting_claims(m: Metrics) -> ClaimReport:
    """Pure arithmetic on a metrics triple: the strict chain i > j > k
    excludes i = k. The lab finds, and the paper does not claim, that the
    chain holds on every satisfiable instance by size alone: j >= T+1 (G2's
    at-least-one clauses) > T >= k, and i >= j + T + 3 (the input part)."""
    i_gt_j = m.i > m.j
    j_gt_k = m.j > m.k
    i_eq_k = m.i == m.k
    chain = i_gt_j and j_gt_k
    return ClaimReport(
        i_gt_j=i_gt_j,
        j_gt_k=j_gt_k,
        i_eq_k=i_eq_k,
        chain=chain,
        equality_incompatible_with_chain=not (chain and i_eq_k),
    )


def metrics_view(report: RunReport, chosen: int) -> Tuple[dict, dict]:
    """The stable-key JSON view of instance `chosen`'s (i, j, k) and of
    the counting claims on them."""
    m = transition_metrics(report, chosen)
    c = check_counting_claims(m)
    return ({"i": m.i, "j": m.j, "k": m.k},
            {"i_gt_j": c.i_gt_j, "j_gt_k": c.j_gt_k, "i_eq_k": c.i_eq_k})


def report_to_dict(report: RunReport) -> dict:
    """The stable-key JSON view of a run, including the metrics of the
    designated (first satisfiable) instance when one exists."""
    instances = []
    for inst in report.instances:
        instances.append({
            "index": inst.index,
            "clauses": inst.clause_count,
            "groups": inst.groups,  # clause_counts keys, in GROUPS order
            "verdict": "sat" if inst.satisfiable else "unsat",
            "history_len": inst.history.transitions if inst.history else None,
        })
    metrics = claims = None
    if report.designated is not None:
        metrics, claims = metrics_view(report, report.designated)
    return {
        "input": report.input,
        "bound": report.bound,
        "instances": instances,
        "counter": report.counter,
        "accept": report.accept,
        "cost": report.cost,
        "metrics": metrics,
        "claims": claims,
    }


def report_to_json(report: RunReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)
