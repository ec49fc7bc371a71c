"""The benchmark's three workloads.

Each workload draws its cases from a committed pool in `expected/`
(written by `make_expected.py`, which also records the expected answers)
and uses `--seed` to choose among equivalent variants and to order them:

- tableau-deep: one input per fixture class (same verdict and sizes
  within a class) and the order of the classes.
- verify-branching: which flip machines run, on which inputs, and the
  order of all cases. The DPLL-search cases are the same on every seed,
  because their solve time differs tenfold from one random machine to
  the next.
- kim-library: which accepted inputs become each machine's library
  entries, and the library order, which decides the designated instance
  and so (i, j, k).

The variants a seed can pick do the same amount of work, so timings
compare across seeds. Every program call goes through the module
attribute (`machine.accepts_within`, not a local import), so the traced
run sees it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple

from tmsatlab import fixtures, machine, parity, reduction, sat

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


class SetupError(Exception):
    """The program failed while the workload was being set up."""


class Case(NamedTuple):
    label: str
    run: Callable[[], dict]
    expected: dict


def load_pool(name: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text())


def mismatches(answer: dict, expected: dict) -> List[str]:
    """Keys where the answer differs from the expected answer, plus the
    names of the answer's own checks that failed."""
    out = [f"{key}: got {answer.get(key)!r}, expected {value!r}"
           for key, value in expected.items() if answer.get(key) != value]
    out += [f"check {name} failed" for name, ok in answer.get("checks", {}).items() if not ok]
    return out


def _verdict(ok: bool) -> str:
    return "sat" if ok else "unsat"


def _sizes(f) -> dict:
    return {"vars": f.var_count, "clauses": f.clause_count,
            "groups": reduction.clause_counts(f)}


class TableauDeep:
    """Large tableaux of the four fixtures on shallow inputs: reduce,
    DIMACS round trip, solve, decode. The oracle follows one path."""

    name = "tableau-deep"

    def __init__(self, pool: dict, seed: int, small: bool = False):
        rng = random.Random(seed)
        classes = [c for c in pool["classes"] if not small or c["bound"] <= 8]
        self.cases = []
        for c in classes:
            y = rng.choice(sorted(c["inputs"]))
            self.cases.append((c["fixture"], y, c["bound"], c["inputs"][y]))
        rng.shuffle(self.cases)

    def setup(self):
        return {name: fixtures.load_fixture(name) for name in sorted({c[0] for c in self.cases})}

    def pass_cases(self, state) -> List[Case]:
        return [Case(f"{name} y={y} T={bound}",
                     lambda m=state[name], y=y, bound=bound: self.run_case(m, y, bound),
                     expected)
                for name, y, bound, expected in self.cases]

    @staticmethod
    def run_case(m, y: str, bound: int) -> dict:
        accepted, _ = machine.accepts_within(m, y, bound)
        f = reduction.reduce_machine(m, y, bound)
        g = sat.from_dimacs(sat.to_dimacs(f))
        cnf = sat.to_cnf(f)
        result = sat.solve_dpll(g)
        answer = {"verdict": _verdict(accepted), "k": None, **_sizes(f), "checks": {
            "solver agrees with simulator": result.satisfiable == accepted,
            "from_dimacs(to_dimacs(f)) == to_cnf(f)":
                (g.var_count, g.clauses) == (cnf.var_count, cnf.clauses)}}
        if result.satisfiable:
            answer["checks"]["model satisfies the CNF"] = sat.check_model(g, result.assignment)
            answer["k"] = reduction.decode_assignment(f, result.assignment).transitions
        return answer


class VerifyBranching:
    """The `verify` path on all-nondeterministic machines: mostly flip
    machines whose oracle walks 2^T paths, plus sat cases that make the
    DPLL search."""

    name = "verify-branching"
    FLIPS_PER_PASS = 6

    def __init__(self, pool: dict, seed: int, small: bool = False):
        rng = random.Random(seed)
        flips = rng.sample(pool["flips"], 1 if small else self.FLIPS_PER_PASS)
        search = pool["search"][:1] if small else pool["search"]
        self.cases = []
        for entry in flips + search:
            y = rng.choice(sorted(entry["inputs"]))
            self.cases.append((entry["name"], entry["text"], y, entry["bound"],
                               entry["inputs"][y]))
        rng.shuffle(self.cases)

    def setup(self):
        return {name: machine.parse_machine(text, name) for name, text, *_ in self.cases}

    def pass_cases(self, state) -> List[Case]:
        return [Case(f"{name} y={y} T={bound}",
                     lambda m=state[name], y=y, bound=bound: self.run_case(m, y, bound),
                     expected)
                for name, _, y, bound, expected in self.cases]

    @staticmethod
    def run_case(m, y: str, bound: int) -> dict:
        accepted, witness = machine.accepts_within(m, y, bound)
        f = reduction.reduce_machine(m, y, bound)
        cnf = sat.to_cnf(f)
        result = sat.solve_dpll(cnf)
        answer = {"verdict": _verdict(accepted), "k": None, **_sizes(f), "checks": {
            "solver agrees with simulator": result.satisfiable == accepted}}
        if result.satisfiable:
            history = reduction.decode_assignment(f, result.assignment)
            answer["k"] = history.transitions
            answer["checks"].update({
                "model satisfies the CNF": sat.check_model(cnf, result.assignment),
                "decoded history accepts": history.configs[-1].state == m.accept,
                "decoded history no shorter than the witness":
                    witness is not None and history.transitions >= witness.transitions})
        return answer


class KimLibrary:
    """The parity machine over a library whose entries all share the
    base machine's grid, so every instance reaches the solver. Set-up is
    parsing the library, finding each entry's witness and building the
    parity machine; a pass runs it on each input."""

    name = "kim-library"

    def __init__(self, pool: dict, seed: int, small: bool = False):
        rng = random.Random(seed)
        self.bound = pool["bound"]
        self.machines = pool["machines"][:2] if small else pool["machines"]
        per_machine = 1 if small else pool["entries_per_machine"]
        self.entries = [(mi, y) for mi, entry in enumerate(self.machines)
                        for y in rng.sample(entry["accepted"], per_machine)]
        rng.shuffle(self.entries)
        self.base = pool["base"]
        self.inputs = pool["inputs"][:1] if small else list(pool["inputs"])
        rng.shuffle(self.inputs)
        self.input_clauses = pool["input_clauses"]

    def setup(self):
        ms = [machine.parse_machine(entry["text"], entry["name"]) for entry in self.machines]
        histories = []
        for mi, y in self.entries:
            accepted, witness = machine.accepts_within(ms[mi], y, self.bound)
            if not accepted:
                raise SetupError(f"{ms[mi].name} does not accept library input {y!r}")
            histories.append((ms[mi], witness))
        return parity.build_parity_machine(histories, self.bound, ms[self.base])

    def expected(self, y: str) -> dict:
        cy = self.input_clauses[y]
        on = [self.machines[mi]["on"][y] for mi, _ in self.entries]
        clauses = [cy + self.machines[mi]["run_part"]["clauses"] for mi, _ in self.entries]
        counter = sum(o["verdict"] == "sat" for o in on)
        cost = sum(clauses) + cy
        first = next((i for i, o in enumerate(on) if o["verdict"] == "sat"), None)
        return {"verdicts": [o["verdict"] for o in on], "ks": [o["k"] for o in on],
                "clauses": clauses, "counter": counter, "accept": counter % 2 == 1,
                "cost": cost,
                "ijk": None if first is None else [cost, clauses[first], on[first]["k"]]}

    def pass_cases(self, pm) -> List[Case]:
        return [Case(f"y={y}", lambda y=y: self.run_case(pm, y), self.expected(y))
                for y in self.inputs]

    @staticmethod
    def run_case(pm, y: str) -> dict:
        report = parity.run_parity_machine(pm, y)
        answer = {
            "verdicts": [_verdict(inst.satisfiable) for inst in report.instances],
            "ks": [inst.history.transitions if inst.history else None
                   for inst in report.instances],
            "clauses": [inst.clause_count for inst in report.instances],
            "counter": report.counter, "accept": report.accept, "cost": report.cost,
            "ijk": None, "checks": {
                "sat instances decode to accepting histories": all(
                    inst.history.configs[-1].state == pm.base.accept
                    for inst in report.instances if inst.satisfiable)}}
        if report.designated is not None:
            m = parity.transition_metrics(report, report.designated)
            answer["ijk"] = [m.i, m.j, m.k]
            answer["checks"]["i > j > k"] = parity.check_counting_claims(m).chain
        return answer


WORKLOADS: Dict[str, type] = {w.name: w for w in (TableauDeep, VerifyBranching, KimLibrary)}


def make(name: str, seed: int, small: bool = False, pool: dict = None):
    """The workload `name` for `seed`; `small` is the self-test size."""
    return WORKLOADS[name](pool if pool is not None else load_pool(name), seed, small)
