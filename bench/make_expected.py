"""Generate the benchmark's case pools and their expected answers.

    python3 bench/make_expected.py           # rewrite bench/expected/*.json
    python3 bench/make_expected.py --check   # exit 1 if a committed file differs

Each pool is built from a fixed pool seed, so the files are reproducible.
Verdicts come from the machine simulator (`accepts_within`). Sizes
(variables, clauses per group) and the transition count `k` of a decoded
model are the program's outputs at the commit that wrote the file; they
are recorded so that any change to them shows as a failed case. An
intended change to the encoding or the solver's model choice therefore
comes with a regenerated file.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tmsatlab import fixtures, machine, parity, reduction, sat  # noqa: E402

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
SYMBOLS = ("0", "1", "_")

FLIP_POOL_SEED = 1701
FLIP_MACHINES = 12
FLIP_BOUND = 16
FLIP_INPUTS_PER_MACHINE = 4
# (generator seed, input, bound) of right-walking branchers on which the
# DPLL search backtracks: solve takes several times its propagation-only
# time. Chosen once by scanning generator seeds; the cost is not
# deterministic, so the list is fixed here rather than recomputed.
SEARCH_CASES = (
    (4, "100010010", 12),
    (18, "110010010", 12),
    (37, "011000110", 12),
    (39, "000001000", 12),
)

KIM_POOL_SEED = 2014
KIM_MACHINES = 12
KIM_BOUND = 6
KIM_ENTRIES_PER_MACHINE = 4
# Three inputs of different cost: the median and the 80th percentile of
# case times then fall inside one input's cluster, not between two.
KIM_INPUTS = ("0", "01", "110")

TABLEAU_CLASSES = (
    # (fixture, bound, candidate inputs): each class keeps one verdict.
    ("m_parity", 4, ("000", "011", "101", "110")),
    ("m_parity", 8, ("000", "011", "101", "110")),
    ("m_parity", 16, ("000", "011", "101", "110")),
    ("m_parity", 32, ("000", "011", "101", "110")),
    ("m_parity", 48, ("000", "011", "101", "110")),
    ("m_loop", 16, tuple("".join(p) for p in product("01", repeat=3))),
    ("m_loop", 32, tuple("".join(p) for p in product("01", repeat=3))),
    ("m_accept1", 32, ("100", "101", "110", "111")),
    ("m_nd", 32, ("100", "101", "110", "111")),
)


def machine_text(work, rules) -> str:
    lines = [f"states: {' '.join(work)} qacc", "start: q0", "accept: qacc",
             "blank: _", "input_alphabet: 0 1", "tape_alphabet: 0 1 _"]
    lines += [f"rule: {s} {a} -> {n} {w} {mv}" for s, a, n, w, mv in rules]
    return "\n".join(lines) + "\n"


def flip_machine(rng: random.Random) -> str:
    """Every (state, symbol) has two stay-in-place targets that differ in
    state or written symbol, and no rule enters the accept state: every
    configuration has two distinct successors and nothing accepts, so
    the oracle walks 2^T paths while unit propagation refutes the CNF."""
    work = ("q0", "q1")
    pairs = [(n, w) for n in work for w in SYMBOLS]
    rules = [(s, a, n, w, "S") for s in work for a in SYMBOLS
             for n, w in rng.sample(pairs, 2)]
    return machine_text(work, rules)


def brancher(rng: random.Random) -> str:
    """Two right-moving targets per (state, symbol), distinct in state or
    written symbol; the accept state is among the targets."""
    work = ("q0", "q1")
    pairs = [(n, w) for n in work + ("qacc",) for w in SYMBOLS]
    rules = [(s, a, n, w, "R") for s in work for a in SYMBOLS
             for n, w in rng.sample(pairs, 2)]
    return machine_text(work, rules)


def kim_machine(rng: random.Random) -> str:
    """Three work states; one target per (state, symbol) except two
    seeded pairs with two, so every machine has 11 rules and all share
    one variable grid."""
    work = ("q0", "q1", "q2")
    keys = [(s, a) for s in work for a in SYMBOLS]
    doubled = set(rng.sample(range(len(keys)), 2))
    rules = []
    for ki, (s, a) in enumerate(keys):
        targets = []
        while len(targets) < (2 if ki in doubled else 1):
            t = (rng.choice(work + ("qacc",)), rng.choice(SYMBOLS), rng.choice("LRS"))
            if t not in targets:
                targets.append(t)
        rules += [(s, a) + t for t in targets]
    return machine_text(work, rules)


def sizes(f) -> dict:
    return {"vars": f.var_count, "clauses": f.clause_count,
            "groups": reduction.clause_counts(f)}


def solved_k(f):
    """Transitions of the history decoded from the solver's model."""
    result = sat.solve_dpll(sat.to_cnf(f))
    if not result.satisfiable:
        return None
    return reduction.decode_assignment(f, result.assignment).transitions


def answer(m, y: str, bound: int) -> dict:
    accepted, witness = machine.accepts_within(m, y, bound)
    f = reduction.reduce_machine(m, y, bound)
    k = solved_k(f)
    if (k is not None) != accepted:
        raise SystemExit(f"simulator and solver disagree on {m.name} {y!r} T={bound}")
    if accepted and k < witness.transitions:
        raise SystemExit(f"decoded history shorter than the shortest witness: {m.name} {y!r}")
    return {"verdict": "sat" if accepted else "unsat", "k": k, **sizes(f)}


def tableau_pool() -> dict:
    classes = []
    for name, bound, inputs in TABLEAU_CLASSES:
        m = fixtures.load_fixture(name)
        answers = {y: answer(m, y, bound) for y in inputs}
        if len({a["verdict"] for a in answers.values()}) != 1:
            raise SystemExit(f"class {name} T={bound} mixes verdicts")
        classes.append({"fixture": name, "bound": bound, "inputs": answers})
    return {"workload": "tableau-deep", "classes": classes}


def verify_pool() -> dict:
    rng = random.Random(FLIP_POOL_SEED)
    flips = []
    for idx in range(FLIP_MACHINES):
        name = f"flip{idx:02d}"
        text = flip_machine(rng)
        m = machine.parse_machine(text, name)
        inputs = sorted(rng.sample(["".join(p) for p in product("01", repeat=3)],
                                   FLIP_INPUTS_PER_MACHINE))
        flips.append({"name": name, "text": text, "bound": FLIP_BOUND,
                      "inputs": {y: answer(m, y, FLIP_BOUND) for y in inputs}})
    search = []
    for gen_seed, y, bound in SEARCH_CASES:
        name = f"branch{gen_seed:03d}"
        text = brancher(random.Random(gen_seed))
        m = machine.parse_machine(text, name)
        search.append({"name": name, "text": text, "bound": bound,
                       "inputs": {y: answer(m, y, bound)}})
    return {"workload": "verify-branching", "flips": flips, "search": search}


def kim_pool() -> dict:
    rng = random.Random(KIM_POOL_SEED)
    all_inputs = [""] + ["".join(p) for n in range(1, 5) for p in product("01", repeat=n)]
    machines = []
    while len(machines) < KIM_MACHINES:
        name = f"kim{len(machines):02d}"
        text = kim_machine(rng)
        m = machine.parse_machine(text, name)
        accepted = [y for y in all_inputs if machine.accepts_within(m, y, KIM_BOUND)[0]]
        if len(accepted) < KIM_ENTRIES_PER_MACHINE:
            continue
        run = reduction.run_part(reduction.reduce_machine(m, "", KIM_BOUND))
        machines.append({"name": name, "text": text, "m": m, "accepted": accepted,
                         "run_part": sizes(run)})
    base = machines[0]["m"]
    for entry in machines:
        # Every instance of this machine pairs its run part with y's input part.
        witness = machine.accepts_within(entry["m"], entry["accepted"][0], KIM_BOUND)[1]
        pm = parity.build_parity_machine([(entry["m"], witness)], KIM_BOUND, base)
        if pm.incompatible_indices:
            raise SystemExit(f"{entry['name']} is grid-incompatible with the base")
        entry["on"] = {}
        for y in KIM_INPUTS:
            accepted = machine.accepts_within(entry["m"], y, KIM_BOUND)[0]
            inst = parity.run_parity_machine(pm, y).instances[0]
            if inst.satisfiable != accepted:
                raise SystemExit(f"simulator and solver disagree on {entry['name']} {y!r}")
            entry["on"][y] = {"verdict": "sat" if accepted else "unsat",
                              "k": inst.history.transitions if accepted else None}
    input_clauses = {
        y: reduction.input_part(reduction.reduce_machine(base, y, KIM_BOUND)).clause_count
        for y in KIM_INPUTS}
    for entry in machines:
        del entry["m"]
    return {"workload": "kim-library", "bound": KIM_BOUND, "base": 0,
            "entries_per_machine": KIM_ENTRIES_PER_MACHINE, "inputs": list(KIM_INPUTS),
            "input_clauses": input_clauses, "machines": machines}


POOLS = {"tableau-deep": tableau_pool, "verify-branching": verify_pool,
         "kim-library": kim_pool}


def render(pool: dict) -> str:
    return json.dumps(pool, indent=1, sort_keys=True) + "\n"


def main(argv) -> int:
    check = argv == ["--check"]
    if argv and not check:
        print(__doc__, file=sys.stderr)
        return 2
    differ = []
    for name, build in POOLS.items():
        path = EXPECTED_DIR / f"{name}.json"
        text = render(build())
        if check:
            if not path.is_file() or path.read_text() != text:
                differ.append(name)
        else:
            path.write_text(text)
    for name in differ:
        print(f"DIFFERS {name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
