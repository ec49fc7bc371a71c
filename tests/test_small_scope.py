"""A fixed slice of the complete small scope.

The scope is every deterministic machine with the working state `q0` and
the accept state `qacc`, over input {0, 1} and tape {0, 1, _}: each of
its 3 keys has no rule or one of 18 targets, 19^3 = 6,859 machines, each
run on the 7 inputs of length at most 2 at T = 3. Tier-1 takes every
50th machine in a fixed order: 138 machines, 966 cases. Each case's
verdict is checked against the oracle, a Sat case's model by the
certification round trip and an Unsat case's refutation by
`check_refutation`, so a rewrite of the encoding is checked on every
shape of small machine, not only on a seeded sample.

The small-scope hypothesis: Jackson, *Software Abstractions* (MIT Press,
2006).
"""

from collections import Counter
from itertools import islice, product

from tmsatlab.corpus import _certified
from tmsatlab.machine import Machine, TransitionTable, accepts_within
from tmsatlab.reduction import reduce_machine
from tmsatlab.sat import check_refutation, solve_dpll, to_cnf

SYMBOLS = ("0", "1", "_")
KEYS = [("q0", symbol) for symbol in SYMBOLS]
TARGETS = list(product(("q0", "qacc"), SYMBOLS, ("L", "R", "S")))
INPUTS = ("", "0", "1", "00", "01", "10", "11")
BOUND = 3
STRIDE = 50


def small_scope():
    """Every machine of the scope, in the order of `product` over each
    key's choice: no rule (None) first, then TARGETS in order."""
    for index, choice in enumerate(product([None, *TARGETS], repeat=len(KEYS))):
        yield Machine(
            name=f"scope{index}",
            states=frozenset(["q0", "qacc"]),
            input_alphabet=frozenset(["0", "1"]),
            tape_alphabet=frozenset(SYMBOLS),
            blank="_",
            table=TransitionTable.from_pairs(
                (key, target) for key, target in zip(KEYS, choice) if target),
            start="q0",
            accept="qacc",
        )


def test_the_scope_has_19_cubed_machines():
    assert len(TARGETS) == 18
    assert sum(1 for _ in small_scope()) == 19 ** 3


def test_every_50th_machine_of_the_scope():
    verdicts = Counter()
    for m in islice(small_scope(), 0, None, STRIDE):
        for y in INPUTS:
            accepted, _ = accepts_within(m, y, BOUND)
            f = reduce_machine(m, y, BOUND)
            cnf = to_cnf(f)
            result = solve_dpll(cnf)
            assert result.satisfiable == accepted, (m.name, y)
            if result.satisfiable:
                assert _certified(f, cnf, result.assignment), (m.name, y)
            else:
                assert check_refutation(cnf, result.learnt), (m.name, y)
            verdicts["sat" if accepted else "unsat"] += 1
    assert verdicts == {"sat": 635, "unsat": 331}
