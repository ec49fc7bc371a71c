"""Fixture machines and the deterministic random-machine generator used
by the corpus checks."""

from __future__ import annotations

import random
from importlib import resources
from typing import List

from .machine import Machine, TransitionTable, parse_machine

FIXTURE_NAMES = ("m_accept1", "m_loop", "m_nd", "m_parity")


def fixture_text(name: str) -> str:
    return resources.files("tmsatlab.data").joinpath(f"{name}.tm").read_text(encoding="utf-8")


def load_fixture(name: str) -> Machine:
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; choices: {FIXTURE_NAMES}")
    return parse_machine(fixture_text(name), name=name)


def fixture_machines() -> List[Machine]:
    return [load_fixture(name) for name in FIXTURE_NAMES]


def random_machine(rng: random.Random, name: str) -> Machine:
    """A small machine within the corpus bounds: at most 4 states and a
    3-symbol tape alphabet."""
    n_work = rng.randint(1, 3)
    work = [f"q{i}" for i in range(n_work)]
    states = work + ["qacc"]
    symbols = ["0", "1", "_"]
    pairs = []
    for state in work:
        for symbol in symbols:
            if rng.random() < 0.2:
                continue  # leave this pair stuck
            n_targets = 2 if rng.random() < 0.2 else 1
            pairs += [((state, symbol), (rng.choice(states), rng.choice(symbols),
                                         rng.choice(["L", "R", "S"])))
                      for _ in range(n_targets)]
    return Machine(
        name=name,
        states=frozenset(states),
        input_alphabet=frozenset(["0", "1"]),
        tape_alphabet=frozenset(symbols),
        blank="_",
        table=TransitionTable.from_pairs(pairs),
        start="q0",
        accept="qacc",
    )


def random_corpus(seed: int, count: int) -> List[Machine]:
    rng = random.Random(seed)
    return [random_machine(rng, f"rand{i:03d}") for i in range(count)]
