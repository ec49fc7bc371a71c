"""Machine + input + bound -> labeled CNF.

The clause groups follow the classic grouping: per-time uniqueness of
state/head/cell symbols (G1-G3), the initial configuration as unit
clauses (G4, the input part), acceptance at the final time (G5), and
transition semantics via explicit selector variables plus frame clauses
(G6). Everything outside G4 is the run part.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count
from typing import Dict, Iterator, List, NamedTuple, Tuple, Union

from .machine import (
    LEFT,
    RIGHT,
    ComputationHistory,
    Configuration,
    Machine,
    initial_configuration,
    used_rule_indices,
)

GROUPS = ("G1", "G2", "G3", "G4", "G5", "G6")
INPUT_GROUP = "G4"
PAD = "PAD"
# About 8x the benchmark's largest reduction (119,893 clauses, m_parity
# at T=48); m_parity at T=1000 would need 527,049,513.
REDUCTION_CLAUSE_LIMIT = 1_000_000


class ReductionError(Exception):
    """Base class for reduction-level errors."""


class GridIncompatibleError(ReductionError):
    """Two formulas whose variable grids cannot be unified."""


class MalformedModelError(ReductionError):
    """An assignment violating a G1/G2/G3 uniqueness constraint."""


class Clause(NamedTuple):
    """A clause and its group, the element type of the read-only
    `LabeledFormula.clauses` view; formulas do not hold these."""

    literals: Tuple[int, ...]
    group: str


class _Grid:
    """Deterministic variable numbering: Q, then H, then S, then Tr,
    each block in lexicographic grid order. Built once per reduction and
    shared by every formula made from it."""

    def __init__(self, m: Machine, bound: int):
        self.machine = m
        self.bound = bound
        self.signature = machine_grid_signature(m, bound)
        self.states = sorted(m.states)
        self.symbols = sorted(m.tape_alphabet)
        self.rules = m.rules()
        self.tr_keys = list(range(len(self.rules))) + [PAD]  # one step's Tr keys
        # Ids count up from 1 in the order the keys are generated.
        ids = count(1)
        times = cells = range(bound + 1)
        self.q: Dict[Tuple[int, str], int] = {
            (i, k): next(ids) for i in times for k in self.states}
        self.h: Dict[Tuple[int, int], int] = {
            (i, j): next(ids) for i in times for j in cells}
        self.s: Dict[Tuple[int, int, str], int] = {
            (i, j, sym): next(ids) for i in times for j in cells for sym in self.symbols}
        self.tr: Dict[Tuple[int, Union[int, str]], int] = {
            (i, r): next(ids) for i in range(bound) for r in self.tr_keys}
        self.var_count = next(ids) - 1

    def labels(self) -> Iterator[Tuple[int, str]]:
        """(id, label) of every variable in id order, such as
        (1, "Q(0,q0)"); the Tr label of padding is "Tr(i,PAD)"."""
        for (i, k), vid in self.q.items():
            yield vid, f"Q({i},{k})"
        for (i, j), vid in self.h.items():
            yield vid, f"H({i},{j})"
        for (i, j, sym), vid in self.s.items():
            yield vid, f"S({i},{j},{sym})"
        for (i, r), vid in self.tr.items():
            yield vid, f"Tr({i},{r})"


@dataclass
class LabeledFormula:
    """Clauses over the variable grid of one reduction of `grid.machine`
    on `input`: a tuple of int-tuple clauses for each name in GROUPS, in
    order. A group left out is empty; a name outside GROUPS is refused."""

    grid: _Grid
    groups: Dict[str, Tuple[Tuple[int, ...], ...]]
    input: str

    def __post_init__(self):
        for group in self.groups:
            if group not in GROUPS:
                raise ValueError(f"unknown clause group {group!r}")
        self.groups = {group: tuple(self.groups.get(group, ())) for group in GROUPS}

    @property
    def clauses(self) -> Tuple[Clause, ...]:
        # Built on demand for bench/tracing.py, which reads `group` and
        # `literals`; no module in src/ reads it. It goes when the tracer
        # counts through `clause_counts` (ROADMAP item 1).
        return tuple(Clause(literals, group)
                     for group, clauses in self.groups.items() for literals in clauses)

    @property
    def clause_count(self) -> int:
        return sum(map(len, self.groups.values()))

    @property
    def bound(self) -> int:
        return self.grid.bound

    @property
    def var_count(self) -> int:
        return self.grid.var_count

    @property
    def machine(self) -> Machine:
        return self.grid.machine


def _exactly_one(ids: List[int]) -> List[Tuple[int, ...]]:
    return [tuple(ids)] + [(-a, -b) for a, b in combinations(ids, 2)]


def _moved_head(j: int, move: str, bound: int) -> int:
    if move == LEFT:
        return max(0, j - 1)
    if move == RIGHT:
        return min(bound, j + 1)
    return j


def _check_bound(bound: int):
    if bound < 1:
        raise ValueError("bound must be at least 1")


def _check_input(m: Machine, input_str: str, bound: int):
    _check_bound(bound)
    if len(input_str) > bound + 1:
        raise ReductionError(
            f"input of {len(input_str)} symbols does not fit cells 0..{bound}")
    for ch in input_str:
        if ch not in m.input_alphabet:
            raise ReductionError(f"input symbol {ch!r} not in input alphabet")


def reduction_clause_count(m: Machine, bound: int) -> int:
    """The number of clauses `reduce_machine` builds for m at `bound` on
    any input, in closed form, group by group."""
    T, q, s, r = bound, len(m.states), len(m.tape_alphabet), len(m.rules())

    def exactly_one(k: int) -> int:
        return 1 + k * (k - 1) // 2

    return ((T + 1) * exactly_one(q)                                  # G1
            + (T + 1) * exactly_one(T + 1)                            # G2
            + (T + 1) ** 2 * exactly_one(s)                           # G3
            + T + 3                                                   # G4
            + 1                                                       # G5
            + T * (3 + r * (2 + 3 * (T + 1)) + (T + 1) * (1 + 2 * s)))  # G6


def reduce_machine(m: Machine, input_str: str, bound: int) -> LabeledFormula:
    """The reduction: satisfiable iff m accepts input_str within `bound`
    transitions. Refuses, before building anything, a reduction of more
    than REDUCTION_CLAUSE_LIMIT clauses."""
    _check_input(m, input_str, bound)
    size = reduction_clause_count(m, bound)
    if size > REDUCTION_CLAUSE_LIMIT:
        raise ReductionError(f"{size} clauses at bound {bound} exceeds the limit "
                             f"of {REDUCTION_CLAUSE_LIMIT}")
    g = _Grid(m, bound)
    T = bound
    groups: List[List[Tuple[int, ...]]] = [[] for _ in GROUPS]
    g1, g2, g3, g4, g5, g6 = groups

    # G1/G2/G3: exactly one state, head cell, and symbol per cell, per time.
    for i in range(T + 1):
        g1.extend(_exactly_one([g.q[(i, k)] for k in g.states]))
    for i in range(T + 1):
        g2.extend(_exactly_one([g.h[(i, j)] for j in range(T + 1)]))
    for i in range(T + 1):
        for j in range(T + 1):
            g3.extend(_exactly_one([g.s[(i, j, l)] for l in g.symbols]))

    # G4: the initial configuration, as unit clauses.
    g4.append((g.q[(0, m.start)],))
    g4.append((g.h[(0, 0)],))
    for j in range(T + 1):
        sym = input_str[j] if j < len(input_str) else m.blank
        g4.append((g.s[(0, j, sym)],))

    # G5: accept at the final time.
    g5.append((g.q[(T, m.accept)],))

    # G6: transition semantics via selector variables, plus frame clauses.
    for i in range(T):
        g6.append(tuple(g.tr[(i, r)] for r in g.tr_keys))
        for r, (state, symbol, nxt, write, move) in enumerate(g.rules):
            tr = g.tr[(i, r)]
            g6.append((-tr, g.q[(i, state)]))
            g6.append((-tr, g.q[(i + 1, nxt)]))
            for j in range(T + 1):
                hij = g.h[(i, j)]
                g6.append((-tr, -hij, g.s[(i, j, symbol)]))
                g6.append((-tr, -hij, g.s[(i + 1, j, write)]))
                g6.append((-tr, -hij, g.h[(i + 1, _moved_head(j, move, T))]))
        pad = g.tr[(i, PAD)]
        g6.append((-pad, g.q[(i, m.accept)]))
        g6.append((-pad, g.q[(i + 1, m.accept)]))
        for j in range(T + 1):
            g6.append((-pad, -g.h[(i, j)], g.h[(i + 1, j)]))
            for l in g.symbols:
                g6.append((-pad, -g.s[(i, j, l)], g.s[(i + 1, j, l)]))
        # Frame: cells away from the head keep their symbol.
        for j in range(T + 1):
            for l in g.symbols:
                g6.append((-g.s[(i, j, l)], g.h[(i, j)], g.s[(i + 1, j, l)]))

    return LabeledFormula(g, dict(zip(GROUPS, groups)), input_str)


def input_part(f: LabeledFormula) -> LabeledFormula:
    """Exactly the G4 clauses, over f's grid."""
    return LabeledFormula(f.grid, {INPUT_GROUP: f.groups[INPUT_GROUP]}, f.input)


def run_part(f: LabeledFormula) -> LabeledFormula:
    """All non-G4 clauses, over f's grid."""
    return LabeledFormula(f.grid, {**f.groups, INPUT_GROUP: ()}, f.input)


def machine_grid_signature(m: Machine, bound: int):
    """The grid signature of every reduction of m at `bound`, read off the
    machine instead of a built formula."""
    _check_bound(bound)
    return bound, tuple(sorted(m.states)), tuple(sorted(m.tape_alphabet))


def concatenate(cy: LabeledFormula, cr: LabeledFormula) -> LabeledFormula:
    """Conjoin an input part with a run part over a unified variable grid.

    Raises GridIncompatibleError when the two grids (bound, state set,
    symbol set) differ; such a pair can never be satisfiable together.
    """
    if any(clauses for group, clauses in cy.groups.items() if group != INPUT_GROUP):
        raise ValueError("first argument must contain only G4 clauses")
    if cr.groups[INPUT_GROUP]:
        raise ValueError("second argument must contain no G4 clauses")
    if cy.grid.signature != cr.grid.signature:
        raise GridIncompatibleError(
            "formulas use entirely incompatible variable grids")
    # The signature fixes the Q/H/S blocks, the only variables G4 refers
    # to; the run part's grid also numbers its own Tr block.
    joined = {group: cy.groups[group] + cr.groups[group] for group in GROUPS}
    return LabeledFormula(cr.grid, joined, cy.input)


def _config_symbol(c: Configuration, j: int, blank: str) -> str:
    return c.tape[j] if j < len(c.tape) else blank


def induced_assignment(h: ComputationHistory, g: _Grid,
                       rule_ids: List[int]) -> Dict[int, bool]:
    """The satisfying assignment a history induces on the grid, padding
    short histories by repeating the final accepting configuration.
    `rule_ids` are the history's rule indices, as `check_history` returns
    them."""
    T = g.bound
    k = h.transitions
    assignment: Dict[int, bool] = {}
    for i in range(T + 1):
        c = h.configs[min(i, k)]
        for state in g.states:
            assignment[g.q[(i, state)]] = state == c.state
        for j in range(T + 1):
            assignment[g.h[(i, j)]] = j == c.head
            sym = _config_symbol(c, j, g.machine.blank)
            for l in g.symbols:
                assignment[g.s[(i, j, l)]] = l == sym
    for i in range(T):
        chosen = rule_ids[i] if i < k else PAD
        for r in g.tr_keys:
            assignment[g.tr[(i, r)]] = r == chosen
    return assignment


def check_history(m: Machine, h: ComputationHistory, bound: int) -> List[int]:
    """Every check `encode_history` makes before encoding: h has at most
    `bound` transitions, ends in the accept state, starts from m's initial
    configuration on h.input, its input fits cells 0..bound, and every
    step is licensed by a rule of m. Returns the index into m.rules() of
    the rule used at each step."""
    if h.transitions > bound:
        raise ReductionError(
            f"history of {h.transitions} transitions exceeds bound {bound}")
    if h.configs[-1].state != m.accept:
        raise ReductionError("history does not end in the accept state")
    if h.configs[0] != initial_configuration(m, h.input):
        raise ReductionError("history does not start from the initial configuration")
    _check_input(m, h.input, bound)
    return used_rule_indices(h, m)


def encode_history(m: Machine, h: ComputationHistory, bound: int):
    """Reduce m on h.input, plus the satisfying assignment induced by h.

    Returns (formula, assignment). The history must pass `check_history`.
    """
    rule_ids = check_history(m, h, bound)
    f = reduce_machine(m, h.input, bound)
    return f, induced_assignment(h, f.grid, rule_ids)


def decode_assignment(f: LabeledFormula, a: Dict[int, bool]) -> ComputationHistory:
    """Read a model of f, such as `solve_dpll` verifies, back into a
    computation history: the configuration at each time step straight
    off the Q/H/S grid, up to the first accepting one.

    In a model the grid is the history: G1-G3 give one state, head and
    symbol per cell, G6 ties each step to a rule or, in the accept state,
    to padding, and G5 forces acceptance by the final time. So decode
    checks only what its read needs: one true variable in each row it
    reads and an accepting configuration. The tape starts at the input's
    cells (one blank for the empty input) and grows to cover the head, as
    a right move off its last cell grows it in the simulator. f must hold
    every group: a model of an input or run part alone fixes no history.
    """
    if not all(f.groups.values()):
        raise ValueError("decode needs a formula with every clause group G1-G6")
    g = f.grid

    def the_one(ids: Dict, group: str):
        true = [key for key, vid in ids.items() if a.get(vid)]
        if len(true) != 1:
            raise MalformedModelError(f"assignment violates a {group} uniqueness clause")
        return true[0]

    cells = max(len(f.input), 1)
    configs = []
    for i in range(g.bound + 1):
        state = the_one({k: g.q[(i, k)] for k in g.states}, "G1")
        head = the_one({j: g.h[(i, j)] for j in range(g.bound + 1)}, "G2")
        cells = max(cells, head + 1)
        tape = tuple(the_one({l: g.s[(i, j, l)] for l in g.symbols}, "G3")
                     for j in range(cells))
        configs.append(Configuration(state, head, tape))
        if state == g.machine.accept:
            return ComputationHistory(tuple(configs), f.input)
    raise ValueError("assignment does not satisfy the formula")


def clause_counts(f: LabeledFormula) -> Dict[str, int]:
    """Per-group clause counts over all six groups."""
    return {group: len(clauses) for group, clauses in f.groups.items()}
