"""Machine + input + bound -> labeled CNF.

The clause groups follow the classic grouping: per-time uniqueness of
state/head/cell symbols (G1-G3), the initial configuration as unit
clauses (G4, the input part), acceptance at the final time (G5), and
transition semantics via explicit selector variables plus frame clauses
(G6). Everything outside G4 is the run part.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, combinations, product, repeat, starmap
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .machine import (
    ComputationHistory,
    Configuration,
    Machine,
    MachineSemanticError,
    initial_configuration,
    moved_head,
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
    each block a run of consecutive ids in lexicographic grid order.
    Built once per reduction and shared by every formula made from it.

    The grid owns one int object per literal: `ids[k]` is k and `negs[k]`
    is -k, for k in 0..var_count. Its blocks and rows hand out the
    objects of `ids`, and `neg` negates through `negs`, so the clauses of
    a reduction refer to at most 2·var_count ints however often a literal
    occurs, and a set or dict of literals matches them by identity.

    The blocks and rows are the one layout: there is no map from a key
    to its id. A row method hands out the ids of one time or step as a
    slice of a block, in the order of its keys (`states`, cells,
    `symbols`, `tr_keys`), so an id is its row indexed by its key's
    position, and a clause group is built from whole rows."""

    def __init__(self, m: Machine, bound: int):
        self.machine = m
        self.bound = bound
        self.signature = machine_grid_signature(m, bound)
        _, self.states, self.symbols = self.signature
        self.rules = m.rules()
        self.tr_keys = list(range(len(self.rules))) + [PAD]  # one step's Tr keys
        self.width = bound + 1  # cells per time
        starts = list(accumulate(reduction_var_counts(m, bound).values(), initial=1))
        self.var_count = starts[-1] - 1
        self.ids = list(range(self.var_count + 1))
        self.negs = list(range(0, -self.var_count - 1, -1))
        self.Q, self.H, self.S, self.TR = (self.ids[a:b] for a, b in zip(starts, starts[1:]))

    def neg(self, ids: List[int]) -> List[int]:
        """The negated literals of `ids`, in its order, from `negs`."""
        return list(map(self.negs.__getitem__, ids))

    def q_row(self, i: int) -> List[int]:
        """The Q ids of time i, in `states` order."""
        size = len(self.states)
        return self.Q[i * size:(i + 1) * size]

    def h_row(self, i: int) -> List[int]:
        """The H ids of time i, by cell."""
        return self.H[i * self.width:(i + 1) * self.width]

    def s_block(self, i: int) -> List[int]:
        """The S ids of time i, by cell and then symbol."""
        size = self.width * len(self.symbols)
        return self.S[i * size:(i + 1) * size]

    def s_row(self, i: int, sym: str) -> List[int]:
        """The S ids of symbol `sym` at time i, by cell."""
        return self.s_block(i)[self.symbols.index(sym)::len(self.symbols)]

    def tr_row(self, i: int) -> List[int]:
        """The Tr ids of step i, in `tr_keys` order."""
        size = len(self.tr_keys)
        return self.TR[i * size:(i + 1) * size]

    def labels(self) -> Iterator[Tuple[int, str]]:
        """(id, label) of every variable in id order, such as
        (1, "Q(0,q0)"); the Tr label of padding is "Tr(i,PAD)"."""
        times = range(self.width)
        return enumerate(chain(
            starmap("Q({},{})".format, product(times, self.states)),
            starmap("H({},{})".format, product(times, times)),
            starmap("S({},{},{})".format, product(times, times, self.symbols)),
            starmap("Tr({},{})".format, product(range(self.bound), self.tr_keys))), 1)


@dataclass
class LabeledFormula:
    """Clauses over the variable grid of one reduction of `grid.machine`
    on `input`: a tuple of int-tuple clauses for each name in GROUPS, in
    order. A group left out is empty; a name outside GROUPS is refused.

    A formula built here is checked once, as it is built: a clause given
    as another sequence becomes a tuple, and `_check_clauses` names the
    first empty clause or literal outside ±var_count in GROUPS order. The
    builders below make their formulas through `_labeled` instead, without
    the check: their literals are the grid's own, or come from formulas
    already checked."""

    grid: _Grid
    groups: Dict[str, Tuple[Tuple[int, ...], ...]]
    input: str

    def __post_init__(self):
        for group in self.groups:
            if group not in GROUPS:
                raise ValueError(f"unknown clause group {group!r}")
        self.groups = {group: tuple(map(tuple, self.groups.get(group, ()))) for group in GROUPS}
        _check_clauses(list(chain.from_iterable(self.groups.values())), self.var_count)

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
    def var_count(self) -> int:
        return self.grid.var_count


def _labeled(grid: _Grid, groups: Dict, input_str: str) -> LabeledFormula:
    """The LabeledFormula of `groups`, which maps every name in GROUPS, in
    order, to a tuple of well-formed int-tuple clauses over grid's
    variables, built without `LabeledFormula`'s check. Only the four
    builders of this module call it."""
    f = object.__new__(LabeledFormula)
    f.grid, f.groups, f.input = grid, groups, input_str
    return f


def _check_clauses(clauses: Sequence[Sequence[int]], n: int):
    """Raise ValueError naming the first empty clause or literal outside
    -n..-1, 1..n, in clause order. One pass over the set of literals
    clears a well-formed list; only a list it does not clear is walked
    clause by clause, for the first fault."""
    lits = set(chain.from_iterable(clauses))
    if (all(clauses) and 0 not in lits
            and -n <= min(lits, default=0) and max(lits, default=0) <= n):
        return
    for clause in clauses:
        if not clause:
            raise ValueError("empty clause")
        for lit in clause:
            if lit == 0 or abs(lit) > n:
                raise ValueError(f"literal {lit} out of range 1..{n}")


def _exactly_one(g: _Grid, block: List[int], width: int) -> Iterator[Tuple[int, ...]]:
    """For each row of `width` consecutive ids of `block`, a block of g,
    in order: the row as one clause, then (-a, -b) for each pair of the
    row in `combinations` order, the negations taken from g's `negs`.
    Built from the block's columns, one stream per pair of columns, so
    the clauses come from C-level iterators."""
    cols = [block[k::width] for k in range(width)]
    not_cols = [g.neg(col) for col in cols]
    pairs = (zip(a, b) for a, b in combinations(not_cols, 2))
    return chain.from_iterable(zip(zip(*cols), *pairs))


def _check_bound(bound: int):
    if bound < 1:
        raise ValueError("bound must be at least 1")


def _checked_start(m: Machine, input_str: str, bound: int) -> Configuration:
    """m's initial configuration on input_str, once the bound is at least
    1 and the input fits cells 0..bound; an input symbol outside m's input
    alphabet raises ReductionError, with `initial_configuration`'s text."""
    _check_bound(bound)
    if len(input_str) > bound + 1:
        raise ReductionError(
            f"input of {len(input_str)} symbols does not fit cells 0..{bound}")
    try:
        return initial_configuration(m, input_str)
    except MachineSemanticError as exc:
        raise ReductionError(str(exc)) from None


def reduction_group_counts(m: Machine, bound: int) -> Dict[str, int]:
    """The number of clauses `reduce_machine` builds for m at `bound` on
    any input, one closed form per group, in GROUPS order."""
    T, q, s, r = bound, len(m.states), len(m.tape_alphabet), len(m.rules())

    def exactly_one(k: int) -> int:
        return 1 + k * (k - 1) // 2

    return dict(zip(GROUPS, (
        (T + 1) * exactly_one(q),                                   # G1
        (T + 1) * exactly_one(T + 1),                               # G2
        (T + 1) ** 2 * exactly_one(s),                              # G3
        T + 3,                                                      # G4
        1,                                                          # G5
        T * (3 + r * (2 + 3 * (T + 1)) + (T + 1) * (1 + 2 * s)))))  # G6


def reduction_var_counts(m: Machine, bound: int) -> Dict[str, int]:
    """The number of variables of each kind in the grid of `reduce_machine`
    for m at `bound`, in id order: (T+1)·q Q, (T+1)² H, (T+1)²·s S and
    T·(r+1) Tr, one per rule and one for padding. `_Grid` lays out its
    blocks from these counts."""
    T = bound
    return {"Q": (T + 1) * len(m.states), "H": (T + 1) ** 2,
            "S": (T + 1) ** 2 * len(m.tape_alphabet), "Tr": T * (len(m.rules()) + 1)}


def reduction_clause_count(m: Machine, bound: int) -> int:
    """The number of clauses `reduce_machine` builds for m at `bound` on
    any input: the sum of `reduction_group_counts`."""
    return sum(reduction_group_counts(m, bound).values())


def check_clause_limit(m: Machine, bound: int):
    """Raise ReductionError when the reduction of m at `bound` would have
    more than REDUCTION_CLAUSE_LIMIT clauses."""
    size = reduction_clause_count(m, bound)
    if size > REDUCTION_CLAUSE_LIMIT:
        raise ReductionError(f"{size} clauses at bound {bound} exceeds the limit "
                             f"of {REDUCTION_CLAUSE_LIMIT}")


def reduce_machine(m: Machine, input_str: str, bound: int) -> LabeledFormula:
    """The reduction: satisfiable iff m accepts input_str within `bound`
    transitions. Refuses, before building anything, a reduction of more
    than REDUCTION_CLAUSE_LIMIT clauses."""
    c = _checked_start(m, input_str, bound)
    check_clause_limit(m, bound)
    g = _Grid(m, bound)
    T = bound
    groups: List[List[Tuple[int, ...]]] = [[] for _ in GROUPS]
    g1, g2, g3, g4, g5, g6 = groups

    # G1/G2/G3: exactly one state, head cell, and symbol per cell, per time.
    g1 += _exactly_one(g, g.Q, len(g.states))
    for i in range(T + 1):
        g2.append(tuple(g.h_row(i)))
        g2 += combinations(g.neg(g.h_row(i)), 2)
    g3 += _exactly_one(g, g.S, len(g.symbols))

    # G4: the initial configuration, as unit clauses.
    state_at, n = g.states.index, len(g.symbols)
    g4.append((g.q_row(0)[state_at(c.state)],))
    g4.append((g.h_row(0)[c.head],))
    start = g.s_block(0)  # by cell, then symbol
    g4.extend((start[j * n + g.symbols.index(_config_symbol(c, j, m.blank))],)
              for j in range(T + 1))

    # G5: accept at the final time.
    accept = state_at(m.accept)
    g5.append((g.q_row(T)[accept],))

    # G6: transition semantics via selector variables, plus frame clauses.
    # Each run of clauses over the cells of one step is a zip of rows.
    # moved[r][j]: the cell rule r moves the head to from cell j, clamped
    # at T.
    moved = [[min(T, moved_head(j, move)) for j in range(T + 1)] for *_, move in g.rules]
    for i in range(T):
        states, next_states = g.q_row(i), g.q_row(i + 1)
        heads, next_heads = g.h_row(i), g.h_row(i + 1)
        not_heads = g.neg(heads)
        tr_ids = g.tr_row(i)
        not_trs = g.neg(tr_ids)
        g6.append(tuple(tr_ids))
        for not_tr, (state, symbol, nxt, write, _), to in zip(not_trs, g.rules, moved):
            g6.append((not_tr, states[state_at(state)]))
            g6.append((not_tr, next_states[state_at(nxt)]))
            # With the head on cell j: read `symbol`, write `write`, move
            # to cell to[j].
            g6 += chain.from_iterable(zip(
                zip(repeat(not_tr), not_heads, g.s_row(i, symbol)),
                zip(repeat(not_tr), not_heads, g.s_row(i + 1, write)),
                zip(repeat(not_tr), not_heads, map(next_heads.__getitem__, to))))
        not_pad = not_trs[-1]  # PAD is the last Tr key
        g6.append((not_pad, states[accept]))
        g6.append((not_pad, next_states[accept]))
        # Padding keeps the head and, for each cell, every symbol.
        g6 += chain.from_iterable(zip(
            zip(repeat(not_pad), not_heads, next_heads),
            *(zip(repeat(not_pad), g.neg(g.s_row(i, l)), g.s_row(i + 1, l)) for l in g.symbols)))
        # Frame: cells away from the head keep their symbol.
        each_head = chain.from_iterable(zip(*repeat(heads, len(g.symbols))))
        g6 += zip(g.neg(g.s_block(i)), each_head, g.s_block(i + 1))

    return _labeled(g, dict(zip(GROUPS, map(tuple, groups))), input_str)


def input_part(f: LabeledFormula) -> LabeledFormula:
    """Exactly the G4 clauses, over f's grid."""
    return _labeled(f.grid, {**dict.fromkeys(GROUPS, ()), INPUT_GROUP: f.groups[INPUT_GROUP]},
                    f.input)


def run_part(f: LabeledFormula) -> LabeledFormula:
    """All non-G4 clauses, over f's grid."""
    return _labeled(f.grid, {**f.groups, INPUT_GROUP: ()}, f.input)


def machine_grid_signature(m: Machine, bound: int):
    """The grid signature of every reduction of m at `bound`, read off the
    machine instead of a built formula."""
    _check_bound(bound)
    return bound, tuple(sorted(m.states)), tuple(sorted(m.tape_alphabet))


def concatenate(cy: LabeledFormula, cr: LabeledFormula) -> LabeledFormula:
    """Conjoin an input part with a run part over a unified variable grid.

    Raises GridIncompatibleError when the two grids (bound, state set,
    symbol set) differ; such a pair can never be satisfiable together.
    A G4 literal outside the run part's grid raises ValueError naming it.
    """
    if any(clauses for group, clauses in cy.groups.items() if group != INPUT_GROUP):
        raise ValueError("first argument must contain only G4 clauses")
    if cr.groups[INPUT_GROUP]:
        raise ValueError("second argument must contain no G4 clauses")
    if cy.grid.signature != cr.grid.signature:
        raise GridIncompatibleError(
            "formulas use entirely incompatible variable grids")
    # The signature fixes the Q/H/S blocks, the only ids a reduction's G4
    # holds; a hand-built G4 may hold others, so its few units are checked.
    _check_clauses(cy.groups[INPUT_GROUP], cr.var_count)
    joined = {group: cy.groups[group] + cr.groups[group] for group in GROUPS}
    return _labeled(cr.grid, joined, cy.input)


def _config_symbol(c: Configuration, j: int, blank: str) -> str:
    return c.tape[j] if j < len(c.tape) else blank


def induced_assignment(h: ComputationHistory, g: _Grid,
                       rule_ids: List[int]) -> Dict[int, bool]:
    """The satisfying assignment a history induces on the grid, padding
    short histories by repeating the final accepting configuration.
    `rule_ids` are the history's rule indices, as `check_history` returns
    them."""
    padding = g.bound - h.transitions
    configs = h.configs + h.configs[-1:] * padding  # the configuration at each time
    chosen = list(rule_ids) + [PAD] * padding  # the Tr key at each step
    # Each time's tape, padded with blanks to the grid's width.
    tapes = [c.tape + (g.machine.blank,) * (g.width - len(c.tape)) for c in configs]
    values = chain(  # one per id, block by block, each in the grid's order
        [c.state == k for c in configs for k in g.states],
        [c.head == j for c in configs for j in range(g.width)],
        [sym == l for tape in tapes for sym in tape for l in g.symbols],
        [r == key for r in chosen for key in g.tr_keys])
    return dict(zip(g.ids[1:], values))


def check_history(m: Machine, h: ComputationHistory, bound: int) -> List[int]:
    """Every check `encode_history` makes before encoding: h has at most
    `bound` transitions, ends in the accept state, its input fits cells
    0..bound and is over m's input alphabet, it starts from m's initial
    configuration on that input, and every step is licensed by a rule of
    m. Returns the index into m.rules() of the rule used at each step."""
    if h.transitions > bound:
        raise ReductionError(
            f"history of {h.transitions} transitions exceeds bound {bound}")
    if h.configs[-1].state != m.accept:
        raise ReductionError("history does not end in the accept state")
    if h.configs[0] != _checked_start(m, h.input, bound):
        raise ReductionError("history does not start from the initial configuration")
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

    def the_one(keys: Sequence, row: List[int], group: str):
        true = [key for key, vid in zip(keys, row) if a.get(vid)]
        if len(true) != 1:
            raise MalformedModelError(f"assignment violates a {group} uniqueness clause")
        return true[0]

    cells, n = max(len(f.input), 1), len(g.symbols)
    configs = []
    for i in range(g.width):
        state = the_one(g.states, g.q_row(i), "G1")
        head = the_one(range(g.width), g.h_row(i), "G2")
        cells = max(cells, head + 1)
        block = g.s_block(i)
        tape = tuple(the_one(g.symbols, block[j * n:(j + 1) * n], "G3") for j in range(cells))
        configs.append(Configuration(state, head, tape))
        if state == g.machine.accept:
            return ComputationHistory(tuple(configs), f.input)
    raise ValueError("assignment does not satisfy the formula")


def clause_counts(f: LabeledFormula) -> Dict[str, int]:
    """Per-group clause counts over all six groups."""
    return {group: len(clauses) for group, clauses in f.groups.items()}
