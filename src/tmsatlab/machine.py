"""Single-tape Turing machines.

Configurations, bounded (non)deterministic simulation, particular
transition tables collected from computations, and the selector-based
table merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

LEFT = "L"
RIGHT = "R"
STAY = "S"
MOVES = (LEFT, RIGHT, STAY)

# (next state, write symbol, move)
Target = Tuple[str, str, str]
RuleKey = Tuple[str, str]
# About 3,000x the benchmark's largest oracle search (33 configurations,
# m_loop at T=32). A machine that writes 0 or 1 on each new cell reaches
# it at T=16, storing 1,568,963 tape cells in about 47 MiB peak RSS; its
# search at T=24 would need gigabytes.
ORACLE_CONFIG_LIMIT = 100_000
# Each configuration stores its whole tape, so a machine that only moves
# right stores about T^2/2 cells in T+1 configurations, 128 million at
# T=16,000. At this limit (T=2,826) it peaks at about 53 MiB RSS; the
# benchmark's largest search stores 564 cells.
ORACLE_CELL_LIMIT = 4_000_000


class MachineError(Exception):
    """Base class for machine-related errors."""


class MachineSyntaxError(MachineError):
    """Malformed machine description text."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


class MachineSemanticError(MachineError):
    """Well-formed text that violates a machine invariant."""


class OracleLimitError(MachineError):
    """A bounded search that would visit more than ORACLE_CONFIG_LIMIT
    configurations or store more than ORACLE_CELL_LIMIT tape cells."""


class IllegalHistoryError(MachineError):
    """A configuration pair not licensed by any rule of the machine."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"step {index}: {message}")


@dataclass
class TransitionTable:
    """Map from (state, symbol) to target triples, in declaration order.

    A merged table additionally carries a fresh selector state whose two
    targets, the start states of its two halves, choose between them
    before the first tape read.
    """

    entries: Dict[RuleKey, Tuple[Target, ...]] = field(default_factory=dict)
    selector: Optional[Tuple[str, str]] = None
    selector_state: Optional[str] = None

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[RuleKey, Target]]) -> TransitionTable:
        """The table of (key, target) pairs: each key's targets in
        first-seen order, a repeated target kept once. This is the order
        of `rules()`, which numbers a reduction's Tr variables."""
        entries: Dict[RuleKey, Dict[Target, None]] = {}
        for key, target in pairs:
            entries.setdefault(key, {})[target] = None
        return cls({key: tuple(targets) for key, targets in entries.items()})

    def rules(self) -> List[Tuple[str, str, str, str, str]]:
        """Flatten to (state, symbol, next, write, move) in declaration order."""
        out = []
        for (state, symbol), targets in self.entries.items():
            for nxt, write, move in targets:
                out.append((state, symbol, nxt, write, move))
        return out

    def states(self) -> set:
        """Every state mentioned in entries, selector, or selector state."""
        out = set()
        for (state, _), targets in self.entries.items():
            out.add(state)
            for nxt, _, _ in targets:
                out.add(nxt)
        if self.selector is not None:
            out.update(self.selector)
        if self.selector_state is not None:
            out.add(self.selector_state)
        return out


def is_deterministic(t: TransitionTable) -> bool:
    """True iff every target set is a singleton and no selector is present."""
    if t.selector is not None:
        return False
    return all(len(targets) == 1 for targets in t.entries.values())


@dataclass
class Machine:
    name: str
    states: frozenset
    input_alphabet: frozenset
    tape_alphabet: frozenset
    blank: str
    table: TransitionTable
    start: str
    accept: str
    reject: Optional[str] = None

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.start not in self.states:
            raise MachineSemanticError(f"start state {self.start!r} not declared")
        if self.accept not in self.states:
            raise MachineSemanticError(f"accept state {self.accept!r} not declared")
        if self.reject is not None and self.reject not in self.states:
            raise MachineSemanticError(f"reject state {self.reject!r} not declared")
        if self.blank not in self.tape_alphabet:
            raise MachineSemanticError(f"blank {self.blank!r} not in tape alphabet")
        if not self.input_alphabet <= self.tape_alphabet:
            raise MachineSemanticError("input alphabet not a subset of tape alphabet")
        for (state, symbol), targets in self.table.entries.items():
            if state == self.accept:
                raise MachineSemanticError(
                    f"transition out of accept state {state!r}")
            if state not in self.states:
                raise MachineSemanticError(f"unknown state {state!r} in rule")
            if symbol not in self.tape_alphabet:
                raise MachineSemanticError(f"unknown symbol {symbol!r} in rule")
            if not targets:
                raise MachineSemanticError(
                    f"empty target set for ({state!r}, {symbol!r})")
            for nxt, write, move in targets:
                if nxt not in self.states:
                    raise MachineSemanticError(f"unknown target state {nxt!r}")
                if write not in self.tape_alphabet:
                    raise MachineSemanticError(f"unknown write symbol {write!r}")
                if move not in MOVES:
                    raise MachineSemanticError(f"bad move {move!r}")

    def rules(self) -> List[Tuple[str, str, str, str, str]]:
        return self.table.rules()


@dataclass(frozen=True)
class Configuration:
    state: str
    head: int
    tape: Tuple[str, ...]

    def __post_init__(self):
        if not (0 <= self.head < len(self.tape)):
            raise ValueError(f"head {self.head} outside tape of {len(self.tape)} cells")


@dataclass(frozen=True)
class ComputationHistory:
    configs: Tuple[Configuration, ...]
    input: str

    def __post_init__(self):
        if not self.configs:
            raise ValueError("a history needs at least one configuration")

    @property
    def transitions(self) -> int:
        return len(self.configs) - 1


_REQUIRED_KEYS = ("states", "start", "accept", "blank", "input_alphabet", "tape_alphabet")


def parse_machine(text: str, name: str = "machine") -> Machine:
    """Parse the line-oriented machine file format.

    Keys: states, start, accept, [reject], blank, input_alphabet,
    tape_alphabet, rule (repeatable; repeated (state, symbol) keys
    accumulate nondeterministic targets, as `TransitionTable.from_pairs`
    orders them). '#' starts a comment.
    """
    fields: Dict[str, str] = {}
    rules: List[Tuple[int, str]] = []
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        saw_content = True
        if ":" not in line:
            raise MachineSyntaxError(lineno, f"expected 'key: value', got {line!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        value = value.strip()
        if key == "rule":
            rules.append((lineno, value))
        elif key in _REQUIRED_KEYS or key == "reject":
            if key in fields:
                raise MachineSyntaxError(lineno, f"duplicate key {key!r}")
            fields[key] = value
        else:
            raise MachineSyntaxError(lineno, f"unknown key {key!r}")
    if not saw_content:
        raise MachineSyntaxError(1, "empty machine description")
    for key in _REQUIRED_KEYS:
        if key not in fields:
            raise MachineSemanticError(f"missing required key {key!r}")

    pairs: List[Tuple[RuleKey, Target]] = []
    for lineno, body in rules:
        if "->" not in body:
            raise MachineSyntaxError(lineno, f"rule missing '->': {body!r}")
        lhs, rhs = body.split("->", 1)
        lhs_parts = lhs.split()
        rhs_parts = rhs.split()
        if len(lhs_parts) != 2 or len(rhs_parts) != 3:
            raise MachineSyntaxError(
                lineno, "rule must be 'state symbol -> state symbol move'")
        state, symbol = lhs_parts
        nxt, write, move = rhs_parts
        if move not in MOVES:
            raise MachineSyntaxError(lineno, f"move must be one of {MOVES}, got {move!r}")
        pairs.append(((state, symbol), (nxt, write, move)))

    return Machine(
        name=name,
        states=frozenset(fields["states"].split()),
        input_alphabet=frozenset(fields["input_alphabet"].split()),
        tape_alphabet=frozenset(fields["tape_alphabet"].split()),
        blank=fields["blank"],
        table=TransitionTable.from_pairs(pairs),
        start=fields["start"],
        accept=fields["accept"],
        reject=fields.get("reject"),
    )


def initial_configuration(m: Machine, input_str: str) -> Configuration:
    for ch in input_str:
        if ch not in m.input_alphabet:
            raise MachineSemanticError(f"input symbol {ch!r} not in input alphabet")
    tape = tuple(input_str) if input_str else (m.blank,)
    return Configuration(state=m.start, head=0, tape=tape)


def moved_head(head: int, move: str) -> int:
    """The cell a move takes the head to: a left move clamps at cell 0."""
    if move == LEFT:
        return max(0, head - 1)
    return head + 1 if move == RIGHT else head


def apply_target(c: Configuration, target: Target, blank: str) -> Configuration:
    """Write, then move the head as `moved_head` does; a right move off
    the last cell grows the tape by a blank."""
    nxt, write, move = target
    tape = list(c.tape)
    tape[c.head] = write
    head = moved_head(c.head, move)
    if head == len(tape):
        tape.append(blank)
    return Configuration(state=nxt, head=head, tape=tuple(tape))


def step(m: Machine, c: Configuration) -> List[Configuration]:
    """Successor configurations in rule declaration order.

    Empty list means the machine is stuck (rejects). Accepting
    configurations have no successors by construction.
    """
    if c.state == m.accept:
        raise ValueError("step on an accepting configuration")
    targets = m.table.entries.get((c.state, c.tape[c.head]), ())
    out: List[Configuration] = []
    for target in targets:
        nc = apply_target(c, target, m.blank)
        if nc not in out:
            out.append(nc)
    return out


def accepts_within(m: Machine, input_str: str, bound: int):
    """Bounded acceptance oracle.

    Returns (accepted, witness); the witness is the first of the shortest
    accepting histories when paths are searched breadth-first with ties
    broken by rule declaration order, or None.

    The search runs over configurations, keeping the first parent that
    reached each one. Both rules keep that witness: every configuration
    on the first shortest accepting path is first reached along that
    path's own prefix, and a configuration already reached at an earlier
    level cannot lie on a shortest accepting path.

    Raises OracleLimitError instead of visiting more than
    ORACLE_CONFIG_LIMIT configurations or storing more than
    ORACLE_CELL_LIMIT tape cells, counted over the stored configurations.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    init = initial_configuration(m, input_str)
    if init.state == m.accept:
        return True, ComputationHistory((init,), input_str)
    parent: Dict[Configuration, Optional[Configuration]] = {init: None}
    cells = len(init.tape)
    frontier = [init]
    for _ in range(bound):
        nxt: List[Configuration] = []
        for c in frontier:
            for nc in step(m, c):
                if nc in parent:
                    continue
                parent[nc] = c
                cells += len(nc.tape)
                if nc.state == m.accept:
                    configs = [nc]
                    while parent[configs[-1]] is not None:
                        configs.append(parent[configs[-1]])
                    return True, ComputationHistory(tuple(reversed(configs)), input_str)
                if len(parent) > ORACLE_CONFIG_LIMIT:
                    raise OracleLimitError(
                        f"search exceeds the oracle's limit of {ORACLE_CONFIG_LIMIT} "
                        f"configurations (ORACLE_CONFIG_LIMIT) at bound {bound}")
                if cells > ORACLE_CELL_LIMIT:
                    raise OracleLimitError(
                        f"search exceeds the oracle's limit of {ORACLE_CELL_LIMIT} "
                        f"stored tape cells (ORACLE_CELL_LIMIT) at bound {bound}")
                nxt.append(nc)
        frontier = nxt
        if not frontier:
            break
    return False, None


def _licensing(t: TransitionTable, c1: Configuration, c2: Configuration, blank: str):
    """The first (key, target) of t, in declaration order, whose
    application to c1 yields c2, or None."""
    key = (c1.state, c1.tape[c1.head])
    for target in t.entries.get(key, ()):
        if apply_target(c1, target, blank) == c2:
            return key, target
    return None


def _licensed_steps(h: ComputationHistory, m: Machine) -> List[Tuple[RuleKey, Target]]:
    """The first licensing (key, target) of m for each step of h.

    Raises IllegalHistoryError naming the first step no rule of m licenses.
    """
    steps = []
    for idx in range(h.transitions):
        licensed = _licensing(m.table, h.configs[idx], h.configs[idx + 1], m.blank)
        if licensed is None:
            raise IllegalHistoryError(
                idx, f"no rule of {m.name} licenses the pair at this step")
        steps.append(licensed)
    return steps


def extract_particular_table(h: ComputationHistory, m: Machine) -> TransitionTable:
    """Collect exactly the transitions exercised by consecutive pairs of h.

    Raises IllegalHistoryError naming the first offending step if some
    pair is not licensed by any rule of m.
    """
    return TransitionTable.from_pairs(_licensed_steps(h, m))


def used_rule_indices(h: ComputationHistory, m: Machine) -> List[int]:
    """Index into m.rules() of the rule used at each step of h (first
    licensing rule in declaration order)."""
    rule_list = m.rules()
    return [rule_list.index(key + target) for key, target in _licensed_steps(h, m)]


def table_generates(t: TransitionTable, h: ComputationHistory) -> bool:
    """True iff every consecutive pair of h is licensed by some triple of t.

    A right move off the end extends the tape with a blank, which a bare
    table cannot name, so the blank is taken to be whatever the tape grew
    by.
    """
    return all(
        _licensing(t, c1, c2, c2.tape[-1]) is not None
        for c1, c2 in zip(h.configs, h.configs[1:]))


def merge_suffix(states_a: set, states_b: set) -> str:
    """The primes `merge_tables` appends to each of the second table's
    states: the fewest that keep them apart from the first's."""
    suffix = "'"
    while {s + suffix for s in states_b} & states_a:
        suffix += "'"
    return suffix


def _rename_table(t: TransitionTable, suffix: str) -> Dict[RuleKey, Tuple[Target, ...]]:
    return {
        (state + suffix, symbol): tuple(
            (nxt + suffix, write, move) for nxt, write, move in targets)
        for (state, symbol), targets in t.entries.items()
    }


def rename_history(h: ComputationHistory, suffix: str) -> ComputationHistory:
    """h with every state suffixed, as `_rename_table` renames a table's."""
    return ComputationHistory(tuple(
        Configuration(c.state + suffix, c.head, c.tape) for c in h.configs), h.input)


def merge_tables(ta: TransitionTable, tb: TransitionTable,
                 start_a: str, start_b: str) -> TransitionTable:
    """Disjoint union of two tables behind a fresh selector start state.

    The first table keeps its state names; the second's take the suffix
    `merge_suffix` gives. The selector targets are the (renamed) start
    states of the two tables.
    """
    states_a = ta.states() | {start_a}
    states_b = tb.states() | {start_b}
    suffix = merge_suffix(states_a, states_b)
    all_states = states_a | {s + suffix for s in states_b}
    fresh = "q_start"
    while fresh in all_states:
        fresh += "'"
    return TransitionTable({**ta.entries, **_rename_table(tb, suffix)},
                           selector=(start_a, start_b + suffix), selector_state=fresh)
