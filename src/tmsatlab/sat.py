"""CNF satisfiability backend.

A DPLL solver with 1-UIP clause learning and non-chronological
backjumping, a checker of the refutations it learns, an exhaustive
truth-table oracle for cross-validation, and DIMACS I/O.

The solver always decides the lowest-index unassigned variable, true
first, and has no restarts, activity order, phase saving or clause
deletion. Its first model is therefore the lexicographically greatest
one, the model a plain DPLL search in that order finds; `solve_dpll`
says why learning keeps it. Every Sat verdict leaves the module through
a model check. An Unsat verdict carries its learnt clauses, which
`check_refutation` replays by unit propagation outside the solver; the
CLI's `solve` and the property suite run it.

A clause is a tuple of int literals all the way from the reduction to
the solver: `to_cnf` chains the reduction's own tuples group by group,
and `from_dimacs` cuts its clauses out of one tuple of tokens. A labeled
formula is range-checked once, where it is built from outside the
reduction, so `to_cnf` takes no pass over its literals. The reduction's
literals are its grid's own int objects, one per literal, so the table
`to_dimacs` writes through matches them by identity. `_index`
says how the solver stores them: a clause of three or more literals is
copied into one list of ints per solve, as MiniSat's clause arena holds
clauses (Eén and Sörensson, "An Extensible SAT-solver", SAT 2003), so a
solve makes no list per clause for the cyclic garbage collector to
track.

DIMACS text is written and read in bulk, with no interpreter step per
clause. `to_dimacs` writes each clause group as one stream of tokens,
the group's literals with an end marker after each clause, joined
through a table of literal strings in one call and cut into lines after
each " 0". `from_dimacs` parses the header once and converts the body
in bulk, through a table of the strings of -n..n when the body is long
enough to pay for one; a formula read through the table is in range by
construction and is not checked a second time. Only a token the bulk
pass cannot convert makes the reader re-read the body line by line.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .reduction import LabeledFormula, _check_clauses

BRUTE_FORCE_VAR_LIMIT = 24
# The solver allocates per declared variable; the benchmark's largest
# reduction has 10,039.
DIMACS_VAR_LIMIT = 200_000
# Total literals of the clauses one solve may learn. A solve of a hard
# random 3-CNF that reaches this cap (43,118 learnt clauses of 23
# literals on average) peaks about 30 MiB above its start; the
# benchmark's search cases learn a few hundred.
LEARNT_LITERAL_LIMIT = 1_000_000
# Lines that the bulk DIMACS read joins for one conversion pass: the
# token strings of one run are held at once, not those of the whole text.
_BULK_LINES = 4096
# The key `to_dimacs` writes as the 0 that ends a clause: no literal
# equals it.
_END = object()


class SatError(Exception):
    """Base class for solver-level errors."""


class DimacsError(SatError):
    """Malformed DIMACS text."""


class BruteForceGuardError(SatError):
    """Brute-force oracle asked to enumerate past its variable guard."""


class LearntLimitError(SatError):
    """The solver's learnt clauses grew past LEARNT_LITERAL_LIMIT."""


@dataclass
class CnfFormula:
    """Clauses as int tuples over variables 1..var_count; clauses given
    as lists are converted to tuples."""

    var_count: int
    clauses: List[Tuple[int, ...]]

    def __post_init__(self):
        if self.var_count < 0:
            raise ValueError("var_count must be non-negative")
        self.clauses = list(map(tuple, self.clauses))
        _check_clauses(self.clauses, self.var_count)


@dataclass
class SolveResult:
    """A verdict, the model of a Sat verdict, and what the search did:
    decisions, conflicts (the last one of an Unsat verdict included),
    propagations (literals pushed onto the trail), the learnt clauses in
    order, and the most decision levels one backjump undid."""

    satisfiable: bool
    assignment: Optional[Dict[int, bool]] = None
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    learnt: Tuple[Tuple[int, ...], ...] = ()
    max_backjump: int = 0


def to_cnf(f: LabeledFormula) -> CnfFormula:
    """Strip the labels off a labeled formula: its groups' clauses in
    GROUPS order, the reduction's own tuples, not copies. A labeled
    formula is checked when it is built, so they are not checked again."""
    return _well_formed(f.var_count, list(chain.from_iterable(f.groups.values())))


def check_model(f: CnfFormula, assignment: Dict[int, bool]) -> bool:
    """Whether every clause has a literal `lit` with
    `assignment.get(abs(lit)) == (lit > 0)`."""
    true = {lit for v, x in assignment.items() if v >= 0
            for lit in (v, -v) if x == (lit > 0)}
    return not any(map(true.isdisjoint, f.clauses))


def _verified(f: CnfFormula, assignment: Dict[int, bool], **stats) -> SolveResult:
    # Internal check before any Sat verdict leaves the module.
    if not check_model(f, assignment):
        raise SatError("model fails verification")
    return SolveResult(True, assignment, **stats)


def solve_dpll(f: CnfFormula) -> SolveResult:
    """DPLL with unit propagation, 1-UIP clause learning and
    non-chronological backjumping.

    Deterministic: it decides the lowest-index unassigned variable,
    true first, with no restarts, activity order, phase saving or clause
    deletion, so the first model found is the lexicographically greatest
    one, G (variable 1 most significant, true above false). Learnt
    clauses follow from the formula, so G satisfies them as it does the
    formula's clauses. On the trail of the model found, the first literal
    that differs from G therefore cannot be implied by a clause whose
    other literals come before it. It would be a decision setting some
    variable true that G sets false, with every lower variable already
    set as in G, and the model found would be greater than G. So no
    literal differs. The order of propagation, and so how clauses are
    stored, can change which conflict is found, the clauses learnt and
    the counts, but not the model.

    The result carries the learnt clauses in the order they were
    learnt; for an Unsat verdict they, then the empty clause, each follow
    from the formula and the clauses before them by unit propagation,
    which `check_refutation` replays. Their total length is capped at
    LEARNT_LITERAL_LIMIT literals.
    """
    n = f.var_count
    # val[lit] (True, False or None for unassigned), implied[lit] and
    # watches[lit] are indexed by the literal itself: -v wraps into the
    # upper half. implied[lit] lists the literals that binary clauses
    # make true once lit is true. A clause of three or more literals lives
    # in `store` as its length, then its literals, and is named by the
    # index of its first literal; watches[lit] lists the clauses that
    # watch lit by that index. `store` starts with n + 1 unused slots, so
    # every clause index is above n and above every literal. `_index`
    # fills all three, in one pass over the formula's clauses and then
    # with each clause learnt, and makes a list only for a literal it puts
    # something on, or that a watch can move to; the rest stay None, so a
    # large, sparse formula allocates little.
    # level[lit] and reason[lit] describe a true literal on the trail: its
    # decision level, and the int that implied it, either the true literal
    # of a binary clause (at most n) or the index of a longer clause
    # (above n), or None (a decision or a unit).
    val: List[Optional[bool]] = [None] * (2 * n + 1)
    implied: List[Optional[List[int]]] = [None] * (2 * n + 1)
    watches: List[Optional[List[int]]] = [None] * (2 * n + 1)
    store: List[int] = [0] * (n + 1)
    level: List[int] = [0] * (2 * n + 1)
    reason: List[Optional[int]] = [None] * (2 * n + 1)
    units: List[int] = []
    _index(f.clauses, units, implied, watches, store)
    trail: List[int] = []
    # Per decision level d >= 1, at index d - 1: the trail length before
    # its decision, so trail[marks[d - 1]] is the decision literal.
    marks: List[int] = []

    def propagate(pending: List[int], why: List[Optional[int]]) -> Optional[Sequence[int]]:
        """Make each pending literal true, implied by the reason at the
        same index of `why`, and propagate; the clause whose literals are
        all false on a conflict, else None."""
        d = len(marks)
        qi = 0
        while qi < len(pending):
            lit = pending[qi]
            if val[lit] is not None:
                if val[lit]:
                    qi += 1
                    continue
                # Only a unit or binary reason implies a literal false by now:
                # a long clause's stays watched in slot 0, so the watch loop
                # reports its conflict first, and a learnt clause's asserted
                # literal is unassigned after the backjump.
                r = why[qi]
                return (lit,) if r is None else (lit, -r)
            val[lit] = True
            val[-lit] = False
            level[lit] = d
            reason[lit] = why[qi]
            qi += 1
            trail.append(lit)
            imp = implied[lit]
            if imp:
                pending += imp
                why += [lit] * len(imp)
            neg = -lit
            watchers = watches[neg]
            if not watchers:
                continue
            kept: List[int] = []
            for pos, c in enumerate(watchers):
                # Keep the two watched literals in the clause's first two
                # slots.
                other = store[c]
                if other == neg:
                    other = store[c] = store[c + 1]
                    store[c + 1] = neg
                if val[other]:
                    kept.append(c)
                    continue
                # A while loop, not a range: on a search-bound formula a
                # range object per visit cost about 15% of the solve.
                end = c + store[c - 1]
                k = c + 2
                while k < end:
                    lk = store[k]
                    if val[lk] is not False:
                        store[c + 1] = lk
                        store[k] = neg
                        watches[lk].append(c)
                        break
                    k += 1
                else:
                    kept.append(c)
                    if val[other] is False:
                        kept.extend(watchers[pos + 1:])
                        watches[neg] = kept
                        return store[c:end]
                    pending.append(other)
                    why.append(c)
            watches[neg] = kept
        return None

    def analyze(conflict: Sequence[int]) -> List[int]:
        """The 1-UIP clause of a conflict above level 0: the negated
        unique implication point of the current level first, then the
        conflict's false literals of lower levels that it rests on."""
        d = len(marks)
        seen = set()  # true literals whose negation is resolved or kept
        lower: List[int] = []
        unresolved = 0  # seen literals of level d not yet resolved on
        i = len(trail)
        lits: Sequence[int] = conflict
        while True:
            for q in lits:
                t = -q
                if t not in seen and level[t]:
                    seen.add(t)
                    if level[t] == d:
                        unresolved += 1
                    else:
                        lower.append(q)
            i -= 1
            while trail[i] not in seen:
                i -= 1
            p = trail[i]
            unresolved -= 1
            if not unresolved:
                return [-p, *lower]
            r = reason[p]
            lits = (-r,) if r <= n else [q for q in store[r:r + store[r - 1]] if q != p]

    learnt: List[Tuple[int, ...]] = []
    learnt_literals = decisions = conflicts = undone = max_backjump = 0

    def stats() -> dict:
        return dict(decisions=decisions, conflicts=conflicts,
                    propagations=undone + len(trail), learnt=tuple(learnt),
                    max_backjump=max_backjump)

    pending: List[int] = units
    why: List[Optional[int]] = [None] * len(units)
    # Every variable below `var` is assigned: the scan for the next
    # decision resumes here. A backjump to level b keeps everything
    # assigned before the decision of level b + 1, so the scan resumes at
    # that decision's variable.
    var = 1
    while True:
        conflict = propagate(pending, why)
        if conflict is None:
            while var <= n and val[var] is not None:
                var += 1
            if var > n:
                return _verified(f, dict(zip(range(1, n + 1), val[1:n + 1])), **stats())
            decisions += 1
            marks.append(len(trail))
            pending, why = [var], [None]
            continue
        conflicts += 1
        if not marks:
            return SolveResult(False, **stats())
        clause = analyze(conflict)
        learnt.append(tuple(clause))
        learnt_literals += len(clause)
        if learnt_literals > LEARNT_LITERAL_LIMIT:
            raise LearntLimitError(
                f"learnt clauses exceed LEARNT_LITERAL_LIMIT "
                f"({LEARNT_LITERAL_LIMIT} literals)")
        # Backjump to the highest level among the lower literals, where
        # the clause asserts its first literal.
        k = len(clause)
        if k > 1:
            # The literal of the highest level goes to the second slot,
            # the other watch of a long clause.
            top = max(range(1, k), key=lambda t: level[-clause[t]])
            clause[1], clause[top] = clause[top], clause[1]
            b = level[-clause[1]]
        else:
            b = 0
        max_backjump = max(max_backjump, len(marks) - b)
        mark = marks[b]
        var = trail[mark]
        for lit in trail[mark:]:
            val[lit] = val[-lit] = None
        undone += len(trail) - mark
        del trail[mark:], marks[b:]
        # Store the clause as the formula's are, and assert its first
        # literal. A long clause's reason is its own index in `store`.
        at = len(store) + 1
        _index((clause,), [], implied, watches, store)
        pending, why = [clause[0]], [None if k == 1 else -clause[1] if k == 2 else at]


def _distinct(clause: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """A clause that repeats a variable, each literal once, in a list of
    one clause; no clause for a tautology (a variable and its negation)."""
    clause = tuple(dict.fromkeys(clause))
    return [] if any(-lit in clause for lit in clause) else [clause]


def _index(clauses: Iterable[Sequence[int]], units: List[int],
           implied: List[Optional[List[int]]],
           watches: List[Optional[List[int]]], store: List[int]):
    """Put each clause, of the formula or learnt, where `solve_dpll` reads
    it, in one pass in clause order: a unit on `units`, a binary (a, b)
    as b on implied[-a] and a on implied[-b], a longer clause at the end
    of `store`, its length and then its literals, with the index of its
    first literal on the watch lists of its first two literals. The only
    code that makes these lists: a list is made when first used, and every
    literal of a longer clause gets a watch list, since a watch can move
    to any of them. A clause of two or three literals is tested for a
    repeated variable literal by literal, a longer one by the set of its
    variables; one that repeats is indexed as `_distinct` leaves it."""
    for clause in clauses:
        k = len(clause)
        if k == 3:
            a, b, c = clause
            if a == b or a == -b or a == c or a == -c or b == c or b == -c:
                _index(_distinct(clause), units, implied, watches, store)
                continue
            if watches[c] is None:
                watches[c] = []
        elif k == 2:
            a, b = clause
            if a == b or a == -b:
                _index(_distinct(clause), units, implied, watches, store)
                continue
            entries = implied[-a]
            if entries is None:
                implied[-a] = [b]
            else:
                entries.append(b)
            entries = implied[-b]
            if entries is None:
                implied[-b] = [a]
            else:
                entries.append(a)
            continue
        elif k == 1:
            units.append(clause[0])
            continue
        elif len(set(map(abs, clause))) < k:
            _index(_distinct(clause), units, implied, watches, store)
            continue
        else:
            for lit in clause[2:]:
                if watches[lit] is None:
                    watches[lit] = []
            a, b = clause[:2]
        store.append(k)
        at = len(store)
        store += clause
        entries = watches[a]
        if entries is None:
            watches[a] = [at]
        else:
            entries.append(at)
        entries = watches[b]
        if entries is None:
            watches[b] = [at]
        else:
            entries.append(at)


def check_refutation(f: CnfFormula, learnt: Sequence[Sequence[int]]) -> bool:
    """Whether each clause of `learnt`, then the empty clause, is a
    reverse unit propagation (RUP) consequence of the formula's clauses
    and the learnt clauses before it: making all its literals false and
    propagating the units this leaves reaches a clause with every literal
    false.

    It shares no code with the solver: each clause is a set of literals
    (a repeated literal counts once) with a count of the literals not yet
    false, and every step propagates afresh from the formula's units.
    """
    clauses: List[frozenset] = []
    occurs: Dict[int, List[int]] = {}  # literal -> indices of clauses holding it

    def add(clause: Sequence[int]):
        lits = frozenset(clause)
        for lit in lits:
            occurs.setdefault(lit, []).append(len(clauses))
        clauses.append(lits)

    def implied_by_propagation(lemma: Sequence[int]) -> bool:
        free = list(map(len, clauses))  # literals not yet false, per clause
        true = set()
        queue = [-lit for lit in lemma]
        queue += [next(iter(c)) for c in clauses if len(c) == 1]
        while queue:
            lit = queue.pop()
            if lit in true:
                continue
            if -lit in true:
                return True
            true.add(lit)
            for i in occurs.get(-lit, ()):
                free[i] -= 1
                if free[i] == 0:
                    return True
                if free[i] == 1:
                    # The one literal not yet false is either true, and the
                    # clause is satisfied, or free, and now implied.
                    queue += [q for q in clauses[i] if -q not in true]
        return False

    for clause in f.clauses:
        add(clause)
    for lemma in learnt:
        if not implied_by_propagation(lemma):
            return False
        add(lemma)
    return implied_by_propagation(())


def truth_table_masks(n: int) -> Tuple[int, List[int]]:
    """(full, masks): the all-true table and the table of each of n
    variables, masks[i] that of variable i + 1. Bit p of a table is its
    value under assignment p; assignments run lexicographically (the first
    variable most significant, false before true), so a table's lowest set
    bit is its first true assignment."""
    total = 1 << n
    masks = []
    for v in range(1, n + 1):
        block = 1 << (n - v)
        mask = ((1 << block) - 1) << block
        width = 2 * block
        while width < total:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    return (1 << total) - 1, masks


def solve_bruteforce(f: CnfFormula) -> SolveResult:
    """Exhaustive evaluation of all 2^n assignments, one `truth_table_masks`
    table per clause; returns the first satisfying assignment in their
    order. Refuses formulas above the variable guard."""
    n = f.var_count
    if n > BRUTE_FORCE_VAR_LIMIT:
        raise BruteForceGuardError(
            f"{n} variables exceeds the brute-force guard of {BRUTE_FORCE_VAR_LIMIT}")
    full, masks = truth_table_masks(n)
    formula_mask = full
    for clause in f.clauses:
        clause_mask = 0
        for lit in clause:
            m = masks[abs(lit) - 1]
            clause_mask |= m if lit > 0 else (full ^ m)
        formula_mask &= clause_mask
        if not formula_mask:
            return SolveResult(False)
    first = (formula_mask & -formula_mask).bit_length() - 1
    assignment = {v: bool(masks[v - 1] >> first & 1) for v in range(1, n + 1)}
    return _verified(f, assignment)


def to_dimacs(f) -> str:
    """Render a CnfFormula or LabeledFormula as DIMACS text.

    A labeled formula gets `c var <id> = <label>` headers, and each group, in
    GROUPS order, a `c group <G> clauses <first>-<last>` (or `none`) line
    before its clauses. A literal that is 0 or outside -var_count..var_count
    raises ValueError naming it; an empty clause, ValueError("empty clause").
    """
    n = f.var_count
    if isinstance(f, LabeledFormula):
        lines = [f"c var {vid} = {label}" for vid, label in f.grid.labels()]
        runs = f.groups.items()
        # The grid's own literal objects, the ones its clauses hold, so a
        # lookup matches its key by identity.
        lits = f.grid.negs[1:] + f.grid.ids[1:]
    else:
        lines, runs = [], [(None, f.clauses)]
        lits = [*range(-n, 0), *range(1, n + 1)]
    # Literals are written from a table of their strings. It holds only
    # the literals of n variables, so a bad literal is a missing key, never
    # another literal's string; its one other key, _END, ends a clause.
    table = dict(zip(lits, map(str, lits)))
    table[_END] = "0"
    name = table.__getitem__
    lines.append(f"p cnf {n} {sum(len(clauses) for _, clauses in runs)}")

    def name_fault():
        # The clause-by-clause check names the first fault.
        _check_clauses([clause for _, clauses in runs for clause in clauses], n)

    # Both kinds of formula are checked when built, but not clauses set on
    # them afterwards: an empty clause is refused here, before it could be
    # written as a bare "0".
    if not all(all(clauses) for _, clauses in runs):
        name_fault()
    first = 1
    try:
        for group, clauses in runs:
            if group:
                span = f"{first}-{first + len(clauses) - 1}" if clauses else "none"
                lines.append(f"c group {group} clauses {span}")
                first += len(clauses)
            if clauses:
                # The group is one stream of tokens, each clause followed
                # by _END, joined into one line and then cut after each
                # " 0": no literal is written "0", so every " 0 " ends a
                # clause.
                tokens = chain.from_iterable(chain.from_iterable(zip(clauses, repeat((_END,)))))
                lines.append(" ".join(map(name, tokens)).replace(" 0 ", " 0\n"))
    except KeyError:
        name_fault()
        raise
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text of at most DIMACS_VAR_LIMIT variables.

    The header is the first line that is neither blank nor a comment. The
    body, the non-comment lines after it, is converted in runs of
    _BULK_LINES lines: through a string-to-literal table when it has more
    lines than the 2n+1 literals of its n variables, else by `int`. A
    token that this refuses, a second header's "p" among them, sends the
    lines after the header through `_line_tokens`, which names the first
    faulty line, or reads by `int` the tokens the table only lacked ("+1",
    "01", a literal above n). A formula read through the table has only
    literals of -n..n, a 0 only where a clause ends and no empty clause,
    so it is built by `_well_formed`, without `_check_clauses`; one read
    by `int` is checked.
    """
    lines = text.splitlines()
    for at, line in enumerate(lines):
        line = line.strip()
        if line and not line.startswith("c"):
            break
    else:
        raise DimacsError("missing 'p cnf' header")
    if not line.startswith("p"):
        raise DimacsError(f"line {at + 1}: clause before header")
    n, clause_count = _header(line, at + 1)
    body = [raw for raw in lines[at + 1:] if not raw.lstrip().startswith("c")]
    del lines
    # `by_table`: every token came through the table, so every literal
    # lies in -n..n.
    by_table = len(body) > 2 * n + 1
    convert = int
    if by_table:
        convert = dict(zip(map(str, range(-n, n + 1)), range(-n, n + 1))).__getitem__
    tokens: List[int] = []
    try:
        for i in range(0, len(body), _BULK_LINES):
            tokens += map(convert, " ".join(body[i:i + _BULK_LINES]).split())
    except (KeyError, ValueError):
        by_table = False
        tokens = _line_tokens(text.splitlines(), at + 1)
    del body
    # Each clause is a slice of one tuple of every token, up to its 0.
    tokens = tuple(tokens)
    clauses: List[Tuple[int, ...]] = []
    start, stop = 0, len(tokens)
    while start < stop:
        try:
            end = tokens.index(0, start)
        except ValueError:
            raise DimacsError("missing terminating 0 on final clause") from None
        if end == start:
            raise DimacsError("empty clause in DIMACS input")
        clauses.append(tokens[start:end])
        start = end + 1
    del tokens
    if len(clauses) != clause_count:
        raise DimacsError(
            f"header claims {clause_count} clauses, found {len(clauses)}")
    if by_table:
        return _well_formed(n, clauses)
    try:
        return CnfFormula(n, clauses)
    except ValueError as exc:  # a literal out of range
        raise DimacsError(str(exc)) from exc


def _well_formed(n: int, clauses: List[Tuple[int, ...]]) -> CnfFormula:
    """The CnfFormula of clauses known to be non-empty tuples of literals
    in -n..-1, 1..n, built without `_check_clauses`."""
    f = object.__new__(CnfFormula)
    f.var_count, f.clauses = n, clauses
    return f


def _header(line: str, lineno: int) -> Tuple[int, int]:
    """(variables, clauses) of a stripped line that starts with "p"."""
    parts = line.split()
    if len(parts) != 4 or parts[1] != "cnf":
        raise DimacsError(f"line {lineno}: malformed header {line!r}")
    try:
        header = (int(parts[2]), int(parts[3]))
    except ValueError:
        raise DimacsError(f"line {lineno}: malformed header {line!r}")
    if min(header) < 0:
        raise DimacsError(f"line {lineno}: negative count in header {line!r}")
    if header[0] > DIMACS_VAR_LIMIT:
        raise DimacsError(f"line {lineno}: {header[0]} variables exceeds "
                          f"the limit of {DIMACS_VAR_LIMIT}")
    return header


def _line_tokens(lines: List[str], start: int) -> List[int]:
    """The literal tokens of lines[start:], read line by line by `int`;
    raises DimacsError naming the first line that is a second header or
    holds a token that is no integer."""
    tokens: List[int] = []
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            raise DimacsError(f"line {lineno}: duplicate header")
        try:
            tokens += map(int, line.split())
        except ValueError:
            raise DimacsError(f"line {lineno}: bad literal in {line!r}")
    return tokens
