"""CNF satisfiability backend.

A plain DPLL solver (unit propagation, chronological backtracking, fixed
branching order), an exhaustive truth-table oracle for cross-validation,
and DIMACS I/O.

A clause is a tuple of int literals all the way from the reduction to
the solver: `to_cnf` hands over the reduction's own `Clause.literals`
tuples, and `from_dimacs` cuts its clauses out of one tuple of tokens.
The solver keeps each binary clause as two entries of per-literal
implication lists and copies only clauses of three or more literals into
two-watched-literal lists. Each DIMACS direction has a per-call table
of literals. The writer renders every literal from a table of the
strings of the 2n literals, which has no entry for a bad literal. The
reader converts tokens through a string-to-literal table of the 2n+1
tokens -n..n only when the text has more clause lines than that, and
through `int` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from .reduction import LabeledFormula

BRUTE_FORCE_VAR_LIMIT = 24
# The solver allocates per declared variable; the benchmark's largest
# reduction has 10,039.
DIMACS_VAR_LIMIT = 200_000
# Lines that the bulk DIMACS read joins for one conversion pass: the
# token strings of one run are held at once, not those of the whole text.
_BULK_LINES = 4096


class SatError(Exception):
    """Base class for solver-level errors."""


class DimacsError(SatError):
    """Malformed DIMACS text."""


class BruteForceGuardError(SatError):
    """Brute-force oracle asked to enumerate past its variable guard."""


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


@dataclass
class SolveResult:
    satisfiable: bool
    assignment: Optional[Dict[int, bool]] = None

    @classmethod
    def sat(cls, assignment: Dict[int, bool]) -> "SolveResult":
        return cls(True, assignment)

    @classmethod
    def unsat(cls) -> "SolveResult":
        return cls(False, None)


def to_cnf(f: LabeledFormula) -> CnfFormula:
    """Strip the labels off a labeled formula; its clauses are the
    reduction's own literal tuples, not copies."""
    return CnfFormula(f.var_count, [c.literals for c in f.clauses])


def check_model(f: CnfFormula, assignment: Dict[int, bool]) -> bool:
    """Whether every clause has a literal `lit` with
    `assignment.get(abs(lit)) == (lit > 0)`."""
    true = {lit for v, x in assignment.items() if v >= 0
            for lit in (v, -v) if x == (lit > 0)}
    return not any(map(true.isdisjoint, f.clauses))


def _verified(f: CnfFormula, assignment: Dict[int, bool]) -> SolveResult:
    # Internal check before any Sat verdict leaves the module.
    if not check_model(f, assignment):
        raise SatError("model fails verification")
    return SolveResult.sat(assignment)


def solve_dpll(f: CnfFormula) -> SolveResult:
    """DPLL with unit propagation and chronological backtracking.

    Deterministic: branches on the lowest-index unassigned variable,
    trying true first, so the first model found is the lexicographically
    greatest one (variable 1 most significant, true above false).
    Propagation reaches the same fixpoint or conflict in any order, so
    how clauses are stored does not change a decision or a model.
    """
    n = f.var_count
    # val[lit] (True, False or None for unassigned), implied[lit] and
    # watches[lit] are indexed by the literal itself: -v wraps into the
    # upper half. implied[lit] lists the literals that binary clauses
    # make true once lit is true; watches[lit] lists the clauses of three
    # or more literals that watch lit. Both are None for a literal with
    # nothing to list, so a large, sparse formula allocates little.
    val: List[Optional[bool]] = [None] * (2 * n + 1)
    implied: List[Optional[List[int]]] = [None] * (2 * n + 1)
    watches: List[Optional[List[List[int]]]] = [None] * (2 * n + 1)
    units: List[int] = []
    binaries: List[Tuple[int, ...]] = []
    longs: List[List[int]] = []
    for clause in f.clauses:
        k = len(clause)
        if k > 2 and len(set(map(abs, clause))) < k:
            # A variable occurs twice in a clause of three or more.
            clause = tuple(dict.fromkeys(clause))
            if any(-lit in clause for lit in clause):
                continue  # tautology, always satisfied
            k = len(clause)
        if k == 2:
            a, b = clause
            if a == b:
                units.append(a)
            elif a != -b:  # (a, -a) is always satisfied
                binaries.append(clause)
        elif k > 2:
            longs.append(list(clause))
        else:
            units.append(clause[0])
    for lit in set(chain.from_iterable(binaries)):
        implied[-lit] = []
    for a, b in binaries:
        implied[-a].append(b)
        implied[-b].append(a)
    # A watch can move to any literal of its clause.
    for lit in set(chain.from_iterable(longs)):
        watches[lit] = []
    for clause in longs:
        watches[clause[0]].append(clause)
        watches[clause[1]].append(clause)
    trail: List[int] = []

    def propagate(pending: List[int]) -> bool:
        """Make each pending literal true and propagate; False on conflict."""
        qi = 0
        while qi < len(pending):
            lit = pending[qi]
            qi += 1
            if val[lit] is not None:
                if val[lit]:
                    continue
                return False
            val[lit] = True
            val[-lit] = False
            trail.append(lit)
            imp = implied[lit]
            if imp:
                pending += imp
            neg = -lit
            watchers = watches[neg]
            if not watchers:
                continue
            kept: List[List[int]] = []
            for pos, clause in enumerate(watchers):
                # Keep the two watched literals in the first two slots.
                if clause[0] == neg:
                    clause[0] = clause[1]
                    clause[1] = neg
                other = clause[0]
                if val[other]:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    lk = clause[k]
                    if val[lk] is not False:
                        clause[1] = lk
                        clause[k] = neg
                        watches[lk].append(clause)
                        break
                else:
                    kept.append(clause)
                    if val[other] is False:
                        kept.extend(watchers[pos + 1:])
                        watches[neg] = kept
                        return False
                    pending.append(other)
            watches[neg] = kept
        return True

    def backtrack_to(mark: int):
        for lit in trail[mark:]:
            val[lit] = val[-lit] = None
        del trail[mark:]

    if not propagate(units):
        return SolveResult.unsat()

    # Decision stack entries: (trail length before the decision, var, flipped).
    stack: List[Tuple[int, int, bool]] = []
    # Every variable below `var` is assigned: the scan for the next
    # decision resumes here, and backtracking to a decision on dvar keeps
    # everything assigned before it, so the scan restarts at dvar.
    var = 1
    while True:
        while var <= n and val[var] is not None:
            var += 1
        if var > n:
            return _verified(f, dict(zip(range(1, n + 1), val[1:n + 1])))
        stack.append((len(trail), var, False))
        ok = propagate([var])
        while not ok:
            # Chronological backtracking: flip the deepest untried decision.
            while stack and stack[-1][2]:
                mark, _, _ = stack.pop()
                backtrack_to(mark)
            if not stack:
                return SolveResult.unsat()
            mark, dvar, _ = stack.pop()
            backtrack_to(mark)
            stack.append((mark, dvar, True))
            var = dvar
            ok = propagate([-dvar])


def solve_bruteforce(f: CnfFormula) -> SolveResult:
    """Exhaustive truth-table evaluation over all 2^n assignments.

    Assignments are ordered lexicographically (variable 1 most
    significant, false before true); the first satisfying one is
    returned. Refuses formulas above the variable guard.
    """
    n = f.var_count
    if n > BRUTE_FORCE_VAR_LIMIT:
        raise BruteForceGuardError(
            f"{n} variables exceeds the brute-force guard of {BRUTE_FORCE_VAR_LIMIT}")
    total = 1 << n
    full = (1 << total) - 1
    # Bit p of a mask is assignment index p; var v is true in assignment a
    # iff bit (n - v) of a is set.
    var_mask: Dict[int, int] = {}
    for v in range(1, n + 1):
        block = 1 << (n - v)
        mask = ((1 << block) - 1) << block
        width = 2 * block
        while width < total:
            mask |= mask << width
            width *= 2
        var_mask[v] = mask

    formula_mask = full
    for clause in f.clauses:
        clause_mask = 0
        for lit in clause:
            m = var_mask[abs(lit)]
            clause_mask |= m if lit > 0 else (full ^ m)
        formula_mask &= clause_mask
        if not formula_mask:
            return SolveResult.unsat()
    first = (formula_mask & -formula_mask).bit_length() - 1
    assignment = {v: bool((first >> (n - v)) & 1) for v in range(1, n + 1)}
    return _verified(f, assignment)


def to_dimacs(f) -> str:
    """Render a CnfFormula or LabeledFormula as DIMACS text.

    Labeled formulas get `c var <id> = <label>` headers and a
    `c clause <n> group G<k>` comment before each clause. A literal that
    is 0 or outside -var_count..var_count raises ValueError naming it.
    """
    n = f.var_count
    # Literals are written from a table of their strings. It holds only
    # the literals of n variables, so a bad literal is a missing key, never
    # another literal's string.
    lits = [*range(-n, 0), *range(1, n + 1)]
    name = dict(zip(lits, map(str, lits))).__getitem__
    labeled = isinstance(f, LabeledFormula)
    lines: List[str] = []
    if labeled:
        lines.extend(f"c var {vid} = {label}" for vid, label in f.grid.labels())
        lines.append(f"p cnf {n} {f.clause_count}")
        rows = (f"c clause {idx} group {group}\n{' '.join(map(name, literals))} 0"
                for idx, (literals, group) in enumerate(f.clauses, start=1))
    else:
        lines.append(f"p cnf {n} {len(f.clauses)}")
        rows = (" ".join(map(name, clause)) + " 0" for clause in f.clauses)
    try:
        lines.extend(rows)
    except KeyError:
        # The clause-by-clause check names the first bad literal.
        _check_clauses([c.literals for c in f.clauses] if labeled else f.clauses, n)
        raise
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text of at most DIMACS_VAR_LIMIT variables.

    A text whose first non-comment line is a valid header and whose later
    lines hold only integers and comments is scanned in bulk. Any other
    text has a fault, and the line-by-line scan names it.
    """
    (var_count, clause_count), tokens = _scan_bulk(text) or _scan_lines(text)
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
    try:
        return CnfFormula(var_count, clauses)
    except ValueError as exc:  # a literal out of range
        raise DimacsError(str(exc)) from exc


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


def _scan_bulk(text: str) -> Optional[Tuple[Tuple[int, int], List[int]]]:
    """The header and literal tokens of a text whose first non-comment
    line is a valid header and whose later non-comment lines hold only
    integers, converted over joined runs of lines; None for any other
    text, whose fault `_scan_lines` names.

    A text of more clause lines than the 2n+1 literals of its n
    variables pays for a string-to-literal table; a run with a token the
    table lacks ("+1", "01", a literal above n) is converted by `int`,
    as is every run of a shorter text."""
    lines = text.splitlines()
    for at, line in enumerate(lines):
        line = line.strip()
        if line and not line.startswith("c"):
            break
    else:
        return None
    if not line.startswith("p"):
        return None
    try:
        header = _header(line, at + 1)
    except DimacsError:
        return None
    body = [raw for raw in lines[at + 1:] if not raw.lstrip().startswith("c")]
    del lines
    n = header[0]
    convert = int
    if len(body) > 2 * n + 1:
        convert = dict(zip(map(str, range(-n, n + 1)), range(-n, n + 1))).__getitem__
    tokens: List[int] = []
    try:
        # A second header fails here too: its first token is no integer.
        for i in range(0, len(body), _BULK_LINES):
            words = " ".join(body[i:i + _BULK_LINES]).split()
            try:
                tokens += list(map(convert, words))
            except KeyError:  # a token the table lacks
                tokens += map(int, words)
    except ValueError:
        return None
    return header, tokens


def _scan_lines(text: str) -> Tuple[Tuple[int, int], List[int]]:
    """The header and literal tokens, read line by line; raises
    DimacsError naming the first line at fault."""
    header: Optional[Tuple[int, int]] = None
    tokens: List[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            header = _header(line, lineno)
            continue
        if header is None:
            raise DimacsError(f"line {lineno}: clause before header")
        try:
            tokens.extend(int(tok) for tok in line.split())
        except ValueError:
            raise DimacsError(f"line {lineno}: bad literal in {line!r}")
    if header is None:
        raise DimacsError("missing 'p cnf' header")
    return header, tokens
