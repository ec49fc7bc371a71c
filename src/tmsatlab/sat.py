"""CNF satisfiability backend.

A plain DPLL solver (two-watched-literal unit propagation, chronological
backtracking, fixed branching order), an exhaustive truth-table oracle
for cross-validation, and DIMACS I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .reduction import LabeledFormula

BRUTE_FORCE_VAR_LIMIT = 24
# The solver allocates per declared variable; the benchmark's largest
# reduction has 10,039.
DIMACS_VAR_LIMIT = 200_000
# Lines that the bulk DIMACS read joins for one `int` pass: the token
# strings of one run are held at once, not those of the whole text.
_BULK_LINES = 4096


class SatError(Exception):
    """Base class for solver-level errors."""


class DimacsError(SatError):
    """Malformed DIMACS text."""


class BruteForceGuardError(SatError):
    """Brute-force oracle asked to enumerate past its variable guard."""


@dataclass
class CnfFormula:
    var_count: int
    clauses: List[List[int]]

    def __post_init__(self):
        if self.var_count < 0:
            raise ValueError("var_count must be non-negative")
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.var_count:
                    raise ValueError(f"literal {lit} out of range 1..{self.var_count}")


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
    """Strip the labels off a labeled formula."""
    return CnfFormula(f.var_count, [list(c.literals) for c in f.clauses])


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
    """
    n = f.var_count
    # val[lit] (True, False or None for unassigned) and watches[lit] are
    # indexed by the literal itself: -v wraps into the upper half.
    val: List[Optional[bool]] = [None] * (2 * n + 1)
    watches: List[List[List[int]]] = [[] for _ in range(2 * n + 1)]
    units: List[int] = []
    for clause in f.clauses:
        if len(set(map(abs, clause))) == len(clause):
            clause = list(clause)
        else:
            clause = list(dict.fromkeys(clause))
            if any(-lit in clause for lit in clause):
                continue  # tautology, always satisfied
        if len(clause) == 1:
            units.append(clause[0])
        else:
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
            neg = -lit
            watchers = watches[neg]
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
    `c clause <n> group G<k>` comment before each clause.
    """
    lines: List[str] = []
    if isinstance(f, LabeledFormula):
        lines.extend(f"c var {vid} = {label}" for vid, label in f.grid.labels())
        lines.append(f"p cnf {f.var_count} {f.clause_count}")
        for idx, clause in enumerate(f.clauses, start=1):
            lines.append(f"c clause {idx} group {clause.group}")
            lines.append(" ".join(map(str, clause.literals)) + " 0")
    else:
        lines.append(f"p cnf {f.var_count} {len(f.clauses)}")
        for clause in f.clauses:
            lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text of at most DIMACS_VAR_LIMIT variables.

    A text whose first non-comment line is a valid header and whose later
    lines hold only integers and comments is scanned in bulk. Any other
    text has a fault, and the line-by-line scan names it.
    """
    (var_count, clause_count), tokens = _scan_bulk(text) or _scan_lines(text)
    clauses: List[List[int]] = []
    current: List[int] = []
    for tok in tokens:
        if tok == 0:
            if not current:
                raise DimacsError("empty clause in DIMACS input")
            clauses.append(current)
            current = []
        else:
            current.append(tok)
    if current:
        raise DimacsError("missing terminating 0 on final clause")
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
    integers, converted by `int` over joined runs of lines; None for any
    other text, whose fault `_scan_lines` names."""
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
    tokens: List[int] = []
    try:
        # A second header fails here too: its first token is no integer.
        for i in range(0, len(body), _BULK_LINES):
            tokens += map(int, " ".join(body[i:i + _BULK_LINES]).split())
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
