"""Fuzzing of the three text parsers: each raises only its declared error,
DIMACS text survives a round trip, the DIMACS reader agrees with a
line-by-line reference reader, and the DIMACS writer with a
clause-by-clause reference writer."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmsatlab.argument import FormulaSyntaxError, parse_formula
from tmsatlab.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from tmsatlab.machine import MachineError, parse_machine
from tmsatlab.reduction import GROUPS, LabeledFormula, _check_clauses, reduce_machine
from tmsatlab.sat import (
    _BULK_LINES,
    CnfFormula,
    DimacsError,
    _header,
    from_dimacs,
    to_dimacs,
)


@st.composite
def edited(draw, valid, pieces, sep):
    """One of the valid texts with a few units (lines, or tokens of a
    formula) inserted or replaced, so that most examples get past the
    first check. A unit drawn empty stands for a deletion."""
    units = draw(st.sampled_from(valid)).split(sep)
    unit = st.one_of(st.lists(st.sampled_from(pieces), max_size=4).map(" ".join),
                     st.text(max_size=10))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(units)))
        units[i:i + draw(st.integers(0, 1))] = [draw(unit)]
    return sep.join(units)


MACHINES = [fixture_text(name) for name in FIXTURE_NAMES]
MACHINE_PIECES = sorted({tok for text in MACHINES for tok in text.split()})
FORMULAS = ["(P1 -> (P2 -> P3)) & !(P2 -> P3)", "p & q | r -> s <-> t", "!(p | q)"]
FORMULA_PIECES = ["p", "q", "!", "&", "|", "->", "<->", "(", ")"]
DIMACS = [
    "c x\np cnf 3 3\n1 -2 0\n2 3 0\n-3 0\n",
    "p cnf 2 0\n",
    "p cnf 3 2\n1 -2 0 2 3 0\n",          # two clauses on one line
    "p cnf 3 1\n1 -2\n3 0\n",              # one clause over two lines
    "\np cnf 2 2\n\n-1 2 0\n\n1 0\n\n",    # blank lines
    "  c x\np cnf 2 1\n\t c y\n-1 0\n",    # comment lines with leading whitespace
    # More clause lines than the 2n+1 literals, so tokens are read
    # through the string-to-literal table.
    "p cnf 1 4\n1 0\n-1\n1 0\n1\n0\n-1 1 0\n",
    "c x\np cnf 2 6\n1 -2 0\n2 0\n\n-1 0\n1\n2 0\n-2 1 0\n2 0\n",
]
# "+1", "01", "-0", "1_0" and "\u0663" (Arabic-Indic three) are integers
# to `int` but not in the table, and neither is 4, above every seed's n.
DIMACS_PIECES = ["p", "cnf", "c", "0", "1", "-1", "2", "-3",
                 "+1", "01", "-0", "1_0", "\u0663", "4"]


@pytest.mark.parametrize("parse, error, valid, pieces, sep", [
    (parse_machine, MachineError, MACHINES, MACHINE_PIECES, "\n"),
    (parse_formula, FormulaSyntaxError, FORMULAS, FORMULA_PIECES, " "),
    (from_dimacs, DimacsError, DIMACS, DIMACS_PIECES, "\n"),
], ids=["parse_machine", "parse_formula", "from_dimacs"])
def test_parser_raises_only_its_declared_error(parse, error, valid, pieces, sep):
    @settings(max_examples=150, deadline=None)
    @given(edited(valid, pieces, sep))
    def check(text):
        try:
            parse(text)
        except error:
            pass

    check()


def read_by_line(text):
    """The reference reader: every line in turn, tokens by `int`, then
    the clauses cut at each 0, the header's count and the range check."""
    header = None
    tokens = []
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
    clauses, clause = [], []
    for tok in tokens:
        if tok:
            clause.append(tok)
        elif not clause:
            raise DimacsError("empty clause in DIMACS input")
        else:
            clauses.append(clause)
            clause = []
    if clause:
        raise DimacsError("missing terminating 0 on final clause")
    if len(clauses) != header[1]:
        raise DimacsError(f"header claims {header[1]} clauses, found {len(clauses)}")
    try:
        return CnfFormula(header[0], clauses)
    except ValueError as exc:
        raise DimacsError(str(exc))


def formula_or_message(read, text):
    try:
        return read(text)
    except DimacsError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(edited(DIMACS, DIMACS_PIECES, "\n"))
@example("p cnf 1 4\n1 0\n-1 0\n+1 01 -0\n1_0 \u0663 4 0\n")  # table misses
@example("p cnf 2 2\n-2 -1 0\n2 1 0\n")                        # `int` only
def test_dimacs_bulk_scan_agrees_with_line_scan(text):
    # `from_dimacs` reads every text the reference reads, to the same
    # formula, and refuses every other text with the same message.
    assert formula_or_message(from_dimacs, text) == formula_or_message(read_by_line, text)


@pytest.mark.parametrize("fault, message", [
    ("2 x 0", "bad literal in '2 x 0'"),
    ("p cnf 2 9", "duplicate header"),
])
def test_fault_in_a_later_run_names_its_line(fault, message):
    # Comment lines before the fault do not shift its line number; the
    # body is long enough to be read through the table, in two runs.
    text = "p cnf 2 9\n" + "c x\n1 0\n" * (_BULK_LINES + 5) + fault + "\n1 0\n"
    assert (formula_or_message(from_dimacs, text) == formula_or_message(read_by_line, text)
            == f"line {2 * _BULK_LINES + 12}: {message}")


@st.composite
def cnf_formulas(draw):
    n = draw(st.integers(1, 12))
    literal = st.integers(-n, n).filter(bool)
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=6), max_size=12))
    return CnfFormula(n, clauses)


@settings(max_examples=100, deadline=None)
@given(cnf_formulas())
def test_dimacs_round_trip(f):
    assert from_dimacs(to_dimacs(f)) == f


def write_by_clause(f):
    """The reference writer: the header lines, then each clause on its
    own line, literal by literal through a table of the literals of n
    variables; a fault, the first in clause order, is named by
    `_check_clauses`."""
    n = f.var_count
    lits = [*range(-n, 0), *range(1, n + 1)]
    name = dict(zip(lits, map(str, lits))).__getitem__
    if isinstance(f, LabeledFormula):
        lines = [f"c var {vid} = {label}" for vid, label in f.grid.labels()]
        runs = f.groups.items()
    else:
        lines, runs = [], [(None, f.clauses)]
    lines.append(f"p cnf {n} {sum(len(clauses) for _, clauses in runs)}")
    first = 1
    try:
        for group, clauses in runs:
            if group:
                span = f"{first}-{first + len(clauses) - 1}" if clauses else "none"
                lines.append(f"c group {group} clauses {span}")
                first += len(clauses)
            for clause in clauses:
                lines.append(" ".join(map(name, clause or (0,))) + " 0")
    except KeyError:
        _check_clauses([clause for _, clauses in runs for clause in clauses], n)
        raise
    return "\n".join(lines) + "\n"


# Each fault the writer must refuse, or write as the reference does: an
# empty clause, the literal 0, ±(n+1), and True, which equals 1.
FAULTS = ("empty", "zero", "above", "below", "true")
LABELED_GRID = reduce_machine(load_fixture("m_accept1"), "1", 2).grid


@st.composite
def clause_lists(draw, n):
    """Clauses over n variables, with at most one fault put in."""
    literal = st.integers(-n, n).filter(bool)
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=6).map(tuple),
                            max_size=12))
    fault = draw(st.sampled_from((None,) + FAULTS))
    if fault == "empty":
        clauses.insert(draw(st.integers(0, len(clauses))), ())
    elif fault and clauses:
        at = draw(st.integers(0, len(clauses) - 1))
        bad = {"zero": 0, "above": n + 1, "below": -n - 1, "true": True}[fault]
        clause = list(clauses[at])
        clause.insert(draw(st.integers(0, len(clause))), bad)
        clauses[at] = tuple(clause)
    return clauses


@st.composite
def writable_formulas(draw):
    """A CnfFormula, or a LabeledFormula over a reduction's grid, its
    clauses set after it is built so that a fault gets past its check."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 12))
        f = CnfFormula(n, [])
        f.clauses = draw(clause_lists(n))
        return f
    f = LabeledFormula(LABELED_GRID, {}, "1")
    for group in draw(st.lists(st.sampled_from(GROUPS), unique=True)):
        f.groups[group] = tuple(draw(clause_lists(f.var_count)))
    return f


def text_or_message(write, f):
    try:
        return write(f)
    except (ValueError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=300, deadline=None)
@given(writable_formulas())
def test_dimacs_writer_agrees_with_clause_by_clause_writer(f):
    # The same text for every formula, and the same error for every fault.
    assert text_or_message(to_dimacs, f) == text_or_message(write_by_clause, f)
