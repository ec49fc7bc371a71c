"""Fuzzing of the three text parsers: each raises only its declared error,
DIMACS text survives a round trip, and the two DIMACS scans agree."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmsatlab.argument import FormulaSyntaxError, parse_formula
from tmsatlab.fixtures import FIXTURE_NAMES, fixture_text
from tmsatlab.machine import MachineError, parse_machine
from tmsatlab.sat import (
    CnfFormula,
    DimacsError,
    _scan_bulk,
    _scan_lines,
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


@settings(max_examples=300, deadline=None)
@given(edited(DIMACS, DIMACS_PIECES, "\n"))
@example("p cnf 1 4\n1 0\n-1 0\n+1 01 -0\n1_0 \u0663 4 0\n")  # table misses
@example("p cnf 2 2\n-2 -1 0\n2 1 0\n")                        # `int` only
def test_dimacs_bulk_scan_agrees_with_line_scan(text):
    # The bulk scan reads every text the line-by-line scan reads, the
    # same way, and declines every text that scan refuses.
    try:
        by_line = _scan_lines(text)
    except DimacsError:
        by_line = None
    assert _scan_bulk(text) == by_line


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
