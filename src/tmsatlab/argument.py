"""Propositional argument checking by truth tables.

Formulas are small expression trees over named atoms; arguments are
premise lists with a conclusion. A formula's truth table over the sorted
atoms is one int, built from `sat.truth_table_masks` in one pass over
the formula (`_table`). Validity, the vacuity flag (the premises are
jointly unsatisfiable) and the first counterexample are read off the
premises' and the conclusion's tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from .sat import truth_table_masks

ATOM_GUARD = 20
# Formulas are printed and evaluated recursively, so their operator
# nesting must stay well inside Python's recursion limit.
NESTING_GUARD = 200


class ArgumentError(Exception):
    pass


class FormulaSyntaxError(ArgumentError):
    pass


class AtomGuardError(ArgumentError):
    """Enumeration refused above the atom guard."""


@dataclass(frozen=True)
class Atom:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Not:
    operand: "PropFormula"

    def __str__(self):
        return f"!{_wrap(self.operand)}"


@dataclass(frozen=True)
class _Binary:
    """A binary connective: each subclass has its `symbol`, its parser
    `precedence` (higher binds tighter) and its `table` operation."""

    left: "PropFormula"
    right: "PropFormula"

    def __str__(self):
        return f"{_wrap(self.left)} {self.symbol} {_wrap(self.right)}"


@dataclass(frozen=True)
class And(_Binary):
    symbol, precedence = "&", 4
    table = staticmethod(lambda left, right, full: left & right)


@dataclass(frozen=True)
class Or(_Binary):
    symbol, precedence = "|", 3
    table = staticmethod(lambda left, right, full: left | right)


@dataclass(frozen=True)
class Implies(_Binary):
    symbol, precedence = "->", 2
    table = staticmethod(lambda left, right, full: (full ^ left) | right)


@dataclass(frozen=True)
class Iff(_Binary):
    symbol, precedence = "<->", 1
    table = staticmethod(lambda left, right, full: full ^ left ^ right)


PropFormula = Union[Atom, Not, And, Or, Implies, Iff]


def _wrap(f: PropFormula) -> str:
    return f"({f})" if isinstance(f, _Binary) else str(f)


@dataclass
class ArgumentForm:
    premises: List[PropFormula]
    conclusion: PropFormula


_TOKENS = ("<->", "->", "!", "&", "|", "(", ")")


def _tokenize(text: str) -> List[str]:
    out: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for tok in _TOKENS:
            if text.startswith(tok, i):
                out.append(tok)
                i += len(tok)
                break
        else:
            if ch.isalpha():
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                out.append(text[i:j])
                i = j
            else:
                raise FormulaSyntaxError(f"unexpected character {ch!r}")
    return out


_BINARY = {node.symbol: node for node in (Iff, Implies, Or, And)}


class _Parser:
    """Precedence (loosest first): <->, ->, |, &, !. '->' associates right,
    the others left. Precedence climbing, so a parenthesis costs two
    frames of recursion, not one per precedence level."""

    def __init__(self, tokens: List[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of formula")
        self.pos += 1
        return tok

    def parse(self) -> PropFormula:
        f = self.binary(1)
        if self.peek() is not None:
            raise FormulaSyntaxError(f"trailing input at {self.peek()!r}")
        return f

    def binary(self, min_prec: int) -> PropFormula:
        """Operands joined by operators of precedence at least min_prec."""
        left = self.unary()
        while self.peek() in _BINARY and _BINARY[self.peek()].precedence >= min_prec:
            node = _BINARY[self.take()]
            prec = node.precedence
            left = node(left, self.binary(prec if node is Implies else prec + 1))
        return left

    def unary(self) -> PropFormula:
        tok = self.take()
        if tok == "!":
            return Not(self.unary())
        if tok == "(":
            inner = self.binary(1)
            if self.take() != ")":
                raise FormulaSyntaxError("expected ')'")
            return inner
        if tok.isidentifier():
            return Atom(tok)
        raise FormulaSyntaxError(f"unexpected token {tok!r}")


def _depth(f: PropFormula) -> int:
    """Operator nesting depth, found without recursion."""
    deepest, stack = 0, [(f, 0)]
    while stack:
        g, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(g, Not):
            stack.append((g.operand, d + 1))
        elif not isinstance(g, Atom):
            stack.extend(((g.left, d + 1), (g.right, d + 1)))
    return deepest


def parse_formula(text: str) -> PropFormula:
    """Parse one formula. Raises FormulaSyntaxError on bad syntax, and on
    operators nested more than NESTING_GUARD deep or parentheses and
    negations nested too deeply for the recursive parser."""
    tokens = _tokenize(text)
    if not tokens:
        raise FormulaSyntaxError("empty formula")
    try:
        f = _Parser(tokens).parse()
    except RecursionError:
        f = None
    if f is None or _depth(f) > NESTING_GUARD:
        raise FormulaSyntaxError(
            f"formula nested too deeply (guard: {NESTING_GUARD} levels)")
    return f


def atoms(f: PropFormula) -> FrozenSet[str]:
    if isinstance(f, Atom):
        return frozenset([f.name])
    if isinstance(f, Not):
        return atoms(f.operand)
    return atoms(f.left) | atoms(f.right)


def _table(f: PropFormula, masks: Dict[str, int], full: int) -> int:
    """f's truth table: bit p is f's value under assignment p, given each
    atom's table in `masks` and the all-true table `full`."""
    if isinstance(f, Atom):
        if f.name not in masks:
            raise ArgumentError(f"assignment missing atom {f.name!r}")
        return masks[f.name]
    if isinstance(f, Not):
        return full ^ _table(f.operand, masks, full)
    return f.table(_table(f.left, masks, full), _table(f.right, masks, full), full)


def eval_prop(f: PropFormula, assignment: Dict[str, bool]) -> bool:
    """Truth-functional evaluation; the assignment must cover every atom."""
    bits = {name: 1 if value else 0 for name, value in assignment.items()}
    return bool(_table(f, bits, 1))


def _masks(formulas: List[PropFormula]) -> Tuple[int, Dict[str, int]]:
    """(full, masks) of `truth_table_masks` over the formulas' atoms in
    sorted order, keyed by atom name. Refused above the atom guard."""
    names = sorted(set().union(*map(atoms, formulas)))
    if len(names) > ATOM_GUARD:
        raise AtomGuardError(
            f"{len(names)} atoms exceeds the enumeration guard of {ATOM_GUARD}")
    full, masks = truth_table_masks(len(names))
    return full, dict(zip(names, masks))


def is_tautology(f: PropFormula) -> bool:
    return not is_satisfiable([Not(f)])


def is_satisfiable(formulas: List[PropFormula]) -> bool:
    full, masks = _masks(formulas)
    table = full
    for f in formulas:
        table &= _table(f, masks, full)
    return table != 0


@dataclass
class ArgumentResult:
    valid: bool
    vacuous: bool  # valid only because the premises are jointly unsatisfiable
    counterexample: Optional[Dict[str, bool]]


def is_valid_argument(arg: ArgumentForm) -> ArgumentResult:
    """Truth-table validity: every assignment satisfying all premises must
    satisfy the conclusion. On failure, returns the lexicographically
    first counterexample."""
    full, masks = _masks(arg.premises + [arg.conclusion])
    premises = full
    for p in arg.premises:
        premises &= _table(p, masks, full)
    failing = premises & (full ^ _table(arg.conclusion, masks, full))
    counterexample = None
    if failing:
        first = (failing & -failing).bit_length() - 1
        counterexample = {name: bool(mask >> first & 1) for name, mask in masks.items()}
    return ArgumentResult(valid=not failing, vacuous=not premises,
                          counterexample=counterexample)


def analyze_modus_tollens_schema() -> dict:
    """The canned analysis of the three-atom schema.

    Checks, in order: the bare schema {P1 -> (P2 -> P3), !(P2 -> P3)}
    concluding !P1 is valid; under the definitional axiom P2 <-> P3 the
    implication P2 -> P3 is a tautology and its negation unsatisfiable;
    hence the full premise set is unsatisfiable and the argument, while
    still valid, is vacuous.
    """
    p1, p2, p3 = Atom("P1"), Atom("P2"), Atom("P3")
    implication = Implies(p2, p3)
    axiom = Iff(p2, p3)
    schema = ArgumentForm([Implies(p1, implication), Not(implication)], Not(p1))
    schema_result = is_valid_argument(schema)
    with_axiom = ArgumentForm(schema.premises + [axiom], schema.conclusion)
    full_result = is_valid_argument(with_axiom)
    return {
        "schema": {
            "premises": [str(p) for p in schema.premises],
            "conclusion": str(schema.conclusion),
            "axiom": str(axiom),
        },
        "schema_valid": schema_result.valid,
        "schema_vacuous": schema_result.vacuous,
        "implication_tautology_under_axiom": is_tautology(Implies(axiom, implication)),
        "negated_implication_satisfiable_under_axiom": is_satisfiable(
            [axiom, Not(implication)]),
        "premise_set_satisfiable": is_satisfiable(with_axiom.premises),
        "valid": full_result.valid,
        "vacuous": full_result.vacuous,
    }


def analyze_argument(arg: ArgumentForm) -> dict:
    """Report for a user-supplied argument form."""
    result = is_valid_argument(arg)
    return {
        "schema": {
            "premises": [str(p) for p in arg.premises],
            "conclusion": str(arg.conclusion),
        },
        # Unsatisfiable premises, and only they, make an argument vacuous.
        "premise_set_satisfiable": not result.vacuous,
        "valid": result.valid,
        "vacuous": result.vacuous,
        "counterexample": result.counterexample,
    }


def parse_argument_file(text: str) -> ArgumentForm:
    """Schema files: 'premise: <formula>' lines (repeatable) and one
    'conclusion: <formula>' line; '#' starts a comment."""
    premises: List[PropFormula] = []
    conclusion: Optional[PropFormula] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise FormulaSyntaxError(f"line {lineno}: expected 'key: formula'")
        key, body = line.split(":", 1)
        key = key.strip()
        if key == "premise":
            premises.append(parse_formula(body))
        elif key == "conclusion":
            if conclusion is not None:
                raise FormulaSyntaxError(f"line {lineno}: duplicate conclusion")
            conclusion = parse_formula(body)
        else:
            raise FormulaSyntaxError(f"line {lineno}: unknown key {key!r}")
    if conclusion is None:
        raise FormulaSyntaxError("schema file has no conclusion")
    return ArgumentForm(premises, conclusion)
