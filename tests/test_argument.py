import json
import random
from dataclasses import FrozenInstanceError
from itertools import product

import pytest

from tmsatlab.argument import (
    And,
    ArgumentError,
    ArgumentForm,
    Atom,
    AtomGuardError,
    FormulaSyntaxError,
    Iff,
    Implies,
    NESTING_GUARD,
    Not,
    Or,
    analyze_argument,
    analyze_modus_tollens_schema,
    atoms,
    eval_prop,
    is_satisfiable,
    is_tautology,
    is_valid_argument,
    parse_argument_file,
    parse_formula,
)
from tmsatlab.sat import truth_table_masks


class TestEval:
    def test_self_implication(self):
        f = parse_formula("P1 -> P1")
        assert eval_prop(f, {"P1": True}) and eval_prop(f, {"P1": False})

    def test_negated_implication(self):
        f = parse_formula("!(P2 -> P3)")
        assert eval_prop(f, {"P2": True, "P3": False})
        assert not eval_prop(f, {"P2": True, "P3": True})

    def test_iff(self):
        f = parse_formula("P2 <-> P3")
        assert not eval_prop(f, {"P2": True, "P3": False})
        assert eval_prop(f, {"P2": False, "P3": False})

    def test_missing_atom(self):
        with pytest.raises(ArgumentError):
            eval_prop(parse_formula("P1 & P2"), {"P1": True})


class TestParser:
    def test_precedence(self):
        f = parse_formula("p & q | r -> s <-> t")
        assert isinstance(f, Iff)
        assert isinstance(f.left, Implies)

    def test_implication_right_associative(self):
        f = parse_formula("a -> b -> c")
        assert isinstance(f.right, Implies)

    def test_parentheses(self):
        f = parse_formula("!(p | q)")
        assert isinstance(f, Not)

    def test_syntax_errors(self):
        for text in ("", "p &", "(p", "p q", "->", "p # q"):
            with pytest.raises(FormulaSyntaxError):
                parse_formula(text)

    def test_round_trip_via_str(self):
        f = parse_formula("(P1 -> (P2 -> P3)) & !(P2 -> P3)")
        assert parse_formula(str(f)) == f

    @staticmethod
    def nested(op, depth):
        """A formula `depth` operators deep."""
        if op == "!":
            return "!" * depth + "p"
        return f" {op} ".join(f"a{i % 5}" for i in range(depth + 1))

    @pytest.mark.parametrize("op", ["->", "&", "|", "<->", "!"])
    def test_nesting_guard(self, op):
        f = parse_formula(self.nested(op, NESTING_GUARD))
        assert parse_formula(str(f)) == f
        eval_prop(f, dict.fromkeys(atoms(f), True))  # recurses as deep as f
        with pytest.raises(FormulaSyntaxError, match="nested too deeply"):
            parse_formula(self.nested(op, NESTING_GUARD + 1))


class TestValidity:
    def test_modus_tollens(self):
        arg = ArgumentForm(
            [parse_formula("p -> q"), parse_formula("!q")],
            parse_formula("!p"))
        result = is_valid_argument(arg)
        assert result.valid and not result.vacuous

    def test_affirming_the_consequent(self):
        arg = ArgumentForm(
            [parse_formula("p -> q"), parse_formula("q")],
            parse_formula("p"))
        result = is_valid_argument(arg)
        assert not result.valid
        assert result.counterexample == {"p": False, "q": True}

    def test_schema_instance(self):
        arg = ArgumentForm(
            [parse_formula("P1 -> (P2 -> P3)"), parse_formula("!(P2 -> P3)")],
            parse_formula("!P1"))
        assert is_valid_argument(arg).valid

    def test_vacuous_validity_flagged(self):
        arg = ArgumentForm(
            [parse_formula("p"), parse_formula("!p")],
            parse_formula("q"))
        result = is_valid_argument(arg)
        assert result.valid and result.vacuous

    def test_matches_tautology_route(self):
        premises = [parse_formula("p -> q"), parse_formula("!q")]
        conclusion = parse_formula("!p")
        combined = parse_formula("((p -> q) & !q) -> !p")
        assert is_valid_argument(ArgumentForm(premises, conclusion)).valid \
            == is_tautology(combined)

    def test_atom_guard(self):
        wide = parse_formula(" | ".join(f"a{i}" for i in range(21)))
        with pytest.raises(AtomGuardError):
            is_tautology(wide)


class TestAnalysis:
    def test_builtin_schema_report(self):
        report = analyze_modus_tollens_schema()
        assert report["schema_valid"]
        assert not report["schema_vacuous"]
        assert report["implication_tautology_under_axiom"]
        assert not report["negated_implication_satisfiable_under_axiom"]
        assert not report["premise_set_satisfiable"]
        assert report["valid"] and report["vacuous"]

    def test_premise_set_unsat_by_enumeration(self):
        p1, p2, p3 = Atom("P1"), Atom("P2"), Atom("P3")
        premises = [Implies(p1, Implies(p2, p3)), Not(Implies(p2, p3)), Iff(p2, p3)]
        assert not is_satisfiable(premises)

    def test_report_deterministic(self):
        import json
        a = json.dumps(analyze_modus_tollens_schema())
        b = json.dumps(analyze_modus_tollens_schema())
        assert a == b

    def test_schema_file_parsing(self):
        arg = parse_argument_file(
            "# comment\npremise: p -> q\npremise: !q\nconclusion: !p\n")
        assert len(arg.premises) == 2
        report = analyze_argument(arg)
        assert report["valid"] and not report["vacuous"]

    def test_schema_file_requires_conclusion(self):
        with pytest.raises(FormulaSyntaxError):
            parse_argument_file("premise: p\n")


def _reference_eval(f, assignment):
    """Evaluation under one assignment, node by node: the reference for
    the whole-table evaluator."""
    if isinstance(f, Atom):
        return assignment[f.name]
    if isinstance(f, Not):
        return not _reference_eval(f.operand, assignment)
    left = _reference_eval(f.left, assignment)
    right = _reference_eval(f.right, assignment)
    if isinstance(f, And):
        return left and right
    if isinstance(f, Or):
        return left or right
    if isinstance(f, Implies):
        return (not left) or right
    return left == right  # Iff


def _reference_assignments(formulas):
    """All assignments to the formulas' sorted atoms, in lexicographic
    order (false before true)."""
    names = sorted(set().union(*map(atoms, formulas)))
    for values in product([False, True], repeat=len(names)):
        yield dict(zip(names, values))


def _reference_satisfiable(formulas):
    return any(all(_reference_eval(f, a) for f in formulas)
               for a in _reference_assignments(formulas))


def _reference_validity(arg):
    """(valid, vacuous, counterexample), one assignment at a time."""
    satisfiable, counterexample = False, None
    for a in _reference_assignments(arg.premises + [arg.conclusion]):
        if all(_reference_eval(p, a) for p in arg.premises):
            satisfiable = True
            if not _reference_eval(arg.conclusion, a):
                counterexample = a
                break
    valid = counterexample is None
    return valid, valid and not satisfiable, counterexample


def _random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(names))
    kind = rng.randrange(5)
    if kind == 0:
        return Not(_random_formula(rng, names, depth - 1))
    node = (And, Or, Implies, Iff)[kind - 1]
    return node(_random_formula(rng, names, depth - 1),
                _random_formula(rng, names, depth - 1))


class TestAgainstReference:
    """The truth-table engine agrees with evaluation one assignment at a
    time, over seeded random arguments of at most 6 atoms."""

    def test_random_arguments(self):
        rng = random.Random(20)
        outcomes = set()
        for _ in range(3000):
            names = [f"p{i}" for i in range(rng.randint(1, 6))]
            premises = [_random_formula(rng, names, 3) for _ in range(rng.randint(0, 4))]
            arg = ArgumentForm(premises, _random_formula(rng, names, 3))
            formulas = premises + [arg.conclusion]
            for a in _reference_assignments(formulas):
                for f in formulas:
                    assert eval_prop(f, a) == _reference_eval(f, a)
            satisfiable = _reference_satisfiable(premises)
            assert is_satisfiable(premises) == satisfiable
            assert is_tautology(arg.conclusion) == all(
                _reference_eval(arg.conclusion, a)
                for a in _reference_assignments([arg.conclusion]))
            valid, vacuous, counterexample = _reference_validity(arg)
            result = is_valid_argument(arg)
            assert (result.valid, result.vacuous) == (valid, vacuous)
            assert result.counterexample == counterexample
            expected = {
                "schema": {"premises": [str(p) for p in premises],
                           "conclusion": str(arg.conclusion)},
                "premise_set_satisfiable": satisfiable,
                "valid": valid,
                "vacuous": vacuous,
                "counterexample": counterexample,
            }
            assert json.dumps(analyze_argument(arg), indent=2) == json.dumps(expected, indent=2)
            outcomes.add((valid, vacuous))
        assert outcomes == {(True, False), (True, True), (False, False)}

    @pytest.mark.parametrize("n", range(9))
    def test_masks_order_assignments_as_product(self, n):
        full, masks = truth_table_masks(n)
        rows = list(product([False, True], repeat=n))
        assert full == (1 << len(rows)) - 1
        assert len(masks) == n
        assert [tuple(bool(m >> p & 1) for m in masks) for p in range(len(rows))] == rows


class TestBinaryNodes:
    NODES = {And: "&", Or: "|", Implies: "->", Iff: "<->"}

    @pytest.mark.parametrize("node", NODES)
    def test_frozen(self, node):
        f = node(Atom("p"), Atom("q"))
        for name in ("left", "right", "symbol", "table", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(f, name, Atom("r"))

    @pytest.mark.parametrize("node", NODES)
    def test_equality_and_hash(self, node):
        p, q = Atom("p"), Atom("q")
        f = node(p, q)
        assert f == node(Atom("p"), Atom("q"))
        assert hash(f) == hash(node(Atom("p"), Atom("q"))) == hash((p, q))
        assert f != node(q, p)
        assert f != (p, q)
        assert all(f != other(p, q) for other in self.NODES if other is not node)

    @pytest.mark.parametrize("node", NODES)
    def test_repr_and_str(self, node):
        f = node(Atom("p"), Not(Or(Atom("q"), Atom("r"))))
        assert repr(f) == (f"{node.__name__}(left=Atom(name='p'), right=Not(operand="
                           "Or(left=Atom(name='q'), right=Atom(name='r'))))")
        assert str(f) == f"p {self.NODES[node]} !(q | r)"
        assert str(node(f, Atom("s"))) == f"({f}) {self.NODES[node]} s"
