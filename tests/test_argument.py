import pytest

from tmsatlab.argument import (
    ArgumentError,
    ArgumentForm,
    Atom,
    AtomGuardError,
    FormulaSyntaxError,
    Iff,
    Implies,
    NESTING_GUARD,
    Not,
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
