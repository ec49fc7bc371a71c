import json
import tracemalloc
from pathlib import Path

import pytest

from tmsatlab import parity, sat
from tmsatlab.cli import main
from tmsatlab.fixtures import fixture_text
from tmsatlab.machine import ORACLE_CONFIG_LIMIT
from tmsatlab.reduction import REDUCTION_CLAUSE_LIMIT, LabeledFormula, input_part


@pytest.fixture()
def machine_file(tmp_path):
    path = tmp_path / "m_accept1.tm"
    path.write_text(fixture_text("m_accept1"))
    return str(path)


@pytest.fixture()
def library_dir(tmp_path):
    lib = tmp_path / "lib"
    lib.mkdir()
    (lib / "e0.tm").write_text(fixture_text("m_accept1"))
    (lib / "e0.in").write_text("1\n")
    (lib / "e1.tm").write_text(fixture_text("m_parity"))
    (lib / "e1.in").write_text("11\n")
    return str(lib)


class TestReduce:
    def test_input_part_clause_count(self, machine_file, capsys):
        assert main(["reduce", "-m", machine_file, "-i", "1", "-T", "1",
                     "--part", "input"]) == 0
        out = capsys.readouterr().out
        assert "p cnf 26 4" in out

    def test_output_file(self, machine_file, tmp_path, capsys):
        out_path = tmp_path / "f.cnf"
        assert main(["reduce", "-m", machine_file, "-i", "1", "-T", "1",
                     "-o", str(out_path)]) == 0
        assert out_path.read_text().count(" 0\n") > 0

    @pytest.mark.parametrize("command", [["reduce"], ["history", "encode"]],
                             ids=["reduce", "history-encode"])
    @pytest.mark.parametrize("target", ["directory", "missing parent"])
    def test_unwritable_output(self, machine_file, tmp_path, capsys, command,
                               target):
        out_path = tmp_path if target == "directory" else tmp_path / "no" / "f.cnf"
        assert main(command + ["-m", machine_file, "-i", "1", "-T", "1",
                               "-o", str(out_path)]) == 3
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["reduce"], ["verify"], ["history", "encode"]])
    def test_reduction_over_clause_limit(self, machine_file, capsys, command):
        assert main([*command, "-m", machine_file, "-i", "1", "-T", "1000"]) == 2
        assert f"exceeds the limit of {REDUCTION_CLAUSE_LIMIT}" in capsys.readouterr().err

    def test_missing_machine_file(self, tmp_path):
        assert main(["reduce", "-m", str(tmp_path / "nope.tm"),
                     "-i", "1", "-T", "1"]) == 3

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "-i", "1", "-T", "1"])
        assert exc.value.code == 2


class TestSolve:
    def test_sat_exit_code(self, machine_file, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        main(["reduce", "-m", machine_file, "-i", "1", "-T", "1",
              "-o", str(cnf)])
        assert main(["solve", str(cnf)]) == 10
        assert "s SATISFIABLE" in capsys.readouterr().out

    def test_unsat_exit_code(self, machine_file, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        main(["reduce", "-m", machine_file, "-i", "0", "-T", "2",
              "-o", str(cnf)])
        assert main(["solve", str(cnf)]) == 20

    def test_malformed_dimacs(self, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 2 2\n1 0\n")
        assert main(["solve", str(bad)]) == 3

    @pytest.mark.parametrize("header", ["p cnf -1 0", "p cnf 0 -1"])
    def test_negative_header_count(self, tmp_path, capsys, header):
        bad = tmp_path / "bad.cnf"
        bad.write_text(header + "\n")
        assert main(["solve", str(bad)]) == 3
        assert "negative count" in capsys.readouterr().err

    def test_var_count_above_limit(self, tmp_path, capsys):
        # Past the header check the solver would allocate and print an
        # entry per declared variable.
        bad = tmp_path / "big.cnf"
        bad.write_text(f"p cnf {sat.DIMACS_VAR_LIMIT + 1} 0\n")
        tracemalloc.start()
        try:
            assert main(["solve", str(bad)]) == 3
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"line 1: {sat.DIMACS_VAR_LIMIT + 1} variables exceeds" in captured.err

    def test_unverified_model_is_internal_error(self, machine_file, tmp_path,
                                                capsys, monkeypatch):
        cnf = tmp_path / "f.cnf"
        main(["reduce", "-m", machine_file, "-i", "1", "-T", "1",
              "-o", str(cnf)])
        monkeypatch.setattr(sat, "check_model", lambda f, assignment: False)
        assert main(["solve", str(cnf)]) == 70
        assert "model fails verification" in capsys.readouterr().err


class TestVerify:
    def test_agreement_on_reject(self, machine_file, capsys):
        assert main(["verify", "-m", machine_file, "-i", "0", "-T", "2"]) == 0
        assert "oracle=reject, sat=UNSAT, agree" in capsys.readouterr().out

    def test_agreement_on_accept(self, machine_file, capsys):
        assert main(["verify", "-m", machine_file, "-i", "1", "-T", "2"]) == 0
        assert "agree" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["verify"], ["history", "extract"], ["kim", "run"]])
def test_oracle_over_configuration_limit(tmp_path, capsys, command, tape_growing_text):
    path = tmp_path / "grow.tm"
    path.write_text(tape_growing_text)
    if command[0] == "kim":
        (tmp_path / "lib").mkdir()
        (tmp_path / "lib" / "e0.tm").write_text(tape_growing_text)
        where = ["--library", str(tmp_path / "lib"), "--base", str(path)]
    else:
        where = ["-m", str(path)]
    assert main([*command, *where, "-i", "", "-T", "24"]) == 2
    err = capsys.readouterr().err
    assert f"limit of {ORACLE_CONFIG_LIMIT} configurations" in err
    assert "ORACLE_CONFIG_LIMIT" in err


class TestHistory:
    def test_extract(self, machine_file, capsys):
        assert main(["history", "extract", "-m", machine_file,
                     "-i", "1", "-T", "1"]) == 0
        assert capsys.readouterr().out.strip() == "rule: q0 1 -> qacc 1 R"

    def test_encode_carries_assignment(self, machine_file, capsys):
        assert main(["history", "encode", "-m", machine_file,
                     "-i", "1", "-T", "1"]) == 0
        out = capsys.readouterr().out
        assert "c induced-assignment:" in out

    def test_no_witness(self, machine_file, capsys):
        assert main(["history", "extract", "-m", machine_file,
                     "-i", "0", "-T", "3"]) == 1


class TestMerge:
    def test_selector_line(self, machine_file, tmp_path, capsys):
        other = tmp_path / "m_parity.tm"
        other.write_text(fixture_text("m_parity"))
        assert main(["merge", "-a", machine_file, "-b", str(other)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "selector: q_start -> q0 | qe'"


class TestKim:
    def test_build_flags_incompatible(self, library_dir, machine_file, capsys):
        assert main(["kim", "build", "--library", library_dir,
                     "--base", machine_file, "-T", "4"]) == 0
        out = capsys.readouterr().out
        assert "entry 0 (e0)" in out and "grid-incompatible" in out

    def test_run_json_schema(self, library_dir, machine_file, capsys):
        assert main(["kim", "run", "--library", library_dir,
                     "--base", machine_file, "-T", "4", "-i", "1",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["input", "bound", "instances", "counter",
                                 "accept", "cost", "metrics", "claims"]
        assert payload["counter"] == 1 and payload["accept"] is True
        inst = payload["instances"][0]
        assert list(inst) == ["index", "clauses", "groups", "verdict",
                              "history_len"]

    def test_metrics(self, library_dir, machine_file, capsys):
        assert main(["kim", "metrics", "--library", library_dir,
                     "--base", machine_file, "-T", "4", "-i", "1",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        m = payload["metrics"]
        assert m["i"] > m["j"] > m["k"]

    @pytest.mark.parametrize("chosen", ["2", "7", "-1"])
    def test_metrics_chosen_out_of_range(self, library_dir, machine_file,
                                         capsys, chosen):
        assert main(["kim", "metrics", "--library", library_dir,
                     "--base", machine_file, "-T", "4", "-i", "1",
                     "--chosen", chosen]) == 2
        assert "not an instance index" in capsys.readouterr().err

    def test_metrics_chosen_unsat_instance(self, library_dir, machine_file,
                                           capsys):
        # Entry 1 is grid-incompatible with the base, so it counts as unsat.
        assert main(["kim", "metrics", "--library", library_dir,
                     "--base", machine_file, "-T", "4", "-i", "1",
                     "--chosen", "1"]) == 1
        assert "unsatisfiable" in capsys.readouterr().err


    def test_build_reports_distinct_run_parts(self, library_dir, machine_file,
                                              capsys):
        # e2 is e0's machine under another name: the two share a run part.
        lib = Path(library_dir)
        (lib / "e2.tm").write_text(fixture_text("m_accept1"))
        (lib / "e2.in").write_text("11\n")
        args = ["kim", "build", "--library", library_dir, "--base", machine_file,
                "-T", "4"]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [
            "entry 0 (e0): 532 run-part clauses, compatible",
            "entry 1 (e1): 668 run-part clauses, grid-incompatible",
            "entry 2 (e2): 532 run-part clauses, compatible",
        ]
        assert lines[3:] == ["2 distinct run parts for 3 entries"]
        assert main(args + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["entries", "bound", "base", "distinct_run_parts"]
        assert payload["distinct_run_parts"] == 2

    def test_run_entry_with_other_start(self, tmp_path, capsys):
        # The base starts in q1 and the entry in q0: the concatenation runs
        # the entry's rules from the base's initial configuration.
        text = ("states: q0 q1 qacc\nstart: {}\naccept: qacc\nblank: _\n"
                "input_alphabet: 0 1\ntape_alphabet: 0 1 _\n"
                "rule: q0 1 -> qacc 1 R\nrule: q1 1 -> q0 1 S\n")
        base = tmp_path / "base.tm"
        base.write_text(text.format("q1"))
        lib = tmp_path / "lib"
        lib.mkdir()
        (lib / "e0.tm").write_text(text.format("q0"))
        (lib / "e0.in").write_text("1\n")
        assert main(["kim", "run", "--library", str(lib), "--base", str(base),
                     "-T", "4", "-i", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counter"] == 1
        assert payload["instances"][0]["history_len"] == 2


class TestCorpusTest:
    def test_lines_of_finished_checks_survive_a_raising_check(self, monkeypatch,
                                                              capsys):
        # An input part that keeps a G6 clause makes the parity check's
        # concatenate raise after five checks have passed.
        def leaky_input_part(f):
            cy = input_part(f)
            leak = f.groups["G6"][:1]
            return LabeledFormula(cy.grid, {**cy.groups, "G6": leak}, cy.input)

        monkeypatch.setattr(parity, "input_part", leaky_input_part)
        assert main(["corpus-test"]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "PASS oracle-equivalence: 84/84",
            "PASS certification-round-trip: 42/42",
            "PASS input-run-partition: 84/84",
            "PASS particular-table-round-trip: 42/42",
            "PASS merge-properties: 1722/1722",
        ]
        assert captured.err == "error: first argument must contain only G4 clauses\n"


class TestFileErrors:
    """Unreadable or non-UTF-8 files exit 3 with a message, not a traceback."""

    NOT_UTF8 = b"states: q0 \xff\n"

    def test_input_file_is_a_directory(self, library_dir, machine_file, capsys):
        (Path(library_dir) / "e0.in").unlink()
        (Path(library_dir) / "e0.in").mkdir()
        assert main(["kim", "build", "--library", library_dir,
                     "--base", machine_file, "-T", "4"]) == 3
        assert "e0.in" in capsys.readouterr().err

    def test_input_file_not_utf8(self, library_dir, machine_file, capsys):
        (Path(library_dir) / "e0.in").write_bytes(b"\xff\n")
        assert main(["kim", "build", "--library", library_dir,
                     "--base", machine_file, "-T", "4"]) == 3
        assert "e0.in" in capsys.readouterr().err

    def test_machine_file_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.tm"
        bad.write_bytes(self.NOT_UTF8)
        assert main(["reduce", "-m", str(bad), "-i", "1", "-T", "1"]) == 3
        assert "bad.tm" in capsys.readouterr().err

    def test_dimacs_file_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_bytes(b"p cnf 1 1\n\xff 0\n")
        assert main(["solve", str(bad)]) == 3
        assert "bad.cnf" in capsys.readouterr().err

    def test_schema_file_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.arg"
        bad.write_bytes(b"premise: p\nconclusion: \xff\n")
        assert main(["argue", "--schema", str(bad)]) == 3
        assert "bad.arg" in capsys.readouterr().err


class TestArgue:
    def test_default_report(self, capsys):
        assert main(["argue"]) == 0
        out = capsys.readouterr().out
        assert "valid=true" in out
        assert "vacuous=true" in out
        assert "premise_set_satisfiable=false" in out

    def test_json_deterministic(self, capsys):
        main(["argue", "--json"])
        first = capsys.readouterr().out
        main(["argue", "--json"])
        assert capsys.readouterr().out == first

    def test_custom_schema(self, tmp_path, capsys):
        schema = tmp_path / "s.arg"
        schema.write_text("premise: p -> q\npremise: q\nconclusion: p\n")
        assert main(["argue", "--schema", str(schema), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is False
        assert payload["counterexample"] == {"p": False, "q": True}

    @pytest.mark.parametrize("formula", [
        " -> ".join(f"a{i % 5}" for i in range(250)),
        " & ".join("p" for _ in range(300)),
        "(" * 3000 + "p" + ")" * 3000,
        "!" * 3000 + "p",
    ], ids=["implies-250", "and-300", "parens-3000", "not-3000"])
    def test_deep_formula_is_usage_error(self, tmp_path, capsys, formula):
        schema = tmp_path / "s.arg"
        schema.write_text(f"conclusion: {formula}\n")
        assert main(["argue", "--schema", str(schema)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: formula nested too deeply")
        assert err.count("\n") == 1
