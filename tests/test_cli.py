import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from tmsatlab import cli, machine, parity, sat
from tmsatlab.argument import NESTING_GUARD
from tmsatlab.cli import main
from tmsatlab.fixtures import fixture_text
from tmsatlab.machine import ORACLE_CONFIG_LIMIT
from tmsatlab.reduction import (
    REDUCTION_CLAUSE_LIMIT,
    LabeledFormula,
    input_part,
    reduction_clause_count,
)


def cli_command(*args, **env):
    """The argv and environment that run the CLI on `args` in a subprocess,
    from this checkout's src, with the variables of `env` set."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return ([sys.executable, "-m", "tmsatlab.cli", *args],
            {**os.environ, **env, "PYTHONPATH": path})


def run_cli(env, *args):
    """Run the CLI on `args` in a subprocess with the variables of `env`
    set; stdout and stderr are bytes."""
    argv, env = cli_command(*args, **env)
    return subprocess.run(argv, env=env, capture_output=True)


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

    def test_model_of_no_variables(self, tmp_path, capsys):
        empty = tmp_path / "empty.cnf"
        empty.write_text("p cnf 0 0\n")
        assert main(["solve", str(empty)]) == 10
        assert capsys.readouterr().out == "s SATISFIABLE\nv 0\n"

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


class TestSolveRefutation:
    """`solve` checks the learnt clauses of an Unsat verdict before it
    prints it."""

    @pytest.fixture()
    def php_file(self, tmp_path, pigeonhole):
        path = tmp_path / "php.cnf"
        path.write_text(sat.to_dimacs(pigeonhole))
        return str(path)

    def test_checked_refutation(self, php_file, capsys):
        assert main(["solve", php_file]) == 20
        assert capsys.readouterr().out == "s UNSATISFIABLE\n"

    def test_mutated_refutation_is_internal_error(self, php_file, capsys, monkeypatch):
        solve = cli.solve_dpll

        def mutated(f):
            # The first learnt clause loses its asserting literal.
            result = solve(f)
            return replace(result, learnt=(result.learnt[0][1:], *result.learnt[1:]))

        monkeypatch.setattr(cli, "solve_dpll", mutated)
        assert main(["solve", php_file]) == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "refutation fails verification" in captured.err

    def test_learnt_limit_is_usage_error(self, php_file, capsys, monkeypatch):
        monkeypatch.setattr(sat, "LEARNT_LITERAL_LIMIT", 2)
        assert main(["solve", php_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "LEARNT_LITERAL_LIMIT" in captured.err


class TestVerify:
    def test_agreement_on_reject(self, machine_file, capsys):
        assert main(["verify", "-m", machine_file, "-i", "0", "-T", "2"]) == 0
        assert "oracle=reject, sat=UNSAT, agree" in capsys.readouterr().out

    def test_agreement_on_accept(self, machine_file, capsys):
        assert main(["verify", "-m", machine_file, "-i", "1", "-T", "2"]) == 0
        assert "agree" in capsys.readouterr().out


def _machine_args(tmp_path, command, text):
    """The arguments that give `command` the machine `text`: for kim, as
    the base and as the library's one entry."""
    path = tmp_path / "m.tm"
    path.write_text(text)
    if command[0] != "kim":
        return ["-m", str(path)]
    (tmp_path / "lib").mkdir()
    (tmp_path / "lib" / "e0.tm").write_text(text)
    return ["--library", str(tmp_path / "lib"), "--base", str(path)]


@pytest.fixture()
def no_oracle(monkeypatch):
    """Any call of the oracle from the CLI raises out of `main` and fails
    the test with its own traceback."""
    def oracle(*args):
        raise AssertionError("the oracle ran")
    monkeypatch.setattr(cli, "accepts_within", oracle)


@pytest.mark.parametrize("command", [["verify"], ["history", "extract"], ["kim", "run"]])
def test_oracle_over_configuration_limit(tmp_path, capsys, command, tape_growing_text):
    where = _machine_args(tmp_path, command, tape_growing_text)
    assert main([*command, *where, "-i", "", "-T", "24"]) == 2
    err = capsys.readouterr().err
    assert f"limit of {ORACLE_CONFIG_LIMIT} configurations" in err
    assert "ORACLE_CONFIG_LIMIT" in err


@pytest.mark.parametrize("command", [["verify"], ["history", "extract"], ["kim", "run"]])
def test_oracle_over_cell_limit(tmp_path, capsys, command, right_moving_text):
    """A search of few configurations whose tapes grow is refused by the
    cells it stores: within T steps on input "1" the right-mover stores
    (T + 1)(T + 2) / 2 cells. Only `history extract` reduces nothing and
    reaches the oracle; the commands that reduce refuse such a bound by
    its clause count first."""
    bound = 1
    while (bound + 1) * (bound + 2) // 2 <= machine.ORACLE_CELL_LIMIT:
        bound += 1
    where = _machine_args(tmp_path, command, right_moving_text)
    assert main([*command, *where, "-i", "1", "-T", str(bound)]) == 2
    err = capsys.readouterr().err
    if command == ["history", "extract"]:
        assert f"limit of {machine.ORACLE_CELL_LIMIT} stored tape cells" in err
        assert "ORACLE_CELL_LIMIT" in err
    else:
        assert f"at bound {bound} exceeds the limit of {REDUCTION_CLAUSE_LIMIT}\n" in err


def _refused(m):
    """The least bound whose reduction of m the clause guard refuses, and
    the message that refuses it."""
    bound = 1
    while reduction_clause_count(m, bound) <= REDUCTION_CLAUSE_LIMIT:
        bound += 1
    return bound, (f"error: {reduction_clause_count(m, bound)} clauses at bound {bound} "
                   f"exceeds the limit of {REDUCTION_CLAUSE_LIMIT}\n")


@pytest.mark.parametrize("command", [["verify"], ["history", "encode"],
                                     ["kim", "build"], ["kim", "run"], ["kim", "metrics"]],
                         ids="-".join)
def test_clause_guard_runs_before_the_oracle(tmp_path, capsys, no_oracle, command,
                                             right_moving_text):
    """At the least bound whose reduction the clause guard refuses, no
    command that reduces runs the oracle: for kim the library entry, and
    for run and metrics the base too, is checked as it is loaded. `kim
    build` reduces no base, so its library entry is refused, by name."""
    bound, message = _refused(machine.parse_machine(right_moving_text))
    if command == ["kim", "build"]:
        message = message.replace("error: ", "error: e0.tm: ")
    where = _machine_args(tmp_path, command, right_moving_text)
    assert main([*command, *where, "-i", "1", "-T", str(bound)]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("action", ["run", "metrics"])
def test_kim_checks_the_base_before_the_oracle(tmp_path, capsys, no_oracle, action):
    """`kim run` and `kim metrics` reduce the base too, so a base over the
    clause guard is refused before the oracle runs on an entry within it."""
    symbols = "0 1 _ a b c d e f g h".split()  # a wider grid than the entry's
    base = tmp_path / "wide.tm"
    base.write_text("states: q0 qacc\nstart: q0\naccept: qacc\nblank: _\n"
                    f"input_alphabet: 0 1\ntape_alphabet: {' '.join(symbols)}\n"
                    + "".join(f"rule: q0 {x} -> q0 {x} R\n" for x in symbols))
    (tmp_path / "lib").mkdir()
    (tmp_path / "lib" / "e0.tm").write_text(fixture_text("m_accept1"))
    bound, message = _refused(machine.parse_machine(base.read_text()))
    assert reduction_clause_count(machine.parse_machine(fixture_text("m_accept1")),
                                  bound) <= REDUCTION_CLAUSE_LIMIT
    assert main(["kim", action, "--library", str(tmp_path / "lib"), "--base", str(base),
                 "-i", "1", "-T", str(bound)]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("bound", ["0", "-1"])
@pytest.mark.parametrize("command", [["reduce"], ["verify"], ["history", "encode"],
                                     ["kim", "build"], ["kim", "run"], ["kim", "metrics"]],
                         ids="-".join)
def test_bound_below_one_is_usage_error(tmp_path, capsys, no_oracle, command, bound):
    """Refused with the reduction's own message before any file is read
    or the oracle runs: the files named here do not exist."""
    missing = str(tmp_path / "missing.tm")
    where = (["--library", str(tmp_path / "missing"), "--base", missing]
             if command[0] == "kim" else ["-m", missing])
    assert main([*command, *where, "-i", "1", "-T", bound]) == 2
    assert capsys.readouterr().err == "error: bound must be at least 1\n"


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

    def test_extract_accepts_bound_zero(self, machine_file, capsys):
        assert main(["history", "extract", "-m", machine_file,
                     "-i", "1", "-T", "0"]) == 1
        assert capsys.readouterr().err == (
            "m_accept1 does not accept '1' within 0 transitions\n")

    def test_extract_writes_the_output_file(self, machine_file, tmp_path):
        out = tmp_path / "table.txt"
        args = ["history", "extract", "-m", machine_file, "-i", "1", "-T", "1"]
        to_file = run_cli({}, *args, "-o", str(out))
        assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
        to_stdout = run_cli({}, *args)
        assert to_stdout.returncode == 0
        assert out.read_bytes() == to_stdout.stdout == b"rule: q0 1 -> qacc 1 R\n"


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

    def test_input_symbol_outside_alphabet_names_the_in_file(self, library_dir,
                                                             machine_file, capsys):
        (Path(library_dir) / "e0.in").write_text("1x\n")
        assert main(["kim", "build", "--library", library_dir,
                     "--base", machine_file, "-T", "4"]) == 3
        assert capsys.readouterr().err == \
            "error: e0.in: input symbol 'x' not in input alphabet\n"

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


class TestOutputEncoding:
    """Output is written as UTF-8, the encoding machines are read in,
    whatever the locale's encoding: to a file and to stdout alike."""

    ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    UTF8_MODE = {"PYTHONUTF8": "1"}
    COMMANDS = pytest.mark.parametrize("command", [["reduce"], ["history", "encode"]],
                                       ids=["reduce", "history-encode"])
    MACHINE_TEXT = fixture_text("m_accept1").replace("qacc", "q\u00e9")

    def run_under_an_ascii_locale(self, tmp_path, command, *out_args):
        """Run `command` on m_accept1 with its accept state renamed q\u00e9,
        in a subprocess under an ASCII locale."""
        machine_path = tmp_path / "u.tm"
        machine_path.write_text(self.MACHINE_TEXT, encoding="utf-8")
        return run_cli(self.ASCII_LOCALE, *command, "-m", str(machine_path),
                       "-i", "1", "-T", "1", *out_args)

    @COMMANDS
    def test_output_file_is_utf8_under_an_ascii_locale(self, tmp_path, command):
        out = tmp_path / "u.cnf"
        run = self.run_under_an_ascii_locale(tmp_path, command, "-o", str(out))
        assert (run.returncode, run.stderr) == (0, b"")
        assert "= Q(0,q\u00e9)\n" in out.read_bytes().decode("utf-8")

    @COMMANDS
    def test_stdout_is_the_output_files_bytes_under_an_ascii_locale(self, tmp_path, command):
        out = tmp_path / "u.cnf"
        assert self.run_under_an_ascii_locale(tmp_path, command, "-o", str(out)).returncode == 0
        run = self.run_under_an_ascii_locale(tmp_path, command)
        assert (run.returncode, run.stderr) == (0, b"")
        assert run.stdout == out.read_bytes()

    @pytest.mark.parametrize("command", [
        ["history", "extract", "-m", "{machine}", "-i", "1", "-T", "1"],
        ["merge", "-a", "{machine}", "-b", "{machine}"],
        ["kim", "build", "--library", "{library}", "--base", "{machine}", "-T", "1"],
        ["kim", "run", "--library", "{library}", "--base", "{machine}", "-T", "1", "-i", "1"],
        ["argue", "--schema", "{schema}"],
    ], ids=["history-extract", "merge", "kim-build", "kim-run", "argue"])
    def test_text_report_is_utf8_under_an_ascii_locale(self, tmp_path, command):
        # The reports name states or atoms, here q\u00e9, and library
        # entries, here the file q\u00e9.tm.
        machine_path = tmp_path / "u.tm"
        machine_path.write_text(self.MACHINE_TEXT, encoding="utf-8")
        schema = tmp_path / "s.arg"
        schema.write_text("premise: q\u00e9\nconclusion: q\u00e9\n", encoding="utf-8")
        library = self.library_of_one_entry(tmp_path)
        args = [arg.format(machine=machine_path, library=library, schema=schema)
                for arg in command]
        runs = self.run_under_both_locales(*args)
        assert runs[0].stdout == runs[1].stdout
        assert "q\u00e9".encode("utf-8") in runs[0].stdout

    def test_kim_build_json_names_an_entry_alike_under_both_locales(self, tmp_path):
        # The entry's name is its file stem's UTF-8 bytes on disk, not the
        # locale's decoding of them, which escapes each non-ASCII byte.
        base = tmp_path / "u.tm"
        base.write_text(self.MACHINE_TEXT, encoding="utf-8")
        library = self.library_of_one_entry(tmp_path)
        runs = self.run_under_both_locales("kim", "build", "--json", "--library", str(library),
                                           "--base", str(base), "-T", "1")
        assert runs[0].stdout == runs[1].stdout
        assert json.loads(runs[0].stdout)["entries"][0]["name"] == "q\u00e9"

    def test_kim_build_error_names_an_entry_alike_under_both_locales(self, tmp_path):
        # stderr, like stdout, carries the entry file name's bytes on disk.
        base = tmp_path / "u.tm"
        base.write_text(self.MACHINE_TEXT, encoding="utf-8")
        library = self.library_of_one_entry(tmp_path)
        with open(os.path.join(os.fsencode(library), "q\u00e9.in".encode("utf-8")), "wb") as fh:
            fh.write(b"0\n")
        runs = [run_cli(locale, "kim", "build", "--library", str(library),
                        "--base", str(base), "-T", "1")
                for locale in (self.ASCII_LOCALE, self.UTF8_MODE)]
        assert [(run.returncode, run.stdout) for run in runs] == [(3, b"")] * 2
        assert runs[0].stderr == runs[1].stderr == (
            "error: q\u00e9.tm: machine does not accept '0' within 1 transitions; "
            "cannot encode a run part\n").encode("utf-8")

    def library_of_one_entry(self, tmp_path):
        """A library holding the entry q\u00e9 on input 1, its files made
        by their UTF-8 names' bytes so that an ASCII locale can make them
        too."""
        library = tmp_path / "lib"
        library.mkdir()
        entry = os.path.join(os.fsencode(library), "q\u00e9".encode("utf-8"))
        with open(entry + b".tm", "wb") as fh:
            fh.write(self.MACHINE_TEXT.encode("utf-8"))
        with open(entry + b".in", "wb") as fh:
            fh.write(b"1\n")
        return library

    def run_under_both_locales(self, *args):
        """Run the CLI on `args` under the ASCII locale and in UTF-8 mode;
        both runs must exit 0 with nothing on stderr."""
        runs = [run_cli(locale, *args) for locale in (self.ASCII_LOCALE, self.UTF8_MODE)]
        assert [(run.returncode, run.stderr) for run in runs] == [(0, b"")] * 2
        return runs


class TestWriteFailures:
    """A write to stdout that fails or stops short exits 3 with one line on
    stderr: no traceback, and no second report from the interpreter when
    it flushes the streams at exit."""

    FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")

    @pytest.fixture()
    def parity_file(self, tmp_path):
        path = tmp_path / "m_parity.tm"
        path.write_text(fixture_text("m_parity"), encoding="utf-8")
        return str(path)

    @staticmethod
    def assert_failed_stdout_write(code, stderr):
        text = stderr.decode("utf-8")
        assert "Traceback" not in text and "Exception ignored" not in text
        assert text.count("\n") == 1 and text.startswith("error: cannot write stdout: ")
        assert code == 3

    @FULL
    @pytest.mark.parametrize("command", [
        ["reduce", "-m", "{parity}", "-i", "11", "-T", "4"],
        ["verify", "-m", "{parity}", "-i", "11", "-T", "4"],
        ["argue"],
        ["corpus-test"],
    ], ids=["reduce", "verify", "argue", "corpus-test"])
    def test_stdout_on_a_full_device(self, parity_file, command):
        argv, env = cli_command(*(arg.format(parity=parity_file) for arg in command))
        with open("/dev/full", "wb") as full:
            run = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE)
        self.assert_failed_stdout_write(run.returncode, run.stderr)

    @pytest.mark.parametrize("command, read", [
        (["reduce", "-m", "{parity}", "-i", "11", "-T", "48"], 0),
        (["reduce", "-m", "{parity}", "-i", "11", "-T", "48"], 100),
        (["corpus-test"], 0),
    ], ids=["reduce-T48", "reduce-T48-after-100-bytes", "corpus-test"])
    def test_stdout_on_a_closed_pipe(self, parity_file, command, read):
        # Closed after 100 bytes, the pipe takes a first part of the 2.1 MB
        # DIMACS text before it breaks, or none of it if it is closed
        # before the write starts.
        argv, env = cli_command(*(arg.format(parity=parity_file) for arg in command))
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            proc.stdout.read(read)
            proc.stdout.close()
            stderr = proc.stderr.read()
        self.assert_failed_stdout_write(proc.wait(), stderr)

    @pytest.mark.skipif(os.name != "posix", reason="needs sh")
    def test_stdout_closed_at_start(self):
        # With descriptor 1 closed, the interpreter sets sys.stdout to None.
        argv, env = cli_command("argue")
        run = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv], env=env,
                             stderr=subprocess.PIPE)
        assert (run.returncode, run.stderr) == (
            3, b"error: cannot write stdout: the stream is closed\n")

    def test_short_write(self, capsys):
        class ShortWrites(io.BytesIO):
            def write(self, data):
                return super().write(data[:-1])

        with contextlib.redirect_stdout(io.TextIOWrapper(ShortWrites(), encoding="utf-8")):
            assert main(["argue"]) == 3
        err = capsys.readouterr().err
        match = re.fullmatch(r"error: cannot write stdout: wrote (\d+) of (\d+) bytes\n", err)
        assert match and int(match[1]) == int(match[2]) - 1

    @FULL
    def test_error_line_on_a_full_device(self, parity_file):
        # The error line is lost, but the exit code still says what went wrong.
        with open("/dev/full", "wb") as full:
            for args, stdout in [(["solve", parity_file + ".missing"], subprocess.DEVNULL),
                                 (["reduce", "-m", parity_file, "-i", "11", "-T", "4"], full)]:
                argv, env = cli_command(*args)
                assert subprocess.run(argv, env=env, stdout=stdout, stderr=full).returncode == 3


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

    @staticmethod
    def at_atom_guard(tmp_path, capsys, premises):
        """The JSON report on `premises` over the 20 atoms a0..a19, with the
        conclusion a0 | !a0; each premise's table is 2^20 bits. No time is
        asserted, but an evaluator that visits the 2^20 assignments one by
        one took 31 s on the 300 premises below and 55 s on the chain (on
        a 2-CPU x86-64 host)."""
        schema = tmp_path / "s.arg"
        schema.write_text("".join(f"premise: {p}\n" for p in premises)
                          + "conclusion: a0 | !a0\n")
        assert main(["argue", "--schema", str(schema), "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_300_premises_at_atom_guard(self, tmp_path, capsys):
        rng = random.Random(20)
        premises = [" | ".join(rng.choice(("", "!")) + f"a{rng.randrange(20)}"
                               for _ in range(5)) for _ in range(300)]
        used = {literal.lstrip("!") for p in premises for literal in p.split(" | ")}
        assert used == {f"a{i}" for i in range(20)}
        payload = self.at_atom_guard(tmp_path, capsys, premises)
        assert payload["valid"] is True
        assert payload["vacuous"] is not payload["premise_set_satisfiable"]

    def test_deepest_chain_at_atom_guard(self, tmp_path, capsys):
        chain = " -> ".join(f"a{i % 20}" for i in range(NESTING_GUARD + 1))
        payload = self.at_atom_guard(tmp_path, capsys, [chain])
        assert payload["valid"] is True
        assert payload["premise_set_satisfiable"] is True

    def test_over_atom_guard_is_usage_error(self, tmp_path, capsys):
        schema = tmp_path / "s.arg"
        schema.write_text("conclusion: " + " | ".join(f"a{i}" for i in range(21)) + "\n")
        assert main(["argue", "--schema", str(schema)]) == 2
        assert capsys.readouterr().err == (
            "error: 21 atoms exceeds the enumeration guard of 20\n")

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
