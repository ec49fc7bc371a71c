"""Acceptance criteria, one test per criterion.

Criteria 1-8 run the property suite of `tmsatlab.corpus` at full size;
`corpus-test` runs the same suite at a smaller one. Each test prints a
PASS line once its assertions hold (run pytest -s to see them). The
corpus is the four fixture machines at T=6 plus 52 seeded random
machines at T=4, on inputs of length at most 3: 336 cases.
"""

import json
import time

import pytest

from tmsatlab import corpus as suite
from tmsatlab import machine
from tmsatlab.cli import main
from tmsatlab.fixtures import fixture_machines
from tmsatlab.reduction import LabeledFormula, reduce_machine


@pytest.fixture(scope="module")
def corpus():
    """One pass over the corpus, and how long it took."""
    start = time.monotonic()
    records = suite.corpus_records(52, 6)
    return records, time.monotonic() - start


@pytest.fixture(scope="module")
def histories(corpus):
    return suite.accepted_histories(corpus[0])


def test_criterion_1_oracle_equivalence(corpus):
    records, elapsed = corpus
    assert suite.check_oracle_equivalence(records) == (336, 336)
    assert elapsed < 120.0
    print(f"\nPASS criterion 1: oracle equivalence on 336 cases ({elapsed:.1f}s)")


def test_criterion_2_certification_round_trip(corpus):
    good, total = suite.check_certification(corpus[0])
    assert good == total > 0, "corpus produced no satisfiable cases"
    print(f"\nPASS criterion 2: certification round trip on {total} Sat cases")


def test_criterion_3_partition_and_reassembly(corpus):
    assert suite.check_partition(corpus[0]) == (336, 336)
    print("\nPASS criterion 3: partition and reassembly on 336 formulas")


def _reduce_with(monkeypatch, group, bad):
    def reduce_with_bad_clause(m, y, bound):
        f = reduce_machine(m, y, bound)
        with_bad = f.groups[group] + (bad,)
        return LabeledFormula(f.grid, {**f.groups, group: with_bad}, f.input)

    monkeypatch.setattr(suite, "reduce_machine", reduce_with_bad_clause)


@pytest.mark.parametrize("group, bad", [("G1", (1, -1)), ("G4", (1, 2))],
                         ids=["tautology", "non-unit-input"])
def test_criterion_3_flags_ill_formed_clauses(monkeypatch, group, bad):
    _reduce_with(monkeypatch, group, bad)
    assert suite.check_partition(suite.corpus_records(0, 2)) == (0, 24)


def test_criterion_3_refuses_unknown_group(m_accept1):
    grid = reduce_machine(m_accept1, "1", 1).grid
    with pytest.raises(ValueError, match="^unknown clause group 'G7'$"):
        LabeledFormula(grid, {"G1": ((1,),), "G7": ((1,),)}, "1")


def test_criterion_3_refuses_empty_clause(monkeypatch):
    _reduce_with(monkeypatch, "G1", ())
    with pytest.raises(ValueError, match="empty clause"):
        suite.corpus_records(0, 2)


def test_criterion_4_counting_claims(histories):
    good, runs, satisfiable = suite.check_parity_machine(
        histories, fixture_machines(), ("0", "1", "11"))
    assert good == runs == 12
    assert satisfiable > 0, "no satisfiable instance in any run"
    print(f"\nPASS criterion 4: i > j > k on {satisfiable} satisfiable "
          f"instances across {runs} runs")


def test_criterion_5_merge_properties(histories):
    good, pairs = suite.check_merge(histories)
    assert good == pairs == len(histories) * (len(histories) - 1)
    print(f"\nPASS criterion 5: merge properties on {pairs} history pairs")


def test_criterion_5_sees_the_renamed_table(monkeypatch):
    # Merging with L and R swapped in the renamed second table must fail
    # the check on the `corpus-test` histories.
    rename, swap = machine._rename_table, {"L": "R", "R": "L"}

    def rename_swapped(t, suffix):
        return {key: tuple((nxt, write, swap.get(move, move))
                           for nxt, write, move in targets)
                for key, targets in rename(t, suffix).items()}

    monkeypatch.setattr(machine, "_rename_table", rename_swapped)
    records = suite.corpus_records(10, suite.CORPUS_BOUND)
    good, pairs = suite.check_merge(suite.accepted_histories(records))
    assert good < pairs == 1722


def test_criterion_6_particular_table_round_trip(histories):
    good, total = suite.check_particular_tables(histories)
    assert good == total > 0, "corpus produced no accepting history"
    print(f"\nPASS criterion 6: particular-table round trip on {total} histories")


def test_criterion_7_solver_cross_validation():
    start = time.monotonic()
    assert suite.check_solver_agreement(500, 987654321) == (500, 500)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 7: solver cross-validation on 500 formulas ({elapsed:.1f}s)")


def test_criterion_8_argument_analysis():
    assert suite.check_argument_analysis() == (1, 1)
    print("\nPASS criterion 8: argument analysis")


def test_criterion_9_determinism(tmp_path, capsys):
    first = list(suite.run_corpus_checks())
    second = list(suite.run_corpus_checks())
    assert all(passed for passed, _ in first)
    assert first == second

    from tmsatlab.fixtures import fixture_text
    machine = tmp_path / "m.tm"
    machine.write_text(fixture_text("m_accept1"))
    lib = tmp_path / "lib"
    lib.mkdir()
    (lib / "e0.tm").write_text(fixture_text("m_accept1"))
    (lib / "e0.in").write_text("1\n")

    outputs = []
    for _ in range(2):
        main(["kim", "run", "--library", str(lib), "--base", str(machine),
              "-T", "4", "-i", "1", "--json"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])  # valid JSON

    for _ in range(2):
        main(["argue", "--json"])
        outputs.append(capsys.readouterr().out)
    assert outputs[2] == outputs[3]

    for _ in range(2):
        main(["reduce", "-m", str(machine), "-i", "1", "-T", "2"])
        outputs.append(capsys.readouterr().out)
    assert outputs[4] == outputs[5]
    print("\nPASS criterion 9: byte-identical repeated runs")
