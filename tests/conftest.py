import pytest

from tmsatlab.fixtures import FIXTURE_NAMES, load_fixture
from tmsatlab.sat import CnfFormula


@pytest.fixture(scope="session")
def m_accept1():
    return load_fixture("m_accept1")


@pytest.fixture(scope="session")
def m_loop():
    return load_fixture("m_loop")


@pytest.fixture(scope="session")
def m_nd():
    return load_fixture("m_nd")


@pytest.fixture(scope="session")
def m_parity():
    return load_fixture("m_parity")


@pytest.fixture(scope="session")
def fixture_set():
    return [load_fixture(name) for name in FIXTURE_NAMES]


@pytest.fixture(scope="session")
def tape_growing_text():
    """A machine that writes 0 or 1 on each new cell and never accepts:
    2^t configurations at step t."""
    return """\
states: q0 qacc
start: q0
accept: qacc
blank: _
input_alphabet: 0 1
tape_alphabet: 0 1 _
rule: q0 _ -> q0 0 R
rule: q0 _ -> q0 1 R
rule: q0 0 -> q0 0 R
rule: q0 1 -> q0 1 R
"""


@pytest.fixture(scope="session")
def right_moving_text():
    """A machine that moves right forever and never accepts: one
    configuration per step, the one at step t with a tape of at least
    t + 1 cells."""
    return """\
states: q0 qacc
start: q0
accept: qacc
blank: _
input_alphabet: 0 1
tape_alphabet: 0 1 _
rule: q0 0 -> q0 0 R
rule: q0 1 -> q0 1 R
rule: q0 _ -> q0 _ R
"""


@pytest.fixture(scope="session")
def pigeonhole():
    """4 pigeons in 3 holes: every pigeon in some hole, no two in one.
    Unsatisfiable, and not refuted by unit propagation alone, so the
    solver must learn clauses to refute it."""
    pigeons, holes = 4, 3
    var = {(p, h): p * holes + h + 1 for p in range(pigeons) for h in range(holes)}
    clauses = [tuple(var[p, h] for h in range(holes)) for p in range(pigeons)]
    clauses += [(-var[p, h], -var[q, h]) for h in range(holes)
                for p in range(pigeons) for q in range(p + 1, pigeons)]
    return CnfFormula(pigeons * holes, clauses)
