"""src imports nothing it does not use. With tests/test_tracing.py, which
pins the names the benchmark's tracer looks up, this fixes the set of
names each module of src imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tmsatlab"


def unused_imports(source: str):
    """Names an import statement binds that the module never reads; a name
    read only in an annotation counts as read."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_src_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = ("from typing import Dict, List\nimport os.path\n"
              "def f(a: Dict) -> None:\n    return os\n")
    assert unused_imports(source) == ["List"]
