"""src imports nothing it does not use. With tests/test_tracing.py, which
pins the names the benchmark's tracer looks up, this fixes the set of
names each module of src imports. And src names the encoding of every
text file it opens, reads or writes, so no file depends on the locale.
Only the four builders of `reduction` use its unchecked build path, so
every other `LabeledFormula` passes the constructor's check."""

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


TEXT_FILE_CALLS = {"open", "read_text", "write_text"}


def calls_without_encoding(source: str):
    """(line, name) of each call to a function or method named `open`,
    `read_text` or `write_text` that passes no `encoding=`, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in TEXT_FILE_CALLS and "encoding" not in [kw.arg for kw in node.keywords]:
            found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_src_names_the_encoding_of_every_text_file(path):
    assert calls_without_encoding(path.read_text(encoding="utf-8")) == []


def test_a_call_without_encoding_is_found():
    source = ("open(p)\nPath(p).read_text()\nopen(p, encoding='utf-8')\n"
              "f.write_text(s, encoding='utf-8')\nread_text(p)\n_read_text(p)\n")
    assert calls_without_encoding(source) == [(1, "open"), (2, "read_text"), (5, "read_text")]


# The builders whose clauses hold the grid's own literals or come from
# formulas already checked, so `to_cnf` may take them unchecked.
UNCHECKED_BUILDERS = {"reduce_machine", "input_part", "run_part", "concatenate"}


def uses_of(source: str, name: str):
    """(function, line) of each use of `name` in source, a name, an
    attribute or an import of it, under the innermost function around it
    ("<module>" outside any), in line order. Its definition is no use."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            used = (child.id if isinstance(child, ast.Name) else
                    child.attr if isinstance(child, ast.Attribute) else
                    child.name if isinstance(child, ast.alias) else None)
            if used == name:
                found.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found, key=lambda use: use[1])


def test_only_the_builders_use_the_unchecked_build_path():
    uses = [(path.name, where) for path in sorted(SRC.glob("*.py"))
            for where, _ in uses_of(path.read_text(encoding="utf-8"), "_labeled")]
    assert sorted(uses) == sorted(("reduction.py", name) for name in UNCHECKED_BUILDERS)


def test_a_use_anywhere_is_found():
    source = ("from .reduction import _labeled as build\n"
              "def _labeled():\n    pass\n"
              "def f(g):\n    def h():\n        return reduction._labeled(g)\n"
              "    return _labeled\n"
              "make = _labeled\n")
    assert uses_of(source, "_labeled") == [("<module>", 1), ("h", 6), ("f", 7), ("<module>", 8)]
