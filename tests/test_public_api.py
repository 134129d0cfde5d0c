"""The package's public names: each resolves, appears once, and has a user.

A name in `wickbell.__all__` is in use when code outside its own definition
refers to it: a module of the package (other than `__init__.py`), a script
under `scripts/`, the benchmark's traced-function list, or the acceptance
tests. Unit tests alone do not keep a name public; a helper only they need
belongs in `tests/oracles.py`. References are AST names and attributes, so a
docstring or comment that mentions a name does not count.
"""

import ast
from pathlib import Path

import pytest

import wickbell

ROOT = Path(__file__).resolve().parents[1]


def _used(node: ast.AST) -> set[str]:
    """Names and attribute names read anywhere under node."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _defined(stmt: ast.stmt) -> set[str]:
    """Names a top-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


def _package_users() -> set[str]:
    """Names each package module reads outside the statement defining them."""
    used = set()
    for path in (ROOT / "src" / "wickbell").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            used |= _used(stmt) - _defined(stmt)
    return used


def _traced() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and _defined(stmt) == {"TRACED"}:
            return {name.rpartition(".")[2] for name in ast.literal_eval(stmt.value)}
    raise AssertionError("perfbench/spans.py defines no TRACED tuple")


def _users() -> set[str]:
    used = _package_users() | _traced()
    for path in [*sorted((ROOT / "scripts").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        used |= _used(ast.parse(path.read_text()))
    return used


def test_all_names_resolve():
    missing = [name for name in wickbell.__all__ if not hasattr(wickbell, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(wickbell.__all__) == len(set(wickbell.__all__))


def test_every_public_name_has_a_user():
    unused = sorted(set(wickbell.__all__) - _users())
    assert unused == [], f"public names only unit tests use: {unused}"


@pytest.mark.parametrize(
    "source, used",
    [
        ("def f():\n    return g()\n\ndef g():\n    return 1\n", {"g"}),
        ("def f():\n    return f()\n", set()),
        ('def f():\n    """Calls g."""\n', set()),
        ("X = 1\nY = X + obj.attr\n", {"X", "obj", "attr"}),
    ],
    ids=["call", "self-reference", "docstring", "assignment"],
)
def test_reference_scan(source, used):
    # a definition's own body does not keep its name alive, nor does a docstring
    tree = ast.parse(source)
    assert set().union(*(_used(s) - _defined(s) for s in tree.body)) == used
