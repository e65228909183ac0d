"""No module-level import goes unused in the package or the test suite.

No linter is installed, so this walks each module's syntax tree with the
standard library alone.  An import counts as used when its bound name
appears anywhere else in the module (as a name, the root of an attribute
chain, or a parameter name, which is how pytest fixtures are requested), or
when the module lists it in ``__all__``.  ``from __future__`` imports are
exempt, and so are the names ``coder.py`` re-exports from ``_coder_py``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "semcomm").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])
REEXPORT = ROOT / "src" / "semcomm" / "coder.py"


def _module_imports(tree: ast.Module):
    # imports in the module body, including under top-level if/try blocks
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)


def _bound_names(node, path: Path):
    if isinstance(node, ast.ImportFrom) and (
            node.module == "__future__"
            or (path == REEXPORT and node.module == "_coder_py")):
        return
    for alias in node.names:
        if alias.name == "*":
            continue
        yield alias.asname or alias.name.split(".")[0]


def _dunder_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _dunder_all(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
    return sorted(name for node in _module_imports(tree)
                  for name in _bound_names(node, path) if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_module_level_import(path):
    assert unused_imports(path) == []


def test_checker_flags_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from __future__ import annotations\n"
                   "import os\nimport sys as system\n"
                   "from math import pi, tau\nimport json\n"
                   "__all__ = ['tau']\n"
                   "def f(json):\n    return os.sep\n")
    assert unused_imports(src) == ["pi", "system"]
