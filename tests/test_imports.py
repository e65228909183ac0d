"""No module-level import goes unused in the package or the test suite, and
no public name in the package goes uncalled.

No linter is installed, so this walks each module's syntax tree with the
standard library alone.  An import counts as used when its bound name
appears anywhere else in the module (as a name, the root of an attribute
chain, or a parameter name, which is how pytest fixtures are requested), or
when the module lists it in ``__all__``.  ``from __future__`` imports are
exempt, and so are the names ``coder.py`` re-exports from ``_coder_py``.

A public module-level function or class counts as called when its name
appears as a name or an attribute anywhere in the package, or when
``semcomm`` exports it in ``__all__``.  A public method or property counts
as called only when its name appears as an attribute (``x.name``): a local
variable or an exported function of the same name does not reach it.  The
rule still cannot tell whose attribute it is, so a method reads as called
through any namesake on another type: ``RangeEncoder.encode`` through
``str.encode``, for one.  The click commands are reached through their
group and are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semcomm"
MODULES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])
REEXPORT = PACKAGE / "coder.py"
# public names kept with no caller in the package, each with its reason
KEPT_UNCALLED = [
    # the tests read each cycle model's symbol count through it
    "_coder_py:AdaptiveModel.total",
    # the one-interval decoder steps: the reference the tests check the run
    # kernel against
    "_coder_py:RangeDecoder.decode_target",
    "_coder_py:RangeDecoder.decode_update",
    # the backend name the benchmark records
    "coder:get_backend_name",
    # hand-built sentences stay library API
    "sublang:SubLanguage.sentence",
]


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


def _is_click_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in node.decorator_list)


def _public_definitions(tree: ast.Module):
    # module-level functions and classes, and the methods of those classes
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def uncalled_public_names(package: Path) -> list[str]:
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package.glob("*.py"))}
    names = _dunder_all(trees[package / "__init__.py"])
    attributes = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    names |= attributes
    return sorted(f"{path.stem}:{qualname}"
                  for path, tree in trees.items()
                  for qualname, node in _public_definitions(tree)
                  if node.name not in (attributes if "." in qualname else names)
                  and not _is_click_command(node))


def test_every_public_name_has_a_caller():
    assert uncalled_public_names(PACKAGE) == KEPT_UNCALLED


def test_checker_flags_an_uncalled_public_name(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .mod import Kept, exported\n__all__ = ['exported']\n")
    (tmp_path / "mod.py").write_text(
        "import click\n"
        "@click.group()\ndef main():\n    pass\n"
        "@main.command()\ndef run():\n    pass\n"
        "def exported():\n    return used() + Kept().get()\n"
        "def used():\n    return 1\n"
        "def unused():\n    shadow = _private()\n    return shadow\n"
        "def _private():\n    return 2\n"
        "class Kept:\n"
        "    def get(self):\n        return 3\n"
        "    def orphan(self):\n        return 4\n"
        "    def shadow(self):\n        return 5\n"
        "    def exported(self):\n        return 6\n")
    assert uncalled_public_names(tmp_path) == ["mod:Kept.exported", "mod:Kept.orphan",
                                               "mod:Kept.shadow", "mod:unused"]
