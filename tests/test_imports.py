"""Every library module and test file uses every name it imports, every
private module-level name of the library is read somewhere, and the
package exports every name the benchmark and `worldgen` read from it.

No lint tool is a dependency, so these stdlib `ast` checks stand in for
one. `__init__.py` is skipped by the first: its imports are the package's
exports. The benchmark's own tests do not run here, so the second keeps a
trimmed export from breaking it unseen.
"""

import ast
from pathlib import Path

import pytest

import taxonet

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "taxonet"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TEST_FILES = sorted((ROOT / "tests").glob("*.py"))
PACKAGE_READERS = [ROOT / "bench" / "replay.py", ROOT / "bench" / "run.py",
                   ROOT / "tests" / "worldgen.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from itertools import chain, repeat as rep\n"
        "def f(x): return json.dumps(list(chain(x)))\n"
    )
    assert unused_imports(source) == ["os", "rep"]


@pytest.mark.parametrize("path", MODULES + TEST_FILES,
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> set[str]:
    """`_name`s a module binds at its top level by a def, a class or an assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def names_read(source: str) -> set[str]:
    """Every name read as a variable, and every attribute name."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    }


def test_checker_finds_unread_private_names():
    source = (
        "_LIMIT = 3\n"
        "_unused: int = 0\n"
        "def _helper(): return _LIMIT\n"
        "def _dead(): pass\n"
        "class _Shape: pass\n"
        "def public(): return _helper()\n"
    )
    reader = "import m\nm._Shape()\n"
    unread = private_definitions(source) - names_read(source) - names_read(reader)
    assert unread == {"_dead", "_unused"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in SOURCES + TEST_FILES))
    assert sorted(private_definitions(path.read_text(encoding="utf-8")) - read) == []


def package_names(source: str) -> set[str]:
    """Names read from the `taxonet` package: each name of a `from taxonet
    import`, and each `<alias>.<name>` where `import taxonet` binds alias."""
    tree = ast.parse(source)
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "taxonet" and not node.level:
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "taxonet")
    names.update(
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    )
    return names


def test_checker_finds_package_names():
    source = (
        "import json, taxonet as tx\n"
        "from taxonet import load_wcn, Node as N\n"
        "from taxonet.graph import edge_kind\n"
        "def f(p): return tx.induce(json.loads(p), tx.InductionConfig(), N, json.x)\n"
    )
    assert package_names(source) == {"InductionConfig", "Node", "induce", "load_wcn"}


@pytest.mark.parametrize("path", PACKAGE_READERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_package_exports_every_name_read_from_it(path):
    names = package_names(path.read_text(encoding="utf-8"))
    assert names, "no name read from taxonet: the checker no longer sees this file's imports"
    assert sorted(name for name in names if not hasattr(taxonet, name)) == []
