"""Every library module and test file uses every name it imports, every
private module-level name of the library is read somewhere, and the
package exports every name the benchmark and `worldgen` read from it.
The package resolves its exports on first use, so a fresh interpreter
imports only the modules whose names it reads, and none of them imports
`dataclasses`, `logging` or `inspect`.

No lint tool is a dependency, so these stdlib `ast` checks stand in for
one. `__init__.py` imports no export, so the first covers it too. The
benchmark's own tests do not run here, so the export check keeps a
trimmed export from breaking it unseen.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import taxonet

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "taxonet"
SOURCES = sorted(SRC.glob("*.py"))
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


@pytest.mark.parametrize("path", SOURCES + TEST_FILES,
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


# What a fresh interpreter runs, and the taxonet modules it must then hold.
# Each command of the CLI and the benchmark's set-up probe start this way;
# `project`, `train` and `induce` do not load `metrics`.
CLI_MODULES = ["cli", "classifier", "errors", "features", "graph", "induction", "labeling",
               "projection", "rng"]


@pytest.mark.parametrize("script, loaded", [
    pytest.param("import taxonet", [], id="import-taxonet"),
    pytest.param("from taxonet import load_wcn", ["errors", "graph"],
                 id="from-taxonet-import-load_wcn"),
    pytest.param("import taxonet.cli", CLI_MODULES, id="import-taxonet-cli"),
])
def test_fresh_interpreter_imports_only_what_it_reads(script, loaded):
    script += "\nimport sys; print(*sorted(m for m in sys.modules if m.startswith('taxonet.')))"
    assert fresh_interpreter(script) == sorted(f"taxonet.{name}" for name in loaded)


def fresh_interpreter(script: str) -> list[str]:
    """The words `script` prints when run by a new interpreter that imports `taxonet` from `SRC`."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


# Each costs milliseconds to import, and every command would pay for it.
# `site` may load modules of its own first, so what an import adds is
# taken as a difference of `sys.modules`.
@pytest.mark.parametrize("statement", ["import taxonet.cli", "from taxonet import load_wcn"])
def test_fresh_interpreter_skips_dataclasses_logging_inspect(statement):
    script = (f"import sys\nbefore = set(sys.modules)\n{statement}\n"
              "print(*sorted(set(sys.modules) - before))")
    added = fresh_interpreter(script)
    assert "taxonet.graph" in added
    assert sorted({"dataclasses", "inspect", "logging"}.intersection(added)) == []


@pytest.mark.parametrize("name", taxonet.__all__)
def test_export_is_its_modules_object(name):
    module = importlib.import_module(f"taxonet.{taxonet._EXPORTS[name]}")
    assert getattr(taxonet, name) is getattr(module, name)


def test_dir_lists_exports_and_all():
    assert {"__all__", "__version__", *taxonet.__all__} <= set(dir(taxonet))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'taxonet' has no attribute 'load_wnc'$"):
        taxonet.load_wnc
