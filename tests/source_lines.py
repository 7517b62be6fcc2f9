"""Count the source lines of the `taxonet` package: all lines, docstring
lines and the rest.

    python3 tests/source_lines.py

For each `*.py` file in `src/taxonet`, in name order, one line goes to
standard output with its name and three counts, then one line with the
totals:

    module          lines  docstring  outside
    classifier.py     363        120      243
    ...
    total            2575        640     1935

`lines` counts the file's lines, as `wc -l` does. `docstring` counts the
lines that module, class and function docstrings span, found with `ast`,
from the line the string opens on to the line it closes on. `outside` is
the difference: code, comments and blank lines.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "taxonet"
KINDS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(source: str) -> tuple[int, int]:
    """(lines, docstring lines) of one module's text."""
    doc_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, KINDS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            doc_lines.update(range(doc.lineno, doc.end_lineno + 1))
    return source.count("\n"), len(doc_lines)


def main() -> None:
    rows = [(path.name, *counts(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.glob("*.py"))]
    width = max(len("module"), *(len(name) for name, _, _ in rows))
    print(f"{'module':<{width}}  {'lines':>6}  {'docstring':>9}  {'outside':>7}")
    for name, lines, doc in rows + [("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]:
        print(f"{name:<{width}}  {lines:>6}  {doc:>9}  {lines - doc:>7}")


if __name__ == "__main__":
    main()
