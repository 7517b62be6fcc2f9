"""`tests/source_lines.py`, the counter of the package's source lines,
counts docstring lines by `ast` and every line as `wc -l` does."""

import subprocess
import sys

import source_lines
from source_lines import PACKAGE, counts

MODULE = '''"""Two lines
of module docstring."""

X = """not a docstring"""


class A:
    """One line."""

    def f(self):
        """Three
        lines
        here."""
        return 1  # code
'''


def test_counts_docstring_lines_of_a_module():
    assert counts(MODULE) == (14, 6)
    assert counts("x = 1\n\n") == (2, 0)


def test_prints_each_module_and_a_total_that_matches_wc():
    done = subprocess.run([sys.executable, source_lines.__file__], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    *modules, total = [line.split() for line in done.stdout.splitlines()[1:]]
    assert [name for name, *_ in modules] == sorted(p.name for p in PACKAGE.glob("*.py"))
    wc = sum(p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py"))
    lines, doc, outside = map(int, total[1:])
    assert total[0] == "total" and lines == wc and outside == lines - doc > 0
