"""Check the golden pins with `tests/check_golden.py` on every supported Python.

The running interpreter checks its pins in process, through the same
`run_pipeline` and `expected` the script's own `main_check` calls, one test
per pinned file; `tests/test_cli.py` checks its model files. The pins differ between
interpreters (the builtin `sum` compensates its rounding from 3.12), and
pytest runs under one of them only, so each other version runs the script
in a subprocess that needs the standard library alone. A version that is
not installed is skipped.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check_golden

CHECK = Path(__file__).resolve().parent / "check_golden.py"
VERSIONS = [v for v in ("3.10", "3.11", "3.12", "3.13") if v != "%d.%d" % sys.version_info[:2]]


def _runs_as(exe: str, version: str) -> bool:
    probe = [exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"]
    try:
        done = subprocess.run(probe, capture_output=True, text=True, timeout=30)
    except OSError:
        return False
    return done.returncode == 0 and done.stdout.strip() == version


def find_interpreter(version: str) -> str | None:
    """`python<version>` from PATH, or else from `pyenv prefix <version>`.

    A pyenv shim on PATH exits nonzero for a version that is not active,
    so each candidate must start and report the version asked for.
    """
    candidates = [shutil.which(f"python{version}")]
    pyenv = shutil.which("pyenv")
    if pyenv:
        done = subprocess.run([pyenv, "prefix", version], capture_output=True, text=True)
        if done.returncode == 0 and done.stdout.strip():
            prefix = Path(done.stdout.strip().split(":")[0])
            candidates.append(str(prefix / "bin" / f"python{version}"))
    return next((exe for exe in candidates if exe and _runs_as(exe, version)), None)


@pytest.mark.parametrize("version", VERSIONS)
def test_golden_pins_hold(version, tmp_path):
    exe = find_interpreter(version)
    if exe is None:
        pytest.skip(f"no Python {version} found on PATH or through pyenv")
    done = subprocess.run(
        [exe, str(CHECK)], capture_output=True, text=True, timeout=300, cwd=tmp_path
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith(f"Python {version}.")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The digests of the pipeline run in this interpreter."""
    return check_golden.run_pipeline(tmp_path_factory.mktemp("golden"))


def test_every_pin_is_checked(pipeline):
    assert sorted(pipeline) == sorted(check_golden.expected())


@pytest.mark.parametrize("name", sorted(check_golden.expected()))
def test_pin_holds_here(pipeline, name):
    assert pipeline[name] == check_golden.expected()[name]

