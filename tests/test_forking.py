import inspect
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from taxonet import errors
from taxonet.errors import MalformedRow, TaxonetError
from taxonet.forking import run_pair

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def forked_pids(monkeypatch):
    """Records the pid of every child `run_pair` forks."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestRunPair:
    def test_values_arrive_intact(self, forked_pids):
        floats = [0.1 + 0.2, 5e-324, -0.0, 1.0 - 2**-53, float("inf")]
        here, there = run_pair(lambda: "here", lambda: {"floats": floats, "pid": os.getpid()})
        assert here == "here"
        assert [x.hex() for x in there["floats"]] == [x.hex() for x in floats]
        assert there["pid"] == forked_pids[0] != os.getpid()
        assert_reaped(forked_pids)

    def test_child_error_reraises_as_itself(self, forked_pids):
        def fail():
            raise MalformedRow("nodes.tsv", 7, "expected 3 columns")

        with pytest.raises(MalformedRow) as info:
            run_pair(lambda: None, fail)
        assert str(info.value) == "nodes.tsv:7: expected 3 columns"
        assert (info.value.path, info.value.line_no) == ("nodes.tsv", 7)
        assert_reaped(forked_pids)

    def test_killed_child_is_runtime_error(self, forked_pids):
        def die():
            os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(RuntimeError, match=r"exit code -9\)"):
            run_pair(lambda: None, die)
        assert_reaped(forked_pids)

    def test_unpicklable_result_is_runtime_error(self, forked_pids):
        with pytest.raises(RuntimeError, match=r"exit code 1\)"):
            run_pair(lambda: None, lambda: (lambda: "a lambda does not pickle"))
        assert_reaped(forked_pids)

    def test_own_error_wins_and_child_is_reaped(self, forked_pids, tmp_path):
        done = tmp_path / "done"

        def fail():
            raise ValueError("here")

        def slow():
            time.sleep(0.2)  # outlives the parent's failure, which must still wait
            done.write_text("child finished", encoding="utf-8")
            raise MalformedRow("x", 1, "child error loses")

        with pytest.raises(ValueError, match="here"):
            run_pair(fail, slow)
        assert_reaped(forked_pids)
        assert done.read_text(encoding="utf-8") == "child finished"

    def test_child_never_returns_into_caller(self):
        # A fresh interpreter with stdout held in a pipe: text buffered before
        # the fork, the caller's code after it, and an atexit handler must
        # each show up exactly once.
        script = textwrap.dedent("""
            import atexit
            from taxonet.forking import run_pair
            atexit.register(print, "atexit")
            print("before")
            print(run_pair(lambda: 1, lambda: 2))
            print("after")
        """)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "before\n(1, 2)\nafter\natexit\n"


def test_import_taxonet_loads_neither_pickle_nor_forking():
    # Commands that never fork, and the start-up every command pays, rely
    # on this: `forking` is imported where it is used.
    script = "import sys, taxonet; print(sorted({'pickle', 'taxonet.forking'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _error_classes():
    return [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, TaxonetError) and cls.__module__ == errors.__name__
    ]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_error_pickles_round_trip(cls):
    if "__init__" in vars(cls):
        params = list(inspect.signature(cls.__init__).parameters)[1:]
        exc = cls(*[f"{name}-value" for name in params])
    else:
        exc = cls("a message")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)
