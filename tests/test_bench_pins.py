"""Every world pinned in `bench/pins.json` is still the world its digests name.

The benchmark refuses inputs that differ from their pins, and its own
self-test (`python3 -m pytest -q bench`) checks only the tiny world, so a
change to `worldgen` or to the order `save_taxonomy` writes would otherwise
show only when a benchmark run fails. Each world is written to a temporary
directory by `bench/run.py`'s `make_inputs` at its default seed; nothing
under `bench/` is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_run():
    """`bench/run.py` as a module, with no bytecode cache written beside it."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


run = _load_run()


@pytest.mark.parametrize("name", sorted(json.loads((BENCH / "pins.json").read_text("utf-8"))))
def test_pinned_world_matches_its_digests(tmp_path, name):
    digests, _ = run.make_inputs(name, run.DEFAULT_SEED, tmp_path)
    assert run.check_pins(name, run.DEFAULT_SEED, digests)
