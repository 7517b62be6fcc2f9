"""Every world pinned in `bench/pins.json` is still the world its digests name,
and the benchmark's traced replay still writes the CLI's taxonomy.

The benchmark refuses inputs that differ from their pins, and its own
self-test (`python3 -m pytest -q bench`) checks only the tiny world, so a
change to `worldgen` or to the order `save_taxonomy` writes would otherwise
show only when a benchmark run fails. Each world is written to a temporary
directory by `bench/run.py`'s `make_inputs` at its default seed. A world of
more than 100 families is pinned here too: only there does one family's id
prefix another's (f10 and f100), which `worldgen` must keep out of its
distractor draws. Nothing under `bench/` is written.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from worldgen import build_world

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


def test_world_of_111_families_matches_its_digests(tmp_path):
    world = build_world(seed=711, families=111, mids=1, leaves=1, entities_per_leaf=2, thematics=2)
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in world.write(tmp_path).items()}
    assert digests == {
        "nodes": "b179de396d3110b6eb2572f39669f98e77104f8a39f6c086ae3999fcf28e32d4",
        "edges": "1aae5a1e2b2be0fd355bae9bb02757d1ca6a48d392c937372750ed950412fe7a",
        "langlinks": "cfe8590352fb9d556f8a9286bd429aff7df7f8d50425a093a606df0b8d9055f7",
        "source_taxonomy": "332bea7271c03c8694790b73e035c336781634f4bac03666c0c52610c74faa4a",
    }


def test_traced_replay_writes_the_cli_taxonomy(tmp_path, monkeypatch):
    # The replay calls the library the way the CLI does; an op fails when its
    # taxonomy.tsv differs from the CLI's, or when a call raises.
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    result, record = run.run("tiny", run.DEFAULT_SEED, 0, True, tmp_path)
    assert (result["failed"], record["failures"]) == (0, [])
