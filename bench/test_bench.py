"""Self-test of the benchmark on its tiny world (3 families, 241 nodes).

    python3 -m pytest -q bench

It is not part of the repository's tier-1 suite, which collects tests/ only.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def two_repeats(monkeypatch):
    """Repeat each timed command twice, as a short run does, to keep the tests quick."""
    monkeypatch.setattr(run, "MAX_REPEATS", 2)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_reported_with_unit_and_direction(tmp_path, trace, section):
    result, record = run.run("tiny", run.DEFAULT_SEED, 0, trace, tmp_path)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert record["inputs_pinned"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for metric in SPEC[section]:
        assert metric["better"] in ("higher", "lower")
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert record["metrics"][metric["name"]]["samples"] >= 1


def test_missing_projected_edge_is_a_failed_operation(tmp_path, monkeypatch):
    real_run_child = run.run_child

    def drop_a_projected_edge(ctx, name, argv):
        op = real_run_child(ctx, name, argv)
        if name == "induce":
            projected = (ctx.out / "projected.tsv").read_text(encoding="utf-8").splitlines()
            dropped = projected[0].split("\t")[:2]
            taxonomy = ctx.out / "taxonomy.tsv"
            kept = [
                line
                for line in taxonomy.read_text(encoding="utf-8").splitlines(keepends=True)
                if line.split("\t")[:2] != dropped
            ]
            taxonomy.write_text("".join(kept), encoding="utf-8")
        return op

    monkeypatch.setattr(run, "run_child", drop_a_projected_edge)
    result, record = run.run("tiny", run.DEFAULT_SEED, 0, False, tmp_path)
    assert (result["correct"], result["failed"]) == (False, 1)
    assert record["failures"][0].startswith("induce: induced taxonomy misses projected edge")
    assert record["op_fail_ratio"] == 1 / result["attempted"]


def test_same_seed_gives_same_quality_and_digests(tmp_path):
    _, first = run.run("tiny", 5, 0, False, tmp_path / "a")
    _, second = run.run("tiny", 5, 0, False, tmp_path / "b")
    assert not first["inputs_pinned"]
    for key in ("quality", "inputs", "taxonomy"):
        assert first[key] == second[key], key
    assert first["taxonomy"] is not None


def test_changed_inputs_at_the_default_seed_are_refused(tmp_path, monkeypatch):
    pins = json.loads(run.PINS.read_text(encoding="utf-8"))
    pins["tiny"]["edges.tsv"] = "0" * 64
    (tmp_path / "pins.json").write_text(json.dumps(pins), encoding="utf-8")
    monkeypatch.setattr(run, "PINS", tmp_path / "pins.json")
    with pytest.raises(run.BenchError, match="differ from bench/pins.json"):
        run.run("tiny", run.DEFAULT_SEED, 0, False, tmp_path / "work")
