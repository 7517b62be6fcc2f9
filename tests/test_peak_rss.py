"""`tests/peak_rss.py`, the launcher that reads one command's wall time and
peak RSS, runs a command on a tiny world and reports it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import taxonet

from worldgen import build_world

PEAK_RSS = Path(__file__).resolve().parent / "peak_rss.py"


def test_reports_wall_time_peak_and_exit_code(tmp_path):
    paths = build_world(seed=711, families=3).write(tmp_path)
    out = tmp_path / "projected.tsv"
    argv = [sys.executable, "-m", "taxonet", "project", "--out", str(out)]
    for name in ("nodes", "edges", "langlinks", "source_taxonomy"):
        argv += [f"--{name.replace('_', '-')}", str(paths[name])]
    env = {**os.environ, "PYTHONPATH": str(Path(taxonet.__file__).parent.parent)}
    done = subprocess.run([sys.executable, PEAK_RSS, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    record = json.loads(done.stdout.splitlines()[-1])
    assert done.returncode == record["exit"] == 0 and out.stat().st_size > 0
    assert record["wall_s"] > 0 and record["maxrss_mib"] > 1
    # The command's exit code passes through.
    done = subprocess.run([sys.executable, PEAK_RSS, *argv[:4]], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == json.loads(done.stdout.splitlines()[-1])["exit"] == 2
