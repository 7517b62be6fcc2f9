"""Benchmark of the taxonet pipeline on synthetic worldgen worlds.

    python3 bench/run.py --workload medium-k1 [--seed 711] [--seconds 60] [--trace 0]

Run it from the root of a taxonet checkout. It builds the workload's world
with `tests/worldgen.py`, writes it as input files, and then:

- with `--trace 0`, runs `python -m taxonet` project, train, induce (with the
  workload's `--k`), `evaluate edges` and `stats` in child processes, one
  command at a time, repeating the whole pipeline until `--seconds` have
  passed, and reports the end-to-end metrics of BENCHMARK.json;
- with `--trace 1`, runs the CLI pipeline once as the reference output, then
  replays its calls in this process with a span around each layer
  (`bench/replay.py`) until `--seconds` have passed, and reports the
  per-layer metrics of BENCHMARK.json.

Every command's output is checked. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it is the full record with run metadata, which is also appended to
`bench/.work/results.jsonl`. Exit code 2, with no result, means the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SPEC = ROOT / "BENCHMARK.json"
PINS = BENCH / "pins.json"
WORK = BENCH / ".work"

DEFAULT_SEED = 711
RUN_LIMIT_S = 165.0  # every run, set-up included, ends well inside 180 s
STARTUP_REPEATS = 5
TIMED = ("project", "train", "induce")
# On a shared 2-core machine a command's speed drifts by up to 40% in phases
# of 10 s to minutes, so a run repeats short passes and takes each command's
# median over all of them: the samples spread over the whole run instead of
# sitting in one phase. In a pass, train and induce repeat until their runs
# add up to REPEAT_S or MAX_REPEATS runs. project takes about 1% of a pass,
# so its noise hardly moves pipeline_s, and it runs once a pass.
REPEATED = ("train", "induce")
REPEAT_S = 5.0
MAX_REPEATS = 5
INPUT_FILES = (
    "nodes.tsv",
    "edges.tsv",
    "langlinks.tsv",
    "source_taxonomy.tsv",
    "gold_edges.tsv",
    "sampled_nodes.txt",
)
WORLD_SHAPE = {"mids": 4, "leaves": 3, "entities_per_leaf": 5, "thematics": 3}


@dataclass(frozen=True)
class Workload:
    families: int
    link_rate: float
    k: int


WORKLOADS = {
    "small-k3": Workload(families=12, link_rate=0.45, k=3),
    "medium-link90": Workload(families=60, link_rate=0.90, k=1),
    # Not listed in BENCHMARK.json: on this 2-core machine one run takes up to
    # a minute, so the listed runs would no longer fit the time they are given
    # (see README.md). Run it by hand.
    "medium-k1": Workload(families=60, link_rate=0.45, k=1),
    # For the benchmark's self-test only; not listed in BENCHMARK.json.
    "tiny": Workload(families=3, link_rate=0.45, k=2),
}

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import taxonet
taxonet.load_wcn(sys.argv[1], sys.argv[2])
taxonet.load_interlang(sys.argv[3])
taxonet.load_taxonomy(sys.argv[4])
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Op:
    """One attempted operation: a child process or an in-process replay."""

    name: str
    t0: float = 0.0
    t1: float = 0.0
    cpu_s: float = 0.0
    maxrss_kib: int = 0
    stdout: str = ""
    error: str | None = None

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0


@dataclass
class Pass:
    """One run of the CLI pipeline, with the set-up probes run between its commands."""

    ops: list[Op] = field(default_factory=list)
    probes: list[Op] = field(default_factory=list)
    quality: dict[str, float] | None = None

    @property
    def ok(self) -> bool:
        return bool(self.ops) and all(op.error is None for op in self.ops)

    def times(self, name: str) -> list[float]:
        return [op.wall_s for op in self.ops if op.name == name]


@dataclass
class Context:
    """Everything one run shares: paths, the world's edges, the deadline."""

    workload: str
    seed: int
    inputs: Path
    out: Path
    graph_edges: frozenset[tuple[str, str]]
    deadline: float
    env: dict[str, str]
    reference: Path  # holds the sha256 of the first taxonomy.tsv made from these inputs


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _import_program() -> None:
    """Put this checkout's src/ and tests/ on sys.path; refuse anything else."""
    needed = [ROOT / "src" / "taxonet" / "__init__.py", ROOT / "tests" / "worldgen.py", SPEC]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a taxonet checkout, missing: {', '.join(missing)}")
    sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT / "tests")) if p not in sys.path]
    import taxonet

    if Path(taxonet.__file__).resolve().parent != ROOT / "src" / "taxonet":
        raise BenchError(f"imported taxonet from {taxonet.__file__}, not this checkout")


def _renamed(world, seed: int):
    """The same world with its node ids drawn afresh from `seed`.

    Structure, titles and links stay, so the work is the same; sort orders,
    tie-breaks and the SGD order, which all follow node ids, change.
    """
    from worldgen import World
    from taxonet import InterlangMap, Node, TaxoEdge, Taxonomy, WcnGraph

    ids = world.graph.node_ids()
    random.Random(seed).shuffle(ids)
    new = {old: f"n{i:05d}" for i, old in enumerate(ids)}

    def source_id(sid: str) -> str:
        return "en:" + new[sid.removeprefix("en:")]

    return World(
        WcnGraph(
            [Node(new[n.id], n.kind, n.title) for n in world.graph.nodes.values()],
            [(new[c], new[p]) for c, p in world.graph.edges()],
        ),
        InterlangMap((new[t], source_id(s)) for t, s in world.links.pairs()),
        Taxonomy(TaxoEdge(source_id(e.child), source_id(e.parent)) for e in world.source.edges()),
        {(new[c], new[p]) for c, p in world.true_edges},
        world.link_rate,
    )


def make_inputs(name: str, seed: int, dirpath: Path) -> tuple[dict[str, str], frozenset]:
    """Write the workload's world and gold; return input digests and graph edges.

    The world is `build_world(seed=711, ...)`; any other seed renames its
    nodes (see `_renamed`). Gold judges every graph edge against the world's
    planted is-a edges and samples every node.
    """
    from worldgen import build_world
    from taxonet import GoldEdgeSet, Label, save_gold

    wl = WORKLOADS[name]
    world = build_world(seed=DEFAULT_SEED, families=wl.families, link_rate=wl.link_rate,
                        **WORLD_SHAPE)
    if seed != DEFAULT_SEED:
        world = _renamed(world, seed)
    dirpath.mkdir(parents=True, exist_ok=True)
    world.write(dirpath)
    graph_edges = frozenset(world.graph.edges())
    judgments = {
        e: Label.ISA if e in world.true_edges else Label.NOT_ISA for e in graph_edges
    }
    gold = GoldEdgeSet(frozenset(world.graph.node_ids()), judgments)
    save_gold(gold, dirpath / "gold_edges.tsv", dirpath / "sampled_nodes.txt")
    return {f: _sha256(dirpath / f) for f in INPUT_FILES}, graph_edges


def check_pins(name: str, seed: int, digests: dict[str, str]) -> bool:
    """At the default seed the inputs must match bench/pins.json."""
    if seed != DEFAULT_SEED:
        return False
    pinned = json.loads(PINS.read_text(encoding="utf-8")).get(name)
    if pinned != digests:
        raise BenchError(
            f"{name} inputs at seed {seed} differ from bench/pins.json; "
            "the world generator changed what this benchmark measures"
        )
    return True


def run_child(ctx: Context, name: str, argv: list[str]) -> Op:
    """Run one child to completion or to the run's deadline; time it.

    The child's own peak RSS comes from os.wait4, so it is never mixed with
    other children's.
    """
    op = Op(name)
    budget = ctx.deadline - time.perf_counter()
    if budget <= 0:
        op.error = "timeout: no time left in the run"
        return op
    log = ctx.out / f"{name}.stdout"
    killed = threading.Event()
    with open(log, "wb") as out, open(ctx.out / f"{name}.stderr", "wb") as err:
        op.t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ctx.env, cwd=ROOT)

    def kill() -> None:
        killed.set()
        os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(budget, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    op.t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    op.cpu_s = usage.ru_utime + usage.ru_stime
    op.maxrss_kib = usage.ru_maxrss
    op.stdout = log.read_text(encoding="utf-8", errors="replace")
    if killed.is_set():
        op.error = f"timeout after {op.wall_s:.1f} s"
    elif proc.returncode != 0:
        stderr = (ctx.out / f"{name}.stderr").read_text(encoding="utf-8", errors="replace")
        op.error = f"exit {proc.returncode}: {stderr.strip()[-300:]}"
    return op


def _pairs(path: Path) -> set[tuple[str, str]]:
    with open(path, encoding="utf-8", newline="\n") as fh:
        return {tuple(line.rstrip("\n").split("\t")[:2]) for line in fh}


def check_induced(ctx: Context, taxonomy: Path) -> str | None:
    """Why the induced taxonomy is wrong, or None when it is right."""
    induced = _pairs(taxonomy)
    lost = _pairs(ctx.out / "projected.tsv") - induced
    if lost:
        return f"induced taxonomy misses projected edge {min(lost)}"
    foreign = induced - ctx.graph_edges
    if foreign:
        return f"induced taxonomy holds edge {min(foreign)} that is not in the graph"
    digest = _sha256(taxonomy)
    if not ctx.reference.exists():
        ctx.reference.write_text(digest + "\n", encoding="utf-8")
    elif ctx.reference.read_text(encoding="utf-8").strip() != digest:
        return "taxonomy.tsv differs in bytes from the first run of this workload and seed"
    return None


def _check_output(ctx: Context, op: Op, result: Pass) -> str | None:
    """Why a command's output is wrong, or None; keeps evaluate's scores."""
    taxonomy = ctx.out / "taxonomy.tsv"
    if op.name == "induce":
        return check_induced(ctx, taxonomy)
    if op.name == "evaluate":
        scores = json.loads(op.stdout)
        result.quality = {
            "edge_precision": scores["P"],
            "edge_recall": scores["R"],
            "edge_coverage": scores["C"],
        }
        if scores.get("precision_defined", True) is False:
            return f"precision undefined: {scores}"
    if op.name == "stats":
        edges = json.loads(op.stdout)["edges"]
        if edges != len(_pairs(taxonomy)):
            return f"stats counts {edges} edges, taxonomy.tsv has {len(_pairs(taxonomy))}"
    return None


def cli_pass(ctx: Context, k: int, probe: list[str] | None = None, repeat_s: float = 0.0) -> Pass:
    """project -> train -> induce -> evaluate edges -> stats, each checked.

    With `probe`, that child runs before each command, so set-up samples
    spread over the whole run instead of one moment of it. With `repeat_s`,
    the REPEATED commands repeat as REPEAT_S describes; every run is checked.
    """
    if ctx.out.exists():
        shutil.rmtree(ctx.out)
    (ctx.out / "models").mkdir(parents=True)
    inp, out = ctx.inputs, ctx.out
    graph = ["--nodes", str(inp / "nodes.tsv"), "--edges", str(inp / "edges.tsv")]
    commands = [
        ("project", ["project", *graph, "--langlinks", str(inp / "langlinks.tsv"),
                     "--source-taxonomy", str(inp / "source_taxonomy.tsv"),
                     "--out", str(out / "projected.tsv")]),
        ("train", ["train", *graph, "--projected", str(out / "projected.tsv"),
                   "--out-dir", str(out / "models")]),
        ("induce", ["induce", *graph, "--projected", str(out / "projected.tsv"),
                    "--model-ec", str(out / "models" / "model.ec.json"),
                    "--model-cc", str(out / "models" / "model.cc.json"),
                    "--out", str(out / "taxonomy.tsv"), "--k", str(k)]),
        ("evaluate", ["evaluate", "edges", "--taxonomy", str(out / "taxonomy.tsv"),
                      "--gold", str(inp / "gold_edges.tsv"),
                      "--nodes-file", str(inp / "sampled_nodes.txt")]),
        ("stats", ["stats", "--taxonomy", str(out / "taxonomy.tsv")]),
    ]
    result = Pass()
    while commands:
        name, args = commands.pop(0)
        if probe:
            result.probes.append(run_child(ctx, "setup", probe))
        op = run_child(ctx, name, [sys.executable, "-m", "taxonet", *args])
        result.ops.append(op)
        if op.error is None:
            try:
                op.error = _check_output(ctx, op, result)
            except (ValueError, KeyError) as exc:
                op.error = f"unreadable output {op.stdout[:200]!r}: {exc!r}"
        if op.error is not None:
            return result
        runs = result.times(name)
        if name in REPEATED and sum(runs) < repeat_s and len(runs) < MAX_REPEATS:
            # Repeat it after the next repeated command, so the runs of train
            # and induce alternate and the cheap one's samples flank the other.
            later = next((i + 1 for i, (n, _) in enumerate(commands) if n in REPEATED), 0)
            commands.insert(later, (name, args))
    return result


def summarize(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"samples": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def _git(*args: str) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(ctx: Context) -> dict:
    """The commit, interpreter, cores and program the run measured."""
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    child = subprocess.run(
        [sys.executable, "-c", "import taxonet; print(taxonet.__file__)"],
        env=ctx.env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    taxonet_file = child.stdout.strip()
    if Path(taxonet_file).resolve().parent != ROOT / "src" / "taxonet":
        raise BenchError(f"child processes import taxonet from {taxonet_file!r}, not this checkout")
    source_lines = sum(
        p.read_bytes().count(b"\n") for p in sorted((ROOT / "src" / "taxonet").glob("*.py"))
    )
    return {
        "git_commit": commit,
        "git_dirty": bool(status) if commit else None,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "world_seed": ctx.seed,
        "taxonet_file": taxonet_file,
        "source_lines": source_lines,
    }


def _spec_metrics(section: str, values: dict[str, float], failed: bool) -> dict[str, dict]:
    """The section's metrics in BENCHMARK.json order, with their units.

    A failed run may leave some unmeasured; they read 0 beside correct=false.
    """
    spec = json.loads(SPEC.read_text(encoding="utf-8"))[section]
    names = [m["name"] for m in spec]
    if failed:
        values = {name: values.get(name, 0.0) for name in names}
    if sorted(names) != sorted(values):
        raise BenchError(f"{section} names {sorted(names)} but the run measured {sorted(values)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def measure_cli(ctx: Context, seconds: float, record: dict) -> tuple[list[Op], dict]:
    """CLI passes, with set-up probes between their commands, for `seconds`.

    Another pass starts only if one as long as the longest so far would end
    within `seconds`; at least one pass always runs.
    """
    inp = ctx.inputs
    probe = [sys.executable, "-c", SETUP_PROBE, str(inp / "nodes.tsv"), str(inp / "edges.tsv"),
             str(inp / "langlinks.tsv"), str(inp / "source_taxonomy.tsv")]
    passes = []
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        started = time.perf_counter()
        passes.append(cli_pass(ctx, WORKLOADS[ctx.workload].k, probe, REPEAT_S))
        now = time.perf_counter()
        longest = max(longest, now - started)
        # The next pass must end within `seconds`, with half a pass to spare before the deadline.
        if now + longest > min(t0 + seconds, ctx.deadline - 0.5 * longest):
            break
    ops = [op for p in passes for op in p.ops]
    setup = [op for p in passes for op in p.probes]

    # Failed passes stay out of the timing medians; they read 0 beside correct=false.
    timed = [p for p in passes if p.ok]
    runs = {name: [t for p in timed for t in p.times(name)] for name in TIMED}
    samples = {
        # The run's medians of project, train and induce, summed.
        "pipeline_s": [sum(map(statistics.median, runs.values()))] if timed else [],
        "train_s": runs["train"],
        "induce_s": runs["induce"],
        # The probe prints its own time from import to loaded inputs.
        "setup_s": [float(op.stdout) for op in setup if op.error is None],
        "peak_rss_mb": [max(op.maxrss_kib for op in ops) / 1024],
    }
    ops += setup
    qualities = [p.quality for p in passes if p.ok]
    if any(q != qualities[0] for q in qualities):
        ops.append(Op("quality", error=f"quality changed between passes: {qualities}"))
    for key in ("edge_precision", "edge_recall", "edge_coverage"):
        samples[key] = [qualities[0][key]] if qualities else []
    record["passes"] = [[[op.name, op.wall_s, op.cpu_s] for op in p.ops] for p in passes]
    record["quality"] = qualities[0] if qualities else None
    return ops, samples


def measure_trace(ctx: Context, seconds: float, record: dict) -> tuple[list[Op], dict]:
    """One reference CLI pass, then traced replays for `seconds`.

    The reference pass counts towards `seconds`. Another replay starts only
    if it would end within them; at least one replay runs.
    """
    import replay

    version = [sys.executable, "-m", "taxonet", "--version"]
    startup = [run_child(ctx, "startup", version) for _ in range(STARTUP_REPEATS)]
    ops = list(startup)
    t0 = time.perf_counter()
    reference = cli_pass(ctx, WORKLOADS[ctx.workload].k)
    took = time.perf_counter() - t0
    ops.extend(reference.ops)
    cli_taxonomy = ctx.out / "taxonomy.tsv"
    cli_digest = _sha256(cli_taxonomy) if reference.ok else None

    replays = []
    while not replays or time.perf_counter() + replays[-1][0].wall_s <= t0 + seconds:
        if time.perf_counter() + 1.5 * took > ctx.deadline:
            if not replays:
                ops.append(Op("replay", error="timeout: no time left for a replay"))
            break
        op = Op("replay", t0=time.perf_counter())
        ops.append(op)
        try:
            t, counts = replay.replay(ctx.inputs, ctx.out / "replay", WORKLOADS[ctx.workload].k)
        except Exception as exc:  # the program failed under the replay: count it, report it
            op.error = f"replay raised {exc!r}"
            break
        finally:
            op.t1 = time.perf_counter()
        if _sha256(ctx.out / "replay" / "taxonomy.tsv") != cli_digest:
            op.error = "the replay's taxonomy.tsv differs from the CLI's"
        replays.append((op, t, counts))

    samples = {"cli.startup_s": [op.wall_s for op in startup if op.error is None]}
    for op, t, counts in replays:
        times = replay.layer_times(t, counts)
        for key, value in {**counts, **times}.items():
            samples.setdefault(key, []).append(value)
    spans = [t.spans for _, t, _ in replays]
    (ctx.out / "spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    return ops, samples


def make_context(workload: str, seed: int, trace: bool, work: Path) -> tuple[Context, dict]:
    """Write the workload's inputs under `work`; return the context and the record."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    _import_program()
    base = work / f"{workload}-s{seed}"
    digests, graph_edges = make_inputs(workload, seed, base / "inputs")
    pinned = check_pins(workload, seed, digests)
    inputs_key = json.dumps(digests, sort_keys=True).encode("utf-8")
    ctx = Context(
        workload=workload,
        seed=seed,
        inputs=base / "inputs",
        out=base / ("trace" if trace else "cli"),
        graph_edges=graph_edges,
        deadline=deadline,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        reference=base / f"taxonomy.{hashlib.sha256(inputs_key).hexdigest()[:16]}.sha256",
    )
    ctx.out.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "inputs": digests, "inputs_pinned": pinned}
    return ctx, record


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path = WORK) -> tuple[dict, dict]:
    """Run one workload; return the result line and the full record."""
    ctx, record = make_context(workload, seed, trace, work)
    record.update(seconds=seconds, meta=metadata(ctx))
    measure = measure_trace if trace else measure_cli
    ops, samples = measure(ctx, seconds, record)

    failed = [f"{op.name}: {op.error}" for op in ops if op.error is not None]
    section = "per_layer" if trace else "end_to_end"
    samples = {key: values for key, values in samples.items() if values}
    medians = {k: statistics.median(v) for k, v in samples.items()}
    metrics = _spec_metrics(section, medians, bool(failed))
    record.update(
        taxonomy=ctx.reference.read_text(encoding="utf-8").strip() if ctx.reference.exists() else None,
        attempted=len(ops),
        failures=failed,
        op_fail_ratio=len(failed) / len(ops),
        metrics={k: {"unit": metrics[k]["unit"], **summarize(v)} for k, v in samples.items()},
    )
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="world seed (default: 711)")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="measure for this long; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced in-process replay and per-layer metrics")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
