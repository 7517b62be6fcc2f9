"""Check the golden output pins with the standard library alone.

Runs the `trained_world` pipeline of `tests/test_cli.py` through
`taxonet.cli.main` in a temporary directory and compares the sha256 of
every file `train` and `induce` write with the pins in `tests/golden.py`
for the running interpreter. It also checks each trained model file `p`
twice: `save_model(load_model(p))` rewrites `p` byte for byte, and
`save_model`, which writes the long values in pieces, writes the bytes of one
`json.dumps` over the whole model (`oracles.reference_model_text`). It needs
no pytest, so any installed Python can run it, `train`'s fork included:

    python3.12 tests/check_golden.py

`tests/test_check_golden.py` runs it under every other installed version
and calls its functions in process for the interpreter pytest runs on.

Prints one line per file and per model check, and exits 0 when every
digest matches and every model check holds, 1 if not.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from golden import GOLDEN, GOLDEN_UNIFORM, train_golden  # noqa: E402
from oracles import reference_model_text  # noqa: E402
from worldgen import build_world  # noqa: E402

from taxonet.classifier import load_model, save_model  # noqa: E402
from taxonet.cli import main  # noqa: E402


# `induce`'s extra flags, and the pins of its outputs at each k.
INDUCE_PINS = (((), GOLDEN), (("--uniform",), GOLDEN_UNIFORM))
# The files `train` writes that `model_checks` reads back.
MODEL_FILES = ("model.ec.json", "model.cc.json")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pipeline(root: Path) -> dict[str, str]:
    """sha256 of every output, keyed by a name that matches the pins."""
    paths = build_world(seed=21, families=4).write(root)
    graph = ["--nodes", str(paths["nodes"]), "--edges", str(paths["edges"])]
    projected, models = root / "projected.tsv", root / "char"
    steps = [
        ["project", *graph, "--langlinks", str(paths["langlinks"]),
         "--source-taxonomy", str(paths["source_taxonomy"]), "--out", str(projected)],
        ["train", *graph, "--projected", str(projected), "--mode", "char",
         "--out-dir", str(models), "--seed", "5"],
    ]
    outputs = []
    for flags, pins in INDUCE_PINS:
        for k in sorted(pins):
            out = root / _name(k, flags)
            outputs += [out.name, out.name + ".report.json"]
            steps.append(["induce", *graph, "--projected", str(projected),
                          "--model-ec", str(models / "model.ec.json"),
                          "--model-cc", str(models / "model.cc.json"),
                          "--out", str(out), "--k", str(k), *flags])
    for argv in steps:
        code = main(argv)
        if code != 0:
            raise SystemExit(f"taxonet {argv[0]} exited {code}")
    digests = {name: _digest(models / name) for name in train_golden()}
    digests.update((name, _digest(root / name)) for name in outputs)
    return digests


def model_checks(models: Path) -> dict[str, bool]:
    """For each model file `p`: whether `save_model(load_model(p))` rewrites
    `p` unchanged, and whether `save_model` writes `reference_model_text`."""
    held = {}
    for name in MODEL_FILES:
        model = load_model(models / name)
        again = models / f"again.{name}"
        save_model(model, again)
        written = again.read_bytes()
        held[f"round trip of {name}"] = written == (models / name).read_bytes()
        held[f"one-dumps bytes of {name}"] = written == reference_model_text(model).encode()
    return held


def _name(k: int, flags: tuple[str, ...]) -> str:
    return f"k{k}{''.join(flags)}.tsv"


def expected() -> dict[str, str]:
    pins = dict(train_golden())
    for flags, golden in INDUCE_PINS:
        for k, (taxonomy, report) in golden.items():
            pins[_name(k, flags)] = taxonomy
            pins[_name(k, flags) + ".report.json"] = report
    return pins


def main_check() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        got = run_pipeline(Path(tmp))
        held = model_checks(Path(tmp) / "char")
    pins = expected()
    failed = 0
    for name, digest in got.items():
        ok = digest == pins[name]
        failed += not ok
        print(f"{'ok' if ok else 'MISMATCH'}  {name}  {digest}")
    for check, ok in held.items():
        print(f"{'ok' if ok else 'FAILED'}  {check}")
    broken = list(held.values()).count(False)
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"Python {version}: {len(got) - failed} of {len(got)} digests match, "
          f"{len(held) - broken} of {len(held)} model file checks hold")
    return 1 if failed or broken else 0


if __name__ == "__main__":
    sys.exit(main_check())
