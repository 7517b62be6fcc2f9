"""sha256 pins of the CLI's outputs on the `trained_world` pipeline.

The pipeline: `build_world(seed=21, families=4)`, `project` with default
flags, `train --mode char --seed 5`, then `induce` at k=1 and k=3, with and
without `--uniform`. The CLI
promises byte-identical output, so a pin changes only with an output change
that CHANGES.md names. `tests/check_golden.py` checks them with the
standard library alone, and `tests/test_check_golden.py` runs that check
on every installed Python version.
"""

import sys

# taxonomy.tsv and its report, per k; the same on every Python version.
GOLDEN = {
    1: ("cf064eac57d952a8583fee87c38e1554ee86aeb0f6af19077b824c6ddc424aab",
        "7948c3f3b74754f20349634e976b1c0e8f6b679fa977b4e912e894499c440ad9"),
    3: ("efd850738f33b10c8e61043cade44ee156d8c0cbfb6bd7acbe2f80ebc6f9dfc3",
        "672c6b13c4a8d1203bb6b6d09684beb97d4daa4bc674ec8ee8619ec519398596"),
}

# The same under `induce --uniform`: every edge weighs 1, so these pin the
# path search's tie-breaking on hops and node order.
GOLDEN_UNIFORM = {
    1: ("7027d642e2789d8b67524d2ea0709d91a86e7587fab09ad0c615ab2267cd9ee5",
        "fead403b42d303fdee22577d331ae4bc382552112a35d603a9c7b6a9d0a63e58"),
    3: ("c1b7584fdbd9d73e63beb0dae97076c5d573990a7749d0144b0c36cedc8e97c7",
        "5589be36232467bf48e3e89e9842927f9361eb810ed7c82b977ae3e4930d8061"),
}

# Every file `train` writes. Model files hold each weight as its bits, so
# these also pin SGD to the last bit, which taxonomy.tsv's six-decimal
# scores hide. These hold up to Python 3.11. The model pins changed once,
# when weights became base64 and features one string: the weights, bias,
# features, df and config they load are the same as before.
TRAIN_GOLDEN = {
    "model.ec.json": "a7fb6d9859492db82545ca31eb08d14834618311d76a0fd5e91bbf9c063053bb",
    "metrics.ec.json": "e3583b549dd4e7287c81c585e6e98ee2f275e8c733ef6afefc8eef87c2b6eb7c",
    "model.cc.json": "40867ebaf60c869602c55b049d386a4b7c3eeafd7681fa2e33c40bc39176b99b",
    "metrics.cc.json": "e7cadd8c49996358135a59ac8dc115f10756fe78d515284249d8a5e8a9ebc9e4",
}

# From Python 3.12 the builtin `sum` compensates float rounding, so SGD
# weights move in their last bits; the model files differ, nothing else.
TRAIN_GOLDEN_312 = {
    **TRAIN_GOLDEN,
    "model.ec.json": "66c070be7e53078a21733cb4e5d68863c7254500e7f26cdcb3327ade96b1702b",
    "model.cc.json": "b5e0f37db7083824cff17ed06122a4fb3b65238dabfc0d17f3981184ec9c7861",
}


def train_golden() -> dict[str, str]:
    """The `train` pins for the running interpreter."""
    return TRAIN_GOLDEN_312 if sys.version_info >= (3, 12) else TRAIN_GOLDEN
