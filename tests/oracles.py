"""Independent brute-force oracles for the path-search tests, the two
projection walks that `projection._reach` replaced, the reference
featurization, scoring, SGD loops and model file text for the feature and
classifier tests, and the line-at-a-time readers for the loader tests.

The path oracles deliberately avoid the library's search machinery: paths
are found by exhaustive DFS enumeration, probabilities are exact Fractions
built from the float edge weights, and the ordering is applied wholesale
via sort. Slow but obviously correct on small graphs.
"""

from __future__ import annotations

import base64
import json
import math
import struct
from collections import Counter, deque
from fractions import Fraction
from itertools import chain, repeat
from operator import add, mul, sub, truediv


def enumerate_paths(weighted, start: str, targets: set[str]):
    """Every simple path from start to its first target, with exact
    probability; sorted by (probability desc, hops asc, nodes asc)."""
    results: list[tuple[Fraction, int, tuple[str, ...]]] = []

    def walk(node, visited, path, prob):
        if node in targets:
            results.append((prob, len(path) - 1, tuple(path)))
            return  # targets absorb; never continue through one
        for parent in weighted.graph.parents(node):
            if parent in visited:
                continue
            walk(
                parent,
                visited | {parent},
                path + [parent],
                prob * Fraction(*weighted.prob[(node, parent)].as_integer_ratio()),
            )

    if start not in targets:
        walk(start, {start}, [start], Fraction(1))
    results.sort(key=lambda r: (-r[0], r[1], r[2]))
    return results


def random_instance(rng, max_nodes=12, p_edge=0.3, uniform=False, weights=None):
    """A random weighted digraph plus a (start, targets) query.

    All nodes are categories so any edge direction is legal; self-loops
    are skipped. Probabilities are uniform in [0.05, 0.95], exactly 1.0
    when `uniform`, or drawn from the sequence `weights` when given.
    """
    from taxonet import Node, NodeKind, WcnGraph
    from taxonet.induction import WeightedGraph

    n = rng.randint(4, max_nodes)
    names = [f"n{i:02d}" for i in range(n)]
    nodes = [Node(name, NodeKind.CATEGORY, name) for name in names]
    edges = []
    prob = {}
    for u in names:
        for v in names:
            if u != v and rng.random() < p_edge:
                edges.append((u, v))
                if uniform:
                    prob[(u, v)] = 1.0
                elif weights:
                    prob[(u, v)] = rng.choice(weights)
                else:
                    prob[(u, v)] = rng.uniform(0.05, 0.95)
    weighted = WeightedGraph(WcnGraph(nodes, edges), prob)
    start = rng.choice(names)
    pool = [x for x in names if x != start]
    targets = set(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
    return weighted, start, targets


def bfs_min_hops(graph, start: str, targets: set[str]) -> int | None:
    """Hop count of the shortest path to any target; targets absorb."""
    if start in targets:
        return 0
    queue = deque([(start, 0)])
    seen = {start}
    while queue:
        node, hops = queue.popleft()
        for parent in graph.parents(node):
            if parent in seen:
                continue
            if parent in targets:
                return hops + 1
            seen.add(parent)
            queue.append((parent, hops + 1))
    return None


# `projection.collect_ancestors` and `projection.bounded_shortest_path` as
# they were before both became one walk, `projection._reach`: two copies of
# one hop-bounded BFS. The library must return the same sets and the same
# paths, node for node.


def reference_collect_ancestors(taxonomy, node: str, k1: int) -> set[str]:
    """All nodes reachable from `node` by 1..k1 child->parent hops.

    Excludes the node itself; tolerates cycles.
    """
    ancestors: set[str] = set()
    frontier = [node]
    visited = {node}
    for _ in range(k1):
        next_frontier = []
        for current in frontier:
            for parent in taxonomy.hypernyms(current):
                if parent not in visited:
                    visited.add(parent)
                    ancestors.add(parent)
                    next_frontier.append(parent)
        if not next_frontier:
            break
        frontier = next_frontier
    return ancestors


def reference_bounded_shortest_path(graph, start: str, targets: set[str], k2: int):
    """Shortest child->parent path from start to any target, <= k2 edges.

    BFS explores parents in stored edge order, so with equal-length
    options the first target dequeued wins deterministically. Returns the
    node sequence start..target, or None when no target is within reach.
    A start that is itself a target yields the single-node path [start].
    """
    if start in targets:
        return [start]
    prev: dict[str, str] = {}
    depth = {start: 0}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        if depth[current] == k2:
            continue
        for parent in graph.parents(current):
            if parent in depth:
                continue
            depth[parent] = depth[current] + 1
            prev[parent] = current
            if parent in targets:
                path = [parent]
                while path[-1] != start:
                    path.append(prev[path[-1]])
                path.reverse()
                return path
            queue.append(parent)
    return None


def reference_char_ngrams(title, spec):
    """`features.char_ngrams` as the loop it replaced: one `+= 1` per n-gram,
    sizes ascending, then by position."""
    text = " ".join(title.lower().split())
    grams = Counter()
    for n in sorted(spec.ngram_sizes):
        for i in range(len(text) - n + 1):
            grams[text[i : i + n]] += 1
    return grams


def reference_vectorize_title(model, title):
    """A title's TFIDF vector as sorted (column, value) entries, by the loop
    `TfidfModel.half` replaced: TF x idf over the in-vocabulary features,
    each divided by the L2 norm. idf is ln((1 + N) / (1 + df)) + 1, computed
    here from the model's `n_docs` and `df`."""
    from taxonet.features import FeatureMode, word_tokens

    if model.spec.mode is FeatureMode.WORD:
        counts = word_tokens(title)
    else:
        counts = reference_char_ngrams(title, model.spec)
    entries = []
    for feature, count in counts.items():
        col = model.vocabulary.get(feature)
        if col is not None:
            idf = math.log((1 + model.n_docs) / (1 + model.df[col])) + 1.0
            entries.append((col, count * idf))
    if not entries:
        return ()
    entries.sort()
    norm = math.sqrt(sum(v * v for _, v in entries))
    return tuple((c, v / norm) for c, v in entries)


def _dot(weights, cols, vals):
    """sum(weights.get(c, 0.0) * v) over the entries, in their order."""
    return sum(map(mul, map(weights.get, cols, repeat(0.0)), vals))


def reference_proba(model, child_title, parent_title):
    """`classifier.predict_proba` over the sparse vectors: one sum over the
    child's entries, then the parent's at columns offset by V, reading
    the model's weights by column in [0, 2V); plus the bias, through the
    sigmoid. The library must match it bit for bit."""
    from taxonet.classifier import _sigmoid

    offset = model.tfidf.n_features
    child = reference_vectorize_title(model.tfidf, child_title)
    parent = reference_vectorize_title(model.tfidf, parent_title)
    cols = chain((c for c, _ in child), (c + offset for c, _ in parent))
    vals = chain((v for _, v in child), (v for _, v in parent))
    return _sigmoid(_dot(dict(enumerate(chain(*model.dense))), cols, vals) + model.bias)


def reference_train_linear(dataset, tfidf, cfg, graph):
    """`classifier.train_linear` as a sparse dict-based loop: (weights, bias).

    This is the SGD loop the dense-list one replaced, kept unchanged: the
    weights live in a dict, each step reads every entry with
    `dict.get(c, 0.0)` and writes it back with `dict.update`. Title vectors
    come from `reference_vectorize_title`, not from the TFIDF model's cache.
    The library's loop must match it bit for bit.
    """
    from taxonet.classifier import _sigmoid
    from taxonet.labeling import Label
    from taxonet.rng import SplitMix64

    def half(title):
        entries = reference_vectorize_title(tfidf, title)
        return tuple(c for c, _ in entries), tuple(v for _, v in entries)

    offset = tfidf.n_features
    shifted = {}
    samples = []
    for e in dataset.train:
        title = graph.title(e.parent)
        if title not in shifted:
            cols, vals = half(title)
            shifted[title] = (tuple(map(add, cols, repeat(offset))), vals)
        y = 1.0 if e.label is Label.ISA else 0.0
        samples.append((half(graph.title(e.child)), shifted[title], y))

    values: dict[int, float] = {}
    scale = 1.0
    bias = 0.0
    step = 0
    lr0 = cfg.learning_rate
    for epoch in range(cfg.epochs):
        order = list(range(len(samples)))
        SplitMix64.keyed(cfg.seed, "sgd", epoch).shuffle(order)
        for i in order:
            (child_cols, child_vals), (parent_cols, parent_vals), y = samples[i]
            dot = _dot(values, chain(child_cols, parent_cols), chain(child_vals, parent_vals))
            z = scale * dot + bias
            grad = _sigmoid(z) - y
            lr = lr0 / (1.0 + cfg.l2_lambda * lr0 * step)
            scale *= max(0.0, 1.0 - lr * cfg.l2_lambda)
            if scale < 1e-9:
                values = {c: v * scale for c, v in values.items()}
                scale = 1.0
            # values[c] = values.get(c, 0.0) - (lr * grad) * v / scale for each
            # entry; no column repeats within a sample, so one update per half
            # reads the same old values a loop over the entries would.
            g = lr * grad
            for cols, vals in ((child_cols, child_vals), (parent_cols, parent_vals)):
                steps = map(truediv, map(mul, repeat(g), vals), repeat(scale))
                values.update(zip(cols, map(sub, map(values.get, cols, repeat(0.0)), steps)))
            bias -= g
            step += 1

    weights = {c: scale * v for c, v in values.items() if scale * v != 0.0}
    return weights, bias


def reference_model_text(model):
    """A model file's text as one `json.dumps` call over the whole model,
    each weight vector as the base64 of its V little-endian doubles, packed
    by `struct`, one vector at a time: not the pieces `classifier.save_model`
    writes. `save_model` must write these bytes."""
    data = model.to_dict()
    data["weights"] = [
        base64.b64encode(struct.pack("<%dd" % len(ws), *ws)).decode("ascii")
        for ws in data["weights"]
    ]
    return json.dumps(data, ensure_ascii=False) + "\n"


# The loaders as they read before they took a file whole: one line at a
# time, each line's format checked as it is reached and each row's rules as
# the row is used, so the first faulty line of a file is the one named,
# whether its fault is of format or of rule. Each returns plain values: the
# network as (id -> (kind, title), child -> parents), the links as a sorted
# pair list, the taxonomy as (child, parent) -> (score, provenance), the gold
# as (sampled ids, (child, parent) -> label); and the warnings it printed.


def reference_rows(path, *n_cols):
    """(line number, columns) for each LF-ended line of a UTF-8 file."""
    from taxonet.errors import MalformedRow

    expected = " or ".join(map(str, n_cols))
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\n")
            except UnicodeDecodeError:
                raise MalformedRow(path, line_no, "invalid UTF-8") from None
            if line.endswith("\r"):
                raise MalformedRow(path, line_no, "line ends in CR; files must use LF line ends")
            if line_no == 1 and line.startswith("\ufeff"):
                raise MalformedRow(path, line_no, "file starts with a UTF-8 byte order mark")
            cols = line.split("\t")
            if len(cols) not in n_cols or "" in cols:
                raise MalformedRow(path, line_no, f"expected {expected} nonempty columns, got {line!r}")
            yield line_no, cols


def _row_fault(path, line_no, reason):
    from taxonet.errors import MalformedRow

    raise MalformedRow(path, line_no, reason)


def reference_load_wcn(nodes_path, edges_path):
    nodes = {}
    for line_no, (node_id, kind, title) in reference_rows(nodes_path, 3):
        if kind not in ("entity", "category"):
            _row_fault(nodes_path, line_no, f"unknown node kind {kind!r}")
        if node_id in nodes:
            _row_fault(nodes_path, line_no, f"duplicate node id: {node_id!r}")
        if not title.strip():
            _row_fault(nodes_path, line_no, f"empty title for node {node_id!r}")
        nodes[node_id] = (kind, title)
    parents, warnings = {}, []
    for line_no, (child, parent) in reference_rows(edges_path, 2):
        if child == parent:
            _row_fault(edges_path, line_no, f"self-loop on node: {child!r}")
        if child not in nodes or parent not in nodes:
            _row_fault(edges_path, line_no,
                       f"edge references unknown node: {child!r} -> {parent!r}")
        if nodes[parent][0] == "entity":
            detail = f"{nodes[child][0]}->entity"
            _row_fault(edges_path, line_no,
                       f"forbidden edge kind ({detail}): {child!r} -> {parent!r}")
        stored = parents.setdefault(child, [])
        if parent in stored:
            warnings.append(f"duplicate edge dropped: {child} -> {parent}")
        else:
            stored.append(parent)
    return (nodes, parents), warnings


def reference_load_interlang(path):
    to_source, to_target = {}, {}
    for line_no, (target, source) in reference_rows(path, 2):
        for node, seen in ((target, to_source), (source, to_target)):
            if node in seen:
                _row_fault(path, line_no,
                           f"node appears in more than one interlanguage link: {node!r}")
        to_source[target], to_target[source] = source, target
    return sorted(to_source.items()), []


def reference_load_taxonomy(path):
    best, warnings = {}, []
    for line_no, cols in reference_rows(path, 2, 3, 4):
        child, parent, score, provenance = cols + ["1.0", "projected"][len(cols) - 2:]
        try:
            # what `float` would forgive
            if "_" in score or score.strip() != score or not score.isascii():
                raise ValueError
            value = float(score)
        except ValueError:
            _row_fault(path, line_no, f"bad score {score!r}")
        if provenance not in ("projected", "induced"):
            _row_fault(path, line_no, f"bad provenance {provenance!r}")
        if not 0.0 <= value <= 1.0:
            _row_fault(path, line_no, f"edge score out of [0,1]: {value}")
        if (child, parent) in best:
            warnings.append(f"duplicate taxonomy edge {(child, parent)}, keeping max score")
            if value <= best[child, parent][0]:
                continue
        best[child, parent] = (value, provenance)
    return best, warnings


def reference_load_gold(edges_path, nodes_path):
    from taxonet.errors import MalformedFile

    sampled = frozenset(node for _, (node,) in reference_rows(nodes_path, 1))
    judgments = {}
    for line_no, (child, parent, label) in reference_rows(edges_path, 3):
        if label not in ("isa", "notisa"):
            _row_fault(edges_path, line_no, f"bad label {label!r}")
        judged = judgments.setdefault((child, parent), label)
        if judged != label:
            _row_fault(edges_path, line_no,
                       f"{child!r} -> {parent!r} judged {label!r} here, {judged!r} earlier")
    if not judgments:
        raise MalformedFile(edges_path, "no judged edges")
    for line_no, (child, _, _) in reference_rows(edges_path, 3):
        if child not in sampled:
            _row_fault(edges_path, line_no, f"judged edge child {child!r} not in sampled nodes")
    return (sampled, judgments), []
