"""Title featurization: word / character n-gram TFIDF.

Titles are always lowercased, in `_tokens`. Character n-grams are taken
over the whole normalized title (whitespace runs collapsed to one space),
so they deliberately cross word boundaries; that is where most of the
sub-word morphological signal for hypernym detection lives. Word features
are plain whitespace-delimited bags of tokens.

Each title's vector depends only on the title and its TFIDF model, and an
edge's vector is the child's vector beside the parent's: child entries
at columns [0, V), then parent entries at [V, 2V). `TfidfModel.half`
therefore vectorizes each title once per model and keeps the result as a
(columns, values, gather) triple, the per-title half that training,
validation and edge weighing read. `_vectorize` builds it in one pass
over the title's feature counts: TF x idf per in-vocabulary feature,
columns ascending, L2-normalized per title, so neither title's length
dominates the pair. The columns are a tuple of ints, the one the gather
holds; the values are an `array('d')`, 8 bytes per entry instead of a
boxed float each, and iterating it yields the same floats in the same
order. `gather(w)` is
`tuple(w[c] for c in columns)` in one C call (an `operator.itemgetter`),
so a linear model keeps its weights in two dense vectors of V floats, one
for the child's columns and one for the parent's, and reads a title's
weights on either side without a Python-level lookup per entry. SGD's
vectors are lists; a model's are `array('d')`, 8 bytes a weight (see
`classifier`). A column the model never touched holds `0.0`.
`char_ngrams` counts in one `Counter` call, sizes ascending, then by position,
and `_vectorize` counts columns the same way: one `Counter` over the
title's n-grams mapped to their columns, out-of-vocabulary ones dropped
after, so no count by n-gram string is built.

`TfidfModel.to_dict` is the `tfidf` object of a model file (see
`classifier`): the spec, `n_docs`, the features in column order as lines
of one string, and their document frequencies. idf is not stored;
`TfidfModel` computes it from `n_docs` and `df`, once per distinct df
value, into `idf_of`, a table indexed by df value, and keeps no idf per
column: `_vectorize` reads a column's idf as `idf_of[df[c]]`, so features
with equal df share one float.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, namedtuple
from enum import Enum
from itertools import chain, islice
from operator import ge, itemgetter, mul
from typing import Callable, Iterable, Iterator, Sequence

from .errors import TaxonetError

DEFAULT_NGRAM_SIZES = frozenset({2, 3, 4, 5, 6})

# A title's vector as (columns, values, gather), the values an `array('d')`;
# see `TfidfModel.half`.
Half = tuple[tuple[int, ...], array, Callable[[Sequence[float]], tuple]]


class FeatureMode(Enum):
    WORD = "word"
    CHAR_NGRAM = "char"


class FeatureSpec(namedtuple("FeatureSpec", "mode ngram_sizes", defaults=(DEFAULT_NGRAM_SIZES,))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mode is FeatureMode.CHAR_NGRAM:
            if not self.ngram_sizes or any(n < 1 for n in self.ngram_sizes):
                raise ValueError("ngram_sizes must be nonempty with sizes >= 1")
        return self


def _tokens(title: str) -> list[str]:
    """The lowercased title's whitespace-delimited tokens."""
    return title.lower().split()


def word_tokens(title: str) -> Counter:
    """Bag of whitespace-delimited tokens, lowercased."""
    return Counter(_tokens(title))


def char_ngrams(title: str, spec: FeatureSpec) -> Counter:
    """Bag of character n-grams over the normalized title.

    Normalization lowercases, collapses internal whitespace runs to one
    space and trims the ends, so a single space participates in n-grams
    that span word boundaries. Counting is per Unicode code point.
    """
    return Counter(_char_grams(title, spec))


def _char_grams(title: str, spec: FeatureSpec) -> list[str]:
    text = " ".join(_tokens(title))
    sizes = sorted(spec.ngram_sizes)
    return [text[i : i + n] for n in sizes for i in range(len(text) - n + 1)]


def _grams(title: str, spec: FeatureSpec) -> list[str]:
    """The title's features, each as often as it occurs, in counting order."""
    if spec.mode is FeatureMode.WORD:
        return _tokens(title)
    return _char_grams(title, spec)


class TfidfModel:
    """Vocabulary + smoothed idf weights fitted on a title corpus.

    Columns are assigned in lexicographic feature order, which makes the
    model independent of corpus order. `df` holds each column's document
    frequency and `idf_of` the idf of each df value. Columns and idf are
    fixed once the model is built, which is what lets `half` cache title
    vectors.

    A model holds its features, in column order, in one of two forms, and
    the constructor takes either:
    - lines: one string, a feature a line, which is also the form of a
      model file. The feature strings, their column ints and the dict
      take about 17 times as much (8.3 against 0.5 MiB for an
      82,415-feature model). `from_dict` keeps the file's string as the
      lines, so a model that is only loaded and saved, or loaded and
      checked as under `induce --uniform`, never holds more. `release`
      keeps them this way once the titles the model will score are
      cached, as `train` does before SGD, which reads no vocabulary.
    - the vocabulary, the feature->column dict that vectorizing reads,
      numbered 0 to V-1 in insertion order. `fit_tfidf` builds it at once,
      as training vectorizes next. From lines, the first read of
      `vocabulary` builds it and drops the lines: the first title a model
      vectorizes, or, when `weigh_edges` forks, the read right before the
      fork, so the child inherits it instead of building its own.
    No feature may hold a newline, as lines could not keep it (`_lines`);
    `fit_tfidf`'s never do, as `_tokens` splits at whitespace. In a loaded
    file a newline is the separator between two features, never a fault.
    """

    def __init__(self, spec: FeatureSpec, features: str | dict[str, int], df: list[int],
                 n_docs: int):
        self.spec = spec
        self._features = features  # the lines or the vocabulary
        self.df = df
        self.n_docs = n_docs
        # Indexed by df value, a list: it is read per vector entry, and a list
        # index is cheaper than a dict lookup. Values no feature has stay None.
        self.idf_of: list[float | None] = [None] * (max(df, default=0) + 1)
        for d in set(df):
            self.idf_of[d] = math.log((1 + n_docs) / (1 + d)) + 1.0
        self._halves: dict[str, Half] = {}

    @property
    def n_features(self) -> int:
        return len(self.df)

    @property
    def vocabulary(self) -> dict[str, int]:
        """Each feature's column; the first read from lines builds it and drops them."""
        if type(self._features) is str:
            self._features = dict(zip(self.features(), range(self.n_features)))
        return self._features

    def half(self, title: str) -> Half:
        """The title's vector as (columns, values, gather), cached per title.

        The cache lives as long as the model and keeps every title asked for.
        """
        half = self._halves.get(title)
        if half is None:
            cols, vals = _vectorize(self, title)
            half = self._halves[title] = (cols, vals, _gatherer(cols))
        return half

    def forget(self, title: str) -> None:
        """Drop the title's cached vector, if any; `half` builds it again."""
        self._halves.pop(title, None)

    def release(self, titles: Iterable[str]) -> None:
        """Cache the half of each of `titles`, then keep the features as
        lines and drop the vocabulary. ValueError, and nothing changes, if a
        feature holds a newline. The lines are joined before the titles are
        cached: joined after, they raised `train`'s peak by 0.4-0.8 MiB on
        worlds of 5K and 16K nodes."""
        lines = _lines(self.features(), self.n_features)
        for title in titles:
            self.half(title)
        self._features = lines

    def features(self) -> Iterator[str]:
        """The features in column order, one at a time."""
        if type(self._features) is dict:
            return iter(self._features)
        if not self.df:  # the lines of "" are [""]
            return iter(())
        return chain.from_iterable(_line_blocks(self._features))

    def to_dict(self) -> dict:
        """The `tfidf` object of a model file. `features` is the lines: the
        model's own, or joined from the vocabulary, which must then hold no
        feature with a newline (ValueError); no vocabulary is built."""
        sizes = sorted(self.spec.ngram_sizes) if self.spec.mode is FeatureMode.CHAR_NGRAM else None
        features = self._features
        if type(features) is dict:
            features = _lines(features, self.n_features)
        return {
            "spec": {
                "mode": self.spec.mode.value,
                "ngram_sizes": sizes,
                "lowercase": True,
            },
            "n_docs": self.n_docs,
            "features": features,
            "df": self.df,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TfidfModel":
        """Inverse of `to_dict`; raises TypeError or ValueError on a bad value.

        It accepts what `to_dict` writes and nothing else: a char-mode spec
        holds a nonempty list of integers >= 1 and a word-mode spec `null`,
        `lowercase` is `true`, `df` is a list of integers >= 1, none above
        `n_docs`, and `features` one string of as many lines, unique and
        ascending, the column order `fit_tfidf` assigns (with no feature,
        `""`). A newline there separates two features. The string becomes
        the model's lines as it is; its order is checked a block of lines at
        a time (`_line_blocks`), so it is never split whole.
        """
        raw_spec = data["spec"]
        mode = FeatureMode(raw_spec["mode"])
        sizes = raw_spec["ngram_sizes"]
        if mode is FeatureMode.WORD:
            if sizes is not None:
                raise ValueError(f"ngram_sizes must be null in word mode, got {sizes!r}")
            sizes = DEFAULT_NGRAM_SIZES
        elif not (isinstance(sizes, list) and all(_is_int(n) for n in sizes)):
            raise TypeError(f"ngram_sizes must be a list of integers, got {sizes!r}")
        if raw_spec["lowercase"] is not True:  # titles are always lowercased
            raise ValueError(f"lowercase must be true, got {raw_spec['lowercase']!r}")
        if not _is_int(data["n_docs"]):
            raise TypeError(f"n_docs must be an integer, got {data['n_docs']!r}")
        spec = FeatureSpec(mode=mode, ngram_sizes=frozenset(sizes))
        features, df = data["features"], data["df"]
        if type(features) is not str:
            raise TypeError("features must be a string, a feature a line")
        # A bulk type check: JSON decodes to exact types, and `bool` is not `int`.
        if not (type(df) is list and set(map(type, df)) <= {int}):
            raise TypeError("df must be a list of integers")
        n_lines = features.count("\n") + 1
        if n_lines != len(df) and (df or features):
            raise ValueError(f"df has {len(df)} entries for {n_lines} features")
        if min(df, default=1) < 1:
            raise ValueError(f"df must be >= 1, got {min(df)}")
        if max(df, default=0) > data["n_docs"]:
            raise ValueError(f"n_docs {data['n_docs']} is below the largest df, {max(df)}")
        _check_ascending(features)
        return cls(spec, features, df, data["n_docs"])


def _gatherer(cols: tuple[int, ...]) -> Callable[[Sequence[float]], tuple]:
    """`w -> tuple(w[c] for c in cols)`, one C call for two or more columns.

    `itemgetter` returns a bare item for one index and needs at least one,
    so those two cases take the generator instead.
    """
    if len(cols) > 1:
        return itemgetter(*cols)
    return lambda w: tuple(w[c] for c in cols)


def _is_int(value) -> bool:
    """A JSON integer; `bool` subclasses `int` but is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_json_types(defaults: dict, values: dict) -> None:
    """Raise TypeError unless each value has the JSON type of its default; an int is a number."""
    for key, value in values.items():
        kind = type(defaults[key])
        ok = type(value) is kind or (kind is float and _is_int(value))
        if not ok or (kind is list and not all(map(_is_int, value))):
            expected = {bool: "true or false", int: "an integer", float: "a number",
                        list: "a list of integers", str: "a string"}[kind]
            raise TypeError(f"config key {key!r} must be {expected}, got {value!r}")


def check_min_df(min_df: int) -> int:
    """A feature is kept when at least `min_df` titles hold it; below 1 is an error, not 1."""
    if min_df < 1:
        raise ValueError(f"min_df must be >= 1, got {min_df}")
    return min_df


def fit_tfidf(titles: list[str], spec: FeatureSpec, min_df: int = 1) -> TfidfModel:
    """Fit vocabulary and idf: idf(t) = ln((1 + N) / (1 + df(t))) + 1."""
    check_min_df(min_df)
    df_counts = Counter(chain.from_iterable(set(_grams(title, spec)) for title in titles))
    kept = sorted(f for f, d in df_counts.items() if d >= min_df)
    if not kept:
        raise TaxonetError(f"no feature reached min_df={min_df} over {len(titles)} titles")
    vocabulary = dict(zip(kept, range(len(kept))))
    return TfidfModel(spec, vocabulary, [df_counts[f] for f in kept], len(titles))


def _vectorize(model: TfidfModel, title: str) -> tuple[tuple[int, ...], array]:
    """The title's vector as (columns, values): TF x idf over its in-vocabulary
    features, columns ascending, L2-normalized; both empty if all are OOV."""
    df, idf_of = model.df, model.idf_of
    tf = Counter(map(model.vocabulary.get, _grams(title, model.spec)))
    tf.pop(None, None)  # the out-of-vocabulary features
    cols = tuple(sorted(tf))
    raw = [tf[c] * idf_of[df[c]] for c in cols]
    norm = math.sqrt(sum(map(mul, raw, raw)))
    return cols, array("d", [v / norm for v in raw])


def _lines(features: Iterable[str], n: int) -> str:
    """The `n` features as lines of one string; ValueError if one holds a newline."""
    lines = "\n".join(features)
    if lines.count("\n") > max(n - 1, 0):
        raise ValueError("a feature holds a newline, so the features cannot be kept as lines")
    return lines


def _check_ascending(lines: str) -> None:
    """ValueError unless the lines are unique and ascending (so each is
    there once), checked a block at a time, each block's first line against
    the line before it."""
    start, last = 0, None  # the block's first column, and the line before it
    for block in _line_blocks(lines):
        run, base = (block, 0) if last is None else ([last, *block], start - 1)
        if any(map(ge, run, islice(run, 1, None))):
            i = next(i for i in range(1, len(run)) if run[i - 1] >= run[i])
            raise ValueError(f"features must be unique and ascending: {run[i]!r} "
                             f"follows {run[i - 1]!r} at column {base + i}")
        start, last = start + len(block), block[-1]


# Characters, about, per block of a model's lines that is split at once.
_BLOCK = 1 << 14


def _line_blocks(text: str) -> Iterator[list[str]]:
    """The lines of `text`, one list of lines per block: each block ends at
    the first newline `_BLOCK` or more characters on, so no split holds
    more than a block's lines (about 2,600 n-grams)."""
    start = 0
    while (end := text.find("\n", start + _BLOCK)) >= 0:
        yield text[start:end].split("\n")
        start = end + 1
    yield text[start:].split("\n")
