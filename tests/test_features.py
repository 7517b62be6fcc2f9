import json
import math
import random
from array import array

import pytest
from hypothesis import assume, example, given, strategies as st

from taxonet import features
from taxonet.errors import TaxonetError
from taxonet.features import (
    FeatureMode,
    FeatureSpec,
    TfidfModel,
    char_ngrams,
    fit_tfidf,
    word_tokens,
)

from conftest import raises_error
from oracles import reference_char_ngrams, reference_vectorize_title

WORD = FeatureSpec(FeatureMode.WORD)
CHAR = FeatureSpec(FeatureMode.CHAR_NGRAM)


class TestWordTokens:
    def test_accented_title(self):
        assert dict(word_tokens("Entraîneur sportif américain")) == {
            "entraîneur": 1,
            "sportif": 1,
            "américain": 1,
        }

    def test_empty(self):
        assert not word_tokens("")

    def test_multiset_over_whitespace_runs(self):
        assert dict(word_tokens("a  b\tb")) == {"a": 1, "b": 2}


class TestCharNgrams:
    def test_crosses_word_boundary(self):
        grams = char_ngrams("sportif américain", CHAR)
        assert "tif am" in grams
        assert "if am" in grams

    def test_too_short(self):
        assert not char_ngrams("x", CHAR)

    def test_exhaustive_small(self):
        spec = FeatureSpec(FeatureMode.CHAR_NGRAM, ngram_sizes=frozenset({2, 3}))
        assert dict(char_ngrams("abcd", spec)) == {
            "ab": 1, "bc": 1, "cd": 1, "abc": 1, "bcd": 1,
        }

    def test_whitespace_collapse(self):
        assert char_ngrams("a \t b", CHAR) == char_ngrams("a b", CHAR)
        assert char_ngrams("  ab  ", CHAR) == char_ngrams("ab", CHAR)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            FeatureSpec(FeatureMode.CHAR_NGRAM, ngram_sizes=frozenset())
        with pytest.raises(ValueError):
            FeatureSpec(FeatureMode.CHAR_NGRAM, ngram_sizes=frozenset({0, 2}))

    @given(st.text(alphabet="ab é日\t ", max_size=30), st.sets(st.integers(1, 6), min_size=1))
    def test_counts_match_bruteforce(self, title, sizes):
        spec = FeatureSpec(FeatureMode.CHAR_NGRAM, ngram_sizes=frozenset(sizes))
        grams = char_ngrams(title, spec)
        text = " ".join(title.lower().split())
        assert sum(grams.values()) == sum(max(0, len(text) - n + 1) for n in sizes)
        for n in sizes:
            expected = [text[i : i + n] for i in range(len(text) - n + 1)]
            got = [g for g in grams.elements() if len(g) == n]
            assert sorted(got) == sorted(expected)


class TestFitTfidf:
    def test_hand_idf(self):
        model = fit_tfidf(["ab", "ab", "cd"], WORD)
        assert model.n_docs == 3
        assert model.df[model.vocabulary["ab"]] == 2
        assert model.df[model.vocabulary["cd"]] == 1
        assert abs(model.idf_of[model.df[model.vocabulary["ab"]]] - (math.log(4 / 3) + 1)) < 1e-12
        assert abs(model.idf_of[model.df[model.vocabulary["cd"]]] - (math.log(4 / 2) + 1)) < 1e-12

    def test_single_title_idf_is_one(self):
        model = fit_tfidf(["un seul titre"], WORD)
        assert all(abs(model.idf_of[d] - 1.0) < 1e-12 for d in model.df)

    def test_min_df_filters(self):
        with raises_error("no feature reached min_df=3 over 3 titles"):
            fit_tfidf(["ab", "ab", "cd"], WORD, min_df=3)
        model = fit_tfidf(["ab", "ab", "cd"], WORD, min_df=2)
        assert list(model.vocabulary) == ["ab"]

    @pytest.mark.parametrize("min_df", [0, -3])
    def test_min_df_below_one_rejected(self, min_df):
        # It used to keep every feature, as if it were 1.
        with pytest.raises(ValueError, match=f"min_df must be >= 1, got {min_df}"):
            fit_tfidf(["ab", "ab", "cd"], WORD, min_df=min_df)

    def test_empty_corpus(self):
        with raises_error("no feature reached min_df=1 over 0 titles"):
            fit_tfidf([], WORD)

    def test_columns_lexicographic(self):
        model = fit_tfidf(["zz yy xx"], WORD)
        assert list(model.vocabulary) == ["xx", "yy", "zz"]
        assert [model.vocabulary[f] for f in ("xx", "yy", "zz")] == [0, 1, 2]

    def test_vocabulary_built_on_first_use(self):
        # A model built from lines builds its vocabulary on the first read
        # and keeps it; one built from a vocabulary holds that dict itself.
        # `to_dict` writes the features as lines from either form, building nothing.
        model = TfidfModel(WORD, "ab\ncd", [2, 1], 2)
        assert model.to_dict()["features"] == "ab\ncd"
        vocabulary = model.vocabulary
        assert vocabulary == {"ab": 0, "cd": 1} and model.vocabulary is vocabulary
        assert model.to_dict()["features"] == "ab\ncd"
        vocabulary = {"ab": 0, "cd": 1}
        assert TfidfModel(WORD, vocabulary, [2, 1], 2).vocabulary is vocabulary

    def test_released_model_vectorizes_no_new_title(self, monkeypatch):
        # `release` caches the titles it is given, so no later read of them
        # vectorizes; the features are still listed in column order.
        model = fit_tfidf(["ab cd", "cd"], WORD)
        before = model.half("ab cd")
        model.release(["cd"])
        calls = []
        monkeypatch.setattr(features, "_vectorize", lambda *args: calls.append(args))
        assert model.half("ab cd") is before and entries(model, "cd") == ((1, 1.0),)
        assert calls == [] and model.n_features == 2
        assert list(model.features()) == ["ab", "cd"]
        empty = TfidfModel(WORD, {}, [], 0)
        empty.release([])
        assert list(empty.features()) == []

    @pytest.mark.parametrize("spec", [WORD, CHAR], ids=["word", "char"])
    def test_released_model_rebuilds_its_vocabulary(self, spec):
        # A title not cached before `release` is vectorized from a vocabulary
        # built again from the lines, to the half it would have had before.
        titles = ["ab cd", "cd ef", "ef gh ab"]
        kept, released = fit_tfidf(titles, spec), fit_tfidf(titles, spec)
        released.release(["ef gh ab"])
        for title in ("ab cd", "gh cd zz", "zz", "ef gh ab"):
            cols, vals, _ = released.half(title)
            expected_cols, expected_vals, _ = kept.half(title)
            assert (cols, vals.tobytes()) == (expected_cols, expected_vals.tobytes())
        assert released.vocabulary == kept.vocabulary

    def test_order_insensitive(self):
        titles = [f"mot{i} truc{i % 3}" for i in range(20)]
        shuffled = titles[:]
        random.Random(5).shuffle(shuffled)
        a = fit_tfidf(titles, WORD)
        b = fit_tfidf(shuffled, WORD)
        assert a.vocabulary == b.vocabulary
        assert a.df == b.df
        assert a.idf_of == b.idf_of


def entries(model, title):
    """The title's cached half as (column, value) entries."""
    cols, vals, _ = model.half(title)
    return tuple(zip(cols, vals))


def edge_entries(model, child, parent):
    """An edge's [child | parent] vector as scoring reads it: the child's
    half, then the parent's half at columns offset by V."""
    offset = model.n_features
    return entries(model, child) + tuple((c + offset, v) for c, v in entries(model, parent))


class TestVectorize:
    def test_single_feature_unit(self):
        model = fit_tfidf(["solo"], WORD)
        assert entries(model, "solo") == ((0, 1.0),)
        assert entries(model, "solo") == reference_vectorize_title(model, "solo")

    def test_proportional_and_normalized(self):
        model = fit_tfidf(["ab", "ab", "cd"], WORD)
        vec = entries(model, "ab ab cd")
        idf_ab = model.idf_of[model.df[model.vocabulary["ab"]]]
        idf_cd = model.idf_of[model.df[model.vocabulary["cd"]]]
        raw = {model.vocabulary["ab"]: 2 * idf_ab, model.vocabulary["cd"]: 1 * idf_cd}
        norm = math.sqrt(sum(v * v for v in raw.values()))
        for col, value in vec:
            assert abs(value - raw[col] / norm) < 1e-12
        assert abs(math.sqrt(sum(v * v for _, v in vec)) - 1.0) < 1e-9
        assert vec == reference_vectorize_title(model, "ab ab cd")

    def test_oov_zero_vector(self):
        model = fit_tfidf(["ab"], WORD)
        cols, vals, _ = model.half("zz qq")
        assert cols == () and vals == array("d")
        assert reference_vectorize_title(model, "zz qq") == ()

    def test_edge_halves(self):
        model = fit_tfidf(["ab", "cd"], WORD)
        v = edge_entries(model, "zz", "ab")
        assert v and all(col >= model.n_features for col, _ in v)
        v = edge_entries(model, "ab", "ab")
        lower = [(c, x) for c, x in v if c < model.n_features]
        upper = [(c - model.n_features, x) for c, x in v if c >= model.n_features]
        assert lower == upper

    def test_edge_composes_from_halves(self):
        model = fit_tfidf(["Auguste", "Empereur romain", "Empereur"], CHAR)
        edge = edge_entries(model, "Auguste", "Empereur romain")
        child = reference_vectorize_title(model, "Auguste")
        parent = reference_vectorize_title(model, "Empereur romain")
        assert edge == child + tuple((c + model.n_features, v) for c, v in parent)

    def test_half_norms(self):
        model = fit_tfidf(["aa bb", "cc dd"], WORD)
        v = edge_entries(model, "aa cc", "dd")
        lower = math.sqrt(sum(x * x for c, x in v if c < model.n_features))
        upper = math.sqrt(sum(x * x for c, x in v if c >= model.n_features))
        assert abs(lower - 1.0) < 1e-9 and abs(upper - 1.0) < 1e-9

    def test_cached_half_equals_fresh_vector(self):
        model = fit_tfidf(["Auguste", "Empereur romain", "Empereur"], CHAR)
        columns = list(range(model.n_features))
        for title in ("Empereur romain", "Auguste", "zz", "Empereur romain"):
            cols, vals, gather = model.half(title)
            assert tuple(zip(cols, vals)) == reference_vectorize_title(model, title)
            assert gather(columns) == cols
        assert model.half("Auguste") is model.half("Auguste")

    def test_half_cache_is_per_model(self):
        title = "Empereur romain"
        small = fit_tfidf([title], CHAR)
        large = fit_tfidf(["Roma", "Empereur", "romain"], CHAR)
        small.half(title)
        for model in (large, small):
            assert entries(model, title) == reference_vectorize_title(model, title)
        assert small.half(title)[:2] != large.half(title)[:2]

    def test_entries_strictly_increasing(self):
        model = fit_tfidf(["aa bb cc"], WORD)
        v = edge_entries(model, "cc aa", "bb aa")
        cols = [c for c, _ in v]
        assert cols == sorted(cols) and len(cols) == len(set(cols))


# Any Unicode text, or text heavy in whitespace runs and in characters whose
# lowercase is longer than themselves ("İ" lowercases to two code points).
TITLES = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="aB é日İ\t\n\u00a0\u3000", max_size=30),
)
SIZES = st.sets(st.integers(1, 8), min_size=1)
SPECS = st.one_of(
    st.just(WORD),
    st.builds(FeatureSpec, st.just(FeatureMode.CHAR_NGRAM), SIZES.map(frozenset)),
)


def hexes(entries):
    return [(c, v.hex()) for c, v in entries]


class TestAgainstReference:
    """The library's featurization equals the loops it replaced, kept in
    `tests/oracles.py`: the same n-grams in the same order, and the same
    title vectors to the last bit."""

    @given(TITLES, SIZES)
    @example("ab", {3, 5})  # shorter than every size
    @example("  a \t\n b  ", {1, 2, 3})
    def test_char_ngrams_in_reference_order(self, title, sizes):
        spec = FeatureSpec(FeatureMode.CHAR_NGRAM, frozenset(sizes))
        expected = reference_char_ngrams(title, spec)
        assert list(char_ngrams(title, spec).items()) == list(expected.items())

    @given(st.lists(TITLES, min_size=1, max_size=6), st.lists(TITLES, max_size=4), SPECS)
    def test_half_equals_reference(self, corpus, others, spec):
        try:
            model = fit_tfidf(corpus, spec)
        except TaxonetError as exc:
            if not str(exc).startswith("no feature reached min_df"):
                raise
            assume(False)
        for title in corpus + others:
            expected = hexes(reference_vectorize_title(model, title))
            assert hexes(entries(model, title)) == expected

    @pytest.mark.parametrize("spec, corpus, title, n_cols", [
        (FeatureSpec(FeatureMode.CHAR_NGRAM, frozenset({2})), ["ab", "cd ef"], "x", 0),
        (FeatureSpec(FeatureMode.CHAR_NGRAM, frozenset({2})), ["ab", "cd ef"], "zz", 0),
        (FeatureSpec(FeatureMode.CHAR_NGRAM, frozenset({2})), ["ab", "cd ef"], "AB", 1),
        (CHAR, ["Entraîneur sportif", "sportif américain"], "sportif", 20),
        (WORD, ["aa bb", "cc"], "zz yy", 0),
        (WORD, ["aa bb", "cc"], "cc zz", 1),
        (WORD, ["aa bb", "cc"], "bb aa aa zz", 2),
    ])
    def test_half_edge_cases(self, spec, corpus, title, n_cols):
        model = fit_tfidf(corpus, spec)
        cols, vals, _ = model.half(title)
        assert len(cols) == n_cols
        assert hexes(zip(cols, vals)) == hexes(reference_vectorize_title(model, title))


def json_round_trip(model):
    """The model as a model file holds it, decoded again."""
    return json.loads(json.dumps(model.to_dict(), ensure_ascii=False))


def test_model_json_roundtrip():
    model = fit_tfidf(["Entraîneur sportif", "sportif américain"], CHAR, min_df=1)
    data = json_round_trip(model)
    assert data["spec"] == {"mode": "char", "ngram_sizes": [2, 3, 4, 5, 6], "lowercase": True}
    assert set(data) == {"spec", "n_docs", "features", "df"}  # no idf: it is computed
    assert data["features"] == "\n".join(sorted(model.vocabulary))
    again = TfidfModel.from_dict(data)
    assert again.vocabulary == model.vocabulary
    assert again.df == model.df
    assert again.idf_of == model.idf_of
    assert again.n_docs == model.n_docs
    assert again.spec == model.spec
    assert again.to_dict() == model.to_dict()


@pytest.mark.parametrize("features, message", [
    (["ab", "ef", "cd"], "'cd' follows 'ef' at column 2"),
    (["ab", "ab", "cd"], "'ab' follows 'ab' at column 1"),
])
def test_features_not_unique_and_ascending_rejected(features, message):
    # `fit_tfidf` assigns columns in ascending feature order, so a model
    # file whose features are in another order is damaged.
    data = json_round_trip(fit_tfidf(["ab cd ef"], WORD))
    data["features"] = "\n".join(features)
    with pytest.raises(ValueError, match=f"^features must be unique and ascending: {message}$"):
        TfidfModel.from_dict(data)


@pytest.mark.parametrize("lines, message", [
    ("aa\nbb\nab\ndd", "'ab' follows 'bb' at column 2"),
    ("aa\nbb\nbb\ndd", "'bb' follows 'bb' at column 2"),
    ("aa\nbb\ncc\ndd\nee\ncc", "'cc' follows 'ee' at column 5"),
])
def test_features_checked_across_block_borders(monkeypatch, lines, message):
    # With 4-character blocks, columns 0-1 and 2-3 are blocks of their own,
    # so each fault is one block's first line against the line before it,
    # or within a later block.
    monkeypatch.setattr(features, "_BLOCK", 4)
    assert list(features._line_blocks(lines))[:2] == [["aa", "bb"], lines.split("\n")[2:4]]
    data = {"spec": {"mode": "word", "ngram_sizes": None, "lowercase": True}, "n_docs": 1,
            "features": lines, "df": [1] * (lines.count("\n") + 1)}
    with pytest.raises(ValueError, match=f"^features must be unique and ascending: {message}$"):
        TfidfModel.from_dict(data)
    data["features"] = "\n".join(sorted(set(lines.split("\n"))))
    data["df"] = [1] * (data["features"].count("\n") + 1)
    assert list(TfidfModel.from_dict(data).features()) == sorted(set(lines.split("\n")))


@pytest.mark.parametrize("lines, n", [("a", 0), ("a\nb", 1), ("a", 2), ("a\nb\n", 2)])
def test_features_hold_one_line_per_df_entry(lines, n):
    data = {"spec": {"mode": "word", "ngram_sizes": None, "lowercase": True}, "n_docs": 1,
            "features": lines, "df": [1] * n}
    with pytest.raises(ValueError, match=f"^df has {n} entries for "):
        TfidfModel.from_dict(data)
    # `""` is no feature with no df entry, and one empty feature with one.
    for count in (0, 1):
        data.update(features="", df=[1] * count)
        assert list(TfidfModel.from_dict(data).features()) == [""] * count


@given(st.lists(TITLES, min_size=1, max_size=8), SPECS)
@example(["aa bb", "aa", "cc"], WORD)
def test_idf_per_feature(corpus, spec):
    """idf is ln((1 + N) / (1 + df)) + 1 for every feature, fitted or loaded,
    computed once per distinct df: features with equal df share one float."""
    try:
        fitted = fit_tfidf(corpus, spec)
    except TaxonetError as exc:
        if not str(exc).startswith("no feature reached min_df"):
            raise
        assume(False)
    for model in (fitted, TfidfModel.from_dict(json_round_trip(fitted))):
        expected = [(math.log((1 + model.n_docs) / (1 + d)) + 1.0).hex() for d in model.df]
        assert [model.idf_of[d].hex() for d in model.df] == expected
        assert len(set(id(model.idf_of[d]) for d in model.df)) == len(set(model.df))
        assert {d for d, idf in enumerate(model.idf_of) if idf is not None} == set(model.df)


# Explicit ids, so a case keeps its name when another is added or removed.
# They are the positional ids these cases had before; a new case takes a
# name that says what it breaks.
@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d["spec"].update(lowercase="no"), id="<lambda>0"),
    pytest.param(lambda d: d["spec"].update(lowercase=1), id="<lambda>1"),
    pytest.param(lambda d: d["spec"].update(ngram_sizes=[2, 3.5]), id="<lambda>2"),
    pytest.param(lambda d: d["spec"].update(ngram_sizes=[True, 3]), id="<lambda>3"),
    pytest.param(lambda d: d["spec"].update(ngram_sizes=[0, 3]), id="<lambda>4"),
    pytest.param(lambda d: d.update(n_docs=2.0), id="<lambda>5"),
    pytest.param(lambda d: d.update(n_docs="2"), id="<lambda>6"),
    # Titles are always lowercased, so a file that says otherwise is damaged.
    pytest.param(lambda d: d["spec"].update(lowercase=False), id="lowercase-false"),
])
def test_mistyped_spec_values_rejected(edit):
    data = json_round_trip(fit_tfidf(["Entraîneur sportif"], CHAR))
    edit(data)
    with pytest.raises((TypeError, ValueError)):
        TfidfModel.from_dict(data)
