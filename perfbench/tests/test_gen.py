"""The generator is a pure function of (seed, size)."""

import os

import numpy as np

from perfbench import gen


def _tree_bytes(root):
    out = {}
    for d, _, fs in os.walk(root):
        for f in fs:
            p = os.path.join(d, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    a = gen.ensure_inputs(str(tmp_path / "a"), 7, 400)
    b = gen.ensure_inputs(str(tmp_path / "b"), 7, 400)
    ta, tb = _tree_bytes(a["dir"]), _tree_bytes(b["dir"])
    assert ta and ta == tb
    assert a["streams"] == b["streams"]


def test_cache_hit_returns_the_same_inputs(tmp_path):
    first = gen.ensure_inputs(str(tmp_path), 3, 300)
    before = _tree_bytes(first["dir"])
    again = gen.ensure_inputs(str(tmp_path), 3, 300)
    assert again["streams"] == first["streams"]
    assert _tree_bytes(again["dir"]) == before


def test_other_seed_gives_other_inputs(tmp_path):
    a = gen.ensure_inputs(str(tmp_path), 1, 300)
    b = gen.ensure_inputs(str(tmp_path), 2, 300)
    assert _tree_bytes(a["dir"]) != _tree_bytes(b["dir"])


def test_tiers_follow_document_frequency():
    _, df = gen.generate_corpus(5, 2000)
    vocab = {t: i for i, t in enumerate(gen.vocabulary())}
    pools = gen.tier_terms(df)
    hot = [df[vocab[t]] for t in pools["hot"]]
    mid = [df[vocab[t]] for t in pools["mid"]]
    rare = [df[vocab[t]] for t in pools["rare"]]
    assert len(hot) == gen.HOT_TERMS
    assert min(hot) >= max(mid) >= min(mid) >= max(rare)
    assert gen.RARE_DF[0] <= min(rare) and max(rare) <= gen.RARE_DF[1]


def test_vocabulary_terms_are_query_tokens():
    from raysearch.tokenize import tokenize_query

    v = gen.vocabulary()
    assert len(set(v)) == len(v) == gen.VOCAB_SIZE
    for t in v[:: 997]:
        assert tokenize_query(t) == [t]


def test_document_lengths_and_languages():
    table, _ = gen.generate_corpus(9, 3000)
    from raysearch.tokenize import tokenize_doc

    lens = [len(tokenize_doc(c, lang)) for c, lang in zip(
        table["content"].to_pylist(), table["lang"].to_pylist())]
    # json docs carry one extra key token
    assert abs(np.median(lens) - gen.MEDIAN_TOKENS) < 0.1 * gen.MEDIAN_TOKENS
    assert set(table["lang"].to_pylist()) == set(gen.LANGS)
