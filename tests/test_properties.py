"""Property-based checks (hypothesis) for the pure kernels — no Ray."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from raysearch.hashing import doc_partition, splitmix64
from raysearch.score import accumulate_scores, query_term_weights, topk
from raysearch.tokenize import tokenize_column, tokenize_plain, tokenize_query

text_st = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200)


@given(st.lists(text_st, max_size=20))
@settings(max_examples=150, deadline=None)
def test_column_tokenizer_equals_python(texts):
    out = tokenize_column(pa.array(texts, pa.string())).to_pylist()
    assert out == [tokenize_plain(t) for t in texts]


@given(text_st)
@settings(max_examples=150, deadline=None)
def test_query_weights_consistent(q):
    toks = tokenize_query(q)
    w = dict(query_term_weights(q))
    assert sum(w.values()) == len(toks)
    assert set(w) == set(toks)
    assert list(w) == sorted(w)


@given(st.lists(st.integers(0, 2**62), min_size=1, max_size=500))
@settings(max_examples=100, deadline=None)
def test_partition_in_range_and_deterministic(ids):
    arr = np.array(ids, dtype=np.int64)
    for p in (1, 7, 64):
        d = doc_partition(arr, p)
        assert ((d >= 0) & (d < p)).all()
        assert np.array_equal(d, doc_partition(arr, p))


@given(st.lists(
    st.tuples(st.integers(0, 50), st.floats(0.001, 100.0)), max_size=200))
@settings(max_examples=100, deadline=None)
def test_accumulate_and_topk_total_order(pairs):
    if not pairs:
        return
    docs = np.array([p[0] for p in pairs], dtype=np.int64)
    contribs = np.array([p[1] for p in pairs], dtype=np.float64)
    order = np.argsort(docs, kind="stable")
    uniq, scores = accumulate_scores([(docs[order], contribs[order])])
    assert np.all(np.diff(uniq) > 0)
    assert np.isclose(scores.sum(), contribs.sum())
    d, s = topk(uniq, scores, 10)
    for i in range(1, len(d)):
        assert s[i - 1] > s[i] or (s[i - 1] == s[i] and d[i - 1] < d[i])
