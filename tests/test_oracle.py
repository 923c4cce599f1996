"""Oracle sanity: labeled precision@10 == 1.0 on the t1 corpus (mirror
of the reference's accuracy metric, /root/reference/src/bin/test.rs:122-137),
plus internal consistency of stats and both scoring modes."""

import numpy as np
import pytest

from raysearch.corpus import QUERIES, generate_corpus
from raysearch.oracle import Oracle
from raysearch.tokenize import tokenize_doc


def _label_of(corpus, doc_id):
    idx = corpus["doc_id"].to_pylist().index(doc_id)
    path = corpus["path"].to_pylist()[idx]
    return int(path.split("/")[1][1:])  # src/q{q}/...


def test_precision_at_10_is_1(small_corpus):
    o = Oracle(small_corpus)
    for qid, q in enumerate(QUERIES):
        for mode in ("bm25", "overlap"):
            hits = o.search(q, k=10, mode=mode)
            assert len(hits) == 10
            labels = [_label_of(small_corpus, d) for d, _ in hits]
            assert labels == [qid + 1] * 10, (q, mode, labels)


def test_stats_consistency(small_corpus):
    o = Oracle(small_corpus)
    n = small_corpus.num_rows
    assert o.n_docs == n
    total = sum(len(tokenize_doc(c, l)) for c, l in
                zip(small_corpus["content"].to_pylist(),
                    small_corpus["lang"].to_pylist()))
    assert o.total_tokens == total
    assert abs(o.avgdl - total / n) < 1e-12
    # df == posting lengths, postings ascending by doc_id
    for t, (d, f, l) in o._np_postings.items():
        assert o.df[t] == len(d)
        assert np.all(np.diff(d) > 0)
        assert len(d) == len(f) == len(l)


def test_overlap_scores_are_integers(small_corpus):
    o = Oracle(small_corpus)
    for d, s in o.search(QUERIES[0], k=10, mode="overlap"):
        assert float(s) == int(s) and s > 0


def test_deterministic_tie_break():
    corpus = generate_corpus(60, seed=3, labeled=True)
    o = Oracle(corpus)
    a = o.search(QUERIES[2], k=10, mode="overlap")
    b = o.search(QUERIES[2], k=10, mode="overlap")
    assert a == b
    # ties ordered by ascending doc_id
    for (d1, s1), (d2, s2) in zip(a, a[1:]):
        assert s1 > s2 or (s1 == s2 and d1 < d2)


def test_unknown_mode_rejected(small_corpus):
    from raysearch.score import SIMILARITIES, score_postings

    o = Oracle(small_corpus)
    with pytest.raises(ValueError, match="bm52") as e:
        o.search(QUERIES[0], mode="bm52")
    assert str(sorted(SIMILARITIES)) in str(e.value)
    args = ([("hash", 1)], o._np_postings.get, o.df, o.n_docs, o.avgdl,
            1.2, 0.75)
    with pytest.raises(ValueError, match="bm52"):
        score_postings(*args, mode="bm52")
    # a cf-dependent mode refuses to score without the cf broadcast
    with pytest.raises(ValueError, match="cf"):
        score_postings(*args, mode="jm")
