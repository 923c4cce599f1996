"""End-to-end rank-identity: Ray-built index + distributed scorer must
equal the single-process oracle EXACTLY (same doc_ids, same ranks,
bit-identical float scores) in both scoring modes — the engine and
oracle share the scoring kernels and the term-major accumulation order
(raysearch/score.py), so no tolerance is needed (SURVEY §7.5)."""

import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from raysearch.build import build_index
from raysearch.config import IndexConfig
from raysearch.corpus import QUERIES
from raysearch.oracle import Oracle
from raysearch.query import query_index
from raysearch.score import SIMILARITIES
from raysearch.segments import (
    decode_posting_row,
    part_dirname,
    read_doclens,
    read_postings,
)


@pytest.fixture(scope="module")
def built_t2(ray_session, medium_corpus, tmp_path_factory):
    import ray.data

    idx = str(tmp_path_factory.mktemp("idx") / "t2")
    res = build_index(ray.data.from_arrow(medium_corpus), idx,
                      IndexConfig(num_parts=8), input_id="t2")
    return idx, res


def test_stats_match_oracle(built_t2, medium_corpus):
    idx, res = built_t2
    o = Oracle(medium_corpus)
    assert res.stats["n_docs"] == o.n_docs
    assert res.stats["total_tokens"] == o.total_tokens
    assert abs(res.stats["avgdl"] - o.avgdl) < 1e-12
    assert res.stats["vocab_size"] == len(o.postings)


@pytest.mark.parametrize("mode", sorted(SIMILARITIES))
def test_rank_identity(built_t2, medium_corpus, mode):
    idx, _ = built_t2
    out = query_index(idx, QUERIES, k=10, mode=mode)
    golden = Oracle(medium_corpus).search_all(QUERIES, k=10, mode=mode)
    assert out.equals(golden)  # bit-identical incl. float scores


def test_sha256_invariant(built_t2, medium_corpus):
    """Per-row invariant (BASELINE.json input_hint): every doc surviving
    in the engine's doclens tables carries sha256(content) equal to the
    input table's."""
    import hashlib

    idx, res = built_t2
    expected = {
        d: hashlib.sha256(c.encode()).hexdigest()
        for d, c in zip(medium_corpus["doc_id"].to_pylist(),
                        medium_corpus["content"].to_pylist())}
    seen = {}
    for part in res.stats["parts"]:
        t = read_doclens(part_dirname(idx, part))
        for d, s in zip(t["doc_id"].to_pylist(), t["sha"].to_pylist()):
            seen[d] = s
    assert seen == expected


def test_postings_sorted_and_consistent(built_t2, medium_corpus):
    idx, res = built_t2
    o = Oracle(medium_corpus)
    df_seen: dict[str, int] = {}
    for part in res.stats["parts"]:
        t = read_postings(part_dirname(idx, part))
        terms = t["term"].to_pylist()
        assert terms == sorted(terms)
        for i, term in enumerate(terms):
            docs, tfs, dls = decode_posting_row(t, i)
            assert np.all(np.diff(docs) > 0)  # strictly ascending
            assert len(docs) == t["df"][i].as_py()
            assert tfs.sum() == t["cf"][i].as_py()
            df_seen[term] = df_seen.get(term, 0) + len(docs)
            # every entry matches the oracle's posting for that term
            od, of, ol = o._np_postings[term]
            sel = np.searchsorted(od, docs)
            assert np.array_equal(od[sel], docs)
            assert np.array_equal(of[sel], tfs)
            assert np.array_equal(ol[sel], dls)
    assert df_seen == o.df


def test_precision_at_10_engine(ray_session, small_corpus, tmp_path):
    """Mirror of the reference accuracy harness
    (/root/reference/src/bin/test.rs:122-137): top-10 for query q must
    all carry label q on the t1 corpus."""
    import ray.data

    idx = str(tmp_path / "t1")
    build_index(ray.data.from_arrow(small_corpus), idx,
                IndexConfig(num_parts=4), input_id="t1")
    out = query_index(idx, QUERIES, k=10, mode="bm25")
    paths = dict(zip(small_corpus["doc_id"].to_pylist(),
                     small_corpus["path"].to_pylist()))
    for qid, did in zip(out["query_id"].to_pylist(),
                        out["doc_id"].to_pylist()):
        label = int(paths[did].split("/")[1][1:])
        assert label == qid + 1


def test_lexicon_global_df(built_t2, medium_corpus):
    import pyarrow.dataset as pads
    import os

    idx, _ = built_t2
    o = Oracle(medium_corpus)
    lex = pads.dataset(os.path.join(idx, "lexicon")).to_table()
    got = dict(zip(lex["term"].to_pylist(), lex["df"].to_pylist()))
    assert got == o.df


def test_merge_candidates_matches_per_query_sort():
    """The one-lexsort merge equals the plain per-query reference:
    sort each query's candidates by (-score, doc_id), keep k."""
    import pandas as pd

    from raysearch.query import merge_candidates

    rng = np.random.default_rng(7)
    n_q, k = 5, 4
    cand = pd.DataFrame({
        "query_id": rng.integers(0, n_q, 300),
        "rank": np.ones(300, np.int32),
        "doc_id": rng.permutation(300),
        "score": rng.integers(0, 6, 300) / 2.0,  # many ties
    })
    want = []
    for q in range(n_q):
        rows = sorted((-s, d) for d, s in zip(
            cand.doc_id[cand.query_id == q], cand.score[cand.query_id == q]))
        want += [(q, r, d, -s) for r, (s, d) in enumerate(rows[:k], 1)]
    got = merge_candidates(cand, n_q, k)
    assert list(zip(*got.to_pydict().values())) == want
    assert merge_candidates(pd.DataFrame(), n_q, k).num_rows == 0
