"""MaxScore pruning must be EXACT: pruned top-k == full-evaluation
top-k, bit-identical scores, on every fixture corpus and both modes."""

import numpy as np
import pytest

from raysearch.corpus import QUERIES, generate_corpus
from raysearch.oracle import Oracle
from raysearch.score import query_term_weights, topk
from raysearch.wand import pruned_topk, term_upper_bound


def _full_topk(oracle, query, k, mode):
    return oracle.search(query, k=k, mode=mode)


@pytest.mark.parametrize("mode", ["bm25", "overlap"])
@pytest.mark.parametrize("seed", [42, 7])
def test_pruned_equals_full(mode, seed):
    corpus = generate_corpus(300, seed=seed)
    o = Oracle(corpus)
    max_tfs = {t: int(p[1].max()) for t, p in o._np_postings.items()}
    for q in QUERIES:
        full = _full_topk(o, q, 10, mode)
        d, s = pruned_topk(query_term_weights(q), o._np_postings, max_tfs,
                           o.df, o.n_docs, o.avgdl, o.config.k1,
                           o.config.b, 10, mode)
        assert list(zip(d.tolist(), s.tolist())) == full


def test_pruning_actually_prunes():
    """On a skewed corpus with one rare high-idf term per query, the
    non-essential set must be non-empty for at least one query (the
    hot terms' bounds fall below theta)."""
    corpus = generate_corpus(500, seed=42)
    o = Oracle(corpus)
    from raysearch.score import bm25_idf

    q = "import return def parser ast"  # hot code tokens + rare vocab
    qw = query_term_weights(q)
    present = [(t, w) for t, w in qw if t in o._np_postings]
    bounds = {
        t: term_upper_bound(w, bm25_idf(o.df[t], o.n_docs),
                            o.config.k1, "bm25", 0)
        for t, w in present}
    # hot terms ('the' absent; common code tokens present everywhere)
    # must have far lower bounds than the rare query vocabulary
    assert max(bounds.values()) > 3 * min(bounds.values())


def test_block_max_candidates_prune_and_stay_exact(monkeypatch):
    """Block bounds over DECODED arrays must shrink the work on a
    hot+rare query (the rare term seeds theta far above the hot term's
    block bounds) while the final top-k stays equal to full
    evaluation. The entries pruned_topk gathers are counted through
    its DecodedPostings view."""
    from raysearch import wand

    views = []

    class CountingView(wand.DecodedPostings):
        def __init__(self, *a):
            super().__init__(*a)
            views.append(self)

    monkeypatch.setattr(wand, "DecodedPostings", CountingView)
    o = Oracle(_longposting_corpus())
    max_tfs = {t: int(p[1].max()) for t, p in o._np_postings.items()}
    q = "needle common"
    d, s = pruned_topk(query_term_weights(q), o._np_postings, max_tfs,
                       o.df, o.n_docs, o.avgdl, o.config.k1, o.config.b,
                       10, "bm25")
    assert list(zip(d.tolist(), s.tolist())) == o.search(q, k=10,
                                                        mode="bm25")
    assert len(d) == 10 and len(views) == 1
    total = o.df["needle"] + o.df["common"]
    assert views[0].decoded_entries < total / 2, (views[0].decoded_entries,
                                                  total)


def test_batch_shares_one_decoded_view(monkeypatch):
    """A pruned query batch over one part builds ONE DecodedPostings,
    so each term's block metadata is computed once for the batch, and
    its top-k equals per-query pruned_topk bit for bit."""
    from raysearch import query

    views, metas = [], []

    class CountingView(query.DecodedPostings):
        def __init__(self, *a):
            super().__init__(*a)
            views.append(self)

        def _block_meta(self, t):
            metas.append(t)
            return super()._block_meta(t)

    o = Oracle(generate_corpus(300, seed=42))
    max_tfs = {t: int(p[1].max()) for t, p in o._np_postings.items()}
    qws = [query_term_weights(q) for q in QUERIES]
    args = (o.df, o.n_docs, o.avgdl, o.config.k1, o.config.b, 10)
    for mode in ("bm25", "overlap"):
        want = query.topk_table([
            pruned_topk(qw, o._np_postings, max_tfs, *args, mode)
            for qw in qws])
        views.clear()
        metas.clear()
        monkeypatch.setattr(query, "DecodedPostings", CountingView)
        got = query.score_queries_over_postings(
            qws, o._np_postings, max_tfs, *args, mode, prune=True)
        monkeypatch.undo()
        assert got.equals(want), mode
        assert len(views) == 1
        assert metas and len(metas) == len(set(metas))


def test_query_index_prune_matches(ray_session, small_corpus, tmp_path):
    import ray.data

    from raysearch.build import build_index
    from raysearch.config import IndexConfig
    from raysearch.query import query_index

    idx = str(tmp_path / "pidx")
    build_index(ray.data.from_arrow(small_corpus), idx,
                IndexConfig(num_parts=4), input_id="t1")
    a = query_index(idx, QUERIES, k=10, mode="bm25", prune=False)
    b = query_index(idx, QUERIES, k=10, mode="bm25", prune=True)
    assert a.equals(b)


def _longposting_corpus(n_docs=20_000, seed=11):
    """Synthetic long-posting corpus: 'common' posts in EVERY doc
    (tf 1-3), 'needle' in 60 docs with high tf — the classic MaxScore
    skip shape (rare high-impact term seeds theta far above the hot
    term's block bounds)."""
    import pyarrow as pa

    rng = np.random.default_rng(seed)
    texts = []
    needle_docs = set(rng.choice(n_docs, 60, replace=False).tolist())
    for i in range(n_docs):
        toks = ["common"] * int(rng.integers(1, 4))
        toks += [f"filler{rng.integers(0, 5000)}" for _ in range(6)]
        if i in needle_docs:
            toks += ["needle"] * 8
        texts.append(" ".join(toks))
    return pa.table({
        "doc_id": pa.array(list(range(n_docs)), pa.int64()),
        "content": pa.array(texts, pa.large_string()),
        "content_type": pa.array(["text/plain"] * n_docs),
    })


def test_blockmax_skips_decode_and_stays_exact(ray_session, tmp_path):
    """Stored block-max path: bit-identical top-k to full evaluation
    while VALUE-decoding a small fraction of the hot term's postings
    (the round-4 item-8 'skip whole blocks' contract)."""
    import ray.data

    from raysearch.build import build_index
    from raysearch.config import IndexConfig
    from raysearch.query import query_index
    from raysearch.segments import (SCORER_COLUMNS_BMW, part_dirname,
                                    read_postings)
    from raysearch.stats import load_stats
    from raysearch.wand import LazyPostings, pruned_topk_blockmax

    corpus = _longposting_corpus()
    idx = str(tmp_path / "bmx")
    build_index(ray.data.from_arrow(corpus), idx,
                IndexConfig(num_parts=2), input_id="lp")
    q = "needle common"
    a = query_index(idx, [q], k=10, mode="bm25", prune=False)
    b = query_index(idx, [q], k=10, mode="bm25", prune=True)
    assert a.equals(b) and a.num_rows == 10

    # drive the segment kernel directly to read the skip counter
    st = load_stats(idx)
    qw = query_term_weights(q)
    terms = sorted({t for t, _ in qw})
    from raysearch.query import lexicon_df

    df = lexicon_df(idx, terms)
    total_df = decoded = 0
    for part in st["parts"]:
        tbl = read_postings(part_dirname(idx, part), terms,
                            columns=SCORER_COLUMNS_BMW)
        lazy = LazyPostings(tbl)
        d, s = pruned_topk_blockmax(qw, lazy, df, st["n_docs"],
                                    st["avgdl"], st["config"]["k1"],
                                    st["config"]["b"], 10, "bm25")
        assert len(d) == 10
        total_df += int(tbl["df"].to_pandas().sum())
        decoded += lazy.decoded_entries
    # 'common' has df == n_docs; the needle-seeded theta must keep
    # most of its blocks undecoded
    assert decoded < total_df / 3, (decoded, total_df)


def test_blockmax_handles_all_essential(ray_session, tmp_path):
    """Two balanced terms (nothing non-essential): the sweep keeps
    every region alive and the path degrades to full decode with the
    same exact result."""
    import ray.data

    from raysearch.build import build_index
    from raysearch.config import IndexConfig
    from raysearch.query import query_index

    corpus = generate_corpus(400, seed=3)
    idx = str(tmp_path / "bal")
    build_index(ray.data.from_arrow(corpus), idx,
                IndexConfig(num_parts=3), input_id="bal")
    for q in QUERIES:
        a = query_index(idx, [q], k=10, mode="bm25", prune=False)
        b = query_index(idx, [q], k=10, mode="bm25", prune=True)
        assert a.equals(b), q
        c = query_index(idx, [q], k=10, mode="overlap", prune=False)
        d = query_index(idx, [q], k=10, mode="overlap", prune=True)
        assert c.equals(d), q


def test_decoded_pruner_paths_match_full(ray_session, medium_corpus,
                                         tmp_path):
    """The decoded-array pruner paths — keep-filtered and
    tombstone-filtered one-shot scoring, and the resident actors — give
    the same table with prune=True as with prune=False."""
    import ray.data

    from raysearch.build import build_index
    from raysearch.config import IndexConfig
    from raysearch.maintenance import delete_docs
    from raysearch.query import query_index
    from raysearch.serve import QuerySession

    idx = str(tmp_path / "dec")
    build_index(ray.data.from_arrow(medium_corpus), idx,
                IndexConfig(num_parts=2), input_id="dec")
    qs = QUERIES + ["import parser ast grammar syntax",
                    "import return def parser ast"]
    keep = np.arange(0, medium_corpus.num_rows, 3)
    with QuerySession(idx, num_actors=2) as s:
        for mode in ("bm25", "overlap"):
            want = query_index(idx, qs, k=10, mode=mode)
            assert want.num_rows
            assert s.query_batch(qs, k=10, mode=mode, prune=True).equals(want)
            a = query_index(idx, qs, k=10, mode=mode, keep=keep)
            b = query_index(idx, qs, k=10, mode=mode, keep=keep, prune=True)
            assert a.num_rows and a.equals(b), mode
    delete_docs(idx, range(1, medium_corpus.num_rows, 2))
    for mode in ("bm25", "overlap"):
        a = query_index(idx, qs, k=10, mode=mode)
        b = query_index(idx, qs, k=10, mode=mode, prune=True)
        assert a.num_rows and a.equals(b), mode
