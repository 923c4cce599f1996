"""One scoring pass per task: SegmentScorer.score_parts over a task's
parts, joined into one posting source, must give the same top-k as
scoring each part alone and merging (Table.equals, bit-identical
scores) and as the Oracle, for every mode, pruned and unpruned, with
tombstones, keep, boost, decay, rank_feature and asof; and for chunks
where no part, only some parts or both parts hold a query term."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from raysearch.corpus import QUERIES
from raysearch.maintenance import delete_docs, load_deletes
from raysearch.oracle import Oracle
from raysearch.query import merge_candidates, plan_query, query_index
from raysearch.score import SIMILARITIES
from raysearch.segments import part_postings
from raysearch.serve import _SegmentServerImpl
from raysearch.stats import load_stats

K = 10
PRUNABLE = sorted(m for m, s in SIMILARITIES.items()
                  if s.term_bound is not None)


@pytest.fixture(scope="module")
def idx4(ray_session, medium_corpus, tmp_path_factory):
    import ray.data

    from raysearch.build import build_index
    from raysearch.config import IndexConfig

    idx = str(tmp_path_factory.mktemp("task") / "idx")
    build_index(ray.data.from_arrow(medium_corpus), idx,
                IndexConfig(num_parts=4), input_id="task-scoring")
    return idx


def _joined_and_per_part(idx, queries, **kw):
    """(joined, per-part) merged top-k tables of one plan: all parts
    scored as one task's chunk, and each part as its own task."""
    scorer, parts = plan_query(idx, load_stats(idx), queries, K,
                               deleted=load_deletes(idx), **kw)

    def merged(tbl):
        return merge_candidates(tbl.to_pandas(), len(queries), K)

    joined = merged(scorer._score_task_chunk(parts))
    per_part = merged(pa.concat_tables(
        [scorer._score_task_chunk([p]) for p in parts]))
    return joined, per_part


@pytest.mark.parametrize("mode", sorted(SIMILARITIES))
def test_chunk_equals_per_part_and_oracle(idx4, medium_corpus, mode):
    joined, per_part = _joined_and_per_part(idx4, QUERIES, mode=mode)
    assert joined.num_rows
    assert joined.equals(per_part)
    assert joined.equals(Oracle(medium_corpus).search_all(QUERIES, K,
                                                          mode=mode))


@pytest.mark.parametrize("mode", PRUNABLE)
def test_pruned_chunk_equals_per_part_and_oracle(idx4, medium_corpus, mode):
    joined, per_part = _joined_and_per_part(idx4, QUERIES, mode=mode,
                                            prune=True)
    assert joined.equals(per_part)
    assert joined.equals(Oracle(medium_corpus).search_all(QUERIES, K,
                                                          mode=mode))


def _knob_cases(idx):
    ids = np.arange(0, 2000, 3, dtype=np.int64)
    st = load_stats(idx)
    return {
        "keep": dict(keep=ids),
        "keep_empty": dict(keep=np.zeros(0, np.int64)),
        "keep_pruned": dict(keep=ids, prune=True),
        "boost": dict(boost=(ids[::5], 1.5)),
        "decay": dict(decay=(50.0, 40.0)),
        "rank_feature": dict(rank_feature=(2.0, 50.0)),
        "asof": dict(asof={"parts": st["parts"][:3], "n_docs": st["n_docs"],
                           "avgdl": st["avgdl"]}),
    }


@pytest.mark.parametrize("case", ["keep", "keep_empty", "keep_pruned",
                                  "boost", "decay", "rank_feature", "asof"])
def test_chunk_equals_per_part_with_knobs(idx4, case):
    kw = _knob_cases(idx4)[case]
    joined, per_part = _joined_and_per_part(idx4, QUERIES, **kw)
    assert joined.equals(per_part)
    assert joined.equals(query_index(idx4, QUERIES, K, **kw))
    if case == "keep_empty":
        assert joined.num_rows == 0
    elif case.startswith("keep"):
        assert joined.num_rows
        assert set(joined["doc_id"].to_pylist()) <= set(kw["keep"].tolist())


@pytest.mark.parametrize("prune", [False, True], ids=["full", "pruned"])
def test_chunk_equals_per_part_with_tombstones(idx4, tmp_path, prune):
    idx = str(tmp_path / "idx")
    shutil.copytree(idx4, idx)
    before = query_index(idx, QUERIES, K)
    gone = before["doc_id"].to_numpy()[::2]
    delete_docs(idx, gone)
    joined, per_part = _joined_and_per_part(idx, QUERIES, prune=prune)
    assert joined.equals(per_part)
    assert joined.num_rows == before.num_rows  # back-filled from live docs
    assert not set(joined["doc_id"].to_pylist()) & set(gone.tolist())


@pytest.fixture(scope="module")
def idx2(ray_session, small_corpus, tmp_path_factory):
    """A 2-part index whose doc i also holds the term ``only<i>``."""
    import ray.data

    from raysearch.build import build_index
    from raysearch.config import IndexConfig

    content = [f"{c} only{i}" for i, c in zip(
        small_corpus["doc_id"].to_pylist(),
        small_corpus["content"].to_pylist())]
    corpus = small_corpus.set_column(
        small_corpus.schema.get_field_index("content"), "content",
        pa.array(content, pa.string()))
    idx = str(tmp_path_factory.mktemp("task2") / "idx")
    build_index(ray.data.from_arrow(corpus), idx, IndexConfig(num_parts=2),
                input_id="task-scoring-2")
    return idx


def test_two_part_chunk_edges(idx2):
    """A 2-part chunk: a query whose terms no part holds, one whose
    term only the first or only the second part holds, one whose term
    both parts hold, and a mix of all three."""
    pair = load_stats(idx2)["parts"]
    assert len(pair) == 2
    vocab = sorted(pads.dataset(os.path.join(idx2, "lexicon"))
                   .to_table(columns=["term"])["term"].to_pylist())
    holders: dict = {}
    for p in pair:
        for t in part_postings(idx2, p, vocab):
            holders.setdefault(t, []).append(p)
    only = {p: next(t for t, h in holders.items()
                    if h == [p] and t.startswith("only")) for p in pair}
    both = next(t for t, h in holders.items() if h == pair)
    absent = "nosuchtermanywhere"
    queries = [absent, only[pair[0]], only[pair[1]], both,
               f"{absent} {only[pair[1]]} {both}"]
    joined, per_part = _joined_and_per_part(idx2, queries)
    assert joined.equals(per_part)
    got = joined.to_pandas()
    assert 0 not in set(got.query_id)           # no part holds it
    assert {1, 2, 3, 4} <= set(got.query_id)

    assert joined.equals(query_index(idx2, queries, K))
    nothing, _ = _joined_and_per_part(idx2, [absent])
    assert nothing.num_rows == 0

    # the resident actor joins its LRU entries the same way
    scorer, _ = plan_query(idx2, load_stats(idx2), queries, K)
    srv = _SegmentServerImpl(idx2, pair)
    for _ in range(2):  # cold, then every entry a cache hit
        got = merge_candidates(srv.query_batch(scorer).to_pandas(),
                               len(queries), K)
        assert got.equals(joined)
    assert srv.misses == len(pair) * len(scorer.all_terms)
    assert srv.hits == srv.misses
