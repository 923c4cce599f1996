"""Structural contracts for score explanation, scorer agreement, and
the JSONL source round trip (oracle parity lives in test_entry_parity)."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.001"


def test_explain_contribs_sum_to_score(ray_session):
    from raysearch.pipelines.explain import explain_topk
    from raysearch.pipelines.search_queries import bm25_topk

    ex = explain_topk(SF).to_pandas()
    top = bm25_topk(SF).to_pandas()
    sums = ex.groupby(["query_id", "doc_id"])["contrib"].sum()
    assert len(ex) > 0
    for q, d, s in zip(top.query_id, top.doc_id, top.score):
        # score = round6(sum of raw contribs); the explanation rows are
        # individually round6'd, so the re-sum agrees to ~n_terms ulps
        assert sums[(q, d)] == pytest.approx(s, abs=5e-6)
    # every explained (query, doc) is an actual top-k hit
    hits = set(zip(top.query_id, top.doc_id))
    assert set(sums.index) <= hits


def test_scorer_agreement_bounds(ray_session):
    from raysearch.pipelines.explain import scorer_agreement

    res = scorer_agreement(SF).to_pandas()
    assert len(res) == 10
    assert ((res.n_common >= 0) & (res.n_common <= 10)).all()
    assert ((res.jaccard >= 0.0) & (res.jaccard <= 1.0)).all()
    # jaccard consistent with n_common for 10-element sets
    exp = res.n_common / (20 - res.n_common)
    assert np.allclose(res.jaccard, np.round(exp, 6))


def test_jsonl_roundtrip_cached_and_stable(ray_session):
    from raysearch.pipelines.io_formats import jsonl_roundtrip

    a = jsonl_roundtrip(SF).to_pandas()
    b = jsonl_roundtrip(SF).to_pandas()  # second call serves the cache
    assert a.equals(b)
    assert a.doc_id.is_unique and len(a) > 0


def test_ipc_roundtrip_ignores_tmp_orphans(ray_session, tmp_path):
    # a task killed mid-write leaves part-*.arrow.tmp-<pid>; the cached
    # read-back must decode committed shards only
    import glob
    import shutil

    import duckdb
    import pandas as pd

    from raysearch.pipelines import io_formats
    from raysearch.pipelines.search_queries import _source_fingerprint

    sf = str(tmp_path)
    src = os.path.join(sf, "documents.parquet")
    shutil.copy(os.path.join(SF, "documents.parquet"), src)
    shard_dir = os.path.join("/tmp/raysearch_cache",
                             f"ipc-{_source_fingerprint(src)}")
    try:
        first = io_formats.ipc_roundtrip(sf).to_pandas()
        shards = sorted(glob.glob(os.path.join(shard_dir, "part-*.arrow")))
        assert shards
        # one complete (would duplicate rows) and one truncated orphan
        shutil.copy(shards[0], shards[0] + ".tmp-999999")
        with open(shards[-1], "rb") as f:
            head = f.read(40)
        with open(shards[-1] + ".tmp-999998", "wb") as f:
            f.write(head)
        got = io_formats.ipc_roundtrip(sf).to_pandas()
        ora = duckdb.connect().execute(
            io_formats.sql_ipc_roundtrip().replace(
                "FROM documents", f"FROM read_parquet('{src}')")).df()
        ora = ora.sort_values("doc_id", ignore_index=True)
        pd.testing.assert_frame_equal(got, ora, check_dtype=False)
        assert got.equals(first)
    finally:
        shutil.rmtree(shard_dir, ignore_errors=True)
        if os.path.exists(shard_dir + ".done"):
            os.remove(shard_dir + ".done")
