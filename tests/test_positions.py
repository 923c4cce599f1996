"""Positional postings (config.with_positions): codec round trip,
build correctness vs brute-force tokenization, resume byte-identity,
lifecycle (delete/compact, merge) preservation, and index-only
proximity == its DuckDB oracle.

The reference stores no positions at all (src/lib.rs:341-343); this is
the opt-in Lucene-grade extension the proximity family verifies from.
"""

import collections
import os

import numpy as np
import pyarrow as pa
import pytest

from raysearch.codec import (
    decode_pos_runs,
    varint_run_byte_offsets,
)
from raysearch.config import IndexConfig
from raysearch.segments import (
    build_partials,
    decode_posting_positions,
    decode_posting_row,
    merge_partials,
    part_dirname,
    read_postings,
)
from raysearch.triples import make_triple_fn

DOCS = ["the cat sat on the mat", "cat cat dog", "", "mat the cat",
        "dup dup dup", "on on the on"]
IDS = [10, 11, 12, 13, 14, 15]


def _brute_positions(docs, ids):
    want = collections.defaultdict(dict)
    for did, d in zip(ids, docs):
        for p, t in enumerate(d.lower().split()):
            want[t].setdefault(did, []).append(p)
    return want


def test_pos_codec_round_trip():
    rng = np.random.default_rng(3)
    runs = [np.sort(rng.integers(0, 500, rng.integers(1, 9)))
            for _ in range(40)]
    # duplicate positions can't occur per (doc, term); make strict asc
    runs = [np.unique(r) for r in runs]
    counts = np.array([len(r) for r in runs], np.int64)
    from raysearch.codec import bulk_encode_segmented

    flat = np.concatenate(runs)
    starts = np.zeros(len(runs), np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    buf, _ = bulk_encode_segmented(flat, starts, delta=True)
    back = decode_pos_runs(buf, counts)
    assert back.tolist() == flat.tolist()
    # byte-offset split: each run decodes independently
    boff = varint_run_byte_offsets(buf, counts)
    for j, r in enumerate(runs):
        piece = buf[boff[j]:boff[j + 1]]
        assert decode_pos_runs(piece, counts[j:j + 1]).tolist() \
            == r.tolist()


def _posting_positions_map(postings):
    got = collections.defaultdict(dict)
    for i, t in enumerate(postings["term"].to_pylist()):
        docs, tfs, _ = decode_posting_row(postings, i)
        pos = decode_posting_positions(postings, i, tfs)
        off = np.concatenate([[0], np.cumsum(tfs)])
        for j, d in enumerate(docs):
            got[t][int(d)] = pos[off[j]:off[j + 1]].tolist()
    return dict(got)


def test_positional_build_matches_brute_force():
    cfg = IndexConfig(num_parts=1, with_positions=True)
    batch = pa.table({"doc_id": pa.array(IDS, pa.int64()),
                      "content": pa.array(DOCS, pa.large_string())})
    trip = make_triple_fn(cfg)(batch)
    postings, _ = merge_partials(build_partials(trip))
    got = _posting_positions_map(postings)
    want = _brute_positions(DOCS, IDS)
    assert {t: dict(v) for t, v in want.items()} == got


def test_positional_resume_byte_identical(ray_session, small_corpus,
                                          tmp_path):
    import shutil

    import ray.data

    from raysearch.build import build_index

    cfg = IndexConfig(num_parts=4, with_positions=True)
    ds = ray.data.from_arrow(small_corpus)
    idx_a = str(tmp_path / "a")
    res_a = build_index(ds, idx_a, cfg, input_id="t1pos")

    def seg_bytes(idx, parts):
        return {p: open(os.path.join(part_dirname(idx, p),
                                     "postings.parquet"), "rb").read()
                for p in parts}

    bytes_a = seg_bytes(idx_a, res_a.stats["parts"])
    assert "pos_enc" in read_postings(
        part_dirname(idx_a, res_a.stats["parts"][0])).column_names

    idx_b = str(tmp_path / "b")
    os.makedirs(os.path.join(idx_b, "segments"))
    kept = res_a.stats["parts"][:2]
    for p in kept:
        shutil.copytree(part_dirname(idx_a, p), part_dirname(idx_b, p))
    res_b = build_index(ds, idx_b, cfg, input_id="t1pos")
    assert res_b.parts_skipped == len(kept)
    assert seg_bytes(idx_b, res_b.stats["parts"]) == bytes_a


def test_positional_config_hash_differs():
    assert IndexConfig().config_hash() \
        != IndexConfig(with_positions=True).config_hash()


def test_compaction_preserves_positions(ray_session, small_corpus,
                                        tmp_path):
    import ray.data

    from raysearch.build import build_index
    from raysearch.maintenance import compact_index, delete_docs

    cfg = IndexConfig(num_parts=4, with_positions=True)
    idx = str(tmp_path / "idx")
    res = build_index(ray.data.from_arrow(small_corpus), idx, cfg,
                      input_id="t1pos")
    before = {}
    for p in res.stats["parts"]:
        before[p] = _posting_positions_map(
            read_postings(part_dirname(idx, p)))
    victims = small_corpus["doc_id"].to_numpy()[::7]
    delete_docs(idx, victims.tolist())
    compact_index(idx)
    vic = set(int(v) for v in victims)
    for p in res.stats["parts"]:
        if not os.path.isdir(part_dirname(idx, p)):
            continue
        after = _posting_positions_map(read_postings(part_dirname(idx, p)))
        for t, docs in after.items():
            for d, pos in docs.items():
                assert d not in vic
                assert pos == before[p][t][d]
        # survivors all present
        for t, docs in before[p].items():
            live = {d: q for d, q in docs.items() if d not in vic}
            assert {d: q for d, q in after.get(t, {}).items()} == live


def test_merge_indexes_preserves_positions(ray_session, small_corpus,
                                           tmp_path):
    import ray.data

    from raysearch.build import build_index
    from raysearch.merge import merge_indexes

    cfg = IndexConfig(num_parts=4, with_positions=True)
    tbl = small_corpus
    half = tbl.num_rows // 2
    a, b = tbl.slice(0, half), tbl.slice(half)
    idx_a, idx_b, idx_m, idx_f = (str(tmp_path / n) for n in "abmf")
    build_index(ray.data.from_arrow(a), idx_a, cfg, input_id="sliceA")
    build_index(ray.data.from_arrow(b), idx_b, cfg, input_id="sliceB")
    merge_indexes([idx_a, idx_b], idx_m)
    res_f = build_index(ray.data.from_arrow(tbl), idx_f, cfg,
                        input_id="full")
    for p in res_f.stats["parts"]:
        pm = read_postings(part_dirname(idx_m, p))
        pf = read_postings(part_dirname(idx_f, p))
        assert pm.equals(pf), f"part {p} differs after merge"


def _assert_equals_oracle(eng, sql: str, sf: str) -> None:
    import duckdb
    import pandas as pd

    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    ora = con.execute(sql).df()
    cols = sorted(eng.columns)
    assert sorted(ora.columns) == cols
    pd.testing.assert_frame_equal(
        eng[cols].sort_values(cols, ignore_index=True),
        ora[cols].sort_values(cols, ignore_index=True)
        .astype(eng[cols].dtypes.to_dict()),
        check_exact=True)


@pytest.mark.parametrize("op", ["phrase", "near", "slop"])
def test_proximity_positional_equals_oracle(ray_session, tmp_path, op):
    """The index-only proximity ops == their DuckDB oracles on a
    synthetic 400-doc corpus and on the sf0.001 testdata."""
    import pyarrow.parquet as pq

    from raysearch.corpus import generate_corpus
    from raysearch.pipelines.search_queries import (
        ORACLE_SQL,
        near_topk,
        phrase_topk,
        slop_topk,
    )

    sf = str(tmp_path / "sf")
    os.makedirs(sf)
    corpus = generate_corpus(400, seed=7, labeled=False)
    pq.write_table(
        pa.table({"doc_id": corpus["doc_id"],
                  "text": corpus["content"],
                  "lang": pa.array(["en"] * corpus.num_rows),
                  "source": pa.array(["t"] * corpus.num_rows)}),
        os.path.join(sf, "documents.parquet"))
    name = f"{op}_topk"
    fn = {"phrase": phrase_topk, "near": near_topk, "slop": slop_topk}[op]
    _assert_equals_oracle(fn(sf).to_pandas(), ORACLE_SQL[name], sf)
    # the synthetic corpus has no guaranteed hits; the real testdata
    # exercises the non-empty path for all three ops
    sf_real = "/root/testdata/sf0.001"
    if os.path.isdir(sf_real):
        pos = fn(sf_real).to_pandas()
        _assert_equals_oracle(pos, ORACLE_SQL[name], sf_real)
        assert len(pos) > 0


def test_hit_positions_topk_oracle_parity(ray_session):
    """hit_positions_topk (index-only token-position highlighting) ==
    its DuckDB oracle at sf0.001; first_pos is 1-based and every BM25
    hit carries >= 1 query-term occurrence."""
    from raysearch.pipelines.search_queries import (
        ORACLE_SQL,
        hit_positions_topk,
    )

    sf = "/root/testdata/sf0.001"
    if not os.path.isdir(sf):
        pytest.skip("testdata missing")
    eng = hit_positions_topk(sf).to_pandas()
    _assert_equals_oracle(eng, ORACLE_SQL["hit_positions_topk"], sf)
    assert (eng.first_pos >= 1).all() and (eng.n_hits >= 1).all()
    # exactly the BM25 top-k rows, positionally annotated
    from raysearch.pipelines.search_queries import bm25_topk

    base = bm25_topk(sf).to_pandas()
    assert len(eng) == len(base)
