"""Incremental merge: two disjoint-slice builds merged must be
BYTE-IDENTICAL to a from-scratch build over the union corpus (same
sorted triples per part -> same segment bytes), and queries must agree
exactly. Overlapping doc_ids must be rejected."""

import json
import os

import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from raysearch import checkpoint
from raysearch.build import build_index
from raysearch.config import IndexConfig
from raysearch.corpus import QUERIES
from raysearch.maintenance import append_index
from raysearch.merge import merge_indexes
from raysearch.query import query_index
from raysearch.segments import list_segment_parts, part_dirname
from raysearch.stats import load_stats


def _segment_bytes(idx, parts):
    out = {}
    for p in parts:
        d = part_dirname(idx, p)
        for name in ("postings.parquet", "doclens.parquet"):
            with open(os.path.join(d, name), "rb") as f:
                out[(p, name)] = f.read()
    return out


def test_merge_equals_full_build(ray_session, medium_corpus, tmp_path):
    import ray.data

    cfg = IndexConfig(num_parts=6)
    half_a = medium_corpus.slice(0, 1000)
    half_b = medium_corpus.slice(1000)

    idx_a, idx_b = str(tmp_path / "a"), str(tmp_path / "b")
    idx_m, idx_full = str(tmp_path / "m"), str(tmp_path / "full")
    build_index(ray.data.from_arrow(half_a), idx_a, cfg, input_id="ha")
    build_index(ray.data.from_arrow(half_b), idx_b, cfg, input_id="hb")
    build_index(ray.data.from_arrow(medium_corpus), idx_full, cfg,
                input_id="full")

    stats = merge_indexes([idx_a, idx_b], idx_m)
    full_stats = load_stats(idx_full)
    assert stats["n_docs"] == full_stats["n_docs"] == 2000
    assert stats["total_tokens"] == full_stats["total_tokens"]
    assert stats["vocab_size"] == full_stats["vocab_size"]
    assert stats["parts"] == full_stats["parts"]

    assert _segment_bytes(idx_m, stats["parts"]) == \
        _segment_bytes(idx_full, full_stats["parts"])
    # the commit records the same per-part stats and hot-term skew
    for p in stats["parts"]:
        m_man = checkpoint.load_manifest(part_dirname(idx_m, p))
        f_man = checkpoint.load_manifest(part_dirname(idx_full, p))
        assert m_man["stats"] == f_man["stats"], p
        assert m_man["skew"] == f_man["skew"], p

    r_m = query_index(idx_m, QUERIES, k=10)
    r_f = query_index(idx_full, QUERIES, k=10)
    assert r_m.equals(r_f)


def test_merge_rejects_overlap(ray_session, small_corpus, tmp_path):
    import ray.data

    cfg = IndexConfig(num_parts=4)
    idx_a, idx_b = str(tmp_path / "oa"), str(tmp_path / "ob")
    build_index(ray.data.from_arrow(small_corpus), idx_a, cfg,
                input_id="a")
    build_index(ray.data.from_arrow(small_corpus), idx_b, cfg,
                input_id="b")
    with pytest.raises(Exception, match="disjoint|share doc_ids"):
        merge_indexes([idx_a, idx_b], str(tmp_path / "om"))


def test_merge_rejects_config_mismatch(ray_session, small_corpus,
                                       tmp_path):
    import ray.data

    idx_a, idx_b = str(tmp_path / "ca"), str(tmp_path / "cb")
    build_index(ray.data.from_arrow(small_corpus), idx_a,
                IndexConfig(num_parts=4), input_id="a")
    build_index(ray.data.from_arrow(small_corpus), idx_b,
                IndexConfig(num_parts=8), input_id="b")
    with pytest.raises(ValueError, match="different configs"):
        merge_indexes([idx_a, idx_b], str(tmp_path / "cm"))


def _lexicon(idx):
    return pads.dataset(os.path.join(idx, "lexicon")).to_table(
        columns=["term", "df", "cf"]).sort_by([("term", "ascending")])


def test_merge_into_nonempty_out_prunes_orphans(ray_session, tmp_path):
    """Merging into an ``out_dir`` that holds an earlier merge with more
    parts must drop the old part dirs: the lexicon scans every segment
    dir, so a leftover one would fold its df/cf into the new index."""
    import ray.data

    from raysearch.corpus import generate_corpus

    corpus = generate_corpus(600, seed=7, labeled=True)
    halves = (ray.data.from_arrow(corpus.slice(0, 300)),
              ray.data.from_arrow(corpus.slice(300)))
    out = str(tmp_path / "out")
    for n_parts in (8, 2):
        cfg = IndexConfig(num_parts=n_parts)
        srcs = [str(tmp_path / f"p{n_parts}-{i}") for i in range(2)]
        for i, (src, ds) in enumerate(zip(srcs, halves)):
            build_index(ds, src, cfg, input_id=f"h{i}")
        stats = merge_indexes(srcs, out)
    full = str(tmp_path / "full")
    build_index(ray.data.from_arrow(corpus), full, IndexConfig(num_parts=2),
                input_id="full")

    assert list_segment_parts(out) == stats["parts"] == [0, 1]
    assert _lexicon(out).equals(_lexicon(full))
    assert stats["vocab_size"] == load_stats(full)["vocab_size"]
    assert query_index(out, QUERIES, k=10).equals(
        query_index(full, QUERIES, k=10))


def test_append_and_merge_accept_legacy_salt_config(ray_session,
                                                    medium_corpus,
                                                    tmp_path):
    """Indexes written before the single-shuffle build record a
    ``"salt"`` key in their stats.json config; append and merge must
    still load them."""
    import ray.data

    cfg = IndexConfig(num_parts=4)
    cols = ["doc_id", "lang", "content"]
    idx_a, idx_b = str(tmp_path / "a"), str(tmp_path / "b")
    build_index(ray.data.from_arrow(medium_corpus.slice(0, 700)), idx_a,
                cfg, input_id="a")
    build_index(ray.data.from_arrow(medium_corpus.slice(1400)), idx_b,
                cfg, input_id="b")
    for idx in (idx_a, idx_b):
        st = load_stats(idx)
        st["config"]["salt"] = 1
        with open(os.path.join(idx, "stats.json"), "w") as f:
            json.dump(st, f)
    mid = str(tmp_path / "mid.parquet")
    pq.write_table(medium_corpus.slice(700, 700).select(cols), mid)

    append_index(mid, idx_a, num_parts=3)
    stats = merge_indexes([idx_a, idx_b], str(tmp_path / "m"))
    full = str(tmp_path / "full")
    build_index(ray.data.from_arrow(medium_corpus), full, cfg,
                input_id="full")

    assert stats["n_docs"] == 2000
    assert stats["vocab_size"] == load_stats(full)["vocab_size"]
    assert query_index(str(tmp_path / "m"), QUERIES, k=10).equals(
        query_index(full, QUERIES, k=10))


def _two_half_indexes(tmp_path, n_docs=400):
    import ray.data

    from raysearch.corpus import generate_corpus

    corpus = generate_corpus(n_docs, seed=11, labeled=True)
    cfg = IndexConfig(num_parts=4)
    srcs = [str(tmp_path / f"h{i}") for i in range(2)]
    for i, sl in enumerate((corpus.slice(0, n_docs // 2),
                            corpus.slice(n_docs // 2))):
        build_index(ray.data.from_arrow(sl), srcs[i], cfg,
                    input_id=f"h{i}")
    full = str(tmp_path / "full")
    build_index(ray.data.from_arrow(corpus), full, cfg, input_id="full")
    return corpus, srcs, full


def test_merge_into_out_clears_old_tombstones(ray_session, tmp_path):
    """Tombstones in ``out_dir`` name docs of its previous contents; a
    fresh merge over it must not keep hiding those doc ids."""
    from raysearch.maintenance import delete_docs, load_deletes

    corpus, srcs, full = _two_half_indexes(tmp_path)
    out = str(tmp_path / "out")
    merge_indexes(srcs, out)
    delete_docs(out, corpus["doc_id"].to_pylist()[:100])
    merge_indexes(srcs, out)

    assert len(load_deletes(out)) == 0
    assert query_index(out, QUERIES, k=10).equals(
        query_index(full, QUERIES, k=10))


def test_merge_rejects_input_with_tombstones(ray_session, tmp_path):
    """A doc deleted in an input is still in its segments; merging them
    would bring it back, so the merge refuses and names the input."""
    from raysearch.maintenance import delete_docs

    corpus, srcs, _ = _two_half_indexes(tmp_path)
    delete_docs(srcs[1], corpus["doc_id"].to_pylist()[-5:])
    out = str(tmp_path / "out")
    with pytest.raises(ValueError, match="compact_index") as exc:
        merge_indexes(srcs, out)
    assert srcs[1] in str(exc.value)
    assert not os.path.exists(os.path.join(out, "segments"))
