"""Incremental index merge: combine several builds of DISJOINT corpus
slices into one index, segment by segment.

This is the streaming-ingest story at 100 TB: new corpus arrivals are
built as their own (small) index with the SAME IndexConfig, then merged
into the serving index without re-tokenizing history. Because
partitioning is by document hash with a layout independent of cluster
size, part i of every input covers disjoint doc sets of the same hash
slice — merging is per-part, embarrassingly parallel, and the merged
segment is byte-identical to what a from-scratch build over the union
corpus would produce (tested in tests/test_merge.py).

The reference has no notion of updating its index at all (it rebuilds
from scratch on every start — SURVEY §4.1); this operator exists for
the engine's scale mandate.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from raysearch import checkpoint
from raysearch import stats as statsmod
from raysearch.config import IndexConfig
from raysearch.fanout import map_parts
from raysearch.segments import (
    decode_posting_row,
    part_dirname,
    postings_from_sorted_triples,
    read_doclens,
    read_postings,
    write_segment_files,
)


def _merge_one_part(part: int, srcs: list[str], out_dir: str,
                    config_hash: str, input_id: str) -> dict | None:
    """Decode all inputs' postings for this part, rebuild through the
    same vectorized core a from-scratch build uses, verify doc
    disjointness via the doclens tables, write atomically."""
    present = [s for s in srcs if os.path.isdir(part_dirname(s, part))]
    if not present:
        return None
    t_list, d_list, f_list, l_list, p_list = [], [], [], [], []
    has_pos = False
    dl_docs, dl_lens, dl_shas = [], [], []
    for s in present:
        pdir = part_dirname(s, part)
        tbl = read_postings(pdir)
        has_pos = "pos_enc" in tbl.column_names
        for i in range(tbl.num_rows):
            docs, tfs, dls = decode_posting_row(tbl, i)
            t_list.append(np.full(len(docs), tbl["term"][i].as_py(),
                                  dtype=object))
            d_list.append(docs)
            f_list.append(tfs)
            l_list.append(dls)
            if has_pos:
                from raysearch.segments import split_posting_positions

                p_list.extend(split_posting_positions(tbl, i, tfs))
        dl = read_doclens(pdir)
        dl_docs.append(dl["doc_id"].to_numpy())
        dl_lens.append(dl["dl"].to_numpy())
        dl_shas.append(np.asarray(dl["sha"].to_pylist(), dtype=object))
    docs_all = np.concatenate(dl_docs)
    if len(np.unique(docs_all)) != len(docs_all):
        raise ValueError(
            f"part {part}: input indexes share doc_ids — merge requires "
            "disjoint corpus slices")
    if t_list:
        tcols = {
            "term": pa.array(np.concatenate(t_list), pa.large_string()),
            "doc_id": pa.array(np.concatenate(d_list), pa.int64()),
            "tf": pa.array(np.concatenate(f_list), pa.int64()),
            "dl": pa.array(np.concatenate(l_list), pa.int64()),
        }
        if has_pos:
            # per-doc blobs re-sort with their triples; delta resets
            # per doc so byte-level re-concat needs no re-encode
            tcols["pos"] = pa.array(p_list, pa.large_binary())
        trip = pa.table(tcols).sort_by(
            [("term", "ascending"), ("doc_id", "ascending")])
        postings = postings_from_sorted_triples(
            trip["term"].combine_chunks(), trip["doc_id"].to_numpy(),
            trip["tf"].to_numpy(), trip["dl"].to_numpy(),
            pos=trip["pos"] if has_pos else None)
    else:
        from raysearch.segments import POSTINGS_SCHEMA, POSTINGS_SCHEMA_POS

        postings = (POSTINGS_SCHEMA_POS if has_pos
                    else POSTINGS_SCHEMA).empty_table()
    order = np.argsort(docs_all, kind="stable")
    doclens = pa.table({
        "doc_id": pa.array(docs_all[order], pa.int64()),
        "dl": pa.array(np.concatenate(dl_lens)[order].astype(np.int32),
                       pa.int32()),
        "sha": pa.array(np.concatenate(dl_shas)[order].tolist(),
                        pa.string()),
    })
    out_part = part_dirname(out_dir, part)
    s = write_segment_files(out_part, postings, doclens)
    hot = postings.sort_by([("cf", "descending")]).slice(0, 10)
    checkpoint.write_manifest(
        out_part, part, config_hash, {"input_id": input_id}, s,
        {"top_terms": [{"term": t, "cf": c, "df": d} for t, c, d in
                       zip(hot["term"].to_pylist(), hot["cf"].to_pylist(),
                           hot["df"].to_pylist())]})
    return {"part": part, **s}


def merge_indexes(index_dirs: list[str], out_dir: str) -> dict:
    """Merge indexes built with identical configs over disjoint corpora.
    Parallelized over partitions with map_parts; returns merged stats."""
    from raysearch.build import _write_lexicon

    stats_in = [statsmod.load_stats(d) for d in index_dirs]
    cfgs = {IndexConfig.from_dict(s["config"]).config_hash()
            for s in stats_in}
    if len(cfgs) != 1:
        raise ValueError("indexes were built with different configs")
    config_hash = cfgs.pop()
    config = stats_in[0]["config"]
    input_id = "merge(" + ",".join(
        s["lineage"]["input_id"] for s in stats_in) + ")"
    all_parts = sorted({p for s in stats_in for p in s["parts"]})
    os.makedirs(os.path.join(out_dir, "segments"), exist_ok=True)

    def merge_batch(b: pa.Table) -> pa.Table:
        rows = []
        for p in b["part"].to_pylist():
            r = _merge_one_part(int(p), index_dirs, out_dir, config_hash,
                                input_id)
            if r:
                rows.append(r)
        if not rows:
            return pa.table({"part": pa.array([], pa.int64())})
        return pa.table({k: pa.array([r[k] for r in rows])
                         for k in rows[0]})

    out_rows = map_parts(all_parts, merge_batch, pa.table({})).to_pylist()
    merged = statsmod.tree_merge([
        {"n_docs": r["n_docs"], "sum_dl": r["sum_dl"],
         "total_tf": r["total_tf"], "n_postings": r["n_postings"],
         "n_terms": r["n_terms"]} for r in out_rows])
    vocab = _write_lexicon(
        out_dir, n_rows_hint=sum(int(r["n_terms"]) for r in out_rows))
    return statsmod.write_stats(
        out_dir, merged, config,
        {"input_id": input_id, "config_hash": config_hash},
        extra={"vocab_size": vocab,
               "parts": sorted(int(r["part"]) for r in out_rows),
               # same per-part partial record the build writes — an
               # append onto a merged index can then stat-merge from
               # metadata alone (maintenance._part_partials)
               "parts_detail": sorted(
                   ({"part": int(r["part"]), "n_docs": int(r["n_docs"]),
                     "n_terms": int(r["n_terms"]),
                     "n_postings": int(r["n_postings"]),
                     "sum_dl": int(r["sum_dl"]),
                     "total_tf": int(r["total_tf"])} for r in out_rows),
                   key=lambda d: d["part"])})
