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

from raysearch import stats as statsmod
from raysearch.config import IndexConfig
from raysearch.fanout import map_parts
from raysearch.segments import (
    commit_segment,
    part_dirname,
    read_doclens,
    read_postings,
    rebuild_postings,
)


def _merge_one_part(part: int, srcs: list[str], out_dir: str,
                    config_hash: str, input_id: str) -> dict | None:
    """Verify doc disjointness from the inputs' doclens tables, then
    decode all inputs' postings for this part and rebuild them through
    the same vectorized core a from-scratch build uses; commit
    atomically."""
    present = [part_dirname(s, part) for s in srcs
               if os.path.isdir(part_dirname(s, part))]
    if not present:
        return None
    dls = [read_doclens(d) for d in present]
    docs_all = np.concatenate([dl["doc_id"].to_numpy() for dl in dls])
    if len(np.unique(docs_all)) != len(docs_all):
        raise ValueError(
            f"part {part}: input indexes share doc_ids — merge requires "
            "disjoint corpus slices")
    dl_all = np.concatenate([dl["dl"].to_numpy() for dl in dls])
    sha_all = np.asarray([s for dl in dls for s in dl["sha"].to_pylist()],
                         dtype=object)
    order = np.argsort(docs_all, kind="stable")
    doclens = pa.table({
        "doc_id": pa.array(docs_all[order], pa.int64()),
        "dl": pa.array(dl_all[order].astype(np.int32), pa.int32()),
        "sha": pa.array(sha_all[order].tolist(), pa.string()),
    })
    postings = rebuild_postings([read_postings(d) for d in present])
    return commit_segment(part_dirname(out_dir, part), part, postings,
                          doclens, config_hash, input_id)


def merge_indexes(index_dirs: list[str], out_dir: str) -> dict:
    """Merge indexes built with identical configs over disjoint corpora.
    Parallelized over partitions with map_parts; returns merged stats.
    Segment dirs already in ``out_dir`` that the merge does not write
    are removed, and so are its tombstones: they name docs of its old
    contents. An input with tombstones is rejected — the merge reads
    segments, which still hold its deleted docs."""
    from raysearch.build import finalize_index
    from raysearch.maintenance import clear_deletes, load_deletes

    for d in index_dirs:
        if len(load_deletes(d)):
            raise ValueError(
                f"input index {d} has tombstoned docs; run compact_index "
                "on it before merging")
    stats_in = [statsmod.load_stats(d) for d in index_dirs]
    cfgs = {IndexConfig.from_dict(s["config"]).config_hash()
            for s in stats_in}
    if len(cfgs) != 1:
        raise ValueError("indexes were built with different configs")
    config_hash = cfgs.pop()
    input_id = "merge(" + ",".join(
        s["lineage"]["input_id"] for s in stats_in) + ")"
    all_parts = sorted({p for s in stats_in for p in s["parts"]})
    clear_deletes(out_dir)
    os.makedirs(os.path.join(out_dir, "segments"), exist_ok=True)

    def merge_part(part: int) -> pa.Table:
        row = _merge_one_part(part, index_dirs, out_dir, config_hash,
                              input_id)
        return pa.Table.from_pylist([row] if row else [])

    out_rows = map_parts(all_parts, merge_part, pa.table({})).to_pylist()
    return finalize_index(
        out_dir, out_rows, stats_in[0]["config"],
        {"input_id": input_id, "config_hash": config_hash})
