"""Index lifecycle: tombstone deletes, compaction, incremental append.

The reference engine is build-once (its index lives in process memory
and dies with it — /root/reference/src/main.rs:66-99); a persistent
engine needs the Lucene-style lifecycle on top of the same segment
layout:

- ``delete_docs``: append-only tombstone files under
  ``index_dir/deletes/``. Queries keep scoring with the BUILD-TIME
  collection statistics (N, avgdl, df) — the standard
  stale-stats-until-compaction semantics — but tombstoned documents
  are filtered out of every posting list before scoring, so they can
  never appear in results and top-k back-fills from live docs.
- ``compact_index``: distributed rewrite of every segment without the
  tombstoned docs, recomputing EXACT stats and the global lexicon,
  then clearing the tombstones. After compaction the index is
  byte-equivalent in behavior to a fresh build over the live docs
  (same doc-hash partitioning, same codec), so scores match a
  from-scratch build exactly.
- ``append_index``: index NEW documents into an existing index as
  additional segments (parts numbered past the existing ones), then
  merge collection stats (associative tree-merge of per-part partials)
  and rebuild the global lexicon. Because every per-doc quantity
  (tf, dl) is partition-independent and the global stats are sums,
  scores after an append are identical to a one-shot build over the
  union corpus. Caller contract: appended doc_ids are disjoint from
  the base corpus (same rule a primary key gives any engine).

Scale notes: tombstones are a broadcast small side (they reset at
every compaction, so they stay bounded); compaction and append are
one-task-per-segment map stages with no shuffle except the appended
docs' own (bounded-width) build shuffle; stats merging is
metadata-sized. Nothing here materializes a dataset on the driver.
"""

from __future__ import annotations

import dataclasses
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from raysearch import checkpoint
from raysearch import stats as statsmod
from raysearch.codec import decode_doc_ids
from raysearch.config import IndexConfig
from raysearch.fanout import map_parts
from raysearch.segments import (
    commit_segment,
    part_dirname,
    read_doclens,
    read_postings,
    rebuild_postings,
)

_DELETE_FILE_RE = re.compile(r"delete-(\d{5})\.parquet")


def _deletes_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "deletes")


def delete_docs(index_dir: str, doc_ids) -> int:
    """Tombstone ``doc_ids`` (iterable of ints). Append-only: each call
    writes one new parquet file, claimed via hard-link (EEXIST retry)
    so concurrent deleters can never overwrite each other's files;
    readers see either the old or the new tombstone set, never a torn
    one. On filesystems without hard links the claim falls back to
    atomic rename (tear-free, but concurrent same-number writers can
    race on such mounts). Returns the total number of distinct
    tombstoned docs."""
    ddir = _deletes_dir(index_dir)
    os.makedirs(ddir, exist_ok=True)
    arr = np.unique(np.asarray(list(doc_ids), np.int64))
    # unique per CALL (pid alone would collide across threads)
    tmp = os.path.join(ddir, f".tmp-{os.getpid()}-{os.urandom(4).hex()}")
    pq.write_table(pa.table({"doc_id": pa.array(arr, pa.int64())}), tmp)
    try:
        while True:
            existing = [m for f in os.listdir(ddir)
                        if (m := _DELETE_FILE_RE.fullmatch(f))]
            nxt = 1 + max((int(m.group(1)) for m in existing),
                          default=-1)
            path = os.path.join(ddir, f"delete-{nxt:05d}.parquet")
            try:
                # link (not rename): fails with EEXIST if a concurrent
                # deleter claimed the same number, so nobody's
                # tombstones are ever silently overwritten
                os.link(tmp, path)
                break
            except FileExistsError:
                continue
            except OSError:
                # filesystem without hard links (FAT, some NFS/FUSE):
                # fall back to atomic-rename; the cross-process
                # numbering race returns on such mounts, but deletes
                # still never tear (readers see old or new bytes)
                os.replace(tmp, path)
                return len(load_deletes(index_dir))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return len(load_deletes(index_dir))


def load_deletes(index_dir: str) -> np.ndarray:
    """Sorted unique tombstoned doc_ids (empty array if none)."""
    ddir = _deletes_dir(index_dir)
    if not os.path.isdir(ddir):
        return np.zeros(0, np.int64)
    tables = [pq.read_table(os.path.join(ddir, f))
              for f in sorted(os.listdir(ddir))
              if _DELETE_FILE_RE.fullmatch(f)]
    if not tables:
        return np.zeros(0, np.int64)
    return np.unique(pa.concat_tables(tables)["doc_id"].to_numpy())


def clear_deletes(index_dir: str) -> None:
    import shutil

    shutil.rmtree(_deletes_dir(index_dir), ignore_errors=True)


def tombstone_mask(doc_ids: np.ndarray, deleted: np.ndarray) -> np.ndarray:
    """Boolean mask of LIVE docs. ``deleted`` must be sorted unique;
    O(n log m) searchsorted, no set materialization."""
    if len(deleted) == 0:
        return np.ones(len(doc_ids), bool)
    idx = np.searchsorted(deleted, doc_ids)
    idx[idx == len(deleted)] = len(deleted) - 1
    return deleted[idx] != doc_ids


def filter_postings(decoded: tuple, deleted: np.ndarray) -> tuple:
    """Drop tombstoned docs from one decoded posting row
    (docs, tfs, dls). deleted sorted unique; empty -> unchanged."""
    if len(deleted) == 0:
        return decoded
    docs, tfs, dls = decoded
    live = tombstone_mask(docs, deleted)
    if live.all():
        return decoded
    return docs[live], tfs[live], dls[live]


# ---- compaction ----


def _compact_part(index_dir: str, part: int, deleted: np.ndarray,
                  config_hash: str, input_id: str) -> dict:
    """Rewrite one segment without its tombstoned docs. Rows whose
    posting list holds no tombstoned doc pass through with their
    encoded bytes untouched; only hit rows are decoded, filtered and
    re-encoded (typically a small fraction). Per-doc position blobs
    survive verbatim (deleting whole docs never renumbers the
    survivors' within-doc positions)."""
    part_dir = part_dirname(index_dir, part)
    post = read_postings(part_dir)
    hit = np.array([not tombstone_mask(decode_doc_ids(b), deleted).all()
                    for b in post["docs_enc"].to_pylist()], bool)
    pieces = []
    if not hit.all():
        pieces.append(post.filter(pa.array(~hit)))
    if hit.any():
        rebuilt = rebuild_postings(
            [post.filter(pa.array(hit))],
            live=lambda docs: tombstone_mask(docs, deleted))
        if rebuilt.num_rows:
            # a pre-blockmax index compacts to its own (old) schema:
            # select drops the block-meta columns the rebuild emits
            pieces.append(
                rebuilt.select(post.schema.names).cast(post.schema))
    new_post = (pa.concat_tables(pieces).sort_by([("term", "ascending")])
                if pieces else post.schema.empty_table())
    dlen = read_doclens(part_dir)
    new_dlen = dlen.filter(pa.array(
        tombstone_mask(dlen["doc_id"].to_numpy(), deleted)))
    return commit_segment(part_dir, part, new_post, new_dlen,
                          config_hash, input_id)


def compact_index(index_dir: str) -> dict:
    """Rewrite all segments dropping tombstoned docs; recompute exact
    global stats + lexicon; clear tombstones. One Ray task per batch
    of segments, no shuffle. Returns the new stats dict. No-op (stats
    returned unchanged) when there are no tombstones."""
    import hashlib

    from raysearch.build import finalize_index

    stats = statsmod.load_stats(index_dir)
    deleted = load_deletes(index_dir)
    if len(deleted) == 0:
        return stats
    base_input = stats.get("lineage", {}).get("input_id", "<unknown>")
    config_hash = stats.get("lineage", {}).get("config_hash", "")
    input_id = (f"{base_input}#compact="
                f"{hashlib.sha256(deleted.tobytes()).hexdigest()[:12]}")

    def kern(part: int) -> pa.Table:
        return pa.Table.from_pylist([
            _compact_part(index_dir, part, deleted, config_hash, input_id)])

    rows = map_parts(stats.get("parts") or [], kern,
                     pa.table({})).to_pylist()
    new_stats = finalize_index(
        index_dir, rows, stats["config"],
        {"input_id": input_id, "config_hash": config_hash})
    clear_deletes(index_dir)
    return new_stats


# ---- incremental append ----


def _part_partials(index_dir: str, stats: dict) -> list[dict]:
    """Per-part stats rows (part + partial) for the EXISTING segments.
    Prefers the stats.json parts_detail (metadata, no file IO); falls
    back to the per-part manifests for indexes written before total_tf
    was recorded there."""
    parts_set = set(stats.get("parts", []))
    detail = [d for d in stats.get("parts_detail") or []
              if d.get("part") in parts_set]
    if (detail and len(detail) == len(parts_set)
            and all("total_tf" in d for d in detail)):
        return detail
    return [{"part": p,
             **checkpoint.load_manifest(part_dirname(index_dir, p))["stats"]}
            for p in sorted(parts_set)]


def append_index(
    source,
    index_dir: str,
    input_id: str | None = None,
    num_parts: int | None = None,
) -> dict:
    """Add new documents to an existing index as fresh segments.

    source: parquet path(s) or a ray.data.Dataset with columns
        (doc_id, lang, content); doc_ids must be new (caller
        contract). The appended docs get their own doc-hash
        partitioning over ``num_parts`` new segments (auto-sized from
        the appended row count by default), numbered after the
        existing parts — the on-disk layout stays append-only, like an
        LSM level.
    Resumable exactly like the base build: each new segment validates
    its manifest (config hash + append input_id + file digests), and a
    re-run of the same append skips completed parts.

    Returns the merged stats dict. Scores after append are identical
    to a one-shot build over the union corpus (per-doc quantities are
    partition-independent; global stats are sums — see module
    docstring).
    """
    from raysearch.build import (
        _auto_parts,
        _footer_rows,
        _make_segment_writer,
        _segment_rows,
        finalize_index,
    )

    stats = statsmod.load_stats(index_dir)
    base_cfg = IndexConfig.from_dict(stats["config"])
    old_parts = sorted(stats.get("parts") or [])
    part_offset = (max(old_parts) + 1) if old_parts else base_cfg.num_parts

    if isinstance(source, (str, list)):
        n_new = _footer_rows(source)
        default_id = str(source)
    else:
        n_new = None
        default_id = "<dataset>"
    if num_parts is None:
        num_parts = _auto_parts(n_new) if n_new is not None else 8
    cfg2 = dataclasses.replace(base_cfg, num_parts=num_parts)
    config_hash = cfg2.config_hash()
    append_key = (f"append:{input_id or default_id}"
                  + (f"#rows={n_new}" if n_new is not None else ""))
    # idempotency: a COMPLETED append is recorded in the stats lineage;
    # re-running the same one is a no-op (the same rows would otherwise
    # be appended twice at a fresh offset). An append that crashed
    # before the final stats write instead resumes below: the offset
    # recomputes identically (stats.json still lists only the old
    # parts) and finished segments validate their manifests.
    if f"+{append_key}@" in stats.get("lineage", {}).get("input_id", ""):
        return stats
    append_id = f"{append_key}@offset={part_offset}"

    valid = frozenset(
        part_offset + p for p in range(num_parts)
        if checkpoint.validate_manifest(
            part_dirname(index_dir, part_offset + p), config_hash,
            append_id))
    writer = _make_segment_writer(index_dir, cfg2, append_id, valid,
                                  part_offset=part_offset)
    rows = _segment_rows(source, cfg2, writer)
    # any orphaned segment dir (e.g. a crashed append with a different
    # source) is pruned by the finalize
    base_input = stats.get("lineage", {}).get("input_id", "<unknown>")
    return finalize_index(
        index_dir, _part_partials(index_dir, stats) + rows, stats["config"],
        {"input_id": f"{base_input}+{append_id}",
         "config_hash": stats.get("lineage", {}).get("config_hash", ""),
         "append_config_hash": config_hash})
