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

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from raysearch import checkpoint
from raysearch import stats as statsmod
from raysearch.config import IndexConfig
from raysearch.fanout import map_parts
from raysearch.segments import (
    part_dirname,
    postings_from_sorted_triples,
    read_postings,
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


class _CompactWorker:
    """Compaction kernel: rewrite segments without tombstoned docs.
    Built inside each map_parts task (the constructor only stores its
    arguments); each __call__ handles a batch of part numbers (decode
    -> filter -> re-encode, all vectorized on the concatenated posting
    arrays)."""

    def __init__(self, index_dir: str, deleted: np.ndarray,
                 config_hash: str, input_id: str):
        self.index_dir = index_dir
        self.deleted = deleted
        self.config_hash = config_hash
        self.input_id = input_id

    def _compact_part(self, part: int) -> dict:
        from raysearch.segments import (decode_posting_row, read_doclens,
                                        write_segment_files)

        part_dir = part_dirname(self.index_dir, part)
        post = read_postings(part_dir)
        has_pos = "pos_enc" in post.column_names
        # rows whose posting list contains no tombstoned doc pass
        # through with their encoded bytes untouched; only hit rows
        # decode -> filter -> re-encode (typically a small fraction).
        # Per-doc position blobs survive verbatim (deleting whole docs
        # never renumbers the survivors' within-doc positions): byte
        # slices of the live docs, re-concatenated by the rebuild.
        keep_idx: list[int] = []
        terms, d_all, t_all, l_all, p_all = [], [], [], [], []
        for i in range(post.num_rows):
            docs, tfs, dls = decode_posting_row(post, i)
            live = tombstone_mask(docs, self.deleted)
            if live.all():
                keep_idx.append(i)
                continue
            if not live.any():
                continue
            if has_pos:
                from raysearch.segments import split_posting_positions

                blobs = split_posting_positions(post, i, tfs)
                p_all.extend(b for b, lv in zip(blobs, live) if lv)
            docs, tfs, dls = docs[live], tfs[live], dls[live]
            terms.append(pa.array([post["term"][i].as_py()] * len(docs),
                                  pa.large_string()))
            d_all.append(docs)
            t_all.append(tfs)
            l_all.append(dls)
        parts_out = []
        if keep_idx:
            parts_out.append(post.take(pa.array(keep_idx, pa.int64())))
        if terms:
            rebuilt = postings_from_sorted_triples(
                pa.concat_arrays(terms),
                np.concatenate(d_all),
                np.concatenate(t_all).astype(np.int64),
                np.concatenate(l_all).astype(np.int64),
                pos=pa.array(p_all, pa.large_binary()) if has_pos
                else None)
            # a pre-blockmax index compacts to its own (old) schema:
            # select drops the block-meta columns the rebuild now emits
            parts_out.append(
                rebuilt.select(post.schema.names).cast(post.schema))
        if parts_out:
            new_post = (pa.concat_tables(parts_out)
                        .sort_by([("term", "ascending")]))
        else:
            new_post = post.schema.empty_table()
        dlen = read_doclens(part_dir)
        live = tombstone_mask(dlen["doc_id"].to_numpy(), self.deleted)
        new_dlen = dlen.filter(pa.array(live))
        s = write_segment_files(part_dir, new_post, new_dlen)
        hot = new_post.sort_by([("cf", "descending")]).slice(0, 10)
        skew = {"top_terms": [
            {"term": t, "cf": c, "df": d} for t, c, d in
            zip(hot["term"].to_pylist(), hot["cf"].to_pylist(),
                hot["df"].to_pylist())]}
        checkpoint.write_manifest(part_dir, part, self.config_hash,
                                  {"input_id": self.input_id}, s, skew)
        s["part"] = part
        return s

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = [self._compact_part(int(p))
                for p in batch["part"].to_pylist()]
        return pa.table({
            "part": pa.array([r["part"] for r in rows], pa.int32()),
            "n_terms": pa.array([r["n_terms"] for r in rows], pa.int64()),
            "n_postings": pa.array([r["n_postings"] for r in rows],
                                   pa.int64()),
            "n_docs": pa.array([r["n_docs"] for r in rows], pa.int64()),
            "sum_dl": pa.array([r["sum_dl"] for r in rows], pa.int64()),
            "total_tf": pa.array([r["total_tf"] for r in rows], pa.int64()),
        })


def compact_index(index_dir: str) -> dict:
    """Rewrite all segments dropping tombstoned docs; recompute exact
    global stats + lexicon; clear tombstones. One Ray task per batch
    of segments, no shuffle. Returns the new stats dict. No-op (stats
    returned unchanged) when there are no tombstones."""
    from raysearch.build import _write_lexicon

    stats = statsmod.load_stats(index_dir)
    deleted = load_deletes(index_dir)
    if len(deleted) == 0:
        return stats
    parts = stats.get("parts") or []
    base_input = stats.get("lineage", {}).get("input_id", "<unknown>")
    config_hash = stats.get("lineage", {}).get("config_hash", "")
    import hashlib as _hl

    input_id = (f"{base_input}#compact="
                f"{_hl.sha256(deleted.tobytes()).hexdigest()[:12]}")

    def kern(batch: pa.Table) -> pa.Table:
        return _CompactWorker(index_dir, deleted, config_hash,
                              input_id)(batch)

    rows = map_parts(parts, kern, pa.table({})).to_pylist()

    partials = [{k: int(r[k]) for k in
                 ("n_docs", "sum_dl", "total_tf", "n_postings", "n_terms")}
                for r in rows]
    merged = statsmod.tree_merge(partials)
    vocab = _write_lexicon(index_dir,
                           n_rows_hint=sum(p["n_terms"] for p in partials))
    new_stats = statsmod.write_stats(
        index_dir, merged, stats["config"],
        {"input_id": input_id, "config_hash": config_hash},
        extra={"vocab_size": vocab,
               "parts": sorted(int(r["part"]) for r in rows),
               "parts_detail": sorted(
                   ({"part": int(r["part"]), "n_docs": int(r["n_docs"]),
                     "n_terms": int(r["n_terms"]),
                     "n_postings": int(r["n_postings"]),
                     "sum_dl": int(r["sum_dl"]),
                     "total_tf": int(r["total_tf"])} for r in rows),
                   key=lambda d: d["part"])})
    clear_deletes(index_dir)
    return new_stats


# ---- incremental append ----


def _part_partials(index_dir: str, stats: dict) -> list[dict]:
    """Per-part stat partials for the EXISTING segments. Prefers the
    stats.json parts_detail (metadata, no file IO); falls back to the
    per-part manifests for indexes written before total_tf was
    recorded there."""
    parts_set = set(stats.get("parts", []))
    detail = sorted((d for d in stats.get("parts_detail") or []
                     if d.get("part") in parts_set),
                    key=lambda d: d["part"])
    if (detail and len(detail) == len(parts_set)
            and all("total_tf" in d for d in detail)):
        return [{k: int(d[k]) for k in
                 ("n_docs", "sum_dl", "total_tf", "n_postings", "n_terms")}
                for d in detail]
    out = []
    for p in sorted(parts_set):
        m = checkpoint.load_manifest(part_dirname(index_dir, p))
        out.append({k: int(m["stats"][k]) for k in
                    ("n_docs", "sum_dl", "total_tf", "n_postings",
                     "n_terms")})
    return out


def append_index(
    source,
    index_dir: str,
    input_id: str | None = None,
    num_parts: int | None = None,
    with_sha: bool = True,
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
    import ray.data

    from raysearch.build import (
        _auto_parts,
        _exchange_width,
        _footer_rows,
        _make_segment_writer,
        _write_lexicon,
    )
    from raysearch.segments import clean_stale_staging
    from raysearch.triples import make_triple_fn

    stats = statsmod.load_stats(index_dir)
    base_cfg = IndexConfig.from_dict(stats["config"])
    old_parts = sorted(stats.get("parts") or [])
    part_offset = (max(old_parts) + 1) if old_parts else base_cfg.num_parts

    plain_source = isinstance(source, (str, list))
    if plain_source:
        n_new = _footer_rows(source)
        default_id = str(source)
    else:
        n_new = None
        default_id = "<dataset>"
    if num_parts is None:
        num_parts = _auto_parts(n_new) if n_new is not None else 8
    cfg2 = IndexConfig(num_parts=num_parts, salt=base_cfg.salt,
                       k1=base_cfg.k1, b=base_cfg.b,
                       tokenizer_version=base_cfg.tokenizer_version,
                       codec_version=base_cfg.codec_version,
                       with_positions=base_cfg.with_positions)
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

    clean_stale_staging(index_dir)
    valid = frozenset(
        part_offset + p for p in range(num_parts)
        if checkpoint.validate_manifest(
            part_dirname(index_dir, part_offset + p), config_hash,
            append_id))

    width = _exchange_width(num_parts)
    if plain_source:
        ds = ray.data.read_parquet(source,
                                   columns=["doc_id", "lang", "content"],
                                   override_num_blocks=width)
    else:
        ds = source
    triples = ds.map_batches(
        make_triple_fn(cfg2, with_sha=with_sha),
        batch_format="pyarrow", zero_copy_batch=True)
    if not plain_source:
        triples = triples.repartition(width)
    writer = _make_segment_writer(index_dir, cfg2, append_id, valid,
                                  from_triples=(cfg2.salt == 1),
                                  part_offset=part_offset)
    if cfg2.salt == 1:
        seg_rows = triples.groupby("gkey").map_groups(
            writer, batch_format="pyarrow")
    else:
        from raysearch.segments import build_partials

        partials = triples.groupby("gkey").map_groups(
            build_partials, batch_format="pyarrow")
        seg_rows = partials.groupby("dpart").map_groups(
            writer, batch_format="pyarrow")
    rows = seg_rows.take_all()

    new_partials = [
        {"n_docs": int(r["n_docs"]), "sum_dl": int(r["sum_dl"]),
         "total_tf": int(r["total_tf"]),
         "n_postings": int(r["n_postings"]),
         "n_terms": int(r["n_terms"])}
        for r in rows]
    old_partials = _part_partials(index_dir, stats)
    merged = statsmod.tree_merge(old_partials + new_partials)

    new_parts = sorted(int(r["part"]) for r in rows)
    all_parts = sorted(set(old_parts) | set(new_parts))
    # prune any orphaned segment dirs (e.g. a crashed append with a
    # different source) BEFORE the lexicon rebuild scans the dir tree
    from raysearch.build import _prune_orphan_segments

    _prune_orphan_segments(index_dir, keep=set(all_parts))
    vocab = _write_lexicon(
        index_dir,
        n_rows_hint=(sum(p["n_terms"] for p in old_partials)
                     + sum(p["n_terms"] for p in new_partials)))

    old_detail = stats.get("parts_detail") or []
    # refresh old detail rows with total_tf if they predate it
    detail_by_part = {d["part"]: dict(d) for d in old_detail}
    for p, part in zip(old_partials, old_parts):
        d = detail_by_part.setdefault(part, {"part": part})
        d.update({"n_docs": p["n_docs"], "n_terms": p["n_terms"],
                  "n_postings": p["n_postings"], "sum_dl": p["sum_dl"],
                  "total_tf": p["total_tf"]})
    for r in rows:
        detail_by_part[int(r["part"])] = {
            "part": int(r["part"]), "n_docs": int(r["n_docs"]),
            "n_terms": int(r["n_terms"]),
            "n_postings": int(r["n_postings"]),
            "sum_dl": int(r["sum_dl"]), "total_tf": int(r["total_tf"])}
    base_input = stats.get("lineage", {}).get("input_id", "<unknown>")
    return statsmod.write_stats(
        index_dir, merged, stats["config"],
        {"input_id": f"{base_input}+{append_id}",
         "config_hash": stats.get("lineage", {}).get("config_hash", ""),
         "append_config_hash": config_hash},
        extra={"vocab_size": vocab, "parts": all_parts,
               "parts_detail": sorted(detail_by_part.values(),
                                      key=lambda d: d["part"])})
