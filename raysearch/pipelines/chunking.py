"""Content-defined chunking (CDC) over the ``documents`` table — the
rolling-hash fingerprinting op from the training-data mandate (the
sub-document dedup primitive: CDC boundaries survive insertions, so
shifted copies still share most chunk hashes, which byte-offset
chunking cannot do).

Vectorized: each batch flattens its documents into ONE byte array, a
polynomial rolling hash over a 16-byte window is computed with a
single strided-view matmul (no per-byte or per-doc Python), cut
points are a boolean mask (hash % TARGET == 0, cross-document windows
masked out), and chunk shas come from the boundary arrays.

No SQL oracle (a rolling hash is not reasonably expressible in
DuckDB): rows-only driver check + pytest properties (chunks
reassemble to the document; content-defined shift invariance).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

_DOCS = "documents.parquet"

CDC_WINDOW = 16          # rolling window bytes
CDC_TARGET = 64          # boundary when hash % TARGET == 0 (~64B mean)
CDC_MIN_CHUNK = 16       # suppress boundaries closer than this

# LOAD-BEARING INVARIANT: boundaries are only honored at offsets
# >= CDC_MIN_CHUNK into a document, and a cut at offset i is derived
# from the window [i-CDC_WINDOW, i). MIN_CHUNK >= WINDOW therefore
# guarantees every honored window lies wholly inside its document —
# the hash over the batch-flattened byte array can never leak a
# neighbor document's bytes into a cut decision (which would make
# chunking depend on batch composition).
assert CDC_MIN_CHUNK >= CDC_WINDOW
_P = np.uint64(1_000_003)
_POWERS = (_P ** np.arange(CDC_WINDOW, dtype=np.uint64))[::-1].copy()


def _read_docs(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, _DOCS),
                                 columns=["doc_id", "text"])


def _chunk_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, chunk_idx, n_bytes, chunk_sha) rows for one batch."""
    texts = [t.encode() for t in batch["text"].to_pylist()]
    doc_ids = batch["doc_id"].to_numpy()
    lens = np.array([len(t) for t in texts], dtype=np.int64)
    keep = lens > 0
    if not keep.any():
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "chunk_idx": pa.array([], pa.int64()),
                         "n_bytes": pa.array([], pa.int64()),
                         "chunk_sha": pa.array([], pa.string())})
    flat = np.frombuffer(b"".join(texts), dtype=np.uint8)
    starts = np.zeros(len(texts), dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    ends = starts + lens

    # rolling hash of every WINDOW-byte window: strided view + matmul
    cand = np.zeros(0, dtype=np.int64)
    if len(flat) >= CDC_WINDOW:
        win = np.lib.stride_tricks.sliding_window_view(flat, CDC_WINDOW)
        h = win.astype(np.uint64) @ _POWERS  # wraps mod 2^64
        # window ending at byte i-1 puts a cut BEFORE byte i
        cand = np.flatnonzero(h % np.uint64(CDC_TARGET) == 0) + CDC_WINDOW

    # Greedy min-gap boundary selection, vectorized ACROSS DOCS: every
    # doc advances one kept cut per pass (searchsorted over the flat
    # candidate array), so the Python loop runs max-chunks-per-doc
    # times per batch — not n_docs x chunks times.
    live = np.flatnonzero(keep)
    c_lo = np.searchsorted(cand, starts[live] + CDC_MIN_CHUNK)
    c_hi = np.searchsorted(cand, ends[live])
    last = starts[live].copy()
    cut_doc_parts, cut_pos_parts = [], []
    while True:
        j = np.searchsorted(cand, last + CDC_MIN_CHUNK)
        j = np.maximum(j, c_lo)
        act = j < c_hi
        if not act.any():
            break
        pos = cand[j[act]]
        cut_doc_parts.append(live[act])
        cut_pos_parts.append(pos)
        # docs with no further candidate park at their end (inactive)
        nxt = np.where(act, 0, ends[live])
        nxt[act] = pos
        last = nxt
        c_lo = np.maximum(c_lo, np.where(act, j + 1, c_lo))

    n_docs = len(doc_ids)
    if cut_doc_parts:
        cut_doc = np.concatenate(cut_doc_parts)
        cut_pos = np.concatenate(cut_pos_parts)
        order = np.lexsort((cut_pos, cut_doc))
        cut_doc, cut_pos = cut_doc[order], cut_pos[order]
    else:
        cut_doc = cut_pos = np.zeros(0, dtype=np.int64)

    # assemble per-chunk (start, end) arrays: doc d with k_d kept cuts
    # yields k_d + 1 chunks; starts interleave [s_d, cuts], ends
    # interleave [cuts, e_d]
    k = np.bincount(cut_doc, minlength=n_docs)
    n_chunks = np.where(keep, k + 1, 0)
    total = int(n_chunks.sum())
    first = np.zeros(n_docs, dtype=np.int64)
    np.cumsum(n_chunks[:-1], out=first[1:])
    doc_rep = np.repeat(np.arange(n_docs), n_chunks)
    chunk_idx = np.arange(total) - np.repeat(first, n_chunks)
    cs = np.empty(total, dtype=np.int64)
    ce = np.empty(total, dtype=np.int64)
    is_first = chunk_idx == 0
    is_last = chunk_idx == np.repeat(n_chunks - 1, n_chunks)
    cs[is_first] = starts[keep]
    cs[~is_first] = cut_pos
    ce[is_last] = ends[keep]
    ce[~is_last] = cut_pos

    # Python below loops over CHUNKS only (the sha call); slices are
    # zero-copy memoryviews of the flat byte buffer
    shas = [hashlib.sha256(flat[a:b]).hexdigest()[:16]
            for a, b in zip(cs, ce)]
    return pa.table({
        "doc_id": pa.array(doc_ids[doc_rep], pa.int64()),
        "chunk_idx": pa.array(chunk_idx, pa.int64()),
        "n_bytes": pa.array(ce - cs, pa.int64()),
        "chunk_sha": pa.array(shas, pa.string()),
    })


def doc_chunks(sf_dir: str) -> pa.Table:
    """Per-document CDC chunk table (doc_id, chunk_idx, n_bytes,
    chunk_sha). Rows-only driver check; properties in pytest."""
    out = _read_docs(sf_dir).map_batches(
        _chunk_batch, batch_format="pyarrow", zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


def chunk_dedup_stats(sf_dir: str) -> pa.Table:
    """Corpus-level CDC dedup summary: total chunks/bytes vs distinct
    chunks/bytes — the 'how much would chunk-level dedup save' number.
    Shuffle carries (sha16, n_bytes) pairs only."""
    from ray.data.aggregate import Count, Max, Sum

    chunks = _read_docs(sf_dir).map_batches(
        _chunk_batch, batch_format="pyarrow", zero_copy_batch=True)
    per_sha = chunks.groupby("chunk_sha").aggregate(
        Count(alias_name="copies"), Max("n_bytes", alias_name="n_bytes"))
    df = per_sha.to_pandas()
    total_chunks = int(df.copies.sum())
    total_bytes = int((df.copies * df.n_bytes).sum())
    return pa.table({
        "total_chunks": pa.array([total_chunks], pa.int64()),
        "distinct_chunks": pa.array([len(df)], pa.int64()),
        "total_bytes": pa.array([total_bytes], pa.int64()),
        "distinct_bytes": pa.array([int(df.n_bytes.sum())], pa.int64()),
    })


QUERIES = {
    "doc_chunks": doc_chunks,
    "chunk_dedup_stats": chunk_dedup_stats,
}

ORACLE_SQL = {}  # rolling hash: not SQL-expressible -> rows-only
