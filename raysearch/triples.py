"""Map-side tokenize + combine: corpus batches -> (term, doc_id, tf, dl)
triples, fully vectorized.

This is the engine's version of the reference's serial
``add_document_to_index`` loop (/root/reference/src/lib.rs:358-368,
src/main.rs:66-69): instead of pushing a doc id once per token
occurrence into a shared HashMap, each Arrow batch is tokenized with
pyarrow kernels and pre-aggregated to one row per (doc, term) with its
term frequency — the map-side combiner that shrinks the shuffle. The
document length ``dl`` rides along on every triple so posting lists
embed it and query scoring never needs a doclens join (a deliberate
space-for-locality trade at 100 TB scale).

Each batch also emits one "doclen" row per document (kind=1) carrying
(doc_id, dl, sha256(content)) packed into the same schema — these flow
through the same shuffle and become the per-partition document-length
table + the per-row content-hash invariant record.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raysearch.config import IndexConfig
from raysearch.hashing import doc_partition
from raysearch.tokenize import tokenize_column

KIND_POSTING = 0
KIND_DOCLEN = 1

TRIPLE_SCHEMA = pa.schema([
    ("gkey", pa.int32()),     # shuffle key: document-hash part (segment id)
    ("kind", pa.int8()),      # 0 = posting triple, 1 = doclen record
    # dictionary-encoded through the shuffle: a block's terms repeat
    # heavily across documents, so shipping int32 codes + one
    # dictionary per block cuts the exchange's dominant payload to a
    # fraction of the full strings (decoded after the shuffle in
    # segments.build_partials)
    ("term", pa.dictionary(pa.int32(), pa.large_string())),
    ("doc_id", pa.int64()),
    ("tf", pa.int32()),       # term frequency (kind=0)
    ("dl", pa.int32()),       # document token count
    ("sha", pa.string()),     # sha256(content) hex (kind=1 only)
])


def _tokenize_permuted(content: pa.Array, lang: pa.Array | None,
                       doc_id: np.ndarray
                       ) -> tuple[pa.Array, np.ndarray, pa.Array]:
    """Tokenize with subset dispatch; returns (token lists, doc_ids,
    contents) PERMUTED so plain rows come first — callers must use the
    returned doc_id/content, not the input order."""
    from raysearch.tokenize import HTML_LANGS, JSON_LANGS, tokenize_doc

    if lang is None:
        return tokenize_column(content, None), doc_id, content
    lang_np = np.asarray(lang.to_numpy(zero_copy_only=False), dtype=object)
    special = np.isin(lang_np, list(HTML_LANGS | JSON_LANGS))
    if not special.any():
        return tokenize_column(content, None), doc_id, content
    plain_idx = np.flatnonzero(~special)
    spec_idx = np.flatnonzero(special)
    plain_toks = tokenize_column(content.take(pa.array(plain_idx)), None)
    spec_content = content.take(pa.array(spec_idx))
    spec_lists = [tokenize_doc(s, l) for s, l in
                  zip(spec_content.to_pylist(), lang_np[spec_idx])]
    spec_toks = pa.array(spec_lists, type=pa.large_list(pa.large_string()))
    toks = pa.concat_arrays([
        plain_toks.cast(pa.large_list(pa.large_string())), spec_toks])
    order = np.concatenate([plain_idx, spec_idx])
    return (toks, doc_id[order],
            pa.concat_arrays([content.take(pa.array(plain_idx)),
                              spec_content]))


def _sha256_hex_column(arr: pa.Array) -> list[str]:
    """sha256 per row hashing the utf8 buffer slices directly (no
    str decode + re-encode round trip)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.offset != 0 or arr.null_count:
        return [hashlib.sha256(s.encode("utf-8", "surrogatepass")).hexdigest()
                if s is not None else None for s in arr.to_pylist()]
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], dtype=off_dtype, count=len(arr) + 1)
    mv = memoryview(bufs[2])[: offs[-1]] if bufs[2] is not None else b""
    return [hashlib.sha256(mv[offs[i]:offs[i + 1]]).hexdigest()
            for i in range(len(arr))]


def _positional_groups(flat_terms: pa.Array, tok_doc_idx: np.ndarray,
                       dl: np.ndarray
                       ) -> tuple[pa.Array, np.ndarray, np.ndarray, pa.Array]:
    """Group flat tokens to (doc, term) runs CARRYING positions:
    returns (terms_per_run, run_doc_index, tf_per_run, pos_blobs)
    where pos_blobs[i] is the delta+varint encoding of run i's
    within-doc token positions (ascending). One lexsort + one bulk
    varint pass — no per-token Python. Replaces the hash groupby of
    the non-positional path (run lengths ARE the tf counts)."""
    import pyarrow.compute as _pc

    total = int(dl.sum())
    doc_starts = np.zeros(len(dl), dtype=np.int64)
    np.cumsum(dl[:-1], out=doc_starts[1:])
    local_pos = (np.arange(total, dtype=np.int64)
                 - np.repeat(doc_starts, dl))
    dict_arr = _pc.dictionary_encode(
        _pc.cast(flat_terms, pa.large_string()))
    codes = dict_arr.indices.to_numpy().astype(np.int64)
    # stable lexsort: primary doc, secondary term code; ties keep
    # token order, so positions stay ascending inside each run
    order = np.lexsort((codes, tok_doc_idx))
    sdi = tok_doc_idx[order]
    sc = codes[order]
    sp = local_pos[order]
    if total:
        chg = np.flatnonzero((sdi[1:] != sdi[:-1]) | (sc[1:] != sc[:-1]))
        rstarts = np.concatenate([[0], chg + 1]).astype(np.int64)
    else:
        rstarts = np.zeros(0, dtype=np.int64)
    rbounds = np.append(rstarts, total)
    tf_run = np.diff(rbounds)
    from raysearch.codec import binary_from_offsets, bulk_encode_segmented

    pos_buf, pos_off = bulk_encode_segmented(sp, rstarts, delta=True)
    terms_run = dict_arr.dictionary.take(
        pa.array(sc[rstarts], pa.int64())) if len(rstarts) else \
        pa.array([], pa.large_string())
    return (terms_run, sdi[rstarts] if len(rstarts) else
            np.zeros(0, np.int64), tf_run,
            binary_from_offsets(pos_buf, pos_off))


def make_triple_fn(config: IndexConfig, with_sha: bool = True):
    """Returns the map_batches UDF (a plain function -> stateless Ray
    tasks; no per-task state worth an actor here)."""

    num_parts = config.num_parts
    with_positions = getattr(config, "with_positions", False)

    def make_triples(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        doc_id = batch["doc_id"].to_numpy()
        content = batch["content"].combine_chunks() if isinstance(
            batch["content"], pa.ChunkedArray) else batch["content"]
        lang = batch["lang"] if "lang" in batch.column_names else None
        if lang is not None and isinstance(lang, pa.ChunkedArray):
            lang = lang.combine_chunks()
        # Split rows by tokenizer branch and process each subset in its
        # native mode: plain rows stay on the zero-copy arrow path and
        # only html/json rows run per-row Python. Triples are
        # order-free, so subsets are concatenated permuted instead of
        # stitched positionally (no full-batch to_pylist round trip —
        # ~30% of build CPU on a mixed-lang corpus).
        toks, doc_id, content = _tokenize_permuted(content, lang, doc_id)
        n = len(doc_id)
        dl = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat_terms = toks.flatten()
        # tf per (doc, term): pyarrow native hash aggregation — or,
        # with positions on, the run-based grouping that carries each
        # run's encoded within-doc positions (run length == tf)
        tok_doc_idx = np.repeat(np.arange(n, dtype=np.int64), dl)
        if with_positions:
            g_terms, di, g_tf, pos_blobs = _positional_groups(
                flat_terms, tok_doc_idx, dl)
        else:
            grouped = pa.table({
                "di": pa.array(tok_doc_idx, pa.int64()),
                "term": pc.cast(flat_terms, pa.large_string()),
            }).group_by(["di", "term"]).aggregate([([], "count_all")])
            di = grouped["di"].to_numpy()
            g_terms = grouped["term"].combine_chunks()
            g_tf = grouped["count_all"].to_numpy().astype(np.int64)
            pos_blobs = None
        g_doc = doc_id[di]
        n_trip = len(di)

        # doclen rows: one per input doc (including empty docs)
        if with_sha:
            shas = _sha256_hex_column(content)
        else:
            shas = [None] * n

        cols = {
            "gkey": pa.array(doc_partition(np.concatenate([g_doc, doc_id]),
                                           num_parts), pa.int32()),
            "kind": pa.array(np.concatenate([
                np.zeros(n_trip, np.int8), np.ones(n, np.int8)]), pa.int8()),
            "term": pc.dictionary_encode(pa.concat_arrays([
                g_terms.combine_chunks() if isinstance(
                    g_terms, pa.ChunkedArray) else g_terms,
                pa.array([""] * n, pa.large_string())])),
            "doc_id": pa.array(np.concatenate([g_doc, doc_id]), pa.int64()),
            "tf": pa.array(np.concatenate([
                g_tf, np.zeros(n, np.int64)]), pa.int32()),
            "dl": pa.array(np.concatenate([dl[di], dl]), pa.int32()),
            "sha": pa.array([None] * n_trip + shas, pa.string()),
        }
        if pos_blobs is not None:
            cols["pos"] = pa.concat_arrays([
                pos_blobs, pa.array([b""] * n, pa.large_binary())])
        return pa.table(cols)

    return make_triples
