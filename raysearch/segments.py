"""Posting-list segment construction and IO.

A segment = one document-hash partition of the index:

    segments/part-00042/
        postings.parquet   term, df, cf, max_tf, docs_enc, tfs_enc, dls_enc
        doclens.parquet    doc_id, dl, sha (sha256 of source content)
        _MANIFEST.json     lineage + content hashes (checkpoint.py)

postings.parquet rows are term-sorted; doc_ids are ascending,
delta+varint encoded (codec.py); tf and dl ride along per posting entry
so BM25 needs no doclens join at query time. Small row groups keep
term-filtered reads cheap (row-group min/max pruning on the sorted term
column).

The reference never persists its index at all (nothing serializes
SearchLibrary — absence noted in SURVEY §2.1); this layout is mandated
by the north rule (compressed postings, per-partition doc-length
tables, resumable checkpoints).

All posting construction is vectorized: sort -> dictionary-encode ->
reduceat for df/cf/max_tf -> one bulk varint pass per column, then the
per-term blobs are cut out of the bulk buffer by byte offsets
(codec.bulk_encode_segmented). No per-term Python loop on the build
path.
"""

from __future__ import annotations

import bisect
import collections
import os
import re
import threading

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from raysearch import checkpoint
from raysearch.codec import (
    binary_from_offsets,
    bulk_encode_segmented,
    decode_doc_ids,
    decode_ints,
    decode_pos_runs,
    varint_run_byte_offsets,
)
from raysearch.triples import KIND_DOCLEN, KIND_POSTING

_SHA_HEX_LEN = 64

# block-max metadata granularity (Lucene-style BMW skip data): every
# posting row carries, per BLOCK-entry block, the absolute first doc
# (bfirst_enc, delta+varint) and the block max tf (bmax_enc, varint).
# ~2/BLOCK size overhead; lets the MaxScore path (wand.py) prune and
# DECODE whole blocks selectively — the stored first doc makes any
# block independently decodable from the unchanged row blob (the
# block's leading delta is replaced by the stored absolute value).
BLOCK = 128

PARTIAL_SCHEMA = pa.schema([
    ("kind", pa.int8()),
    ("term", pa.large_string()),
    ("df", pa.int64()),
    ("cf", pa.int64()),
    ("max_tf", pa.int32()),
    ("docs_enc", pa.large_binary()),
    ("tfs_enc", pa.large_binary()),
    ("dls_enc", pa.large_binary()),
    ("bfirst_enc", pa.large_binary()),
    ("bmax_enc", pa.large_binary()),
])

POSTINGS_SCHEMA = pa.schema([
    ("term", pa.large_string()),
    ("df", pa.int64()),
    ("cf", pa.int64()),
    ("max_tf", pa.int32()),
    ("docs_enc", pa.large_binary()),
    ("tfs_enc", pa.large_binary()),
    ("dls_enc", pa.large_binary()),
    ("bfirst_enc", pa.large_binary()),
    ("bmax_enc", pa.large_binary()),
])

# positional variants (config.with_positions): pos_enc is the
# concatenation, in doc order, of each doc's delta+varint-encoded
# within-doc positions — split along the tf array (value counts) or
# varint_run_byte_offsets (byte slices), delta resetting per doc so
# per-doc blobs are independently decodable and byte-concatenable
PARTIAL_SCHEMA_POS = PARTIAL_SCHEMA.append(
    pa.field("pos_enc", pa.large_binary()))
POSTINGS_SCHEMA_POS = POSTINGS_SCHEMA.append(
    pa.field("pos_enc", pa.large_binary()))


def _pos_value_offsets(arr: pa.Array) -> tuple[np.ndarray, memoryview]:
    """(absolute value byte offsets, data buffer) of a large_binary
    array, honoring a nonzero array offset."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    bufs = arr.buffers()
    off = np.frombuffer(bufs[1], dtype=np.int64)[
        arr.offset: arr.offset + len(arr) + 1]
    data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
    return off, data


def _concat_blob_runs(arr: pa.Array, bounds: np.ndarray) -> pa.Array:
    """Concatenate consecutive blob values into per-run blobs by byte
    slicing (zero-copy): run i = values [bounds[i], bounds[i+1])."""
    off, data = _pos_value_offsets(arr)
    b0 = off[bounds]
    newoff = b0 - b0[0]
    return pa.Array.from_buffers(
        pa.large_binary(), len(b0) - 1,
        [None, pa.py_buffer(newoff.astype(np.int64).tobytes()),
         pa.py_buffer(bytes(data[b0[0]:b0[-1]]))])


_binary_from_offsets = binary_from_offsets  # canonical impl: codec.py


def postings_from_sorted_triples(
    terms: pa.Array, doc_ids: np.ndarray, tfs: np.ndarray, dls: np.ndarray,
    pos: pa.Array | None = None,
) -> pa.Table:
    """Build encoded posting rows from (term, doc_id)-sorted triples.
    ``pos``, when given, is a large_binary array aligned with the
    triples: each value is that (term, doc)'s already-encoded
    within-doc position blob; per-term pos_enc is the byte-level
    concatenation over the term's doc run (no re-encode)."""
    n = len(doc_ids)
    if n == 0:
        return (POSTINGS_SCHEMA_POS if pos is not None
                else POSTINGS_SCHEMA).empty_table()
    dict_arr = pc.dictionary_encode(terms)
    # terms sorted => dictionary is in first-appearance = sorted order
    # and codes are monotonically nondecreasing
    codes = dict_arr.indices.to_numpy()
    uniq_terms = dict_arr.dictionary
    starts = np.concatenate([[0], np.flatnonzero(np.diff(codes)) + 1])
    bounds = np.append(starts, n)
    df = np.diff(bounds)
    cf = np.add.reduceat(tfs, starts)
    max_tf = np.maximum.reduceat(tfs, starts)
    docs_buf, docs_off = bulk_encode_segmented(doc_ids, starts, delta=True)
    tfs_buf, tfs_off = bulk_encode_segmented(tfs, starts, delta=False)
    dls_buf, dls_off = bulk_encode_segmented(dls, starts, delta=False)
    # per-term block metadata: ceil(df/BLOCK) blocks per term; for each
    # block its first (absolute) doc and its max tf. One reduceat, one
    # bulk varint pass — same no-Python-loop discipline as the blobs.
    nb = (df + BLOCK - 1) // BLOCK
    brow_starts = np.zeros(len(nb), dtype=np.int64)
    np.cumsum(nb[:-1], out=brow_starts[1:])
    total_blocks = int(nb.sum())
    within = ((np.arange(total_blocks, dtype=np.int64)
               - np.repeat(brow_starts, nb)) * BLOCK)
    bstarts = np.repeat(bounds[:-1], nb) + within
    bfirst = doc_ids[bstarts]
    bmax = (np.maximum.reduceat(tfs, bstarts) if total_blocks
            else np.zeros(0, np.int64))
    bfirst_buf, bfirst_off = bulk_encode_segmented(
        bfirst, brow_starts, delta=True)
    bmax_buf, bmax_off = bulk_encode_segmented(
        bmax.astype(np.int64), brow_starts, delta=False)
    cols = {
        "term": pc.cast(uniq_terms, pa.large_string()),
        "df": pa.array(df, pa.int64()),
        "cf": pa.array(cf.astype(np.int64), pa.int64()),
        "max_tf": pa.array(max_tf.astype(np.int32), pa.int32()),
        "docs_enc": _binary_from_offsets(docs_buf, docs_off),
        "tfs_enc": _binary_from_offsets(tfs_buf, tfs_off),
        "dls_enc": _binary_from_offsets(dls_buf, dls_off),
        "bfirst_enc": _binary_from_offsets(bfirst_buf, bfirst_off),
        "bmax_enc": _binary_from_offsets(bmax_buf, bmax_off),
    }
    if pos is not None:
        cols["pos_enc"] = _concat_blob_runs(pos, bounds)
    return pa.table(cols)


def build_partials(group: pa.Table) -> pa.Table:
    """Triples of one part (one ``gkey`` group) -> its encoded posting
    rows (term-sorted) plus one packed doclen row."""
    # terms arrive dictionary-encoded from the shuffle (triples.py);
    # decode once here — everything downstream wants plain strings
    tcol = group["term"]
    if pa.types.is_dictionary(tcol.type):
        group = group.set_column(
            group.schema.get_field_index("term"), "term",
            pc.cast(tcol, pa.large_string()))

    has_pos = "pos" in group.column_names
    schema = PARTIAL_SCHEMA_POS if has_pos else PARTIAL_SCHEMA
    out_tables = []
    post = group.filter(pc.equal(group["kind"], KIND_POSTING))
    if post.num_rows:
        post = post.sort_by([("term", "ascending"), ("doc_id", "ascending")])
        tbl = postings_from_sorted_triples(
            post["term"].combine_chunks(),
            post["doc_id"].to_numpy(),
            post["tf"].to_numpy().astype(np.int64),
            post["dl"].to_numpy().astype(np.int64),
            pos=post["pos"] if has_pos else None)
        tbl = tbl.add_column(0, "kind", pa.array([KIND_POSTING] * tbl.num_rows, pa.int8()))
        out_tables.append(tbl)

    dlen = group.filter(pc.equal(group["kind"], KIND_DOCLEN))
    if dlen.num_rows:
        dlen = dlen.sort_by([("doc_id", "ascending")])
        docs = dlen["doc_id"].to_numpy()
        dls = dlen["dl"].to_numpy().astype(np.int64)
        shas = dlen["sha"].to_pylist()
        one = np.zeros(1, dtype=np.int64)
        docs_buf, _ = bulk_encode_segmented(docs, one, delta=True)
        dls_buf, _ = bulk_encode_segmented(dls, one, delta=False)
        sha_buf = "".join(s if s is not None else "0" * _SHA_HEX_LEN
                          for s in shas).encode()
        dcols = {
            "kind": pa.array([KIND_DOCLEN], pa.int8()),
            "term": pa.array([""], pa.large_string()),
            "df": pa.array([len(docs)], pa.int64()),
            "cf": pa.array([int(dls.sum())], pa.int64()),
            "max_tf": pa.array([0], pa.int32()),
            "docs_enc": pa.array([docs_buf], pa.large_binary()),
            "tfs_enc": pa.array([sha_buf], pa.large_binary()),
            "dls_enc": pa.array([dls_buf], pa.large_binary()),
            "bfirst_enc": pa.array([b""], pa.large_binary()),
            "bmax_enc": pa.array([b""], pa.large_binary()),
        }
        if has_pos:
            dcols["pos_enc"] = pa.array([b""], pa.large_binary())
        out_tables.append(pa.table(dcols))
    if not out_tables:
        return schema.empty_table()
    return pa.concat_tables([t.cast(schema) for t in out_tables])


def merge_partials(rows: pa.Table) -> tuple[pa.Table, pa.Table]:
    """One part's ``build_partials`` output -> the segment's final
    (postings, doclens) tables. The encoded posting rows pass through
    untouched; the packed doclen row is unpacked."""
    has_pos = "pos_enc" in rows.column_names
    out_schema = POSTINGS_SCHEMA_POS if has_pos else POSTINGS_SCHEMA
    postings = (rows.filter(pc.equal(rows["kind"], KIND_POSTING))
                .drop_columns(["kind"]).cast(out_schema))
    dlen = rows.filter(pc.equal(rows["kind"], KIND_DOCLEN))
    if dlen.num_rows:
        docs = decode_doc_ids(dlen["docs_enc"][0].as_py())
        dls = decode_ints(dlen["dls_enc"][0].as_py())
        blob = dlen["tfs_enc"][0].as_py().decode()
        shas = [blob[j * _SHA_HEX_LEN:(j + 1) * _SHA_HEX_LEN]
                for j in range(len(docs))]
    else:
        docs, dls, shas = np.zeros(0, np.int64), np.zeros(0, np.int64), []
    doclens = pa.table({
        "doc_id": pa.array(docs, pa.int64()),
        "dl": pa.array(dls.astype(np.int32), pa.int32()),
        "sha": pa.array(shas, pa.string()),
    })
    return postings, doclens


def rebuild_postings(tables: list[pa.Table], live=None) -> pa.Table:
    """Decode every posting row of ``tables`` back to (term, doc, tf,
    dl) triples and re-encode them through postings_from_sorted_triples
    — the rebuild merge and compaction share. Runs of one term from
    several tables combine (their doc sets must be disjoint). ``live``,
    when given, maps a row's doc array to a keep mask; dropped docs
    leave the rebuilt rows, and a term left with no docs leaves the
    output. Per-doc position blobs are byte-sliced along the tf array
    and ride their triples untouched (delta resets per doc, so a blob
    is valid wherever it lands after the doc-order re-sort)."""
    has_pos = "pos_enc" in tables[0].column_names
    t_list, d_list, f_list, l_list, p_list = [], [], [], [], []
    for tbl in tables:
        terms = tbl["term"].to_pylist()
        for i, term in enumerate(terms):
            docs, tfs, dls = decode_posting_row(tbl, i)
            blobs = split_posting_positions(tbl, i, tfs) if has_pos else []
            if live is not None:
                keep = live(docs)
                docs, tfs, dls = docs[keep], tfs[keep], dls[keep]
                blobs = [b for b, k in zip(blobs, keep) if k]
            t_list.append(np.full(len(docs), term, dtype=object))
            d_list.append(docs)
            f_list.append(tfs)
            l_list.append(dls)
            p_list.extend(blobs)
    if not d_list:
        return (POSTINGS_SCHEMA_POS if has_pos
                else POSTINGS_SCHEMA).empty_table()
    tcols = {
        "term": pa.array(np.concatenate(t_list), pa.large_string()),
        "doc_id": pa.array(np.concatenate(d_list), pa.int64()),
        "tf": pa.array(np.concatenate(f_list), pa.int64()),
        "dl": pa.array(np.concatenate(l_list), pa.int64()),
    }
    if has_pos:
        tcols["pos"] = pa.array(p_list, pa.large_binary())
    trip = pa.table(tcols).sort_by(
        [("term", "ascending"), ("doc_id", "ascending")])
    return postings_from_sorted_triples(
        trip["term"].combine_chunks(), trip["doc_id"].to_numpy(),
        trip["tf"].to_numpy(), trip["dl"].to_numpy(),
        pos=trip["pos"] if has_pos else None)


# ---- segment IO ----

# exact segment-dir pattern: staging dirs are named
# "part-NNNNN.tmp-<pid>" and MUST never match (a SIGKILL can leave a
# staging dir containing a complete postings.parquet; a loose
# endswith(".tmp") filter would read it and double-count df/cf)
SEGMENT_DIR_RE = re.compile(r"part-(\d{5})")


def list_segment_parts(index_dir: str) -> list[int]:
    """Sorted part numbers of COMPLETE segment dirs only (exact
    part-NNNNN names; staging leftovers excluded)."""
    seg_root = os.path.join(index_dir, "segments")
    out = []
    for d in os.listdir(seg_root):
        m = SEGMENT_DIR_RE.fullmatch(d)
        if m:
            out.append(int(m.group(1)))
    return sorted(out)


def clean_stale_staging(index_dir: str) -> int:
    """Delete part-NNNNN.tmp-<pid> leftovers from killed builds (their
    contents may be complete OR truncated; either way they are not
    segments). Returns the number removed."""
    import shutil

    seg_root = os.path.join(index_dir, "segments")
    n = 0
    if not os.path.isdir(seg_root):
        return 0
    for d in os.listdir(seg_root):
        if SEGMENT_DIR_RE.fullmatch(d):
            continue
        if SEGMENT_DIR_RE.match(d) and ".tmp-" in d:
            shutil.rmtree(os.path.join(seg_root, d), ignore_errors=True)
            n += 1
    return n


def part_dirname(index_dir: str, part: int) -> str:
    return os.path.join(index_dir, "segments", f"part-{part:05d}")


def write_segment_files(part_dir: str, postings: pa.Table,
                        doclens: pa.Table) -> dict:
    """Atomic write: temp dir + os.replace, so partial writes are
    invisible and a rerun's validation sees only complete segments."""
    tmp = part_dir + f".tmp-{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)
    pq.write_table(postings, os.path.join(tmp, "postings.parquet"),
                   row_group_size=1024, compression="zstd")
    pq.write_table(doclens, os.path.join(tmp, "doclens.parquet"),
                   row_group_size=65536, compression="zstd")
    if os.path.isdir(part_dir):
        import shutil
        shutil.rmtree(part_dir)
    os.replace(tmp, part_dir)
    return {
        "n_terms": postings.num_rows,
        "n_postings": int(pc.sum(postings["df"]).as_py() or 0),
        "n_docs": doclens.num_rows,
        "sum_dl": int(pc.sum(doclens["dl"]).as_py() or 0),
        "total_tf": int(pc.sum(postings["cf"]).as_py() or 0),
    }


def commit_segment(part_dir: str, part: int, postings: pa.Table,
                   doclens: pa.Table, config_hash: str,
                   input_id: str) -> dict:
    """The one per-part commit every writer (build, append, merge,
    compaction) ends with: atomic segment write, then the manifest
    with its hot-term skew record (top terms by cf), written last.
    Returns the part's stats row."""
    s = write_segment_files(part_dir, postings, doclens)
    hot = postings.sort_by([("cf", "descending")]).slice(0, 10)
    skew = {"top_terms": [
        {"term": t, "cf": c, "df": d} for t, c, d in
        zip(hot["term"].to_pylist(), hot["cf"].to_pylist(),
            hot["df"].to_pylist())]}
    checkpoint.write_manifest(part_dir, part, config_hash,
                              {"input_id": input_id}, s, skew)
    return {"part": part, **s}


# what a relevance scorer needs from a posting row — pass as
# read_postings(columns=...) so scoring a positional index never
# deserializes pos_enc (its widest column)
SCORER_COLUMNS = ["term", "max_tf", "docs_enc", "tfs_enc", "dls_enc"]
# the block-skip pruned path additionally reads df + the tiny block
# metadata blobs (wand.LazyPostings decodes row blobs on demand)
SCORER_COLUMNS_BMW = SCORER_COLUMNS + ["df", "bfirst_enc", "bmax_enc"]
# the positional kernels (proximity, spans) also read pos_enc
SCORER_COLUMNS_POS = SCORER_COLUMNS + ["pos_enc"]


# parsed footers kept per process (tasks, resident actors, the driver's
# lexicon lookup). A perfbench postings footer is ~32 KB on disk and
# ~200 KB parsed, so a full cache holds ~15 MB.
FOOTER_CACHE_MAX = 64


class _Footer:
    """One parquet file's parsed footer and each row group's ``term``
    (min, max), None for a group without statistics. ``tail`` is the
    file's trailing bytes (footer, its length, the magic) it was parsed
    from."""

    def __init__(self, tail: bytes, md: pq.FileMetaData) -> None:
        self.tail, self.md = tail, md
        ti = md.schema.names.index("term")
        stats = (md.row_group(g).column(ti).statistics
                 for g in range(md.num_row_groups))
        self.ranges = [(st.min, st.max) if st is not None and st.has_min_max
                       else None for st in stats]


_footers: collections.OrderedDict[str, _Footer] = collections.OrderedDict()
_footers_lock = threading.Lock()


def _file_tail(f: pa.NativeFile) -> bytes:
    """The footer, its 4-byte length and the magic at the end of ``f``
    (one 8-byte read, one footer-sized read); empty when ``f`` is too
    short to hold them."""
    size = f.size()
    if size < 12:
        return b""
    n = int.from_bytes(f.read_at(4, size - 8), "little")
    return f.read_at(n + 8, size - n - 8) if n + 12 <= size else b""


def _footer(f: pa.NativeFile, path: str) -> _Footer:
    """The footer of ``f`` (opened from ``path``): the one cached for
    ``path`` when the file's trailing bytes equal the bytes it was
    parsed from, else parsed and cached. Both come from the one open
    handle, so a file replaced by an atomic rename or rewritten in
    place is never read with a stale layout."""
    tail = _file_tail(f)
    with _footers_lock:
        hit = _footers.get(path)
        if hit is not None and hit.tail == tail:
            _footers.move_to_end(path)
            return hit
    foot = _Footer(tail, pq.read_metadata(f))
    with _footers_lock:
        _footers[path] = foot
        _footers.move_to_end(path)
        while len(_footers) > FOOTER_CACHE_MAX:
            _footers.popitem(last=False)
    return foot


def read_term_rows(path: str, terms: list[str],
                   columns: list[str] | None = None) -> pa.Table:
    """Rows of a parquet file whose ``term`` is in ``terms`` — the same
    table as ``pq.read_table(path, columns=columns,
    filters=field("term").isin(terms))``, without dataset discovery or
    filter planning. Row groups are picked from the footer's ``term``
    min/max (one bisect over the sorted terms; a group without
    statistics is always read), then an exact ``is_in`` filter keeps
    the matching rows. The parsed footer and its term ranges are cached
    per process (FOOTER_CACHE_MAX files), each hit checked against the
    file's trailing bytes, so a segment replaced by an atomic rename is
    read fresh."""
    want = sorted(set(terms))
    read_cols = (columns if columns is None or "term" in columns
                 else [*columns, "term"])
    with pa.OSFile(path) as f:
        foot = _footer(f, path)
        groups = []
        for g, rng in enumerate(foot.ranges):
            if rng is not None:
                i = bisect.bisect_left(want, rng[0])
                if i == len(want) or want[i] > rng[1]:
                    continue
            groups.append(g)
        tbl = pq.ParquetFile(f, metadata=foot.md).read_row_groups(
            groups, columns=read_cols)
    tbl = tbl.filter(pc.is_in(tbl["term"], value_set=pa.array(
        want, tbl.schema.field("term").type)))
    return tbl if columns is None else tbl.select(columns)


def read_postings(part_dir: str, terms: list[str] | None = None,
                  columns: list[str] | None = None) -> pa.Table:
    """``columns`` prunes at the read — pass it on positional indexes
    whenever pos_enc isn't needed (it is the widest column)."""
    path = os.path.join(part_dir, "postings.parquet")
    if terms is None:
        return pq.read_table(path, columns=columns)
    return read_term_rows(path, terms, columns)


def read_doclens(part_dir: str, columns: list[str] | None = None) -> pa.Table:
    return pq.read_table(os.path.join(part_dir, "doclens.parquet"),
                         columns=columns)


def decode_posting_row(tbl: pa.Table, i: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (decode_doc_ids(tbl["docs_enc"][i].as_py()),
            decode_ints(tbl["tfs_enc"][i].as_py()),
            decode_ints(tbl["dls_enc"][i].as_py()))


def listed_part_dir(index_dir: str, part: int) -> str:
    """The directory of a part the index lists. A missing one (say,
    caught mid-rewrite) raises: a query never returns a silently
    partial top-k."""
    part_dir = part_dirname(index_dir, part)
    if not os.path.isdir(part_dir):
        raise FileNotFoundError(
            f"part {part} of index {index_dir} has no segment directory "
            f"{part_dir}")
    return part_dir


def part_postings(index_dir: str, part: int, terms: list[str],
                  columns: list[str] = SCORER_COLUMNS) -> dict:
    """The one per-part posting read: ``{term: (docs, tfs, dls)}`` for
    the ``terms`` segment ``part`` holds, in term order, from one
    footer-pruned read. With ``pos_enc`` in ``columns`` each row also
    carries its flat absolute positions: ``(docs, tfs, dls, pos)``."""
    tbl = read_postings(listed_part_dir(index_dir, part), terms,
                        columns=columns)
    with_pos = "pos_enc" in tbl.column_names
    out = {}
    for i, t in enumerate(tbl["term"].to_pylist()):
        row = decode_posting_row(tbl, i)
        out[t] = ((*row, decode_posting_positions(tbl, i, row[1]))
                  if with_pos else row)
    return out


def has_block_meta(part_dir: str) -> bool:
    """Whether this segment stores BMW block metadata (indexes built
    before the blockmax upgrade don't; readers fall back to eager
    whole-row decode)."""
    path = os.path.join(part_dir, "postings.parquet")
    with pa.OSFile(path) as f:
        return "bfirst_enc" in _footer(f, path).md.schema.names


def read_block_meta(tbl: pa.Table, i: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(per-block absolute first doc, per-block max tf) for posting
    row i — decoded from the tiny bfirst_enc/bmax_enc blobs only, the
    row's posting blobs untouched."""
    return (decode_doc_ids(tbl["bfirst_enc"][i].as_py()),
            decode_ints(tbl["bmax_enc"][i].as_py()))


def decode_posting_blocks(tbl: pa.Table, i: int, df: int,
                          chosen: np.ndarray, bfirst: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(docs, tfs, dls) of ONLY the ``chosen`` blocks of posting row i
    (sorted block indices). The row blobs are byte-sliced at block
    boundaries (one high-bit scan via varint_run_byte_offsets — no
    value decode of skipped blocks); each chosen doc block rebases on
    its stored absolute first doc, so the leading cross-block delta in
    the unchanged row encoding is never needed."""
    nb = (df + BLOCK - 1) // BLOCK
    counts = np.full(nb, BLOCK, np.int64)
    counts[-1] = df - BLOCK * (nb - 1)
    if len(chosen) == nb:            # everything survives: plain decode
        return decode_posting_row(tbl, i)
    ccounts = counts[chosen]

    def blocks_of(blob: bytes) -> bytes:
        boff = varint_run_byte_offsets(blob, counts)
        return b"".join(blob[boff[j]:boff[j + 1]] for j in chosen)

    vals = decode_ints(blocks_of(tbl["docs_enc"][i].as_py()))
    cstarts = np.zeros(len(chosen), np.int64)
    np.cumsum(ccounts[:-1], out=cstarts[1:])
    s = np.cumsum(vals)
    base = s[cstarts] - bfirst[chosen]   # rebase each block's cumsum
    docs = s - np.repeat(base, ccounts)
    tfs = decode_ints(blocks_of(tbl["tfs_enc"][i].as_py()))
    dls = decode_ints(blocks_of(tbl["dls_enc"][i].as_py()))
    return docs, tfs, dls


def decode_posting_positions(tbl: pa.Table, i: int,
                             tfs: np.ndarray | None = None) -> np.ndarray:
    """Flat ABSOLUTE within-doc positions for posting row i, in doc
    order; split into per-doc runs with the row's tf array (pass it if
    already decoded to skip a second tfs_enc decode)."""
    if tfs is None:
        tfs = decode_ints(tbl["tfs_enc"][i].as_py())
    return decode_pos_runs(tbl["pos_enc"][i].as_py(), tfs)


def split_posting_positions(tbl: pa.Table, i: int,
                            tfs: np.ndarray) -> list[bytes]:
    """Per-doc ENCODED position blobs for posting row i (byte slices,
    no decode) — the unit compaction/merge shuffles around."""
    blob = tbl["pos_enc"][i].as_py()
    boff = varint_run_byte_offsets(blob, tfs)
    return [blob[boff[j]:boff[j + 1]] for j in range(len(tfs))]
