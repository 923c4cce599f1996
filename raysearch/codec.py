"""Vectorized delta + varint codec for posting lists.

The reference keeps postings as uncompressed, unsorted ``Vec<String>``
in insertion order (/root/reference/src/lib.rs:341-343,358-365). The
new engine stores each term's postings as doc_id-ascending arrays,
delta-encoded and LEB128-varint-compressed (north rule: "sorted,
delta+varint-compressed posting lists").

Everything here is numpy-vectorized: encoding loops over *byte
positions* (<= 10 for uint64), never over values, so encoding a
million-entry posting list is a handful of numpy passes. A pure-Python
reference implementation is included for property tests.
"""

from __future__ import annotations

import numpy as np

_SEVEN = np.uint64(7)
_MASK7 = np.uint64(0x7F)
_MAX_VARINT_BYTES = 10  # ceil(64 / 7)


def varint_encode(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Encode a uint64 array as a LEB128 byte stream.

    Returns (buffer, nbytes_per_value); the latter lets a caller slice
    the stream per logical sub-range (used to cut one bulk-encoded
    column into per-term posting blobs without re-encoding).
    """
    v = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(v)
    if n == 0:
        return b"", np.zeros(0, dtype=np.int64)
    nb = np.ones(n, dtype=np.int64)
    x = v >> _SEVEN
    while x.any():
        nb += x > 0
        x >>= _SEVEN
    out = np.zeros(int(nb.sum()), dtype=np.uint8)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(nb[:-1], out=starts[1:])
    rem = v.copy()
    for p in range(_MAX_VARINT_BYTES):
        m = nb > p
        if not m.any():
            break
        byte = (rem[m] & _MASK7).astype(np.uint8)
        cont = (nb[m] > p + 1).astype(np.uint8) << 7
        out[starts[m] + p] = byte | cont
        rem[m] >>= _SEVEN
    return out.tobytes(), nb


def _varint_values(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(uint64 values, index of each value's terminal byte) of the
    complete LEB128 values in the uint8 array ``b``: one pass per byte
    position (<= 10), never per value. Bytes after the last terminal
    byte belong to no value; callers reject them."""
    end_idx = np.flatnonzero((b & 0x80) == 0)
    starts = np.zeros(len(end_idx), dtype=np.int64)
    starts[1:] = end_idx[:-1] + 1
    vals = (b[starts] & 0x7F).astype(np.uint64)
    nbytes = end_idx - starts + 1
    more = np.flatnonzero(nbytes > 1)
    p = 1
    while len(more):
        vals[more] |= ((b[starts[more] + p] & 0x7F).astype(np.uint64)
                       << np.uint64(7 * p))
        p += 1
        more = more[nbytes[more] > p]
    return vals, end_idx


def varint_decode(buf: bytes | memoryview | np.ndarray) -> np.ndarray:
    """Decode a LEB128 byte stream back to a uint64 array (vectorized).
    A stream whose last byte still has the continuation bit set raises
    ValueError."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if len(b) and b[-1] & 0x80:
        raise ValueError("varint stream ends inside a value")
    return _varint_values(b)[0]


def binary_column_bytes(arr) -> tuple[np.ndarray, np.ndarray]:
    """(uint8 data, int64 row byte offsets of length n + 1 from 0) of a
    binary or large_binary Array or ChunkedArray, honouring each chunk's
    array offset: row i's bytes are data[off[i]:off[i + 1]]. A view of
    the Arrow data buffer for one chunk, one concatenation for
    several."""
    import pyarrow as pa

    datas, offs, base = [], [np.zeros(1, dtype=np.int64)], 0
    for c in getattr(arr, "chunks", [arr]):
        if len(c) == 0:
            continue
        _, obuf, dbuf = c.buffers()
        odt = np.int64 if pa.types.is_large_binary(c.type) else np.int32
        off = np.frombuffer(obuf, dtype=odt)[
            c.offset: c.offset + len(c) + 1].astype(np.int64)
        data = (np.frombuffer(dbuf, dtype=np.uint8) if dbuf is not None
                else np.zeros(0, dtype=np.uint8))
        datas.append(data[off[0]:off[-1]])
        offs.append(off[1:] - off[0] + base)
        base += int(off[-1] - off[0])
    data = (datas[0] if len(datas) == 1 else
            np.concatenate(datas) if datas else np.zeros(0, dtype=np.uint8))
    return data, np.concatenate(offs)


def varint_decode_rows(arr, delta: bool) -> tuple[np.ndarray, np.ndarray]:
    """Decode every row of a binary column (Array or ChunkedArray, one
    LEB128 stream per row) in one varint pass over its data bytes.

    Returns (flat int64 values, int64 row value offsets of length
    n + 1): row i is values[off[i]:off[i + 1]], equal to
    ``decode_doc_ids(row)`` when ``delta`` and ``decode_ints(row)``
    otherwise. A row's value offset is the count of terminal bytes
    before its first byte; with ``delta`` one cumsum over the column
    runs the doc ids and each row subtracts its own base, so the delta
    resets per row. A non-empty row whose last byte still has the
    continuation bit set raises ValueError naming the row (its value
    would otherwise run into the next row)."""
    b, boff = binary_column_bytes(arr)
    rows = np.flatnonzero(boff[1:] > boff[:-1])
    bad = rows[(b[boff[rows + 1] - 1] & 0x80) != 0]
    if len(bad):
        raise ValueError(
            f"row {int(bad[0])}: varint stream ends inside a value")
    vals, end_idx = _varint_values(b)
    voff = np.searchsorted(end_idx, boff).astype(np.int64)
    if delta and len(vals):
        run = np.cumsum(vals)  # uint64: wraps like the per-row decode
        base = np.zeros(len(vals) + 1, dtype=np.uint64)
        base[1:] = run
        vals = run - np.repeat(base[voff[:-1]], np.diff(voff))
    return vals.view(np.int64), voff


def delta_encode(sorted_vals: np.ndarray) -> np.ndarray:
    """First value absolute, then successive differences (input ascending)."""
    v = np.ascontiguousarray(sorted_vals, dtype=np.uint64)
    if len(v) == 0:
        return v
    d = v.copy()
    d[1:] -= v[:-1]
    return d


def delta_decode(deltas: np.ndarray) -> np.ndarray:
    return np.cumsum(np.ascontiguousarray(deltas, dtype=np.uint64), dtype=np.uint64)


def encode_posting(doc_ids: np.ndarray, plain: np.ndarray) -> tuple[bytes, bytes]:
    """Encode one posting: (delta+varint doc_ids, varint companion ints)."""
    docs_buf, _ = varint_encode(delta_encode(doc_ids))
    plain_buf, _ = varint_encode(plain.astype(np.uint64))
    return docs_buf, plain_buf


def decode_doc_ids(buf: bytes) -> np.ndarray:
    return delta_decode(varint_decode(buf)).astype(np.int64)


def decode_ints(buf: bytes) -> np.ndarray:
    return varint_decode(buf).astype(np.int64)


def binary_from_offsets(buf: bytes, offsets: np.ndarray):
    """Zero-copy pyarrow large_binary array: per-value slices of one
    buffer (offsets len = n + 1). Lives here, not segments.py, so
    triples.py can build per-(doc, term) position blobs without an
    import cycle."""
    import pyarrow as pa

    return pa.Array.from_buffers(
        pa.large_binary(), len(offsets) - 1,
        [None, pa.py_buffer(offsets.astype(np.int64).tobytes()),
         pa.py_buffer(buf)])


def varint_run_byte_offsets(buf: bytes, counts: np.ndarray) -> np.ndarray:
    """Byte offsets (len = n_runs + 1) cutting a varint stream into
    runs of ``counts`` values each — run j's bytes are
    buf[off[j]:off[j+1]]. Used to split a posting row's concatenated
    per-doc position blobs along its tf array WITHOUT decoding (the
    per-doc blobs are independently delta-encoded, so byte-level
    slices stay self-contained and re-concatenable)."""
    b = np.frombuffer(buf, dtype=np.uint8)
    counts = np.asarray(counts, dtype=np.int64)
    cum = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    if len(b) == 0:
        if cum[-1] != 0:
            raise ValueError("empty varint stream for nonzero counts")
        return np.zeros(len(counts) + 1, dtype=np.int64)
    end_idx = np.flatnonzero((b & 0x80) == 0)  # terminal byte per value
    if cum[-1] != len(end_idx):
        raise ValueError(
            f"varint stream has {len(end_idx)} values, counts sum to "
            f"{cum[-1]}")
    starts = np.zeros(len(end_idx) + 1, dtype=np.int64)
    starts[1:] = end_idx + 1  # value k starts right after value k-1 ends
    return starts[cum]


def decode_pos_runs(buf: bytes, counts: np.ndarray) -> np.ndarray:
    """Decode concatenated per-run delta+varint position blobs (delta
    resets at every run start, same layout bulk_encode_segmented
    writes) to flat ABSOLUTE positions, vectorized: one varint pass +
    one cumsum with per-run base subtraction."""
    vals = varint_decode(buf).astype(np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if len(vals) != counts.sum():
        raise ValueError(
            f"varint stream has {len(vals)} values, counts sum to "
            f"{counts.sum()}")
    if len(vals) == 0:
        return vals
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    s = np.cumsum(vals)
    base = s[starts] - vals[starts]
    return s - np.repeat(base, counts)


# ---- segmented bulk encode: one numpy pass for a whole column, then ----
# ---- per-run byte slicing (used by the segment builder)             ----

def bulk_encode_segmented(
    values: np.ndarray, run_starts: np.ndarray, delta: bool
) -> tuple[bytes, np.ndarray]:
    """Encode a concatenation of runs in one pass.

    values: concatenated runs (each run ascending if delta=True).
    run_starts: start offset of each run in ``values`` (int64, first 0).
    Returns the full buffer plus byte offsets (len = n_runs + 1) so run
    i's encoding is buffer[byte_off[i]:byte_off[i+1]].
    """
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if delta and len(v):
        d = v.copy()
        d[1:] -= v[:-1]
        d[run_starts] = v[run_starts]  # reset delta at run boundaries
        v = d
    buf, nb = varint_encode(v)
    cum = np.zeros(len(v) + 1, dtype=np.int64)
    np.cumsum(nb, out=cum[1:])
    bounds = np.append(run_starts, len(v))
    return buf, cum[bounds]


# ---- pure-Python reference (for tests only) ----

def _py_varint_encode(values) -> bytes:
    out = bytearray()
    for v in values:
        v = int(v)
        while True:
            b = v & 0x7F
            v >>= 7
            if v:
                out.append(b | 0x80)
            else:
                out.append(b)
                break
    return bytes(out)


def _py_varint_decode(buf) -> list[int]:
    vals, cur, shift = [], 0, 0
    for b in buf:
        cur |= (b & 0x7F) << shift
        if b & 0x80:
            shift += 7
        else:
            vals.append(cur)
            cur, shift = 0, 0
    return vals
