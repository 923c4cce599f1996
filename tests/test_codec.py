import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raysearch.codec import (
    _py_varint_decode,
    _py_varint_encode,
    bulk_encode_segmented,
    decode_doc_ids,
    decode_ints,
    delta_decode,
    delta_encode,
    encode_posting,
    varint_decode,
    varint_decode_rows,
    varint_encode,
)


def test_varint_roundtrip_basic():
    vals = np.array([0, 1, 127, 128, 129, 16383, 16384, 2**32, 2**63,
                     2**64 - 1], dtype=np.uint64)
    buf, nb = varint_encode(vals)
    assert varint_decode(buf).tolist() == vals.tolist()
    assert nb.tolist() == [1, 1, 1, 2, 2, 2, 3, 5, 10, 10]


def test_varint_matches_pure_python():
    rng = np.random.default_rng(7)
    vals = rng.integers(0, 2**62, size=5000, dtype=np.uint64)
    buf, _ = varint_encode(vals)
    assert buf == _py_varint_encode(vals)
    assert varint_decode(buf).tolist() == _py_varint_decode(buf)


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=200))
@settings(max_examples=200, deadline=None)
def test_varint_roundtrip_property(vals):
    arr = np.array(vals, dtype=np.uint64)
    buf, _ = varint_encode(arr)
    assert varint_decode(buf).tolist() == vals
    assert buf == _py_varint_encode(vals)


def test_delta_roundtrip():
    v = np.array([3, 3, 10, 1000, 10**12], dtype=np.uint64)
    assert delta_decode(delta_encode(v)).tolist() == v.tolist()


def test_posting_roundtrip():
    docs = np.array([5, 17, 17 + 2**40, 17 + 2**40 + 1], dtype=np.int64)
    tfs = np.array([1, 300, 2, 9], dtype=np.int64)
    dbuf, tbuf = encode_posting(docs, tfs)
    assert decode_doc_ids(dbuf).tolist() == docs.tolist()
    assert decode_ints(tbuf).tolist() == tfs.tolist()


def test_bulk_encode_segmented_equals_per_run():
    rng = np.random.default_rng(11)
    runs = [np.sort(rng.choice(10**9, size=n, replace=False)).astype(np.uint64)
            for n in (5, 1, 40, 3)]
    values = np.concatenate(runs)
    starts = np.cumsum([0] + [len(r) for r in runs[:-1]]).astype(np.int64)
    buf, offs = bulk_encode_segmented(values, starts, delta=True)
    assert len(offs) == len(runs) + 1
    for i, r in enumerate(runs):
        piece = buf[offs[i]:offs[i + 1]]
        assert decode_doc_ids(piece).tolist() == r.astype(np.int64).tolist()


def test_bulk_encode_no_delta():
    values = np.array([9, 1, 1, 300], dtype=np.uint64)
    starts = np.array([0, 2], dtype=np.int64)
    buf, offs = bulk_encode_segmented(values, starts, delta=False)
    assert decode_ints(buf[offs[0]:offs[1]]).tolist() == [9, 1]
    assert decode_ints(buf[offs[1]:offs[2]]).tolist() == [1, 300]


def test_empty():
    buf, nb = varint_encode(np.zeros(0, dtype=np.uint64))
    assert buf == b"" and len(nb) == 0
    assert len(varint_decode(b"")) == 0


# ---- bulk row decode (varint_decode_rows) vs the per-row reference ----

_U64 = st.integers(min_value=0, max_value=2**64 - 1)
# rows of values, with empty rows, one-value rows and 10-byte varints
_ROWS = st.lists(st.lists(st.one_of(_U64, st.just(2**64 - 1),
                                    st.integers(0, 300)), max_size=6),
                 max_size=12)


def _blob(vals, delta):
    v = np.sort(np.array(vals, dtype=np.uint64)) if delta else vals
    return varint_encode(delta_encode(v) if delta else
                         np.array(v, dtype=np.uint64))[0]


def _per_row(blobs, delta):
    """The per-row reference: _py_varint_decode, then a running sum
    (mod 2**64, as the uint64 decode wraps) for delta rows, as int64."""
    out = []
    for b in blobs:
        vals = _py_varint_decode(b)
        if delta:
            vals = list(np.cumsum(np.array(vals, dtype=np.uint64),
                                  dtype=np.uint64))
        out.append([int(np.uint64(v).astype(np.int64)) for v in vals])
    return out


def _rows_of(arr, delta):
    vals, off = varint_decode_rows(arr, delta)
    assert vals.dtype == np.int64 and off.dtype == np.int64
    assert len(off) == len(arr) + 1 and off[0] == 0
    return [vals[off[i]:off[i + 1]].tolist() for i in range(len(arr))]


@given(_ROWS, st.booleans(), st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_decode_rows_matches_per_row(rows, delta, k):
    blobs = [_blob(r, delta) for r in rows]
    arr = pa.array(blobs, pa.large_binary())
    assert _rows_of(arr, delta) == _per_row(blobs, delta)
    # a slice with a nonzero array offset
    k = min(k, len(blobs))
    assert arr.slice(k).offset == k
    assert _rows_of(arr.slice(k), delta) == _per_row(blobs[k:], delta)
    # a ChunkedArray of several chunks, one of them empty and sliced
    chunks = [arr.slice(0, k), arr.slice(k, 0), arr.slice(k)]
    assert _rows_of(pa.chunked_array(chunks, pa.large_binary()),
                    delta) == _per_row(blobs, delta)


@pytest.mark.parametrize("delta", [False, True])
def test_decode_rows_edges(delta):
    big = [2**64 - 1] if not delta else [0, 2**64 - 1]
    blobs = [b"", _blob([7], delta), _blob(big, delta), b""]
    assert len(_blob(big, delta)) >= 10
    want = _per_row(blobs, delta)
    assert want[2][-1] == -1  # 2**64 - 1 as int64
    assert _rows_of(pa.array(blobs, pa.large_binary()), delta) == want
    assert _rows_of(pa.array(blobs, pa.binary()), delta) == want
    for empty in ([b"", b"", b""], []):
        assert _rows_of(pa.array(empty, pa.large_binary()), delta) == \
            [[] for _ in empty]
    assert _rows_of(pa.chunked_array([], pa.large_binary()), delta) == []


@pytest.mark.parametrize("delta", [False, True])
def test_decode_rows_truncated_row_raises(delta):
    good = _blob([1, 300, 70000], delta)
    # row 2 ends inside its last value; on its own the bytes would run
    # into row 3 and decode without complaint
    rows = [good, b"", good[:-1], good]
    arr = pa.array(rows, pa.large_binary())
    with pytest.raises(ValueError, match="row 2"):
        varint_decode_rows(arr, delta)
    with pytest.raises(ValueError, match="row 1"):
        varint_decode_rows(arr.slice(1), delta)
    with pytest.raises(ValueError):
        varint_decode(good[:-1])
    assert _rows_of(arr.slice(3), delta) == _per_row([good], delta)
