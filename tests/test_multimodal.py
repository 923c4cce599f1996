"""Multimodal plumbing: the binary-payload decode stage is real (schema,
batching, output layout); only the codec kernel is stubbed
(deterministic fake / strict NotImplementedError seam)."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from raysearch.pipelines.multimodal import (
    FEATURE_DIM,
    MEDIA_SCHEMA,
    decode_batch,
    decode_media,
    decode_payload,
)


def _media_table(n=10):
    return pa.table({
        "media_id": pa.array(range(n), pa.int64()),
        "media_type": pa.array(["image"] * n, pa.string()),
        "payload": pa.array([f"payload-{i}".encode() * (i + 1)
                             for i in range(n)], pa.large_binary()),
    }).cast(MEDIA_SCHEMA)


def test_strict_mode_raises():
    with pytest.raises(NotImplementedError):
        decode_payload(b"bytes", "image", strict=True)


def test_fake_decode_deterministic():
    f1 = decode_payload(b"abc", "image")
    f2 = decode_payload(b"abc", "audio")
    assert f1.shape == (FEATURE_DIM,) and f1.dtype == np.float32
    assert np.array_equal(f1, f2)
    assert not np.array_equal(f1, decode_payload(b"abd", "image"))
    assert (f1 >= 0).all() and (f1 < 1).all()


def test_stage_output_layout():
    out = decode_batch(_media_table())
    assert out.column_names == ["media_id", "media_type", "n_bytes",
                                "sha256", "features"]
    pay = _media_table()["payload"].to_pylist()
    assert out["n_bytes"].to_pylist() == [len(p) for p in pay]
    assert out["sha256"].to_pylist() == [
        hashlib.sha256(p).hexdigest() for p in pay]
    feats = out["features"].to_pylist()
    assert all(len(f) == FEATURE_DIM for f in feats)


def test_distributed_stage(ray_session):
    import ray.data

    ds = ray.data.from_arrow(_media_table(100))
    out = decode_media(ds, batch_size=16)
    tbl = pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
    assert tbl.num_rows == 100
    assert sorted(tbl["media_id"].to_pylist()) == list(range(100))


def test_header_parser_fields():
    """parse_headers parses magic/version/flags at fixed offsets and
    skips payloads shorter than the header."""
    from raysearch.pipelines.multimodal import HEADER_BYTES, parse_headers

    payload = bytes([0x89, ord("P"), ord("N"), ord("G"), 2, 7]) + b"xyz123"
    batch = pa.table({
        "media_id": pa.array([5, 6], pa.int64()),
        "payload": pa.array([payload, b"tiny"], pa.large_binary()),
    })
    out = parse_headers(batch).to_pandas()
    assert len(out) == 1  # b"tiny" < HEADER_BYTES dropped
    row = out.iloc[0]
    assert row.doc_id == 5
    assert row.magic == (0x89 << 24) | (ord("P") << 16) \
        | (ord("N") << 8) | ord("G")
    assert row["version"] == 2 and row["flags"] == 7
    assert row.body_len == len(payload) - HEADER_BYTES
    assert row.header_hex == payload[:HEADER_BYTES].hex()


def test_media_header_oracle_edge_docs(ray_session, tmp_path):
    """Engine vs DuckDB oracle on docs the fixtures lack: empty text,
    sub-header-length text, exactly-header-length text."""
    import os

    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq

    from raysearch.pipelines.multimodal import media_header, sql_media_header

    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["short", "", "exactly8",
                          "a longer document body"], pa.string()),
    }), os.path.join(tmp_path, "documents.parquet"))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    eng = media_header(str(tmp_path)).to_pandas()
    ora = con.execute(sql_media_header()).df()
    pd.testing.assert_frame_equal(eng, ora)


def test_ppm_decoder_real_pixels():
    """ppm_decode parses the header FROM the payload (comments
    included) and decodes actual pixel values."""
    import numpy as np
    import pyarrow as pa

    from raysearch.pipelines.multimodal import ppm_batch, ppm_decode

    w, h = 3, 2
    px = bytes(range(w * h * 3))
    payload = b"P6\n# a comment\n3 2\n255\n" + px
    ww, hh, img = ppm_decode(payload)
    assert (ww, hh) == (w, h)
    assert img.shape == (h, w, 3)
    assert img[0, 0].tolist() == [0, 1, 2]
    assert img[1, 2].tolist() == [15, 16, 17]

    batch = pa.table({
        "media_id": pa.array([7], pa.int64()),
        "media_type": pa.array(["image"], pa.string()),
        "payload": pa.array([payload], pa.large_binary()),
    })
    out = ppm_batch(batch).to_pandas().iloc[0]
    assert out.width == 3 and out.height == 2
    flat = np.frombuffer(px, np.uint8)
    assert out.mean_r == round(float(np.mean(flat[0::3])), 6)
    assert out.mean_b == round(float(np.mean(flat[2::3])), 6)


def test_ppm_decoder_rejects_malformed():
    import pytest as _pytest

    from raysearch.pipelines.multimodal import ppm_decode

    for bad in (b"P5\n1 1\n255\n\x00", b"P6\n1 1", b"", b"JFIF...."):
        with _pytest.raises(ValueError):
            ppm_decode(bad)


def test_wav_decoder_real_riff():
    """wav_batch reads a genuine RIFF/WAVE container written by the
    stdlib wave module — header fields and PCM RMS."""
    import io
    import wave

    import numpy as np
    import pyarrow as pa

    from raysearch.pipelines.multimodal import wav_batch

    pcm = np.array([0, 256, -256, 512], dtype="<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(pcm.tobytes())
    batch = pa.table({
        "media_id": pa.array([3], pa.int64()),
        "media_type": pa.array(["audio"], pa.string()),
        "payload": pa.array([buf.getvalue()], pa.large_binary()),
    })
    out = wav_batch(batch).to_pandas().iloc[0]
    assert out.sample_rate == 16000
    assert out.n_frames == 4
    expect = round(float(np.sqrt(np.mean(pcm.astype(np.float64) ** 2))), 6)
    assert out.rms == expect


def test_ppm_resize_nearest_neighbor(ray_session, tmp_path):
    """2x nearest-neighbor keeps even rows/columns: verify against a
    hand-computed image through the full pipeline + oracle."""
    import os

    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq

    from raysearch.pipelines.multimodal import ppm_resize, sql_ppm_resize

    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 7], pa.int64()),
        "text": pa.array(["abcdef", "", "x"], pa.string()),
    }), os.path.join(tmp_path, "documents.parquet"))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    eng = ppm_resize(str(tmp_path)).to_pandas()
    ora = con.execute(sql_ppm_resize()).df()
    pd.testing.assert_frame_equal(eng, ora, check_exact=True)
    # doc 0: w=4,h=3 -> out 2x2; doc 1 (empty text): all-zero pixels
    r0 = eng.set_index("doc_id")
    assert (r0.loc[0, "out_w"], r0.loc[0, "out_h"]) == (2, 2)
    assert r0.loc[1, ["mean_r", "mean_g", "mean_b"]].tolist() == [0, 0, 0]
