"""Multimodal columns: opaque ``binary`` payloads with typed metadata,
processed by plain function map_batches stages.

Two decode paths are REAL with no external codec library: ppm_decode
parses binary P6 PPM images (header from the payload, raw RGB pixels
in numpy) and wav_batch reads RIFF/WAVE 16-bit PCM through the
stdlib ``wave`` module. Compressed formats (JPEG/PNG/MP3/...) need
libraries this environment lacks, so THAT kernel stays stubbed
(deterministic fake, or NotImplementedError in strict mode) — while
everything Ray-side is real and tested: the binary-column schema,
small-batch sizing for wide rows, and the output layout (one metadata
row per payload, features as a fixed-width list<float> column). No
stage holds state worth an actor, so none pins a CPU the upstream
read needs.

``blob_meta`` is the exactly-checkable slice of this: payload byte
length + sha256 computed by the same decode stage, with a DuckDB
oracle (octet_length / sha256).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

_DOCS = "documents.parquet"

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("media_type", pa.string()),    # image | audio | video
    ("payload", pa.large_binary()),  # opaque encoded bytes
])

FEATURE_DIM = 16


def decode_payload(payload: bytes, media_type: str,
                   strict: bool = False) -> np.ndarray:
    """One payload's fixed-width float features. strict=False (default)
    is a deterministic fake decode so the pipeline plumbing is fully
    testable; strict=True raises NotImplementedError where a real
    codec (PIL / torchaudio / ffmpeg, chosen by ``media_type``) would
    be called — the seam to swap in when the libs exist."""
    if strict:
        raise NotImplementedError(
            "media codecs are not available in this environment; "
            "plug a real decoder here")
    # deterministic fake: sha256 bytes -> fixed-width float features
    h = hashlib.sha256(payload).digest()
    raw = np.frombuffer((h * ((4 * FEATURE_DIM) // len(h) + 1))
                        [: 4 * FEATURE_DIM], dtype=np.uint32)
    return (raw.astype(np.float64) / np.float64(2**32)).astype(np.float32)


def decode_batch(batch: pa.Table, strict: bool = False) -> pa.Table:
    """The decode stage over a MEDIA_SCHEMA batch: one metadata row
    per payload, features as a fixed-width list<float> column."""
    payloads = batch["payload"].to_pylist()
    types = batch["media_type"].to_pylist()
    feats = [decode_payload(p, t, strict) for p, t in zip(payloads, types)]
    return pa.table({
        "media_id": batch["media_id"],
        "media_type": batch["media_type"],
        "n_bytes": pa.array([len(p) for p in payloads], pa.int64()),
        "sha256": pa.array(
            [hashlib.sha256(p).hexdigest() for p in payloads],
            pa.string()),
        "features": pa.array([f.tolist() for f in feats],
                             pa.list_(pa.float32(), FEATURE_DIM)),
    })


def decode_media(ds, batch_size: int = 64, strict: bool = False):
    """Run the decode stage: small batch_size because payloads are
    wide."""
    return ds.map_batches(decode_batch, fn_kwargs={"strict": strict},
                          batch_format="pyarrow", batch_size=batch_size)


def blob_meta(sf_dir: str) -> pa.Table:
    """Treat each document's text as an opaque binary payload and run
    it through the media decode stage: (doc_id, n_bytes, sha256)."""
    import ray.data

    def to_media(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pylist()
        return pa.table({
            "media_id": b["doc_id"],
            "media_type": pa.array(["text"] * b.num_rows, pa.string()),
            "payload": pa.array([t.encode() for t in texts],
                                pa.large_binary()),
        })

    ds = ray.data.read_parquet(os.path.join(sf_dir, _DOCS),
                               columns=["doc_id", "text"])
    out = decode_media(ds.map_batches(to_media, batch_format="pyarrow",
                                      zero_copy_batch=True),
                       batch_size=128)
    tbl = pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
    return pa.table({
        "doc_id": tbl["media_id"],
        "n_bytes": tbl["n_bytes"],
        "sha256": tbl["sha256"],
    })


def _ppm_header(p: bytes) -> tuple[int, int, int, int]:
    """Parse (width, height, maxval, pixel_offset) from a P6 header.
    Raises ValueError on malformed payloads."""
    toks, i, n = [], 0, len(p)
    while len(toks) < 4 and i < n:
        c = p[i:i + 1]
        if c in (b"#",):
            while i < n and p[i:i + 1] != b"\n":
                i += 1
        elif c in (b" ", b"\t", b"\r", b"\n"):
            i += 1
        else:
            j = i
            while j < n and p[j:j + 1] not in (b" ", b"\t", b"\r",
                                               b"\n"):
                j += 1
            toks.append(p[i:j])
            i = j
    if len(toks) < 4 or toks[0] != b"P6":
        raise ValueError("not a binary P6 PPM payload")
    w, h, maxval = int(toks[1]), int(toks[2]), int(toks[3])
    return w, h, maxval, i + 1  # single whitespace after maxval


def ppm_decode(payload: bytes) -> tuple[int, int, np.ndarray]:
    """REAL image decode — no codec library needed: binary P6 PPM is
    a whitespace-tokenized header (magic, width, height, maxval;
    ``#`` comments allowed) followed by raw h*w*3 RGB bytes, so numpy
    alone decodes actual pixels. This closes the decode seam for one
    real format; compressed formats (JPEG/PNG/...) keep the
    strict-mode stub in decode_payload. Returns (width, height,
    pixels[h, w, 3])."""
    w, h, maxval, off = _ppm_header(payload)
    if w <= 0 or h <= 0:
        raise ValueError(f"invalid PPM dimensions {w}x{h}")
    if not 0 < maxval <= 255:
        # maxval > 255 means 2-byte big-endian samples (spec);
        # reading them as uint8 would silently produce garbage
        raise ValueError(
            f"unsupported PPM maxval {maxval} (8-bit only)")
    need = w * h * 3
    if len(payload) - off < need:
        raise ValueError("truncated PPM pixel data")
    px = np.frombuffer(payload, np.uint8, count=need, offset=off)
    return w, h, px.reshape(h, w, 3)


def ppm_batch(batch: pa.Table, step: int = 1) -> pa.Table:
    """The image stage: per payload, the dims and per-channel pixel
    means of the decoded image — or, with ``step`` 2, of its
    nearest-neighbor 2x downsample (img[::2, ::2], reported as
    out_w / out_h)."""
    from raysearch.numutil import round6

    ids, ws, hs, means = [], [], [], []
    for mid, p in zip(batch["media_id"].to_pylist(),
                      batch["payload"].to_pylist()):
        img = ppm_decode(p)[2][::step, ::step]
        ids.append(mid)
        hs.append(img.shape[0])
        ws.append(img.shape[1])
        means.append(round6(img.astype(np.float64).mean(axis=(0, 1))))
    m = np.asarray(means, np.float64).reshape(len(ids), 3)
    w_col, h_col = ("width", "height") if step == 1 else ("out_w", "out_h")
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        w_col: pa.array(ws, pa.int64()),
        h_col: pa.array(hs, pa.int64()),
        "mean_r": pa.array(m[:, 0], pa.float64()),
        "mean_g": pa.array(m[:, 1], pa.float64()),
        "mean_b": pa.array(m[:, 2], pa.float64()),
    })


def _ppm_payloads(b: pa.Table) -> pa.Table:
    """documents batch -> valid binary P6 PPM payloads (dims from
    doc_id, pixels tiled from the text bytes) — the shared synthesis
    for ppm_stats and ppm_resize."""
    ids = b["doc_id"].to_numpy()
    payloads = []
    for did, t in zip(ids, b["text"].to_pylist()):
        w, h = 4 + int(did) % 5, 3 + int(did) % 4
        need = w * h * 3
        raw = t.encode()
        if raw:
            px = (raw * (need // len(raw) + 1))[:need]
        else:
            px = bytes(need)
        payloads.append(b"P6\n# synthetic\n%d %d\n255\n" % (w, h) + px)
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "media_type": pa.array(["image"] * len(ids), pa.string()),
        "payload": pa.array(payloads, pa.large_binary()),
    })


def ppm_stats(sf_dir: str) -> pa.Table:
    """Real-decode image statistics: each document becomes a valid
    binary P6 PPM (dims from doc_id, pixels tiled from the text
    bytes), the ppm_batch stage parses the HEADER FROM THE
    PAYLOAD (it never sees the dims out-of-band) and reports
    per-channel pixel means. The DuckDB oracle recomputes the same
    means from the tiling rule under the module's ASCII corpus
    contract (frame_sample's byte==char equivalence)."""
    import ray.data

    ds = ray.data.read_parquet(os.path.join(sf_dir, _DOCS),
                               columns=["doc_id", "text"])
    out = (ds.map_batches(_ppm_payloads, batch_format="pyarrow",
                          zero_copy_batch=True)
           .map_batches(ppm_batch, batch_format="pyarrow",
                        batch_size=128))
    return (pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
            .sort_by([("doc_id", "ascending")]))


def sql_ppm_stats() -> str:
    # byte i of the tiled pixel buffer = text byte (i mod len); under
    # the ASCII corpus contract ascii(substr(...)) IS that byte.
    # channel c = positions i % 3 == c. Empty text -> zero pixels.
    return """
WITH dims AS (
  SELECT doc_id, 4 + doc_id % 5 AS w, 3 + doc_id % 4 AS h,
         text, length(text) AS len
  FROM documents
),
px AS (
  SELECT doc_id, w, h,
         unnest(range(0, w * h * 3)) AS i,
         CASE WHEN len = 0 THEN 0
              ELSE ascii(substr(text, (1 + i % len)::INT, 1)) END AS b
  FROM dims
)
SELECT doc_id, any_value(w)::BIGINT AS width,
       any_value(h)::BIGINT AS height,
       round(avg(b) FILTER (WHERE i % 3 = 0), 6) AS mean_r,
       round(avg(b) FILTER (WHERE i % 3 = 1), 6) AS mean_g,
       round(avg(b) FILTER (WHERE i % 3 = 2), 6) AS mean_b
FROM px GROUP BY doc_id ORDER BY doc_id
"""


def ppm_resize(sf_dir: str) -> pa.Table:
    """Real image RESIZE: decode each synthetic P6 PPM (same payloads
    as ppm_stats), downsample 2x by nearest neighbor (numpy stride
    slicing img[::2, ::2] — actual pixel work), and report the
    resized dims + per-channel means of the RESIZED image. The oracle
    reconstructs which source pixels survive (even row, even column)
    from the tiling rule and averages the same bytes."""
    import ray.data

    ds = ray.data.read_parquet(os.path.join(sf_dir, _DOCS),
                               columns=["doc_id", "text"])
    out = (ds.map_batches(_ppm_payloads, batch_format="pyarrow",
                          zero_copy_batch=True)
           .map_batches(ppm_batch, fn_kwargs={"step": 2},
                        batch_format="pyarrow", batch_size=128))
    return (pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
            .sort_by([("doc_id", "ascending")]))


def sql_ppm_resize() -> str:
    # pixel byte i -> (row, col, channel) = ((i//3)//w, (i//3)%w, i%3);
    # nearest-neighbor 2x keeps even rows and even columns
    return """
WITH dims AS (
  SELECT doc_id, 4 + doc_id % 5 AS w, 3 + doc_id % 4 AS h,
         text, length(text) AS len
  FROM documents
),
px AS (
  SELECT doc_id, w, h,
         unnest(range(0, w * h * 3)) AS i,
         CASE WHEN len = 0 THEN 0
              ELSE ascii(substr(text, (1 + i % len)::INT, 1)) END AS b
  FROM dims
)
SELECT doc_id,
       any_value((w + 1) // 2)::BIGINT AS out_w,
       any_value((h + 1) // 2)::BIGINT AS out_h,
       round(avg(b) FILTER (WHERE i % 3 = 0), 6) AS mean_r,
       round(avg(b) FILTER (WHERE i % 3 = 1), 6) AS mean_g,
       round(avg(b) FILTER (WHERE i % 3 = 2), 6) AS mean_b
FROM px
WHERE ((i // 3) // w) % 2 = 0 AND ((i // 3) % w) % 2 = 0
GROUP BY doc_id ORDER BY doc_id
"""


WAV_BASE_SAMPLES = 400


def wav_batch(batch: pa.Table) -> pa.Table:
    """REAL audio decode via the stdlib ``wave`` module — a genuine
    RIFF/WAVE parser, no external codec: per payload it reads the
    header (channels, sample rate, frame count) and the 16-bit PCM
    frames, and reports the RMS amplitude."""
    import io
    import wave

    from raysearch.numutil import round6

    ids, rates, frames, rms = [], [], [], []
    for mid, p in zip(batch["media_id"].to_pylist(),
                      batch["payload"].to_pylist()):
        with wave.open(io.BytesIO(p)) as w:
            if w.getnchannels() != 1 or w.getsampwidth() != 2:
                # reinterpreting stereo/8-bit frames as mono int16
                # would yield a silently wrong RMS — fail loudly
                # (same contract as ppm_decode's ValueError)
                raise ValueError(
                    f"unsupported WAV layout: channels="
                    f"{w.getnchannels()} sampwidth="
                    f"{w.getsampwidth()} (mono 16-bit only)")
            n = w.getnframes()
            pcm = np.frombuffer(w.readframes(n), np.int16)
        ids.append(mid)
        rates.append(w.getframerate())
        frames.append(n)
        rms.append(round6(float(np.sqrt(
            np.mean(pcm.astype(np.float64) ** 2)))))
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "sample_rate": pa.array(rates, pa.int64()),
        "n_frames": pa.array(frames, pa.int64()),
        "rms": pa.array(rms, pa.float64()),
    })


def wav_stats(sf_dir: str) -> pa.Table:
    """Real-decode audio statistics: each document becomes a valid
    mono 16-bit PCM WAV (rate and length from doc_id, samples
    (byte - 128) * 256 tiled from the text bytes), the wav_batch
    stage parses the RIFF header FROM the payload via the stdlib
    wave module and reports rate / frame count / RMS. Oracle
    recomputes RMS from the tiling rule (exact-integer squares under
    float64, ASCII corpus contract)."""
    import io
    import wave

    import ray.data

    def to_wav(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy()
        payloads = []
        for did, t in zip(ids, b["text"].to_pylist()):
            n = WAV_BASE_SAMPLES + int(did) % 200
            raw = t.encode()
            if raw:
                by = np.frombuffer((raw * (n // len(raw) + 1))[:n],
                                   np.uint8)
            else:
                by = np.zeros(n, np.uint8)
            pcm = ((by.astype(np.int16) - 128) * 256).astype("<i2")
            buf = io.BytesIO()
            with wave.open(buf, "wb") as w:
                w.setnchannels(1)
                w.setsampwidth(2)
                w.setframerate(8000 + (int(did) % 4) * 4000)
                w.writeframes(pcm.tobytes())
            payloads.append(buf.getvalue())
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "media_type": pa.array(["audio"] * len(ids), pa.string()),
            "payload": pa.array(payloads, pa.large_binary()),
        })

    ds = ray.data.read_parquet(os.path.join(sf_dir, _DOCS),
                               columns=["doc_id", "text"])
    out = (ds.map_batches(to_wav, batch_format="pyarrow",
                          zero_copy_batch=True)
           .map_batches(wav_batch, batch_format="pyarrow",
                        batch_size=128))
    return (pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
            .sort_by([("doc_id", "ascending")]))


def sql_wav_stats() -> str:
    # sample i = (byte(i mod len) - 128) * 256; squares are exact
    # integers < 2^30, their float64 sum is exact, so rms is
    # deterministic on both engines
    return f"""
WITH dims AS (
  SELECT doc_id, {WAV_BASE_SAMPLES} + doc_id % 200 AS n,
         8000 + (doc_id % 4) * 4000 AS rate,
         text, length(text) AS len
  FROM documents
),
s AS (
  SELECT doc_id, n, rate, unnest(range(0, n)) AS i,
         (CASE WHEN len = 0 THEN 0
               ELSE ascii(substr(text, (1 + i % len)::INT, 1)) END
          - 128) * 256 AS sample
  FROM dims
)
SELECT doc_id, any_value(rate)::BIGINT AS sample_rate,
       any_value(n)::BIGINT AS n_frames,
       round(sqrt(avg(power(sample, 2))), 6) AS rms
FROM s GROUP BY doc_id ORDER BY doc_id
"""


FRAME_BYTES = 256
FRAME_STRIDE = 4  # keep every 4th frame


def frame_sample(sf_dir: str) -> pa.Table:
    """Frame sampling for video-like payloads: each payload is a
    sequence of fixed-size frames; the stage EXPANDS one media row
    into one row per sampled frame (keep every FRAME_STRIDE-th) — the
    1:N output layout a real frame sampler produces, with small
    batches because rows are wide. Frame slicing is real byte-range
    work (no codec needed), so this stage gets a full DuckDB oracle
    unlike the stubbed decode kernel. (Engine slices BYTES, the SQL
    oracle slices CHARACTERS — equal under the documented ASCII
    corpus contract, textops module docstring.)"""
    import ray.data

    def sample(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy()
        texts = [t.encode() for t in b["text"].to_pylist()]
        # vectorized 1:N expansion (np.repeat/arange over frame
        # offsets); Python loops only for the per-frame sha call,
        # hashing zero-copy slices of one flat byte buffer
        lens = np.array([len(t) for t in texts], dtype=np.int64)
        flat = np.frombuffer(b"".join(texts), dtype=np.uint8)
        starts = np.zeros(len(texts), dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        n_frames = -(-lens // FRAME_BYTES)
        n_samp = -(-n_frames // FRAME_STRIDE)
        total = int(n_samp.sum())
        first = np.zeros(len(texts), dtype=np.int64)
        np.cumsum(n_samp[:-1], out=first[1:])
        doc_rep = np.repeat(np.arange(len(texts)), n_samp)
        frame_idx = (np.arange(total)
                     - np.repeat(first, n_samp)) * FRAME_STRIDE
        fs = starts[doc_rep] + frame_idx * FRAME_BYTES
        fe = np.minimum(fs + FRAME_BYTES, starts[doc_rep] + lens[doc_rep])
        shas = [hashlib.sha256(flat[a:e]).hexdigest()
                for a, e in zip(fs, fe)]
        return pa.table({
            "doc_id": pa.array(ids[doc_rep], pa.int64()),
            "frame_idx": pa.array(frame_idx, pa.int64()),
            "n_bytes": pa.array(fe - fs, pa.int64()),
            "frame_sha": pa.array(shas, pa.string()),
        })

    ds = ray.data.read_parquet(os.path.join(sf_dir, _DOCS),
                               columns=["doc_id", "text"])
    out = ds.map_batches(sample, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=256)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


def sql_frame_sample() -> str:
    return f"""
WITH idx AS (
  SELECT doc_id, text,
         unnest(range(0, greatest((length(text) + {FRAME_BYTES} - 1)
                                  // {FRAME_BYTES}, 0))) AS k
  FROM documents
),
f AS (
  SELECT doc_id, k::BIGINT AS frame_idx,
         substr(text, 1 + k * {FRAME_BYTES}, {FRAME_BYTES}) AS frame
  FROM idx WHERE k % {FRAME_STRIDE} = 0
)
SELECT doc_id, frame_idx, length(frame)::BIGINT AS n_bytes,
       sha256(frame) AS frame_sha
FROM f
"""


HEADER_BYTES = 8


def parse_headers(batch: pa.Table) -> pa.Table:
    """EXIF-style fixed-header parse over the opaque binary payload
    column — the exactly-checkable slice of real media ingestion
    (magic/version/flags live at fixed offsets in every container
    format; no codec needed to read them). Parsing is vectorized: the
    first HEADER_BYTES of every payload concatenate into ONE flat
    uint8 matrix, fields come out as numpy bit-shifts."""
    hb = HEADER_BYTES
    payloads = batch["payload"].to_pylist()
    ids = batch["media_id"].to_numpy()
    keep = [i for i, p in enumerate(payloads) if len(p) >= hb]
    if not keep:
        return pa.table({
            "doc_id": pa.array([], pa.int64()),
            "magic": pa.array([], pa.int64()),
            "version": pa.array([], pa.int64()),
            "flags": pa.array([], pa.int64()),
            "body_len": pa.array([], pa.int64()),
            "header_hex": pa.array([], pa.string())})
    heads = b"".join(payloads[i][:hb] for i in keep)
    arr = np.frombuffer(heads, np.uint8).reshape(-1, hb)
    a64 = arr.astype(np.int64)
    magic = ((a64[:, 0] << 24) | (a64[:, 1] << 16)
             | (a64[:, 2] << 8) | a64[:, 3])
    return pa.table({
        "doc_id": pa.array(ids[keep].astype(np.int64), pa.int64()),
        "magic": pa.array(magic, pa.int64()),
        "version": pa.array(a64[:, 4], pa.int64()),
        "flags": pa.array(a64[:, 5], pa.int64()),
        "body_len": pa.array(
            np.array([len(payloads[i]) - hb for i in keep],
                     np.int64), pa.int64()),
        "header_hex": pa.array(
            [payloads[i][:hb].hex() for i in keep], pa.string()),
    })


def media_header(sf_dir: str) -> pa.Table:
    """Fixed-header parse of every document payload (>= 8 bytes):
    big-endian uint32 magic from bytes 0-3, version byte 4, flags
    byte 5, body_len = payload length - 8, and the 8-byte header as
    lowercase hex — the same stage shape as decode_batch but with a
    full DuckDB byte-arithmetic oracle (engine parses BYTES, the
    oracle parses CHARACTER CODES — equal under the documented ASCII
    corpus contract, textops module docstring)."""
    import ray.data

    def to_media(b: pa.Table) -> pa.Table:
        texts = b["text"].to_pylist()
        return pa.table({
            "media_id": b["doc_id"],
            "payload": pa.array([t.encode() for t in texts],
                                pa.large_binary()),
        })

    ds = ray.data.read_parquet(os.path.join(sf_dir, _DOCS),
                               columns=["doc_id", "text"])
    out = (ds.map_batches(to_media, batch_format="pyarrow",
                          zero_copy_batch=True)
           .map_batches(parse_headers, batch_format="pyarrow",
                        batch_size=128))
    tbl = pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
    return tbl.sort_by([("doc_id", "ascending")])


def sql_media_header() -> str:
    return f"""
SELECT doc_id,
       (ascii(substr(text, 1, 1)) * 16777216
        + ascii(substr(text, 2, 1)) * 65536
        + ascii(substr(text, 3, 1)) * 256
        + ascii(substr(text, 4, 1)))::BIGINT AS magic,
       ascii(substr(text, 5, 1))::BIGINT AS version,
       ascii(substr(text, 6, 1))::BIGINT AS flags,
       (octet_length(text::BLOB) - {HEADER_BYTES})::BIGINT AS body_len,
       lower(hex(substr(text, 1, {HEADER_BYTES})::BLOB)) AS header_hex
FROM documents
WHERE octet_length(text::BLOB) >= {HEADER_BYTES}
ORDER BY doc_id
"""


def sql_blob_meta() -> str:
    return """
SELECT doc_id, octet_length(text::BLOB)::BIGINT AS n_bytes,
       sha256(text) AS sha256
FROM documents
"""


QUERIES = {"blob_meta": blob_meta, "frame_sample": frame_sample,
           "media_header": media_header, "ppm_stats": ppm_stats,
           "ppm_resize": ppm_resize, "wav_stats": wav_stats}
ORACLE_SQL = {"blob_meta": sql_blob_meta(),
              "frame_sample": sql_frame_sample(),
              "media_header": sql_media_header(),
              "ppm_stats": sql_ppm_stats(),
              "ppm_resize": sql_ppm_resize(),
              "wav_stats": sql_wav_stats()}
