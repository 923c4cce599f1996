"""Winnowing document fingerprints (MOSS) over the ``documents``
table — the classic local-fingerprinting scheme for source-code /
text similarity (Schleimer, Wilkerson & Aiken, "Winnowing: Local
Algorithms for Document Fingerprinting", SIGMOD 2003). For the
source-code corpus of BASELINE.json this is the code-clone detector
that byte-offset hashing cannot be: any shared substring of at least
K + W - 1 characters is guaranteed to contribute a shared
fingerprint, and the selected set is position-independent.

Scheme (guarantee-preserving, tie-free variant):
- gram hash  h_i = sum_j cp[i+j] * 31^(K-1-j)  over K = 8 consecutive
  Unicode CODEPOINTS, computed exactly in int64 (max codepoint
  0x10FFFF keeps the sum < 2^55) — the identical arithmetic is
  expressible in DuckDB (`unicode(substr(...))` + BIGINT power
  literals), so the op is fully oracle-checked, unlike a modular
  rolling hash.
- fingerprints = the DISTINCT minimum hash of every W = 4-gram
  window (docs with fewer than W grams contribute the min over all
  their grams). Keeping the min VALUE rather than (value, position)
  makes the winnow set independent of the robust-winnowing tie rule
  while preserving the matching guarantee.

Vectorization: each batch flattens its documents into ONE codepoint
array (utf-32 view), gram hashes are a single strided-view matmul,
window minima one strided-view ``min`` — the same kernel shape as the
CDC chunker (chunking.py). Python touches per-DOC work only in the
utf-32 encode list comprehension.

Scale: ``winnow_fingerprints`` is map-only (no exchange).
``winnow_pairs`` reuses the capped inverted-join pattern proven for
ngram_jaccard: fingerprint rows shuffle ONCE on an input-scaled
coarse key (auto_buckets), pairs are emitted per equal-fp run with a
hot-key df cap, and a second coarse exchange counts shared
fingerprints per pair — the driver receives final pairs only.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from raysearch.hashing import auto_buckets, splitmix64
from raysearch.pipelines.dedup import _check_packable, _n_docs, _run_pairs

_DOCS = "documents.parquet"

WINNOW_K = 8            # codepoints per gram
WINNOW_W = 4            # grams per winnow window
WINNOW_DF_CAP = 20      # hot-fingerprint cutoff for pair generation
WINNOW_MIN_SHARED = 12  # report pairs sharing >= this many rare fps

_POWERS = (np.int64(31) ** np.arange(WINNOW_K - 1, -1, -1,
                                     dtype=np.int64))


def _read_docs(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, _DOCS),
                                 columns=["doc_id", "text"])


def _winnow_batch(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (doc_id, fingerprint) pairs for one batch, sorted by
    (doc, fp). Docs shorter than K codepoints yield no rows (no gram
    exists) — excluded on the oracle side by `length(text) >= K`."""
    texts = batch["text"].to_pylist()
    doc_ids = batch["doc_id"].to_numpy()
    cps = [np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32)
           for t in texts]
    lens = np.array([len(c) for c in cps], dtype=np.int64)
    e = np.zeros(0, dtype=np.int64)
    if len(cps) == 0 or int(lens.sum()) < WINNOW_K:
        return e, e
    flat = np.concatenate(cps).astype(np.int64)
    starts = np.zeros(len(cps), dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])

    # hash of every K-codepoint window of the flat array (one matmul);
    # windows crossing a doc boundary exist in `h` but are never
    # selected below (every gathered index stays inside its doc)
    h = np.lib.stride_tricks.sliding_window_view(flat, WINNOW_K) @ _POWERS
    g = lens - WINNOW_K + 1  # grams per doc (<= 0: no grams)
    out_d, out_f = [], []

    # full-window docs: min over each W-gram window via one strided min
    long = np.flatnonzero(g >= WINNOW_W)
    if len(long):
        hmin = np.lib.stride_tricks.sliding_window_view(
            h, WINNOW_W).min(axis=1)
        wcount = g[long] - WINNOW_W + 1
        first = np.repeat(starts[long], wcount)
        off = np.repeat(np.cumsum(wcount) - wcount, wcount)
        idx = np.arange(int(wcount.sum())) - off + first
        out_d.append(np.repeat(doc_ids[long], wcount))
        out_f.append(hmin[idx])

    # short docs (1 <= grams < W): single truncated window = min over
    # all the doc's grams — gather their gram hashes and reduceat
    short = np.flatnonzero((g >= 1) & (g < WINNOW_W))
    if len(short):
        gs = g[short]
        first = np.repeat(starts[short], gs)
        off = np.repeat(np.cumsum(gs) - gs, gs)
        gathered = h[np.arange(int(gs.sum())) - off + first]
        bounds = np.cumsum(gs) - gs
        out_d.append(doc_ids[short])
        out_f.append(np.minimum.reduceat(gathered, bounds))

    if not out_d:
        return e, e
    d = np.concatenate(out_d)
    f = np.concatenate(out_f)
    order = np.lexsort((f, d))
    d, f = d[order], f[order]
    keep = np.ones(len(d), dtype=bool)
    keep[1:] = (d[1:] != d[:-1]) | (f[1:] != f[:-1])
    return d[keep], f[keep]


def _fp_rows(batch: pa.Table) -> pa.Table:
    d, f = _winnow_batch(batch)
    return pa.table({"doc_id": pa.array(d, pa.int64()),
                     "fp": pa.array(f, pa.int64())})


def winnow_fingerprints(sf_dir: str) -> pa.Table:
    """Distinct (doc_id, fp) winnow-fingerprint table. Map-only."""
    out = _read_docs(sf_dir).map_batches(
        _fp_rows, batch_format="pyarrow", zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


def winnow_pairs(sf_dir: str) -> pa.Table:
    """Document pairs sharing >= WINNOW_MIN_SHARED rare fingerprints
    (df <= WINNOW_DF_CAP — common substrings of the corpus carry no
    similarity signal and would otherwise emit O(df^2) pairs). The
    count contract needs no per-doc set sizes, so nothing but
    (doc, fp, bucket) rows ever shuffle. Bucket cardinality is
    input-scaled (auto_buckets)."""
    nb = auto_buckets(_n_docs(sf_dir))

    def fp_part_rows(batch: pa.Table) -> pa.Table:
        d, f = _winnow_batch(batch)
        _check_packable(d)
        fpart = (splitmix64(f) % np.uint64(nb)).astype(np.int64)
        return pa.table({"doc_id": pa.array(d, pa.int64()),
                         "fp": pa.array(f, pa.int64()),
                         "fpart": pa.array(fpart, pa.int64())})

    def emit_pairs(group: pd.DataFrame) -> pd.DataFrame:
        codes, _ = pd.factorize(group["fp"], sort=False)
        a, b = _run_pairs([codes], group["doc_id"].to_numpy(),
                          cap=WINNOW_DF_CAP)
        pkey = (a << np.int64(32)) | b
        return pd.DataFrame({"pkey": pkey, "ppart": pkey % nb})

    def count_shared(group: pd.DataFrame) -> pd.DataFrame:
        pk = group["pkey"].to_numpy()
        uniq, counts = np.unique(pk, return_counts=True)
        keep = counts >= WINNOW_MIN_SHARED
        return pd.DataFrame({
            "doc_a": uniq[keep] >> np.int64(32),
            "doc_b": uniq[keep] & np.int64(0xFFFFFFFF),
            "n_shared": counts[keep].astype(np.int64)})

    pairs = (_read_docs(sf_dir)
             .map_batches(fp_part_rows, batch_format="pyarrow",
                          zero_copy_batch=True)
             .groupby("fpart")
             .map_groups(emit_pairs, batch_format="pandas")
             .groupby("ppart")
             .map_groups(count_shared, batch_format="pandas"))
    tbl = pa.concat_tables(pairs.iter_batches(batch_format="pyarrow"))
    if tbl.num_rows == 0:
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64()),
                         "n_shared": pa.array([], pa.int64())})
    return (tbl.select(["doc_a", "doc_b", "n_shared"])
            .sort_by([("doc_a", "ascending"), ("doc_b", "ascending")]))


def _sql_fp_cte() -> str:
    """The fingerprint table as a DuckDB CTE body (identical integer
    arithmetic to _winnow_batch)."""
    k, w = WINNOW_K, WINNOW_W
    terms = " + ".join(
        f"unicode(substr(t, i + {j}, 1)) * {int(_POWERS[j])}::BIGINT"
        for j in range(k))
    return f"""
d AS (SELECT doc_id, text AS t, length(text) AS n FROM documents
      WHERE length(text) >= {k}),
hs AS (SELECT doc_id, n - {k - 1} AS ng,
              list_transform(range(1, n - {k - 2}), i -> {terms}) AS hl
       FROM d),
g AS (SELECT doc_id, ng, unnest(hl) AS h,
             generate_subscripts(hl, 1) AS pos
      FROM hs),
w AS (SELECT doc_id, pos, ng,
             min(h) OVER (PARTITION BY doc_id ORDER BY pos
                          ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING)
               AS fp
      FROM g),
fpt AS (SELECT DISTINCT doc_id, fp FROM w
        WHERE pos <= greatest(ng - {w - 1}, 1))"""


def sql_winnow_fingerprints() -> str:
    return f"WITH {_sql_fp_cte()} SELECT doc_id, fp FROM fpt"


def sql_winnow_pairs() -> str:
    return f"""
WITH {_sql_fp_cte()},
keep AS (SELECT fp FROM (SELECT fp, count(*) AS c FROM fpt GROUP BY fp)
         WHERE c BETWEEN 2 AND {WINNOW_DF_CAP})
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*)::BIGINT AS n_shared
FROM fpt a JOIN keep USING (fp) JOIN fpt b USING (fp)
WHERE a.doc_id < b.doc_id
GROUP BY doc_a, doc_b
HAVING count(*) >= {WINNOW_MIN_SHARED}
"""


QUERIES = {
    "winnow_fingerprints": winnow_fingerprints,
    "winnow_pairs": winnow_pairs,
}

ORACLE_SQL = {
    "winnow_fingerprints": sql_winnow_fingerprints(),
    "winnow_pairs": sql_winnow_pairs(),
}
