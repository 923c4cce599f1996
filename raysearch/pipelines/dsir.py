"""DSIR-style data selection — hashed n-gram importance weights
(Xie et al., "Data Selection for Language Models via Importance
Resampling", NeurIPS 2023): score every document by the
log-likelihood ratio of its hashed-bigram features under a TARGET
distribution (here: the corpus's dominant language, ``lang = 'en'``)
vs the RAW distribution (the whole corpus). High scores = documents
that look like the target domain; the standard recipe then samples
proportionally to exp(score).

Feature hashing is the scale contract: grams are hashed into a FIXED
``B = 65536`` bucket space, so the model is two int64 arrays of B
counts regardless of corpus size — unlike a raw vocabulary (cf.
lm.py's documented vocabulary-growth caveat), the broadcast side here
is ~1 MB at ANY corpus scale, and bucket collisions are part of the
method's semantics (both engine and oracle hash identically, so the
result is still exactly checkable).

Two streaming passes, both combiner-shaped:

1. COUNT: per-batch bincounts of bucket hits (target and raw) — at
   most B rows leave a batch — then one groupby over bucket
   cardinality (<= B rows total).
2. SCORE: a plain function map_batches stage; the per-bucket
   log-likelihood-ratio table (one float64[B] array) ships via
   ray.put once and is ray.get ZERO-COPY per batch; per-doc sums are
   np.add.at over doc offsets.

Laplace smoothing (+1 per bucket) keeps unseen-in-target buckets
finite. Float parity with the DuckDB oracle: the ratio is computed as
ln(pt) - ln(pb) with IDENTICAL float64 arguments on both sides
(never ln(pt/pb) — a different float op), and the per-doc sum is
rounded via numutil.round6 == DuckDB round() half-away.

Docs with < 2 tokens have no bigram features and are excluded on
both sides (same contract as bigram_logprob).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from raysearch.numutil import fmt_doc, round6
from raysearch.pipelines.lm import _doc_bigrams

_DOCS = "documents.parquet"
DSIR_BUCKETS = 65536     # fixed feature-hash space (2^16)
DSIR_HASH_HEX = 11       # 44-bit md5 prefix (fits DuckDB BIGINT)
DSIR_TARGET_LANG = "en"  # target domain: the dominant language


def _read_docs(sf_dir: str, with_lang: bool):
    import ray.data

    cols = ["doc_id", "text"] + (["lang"] if with_lang else [])
    return ray.data.read_parquet(os.path.join(sf_dir, _DOCS),
                                 columns=cols)


def _buckets(bg: np.ndarray) -> np.ndarray:
    from raysearch.pipelines.textops import md5_prefix_ints

    return (md5_prefix_ints(bg, DSIR_HASH_HEX)
            % np.uint64(DSIR_BUCKETS)).astype(np.int64)


def _train(sf_dir: str):
    """Per-bucket (target, raw) bigram-occurrence counts -> broadcast
    float64[B] log-likelihood-ratio array (ray.put ref). The exchange
    carries <= B partial rows per batch; the final table is <= B rows."""
    import ray
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        doc_idx, _, bg = _doc_bigrams(batch)
        if len(bg) == 0:
            return pa.table({"bucket": pa.array([], pa.int64()),
                             "n_t": pa.array([], pa.int64()),
                             "n_r": pa.array([], pa.int64())})
        bk = _buckets(bg)
        is_t = (np.asarray(batch["lang"].to_pylist(), dtype=object)
                == DSIR_TARGET_LANG)[doc_idx]
        n_r = np.bincount(bk, minlength=DSIR_BUCKETS)
        n_t = np.bincount(bk[is_t], minlength=DSIR_BUCKETS)
        nz = np.flatnonzero(n_r)
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "n_t": pa.array(n_t[nz], pa.int64()),
                         "n_r": pa.array(n_r[nz], pa.int64())})

    cnt = (_read_docs(sf_dir, with_lang=True)
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("bucket")
           .aggregate(Sum("n_t", alias_name="n_t"),
                      Sum("n_r", alias_name="n_r"))).to_pandas()
    nt = np.zeros(DSIR_BUCKETS, dtype=np.int64)
    nr = np.zeros(DSIR_BUCKETS, dtype=np.int64)
    bk = cnt["bucket"].to_numpy(np.int64)
    nt[bk] = cnt["n_t"].to_numpy(np.int64)
    nr[bk] = cnt["n_r"].to_numpy(np.int64)
    tot_t, tot_r = int(nt.sum()), int(nr.sum())
    # ln(pt) - ln(pb), two separate ln calls: bit-identical to the
    # oracle's ln((n+1.0)/(tot+B)) pair under any libm
    llr = (np.log((nt + 1.0) / (tot_t + float(DSIR_BUCKETS)))
           - np.log((nr + 1.0) / (tot_r + float(DSIR_BUCKETS))))
    return ray.put(llr)


def _dsir_scored(batch: pa.Table, llr_ref) -> pa.Table:
    """(doc_id, n_bigrams, dsir_logratio) of one batch: the summed
    LLR of its hashed bigrams. A plain function stage that ray.gets
    the float64[B] LLR table itself (a zero-copy numpy view; Ray Data
    does not resolve refs in fn_kwargs)."""
    import ray

    doc_idx, _, bg = _doc_bigrams(batch)
    if len(bg) == 0:
        return pa.table({
            "doc_id": pa.array([], pa.int64()),
            "n_bigrams": pa.array([], pa.int64()),
            "dsir_logratio": pa.array([], pa.float64())})
    v = ray.get(llr_ref)[_buckets(bg)]
    n_docs = batch.num_rows
    sums = np.zeros(n_docs)
    np.add.at(sums, doc_idx, v)
    cnt = np.zeros(n_docs, dtype=np.int64)
    np.add.at(cnt, doc_idx, 1)
    keep = cnt > 0
    return pa.table({
        "doc_id": pa.array(batch["doc_id"].to_numpy()[keep], pa.int64()),
        "n_bigrams": pa.array(cnt[keep], pa.int64()),
        "dsir_logratio": pa.array(round6(sums[keep]), pa.float64()),
    })


def _score_ds(sf_dir: str):
    """The scored-documents Dataset (streaming; shared by
    dsir_weights and dsir_resample)."""
    llr_ref = _train(sf_dir)
    return _read_docs(sf_dir, with_lang=False).map_batches(
        _dsir_scored, fn_kwargs={"llr_ref": llr_ref},
        batch_format="pyarrow", zero_copy_batch=True)


def dsir_weights(sf_dir: str) -> pa.Table:
    """(doc_id, n_bigrams, dsir_logratio) per document with >= 1
    bigram: the summed hashed-bigram log importance ratio
    target-vs-raw, scored by a plain function stage over the
    broadcast LLR table."""
    return pa.concat_tables(
        _score_ds(sf_dir).iter_batches(batch_format="pyarrow"))


# ---- importance RESAMPLING (the R in DSIR) ----

DSIR_SAMPLE_K = 100


@fmt_doc(k=DSIR_SAMPLE_K)
def dsir_resample(sf_dir: str) -> pa.Table:
    """Top-{k} documents under Gumbel-top-k importance resampling:
    key = dsir_logratio + Gumbel noise, noise derived DETERMINISTICALLY
    from md5(doc_id) (u = (h44 + 0.5) / 2^44, g = -ln(-ln(u))) — the
    standard Gumbel trick turns weighted sampling-without-replacement
    into a top-k, and the hash-derived noise makes membership
    reproducible from the doc_id alone on any engine (the same
    contract as sample_split/stratified_sample).

    Scale shape: the scoring stream gains a per-batch key column and
    LOCAL top-{k} truncation under the shared total order
    (round6(key) DESC, doc_id), so the driver merges n_blocks x {k}
    candidate rows — never the scored table."""

    def topk(b: pa.Table) -> pa.Table:
        from raysearch.pipelines.textops import md5_prefix_ints

        if b.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "dsir_logratio": pa.array([], pa.float64()),
                             "sample_key": pa.array([], pa.float64())})
        ids = b["doc_id"].to_numpy()
        score = b["dsir_logratio"].to_numpy()
        sid = np.array([str(int(i)) for i in ids], dtype=object)
        h = md5_prefix_ints(sid, 11).astype(np.float64)
        u = (h + 0.5) / float(1 << 44)
        key = round6(score + (-np.log(-np.log(u))))
        order = np.lexsort((ids, -key))[:DSIR_SAMPLE_K]
        return pa.table({
            "doc_id": pa.array(ids[order], pa.int64()),
            "dsir_logratio": pa.array(score[order], pa.float64()),
            "sample_key": pa.array(key[order], pa.float64())})

    cand = pa.concat_tables(
        _score_ds(sf_dir)
        .map_batches(topk, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow")).to_pandas()
    cand = cand.sort_values(["sample_key", "doc_id"],
                            ascending=[False, True],
                            ignore_index=True).head(DSIR_SAMPLE_K)
    return pa.table({
        "doc_id": pa.array(cand.doc_id.to_numpy(np.int64), pa.int64()),
        "dsir_logratio": pa.array(
            cand.dsir_logratio.to_numpy(np.float64), pa.float64()),
        "sample_key": pa.array(cand.sample_key.to_numpy(np.float64),
                               pa.float64()),
    })


def sql_dsir_weights() -> str:
    b = DSIR_BUCKETS
    return rf"""
WITH t AS (SELECT doc_id, lang,
                  regexp_extract_all(lower(text), '\S+') AS toks
           FROM documents),
bg AS (
  SELECT doc_id, lang,
    ('0x' || substr(md5(unnest(list_transform(
        range(1, greatest(len(toks), 1)),
        i -> toks[i] || ' ' || toks[i + 1]))), 1, {DSIR_HASH_HEX})
    )::BIGINT % {b} AS bucket
  FROM t
),
cnt AS (SELECT bucket,
               count(*) FILTER (lang = '{DSIR_TARGET_LANG}') AS n_t,
               count(*) AS n_r
        FROM bg GROUP BY bucket),
tot AS (SELECT sum(n_t) AS tot_t, sum(n_r) AS tot_r FROM cnt),
llr AS (SELECT bucket,
               ln((n_t + 1.0) / (tot_t + {b}.0))
             - ln((n_r + 1.0) / (tot_r + {b}.0)) AS v
        FROM cnt CROSS JOIN tot),
s AS (SELECT bg.doc_id, count(*) AS n, sum(llr.v) AS lp
      FROM bg JOIN llr USING (bucket) GROUP BY bg.doc_id)
SELECT doc_id, n::BIGINT AS n_bigrams, round(lp, 6) AS dsir_logratio
FROM s
"""


def sql_dsir_resample() -> str:
    b = DSIR_BUCKETS
    return rf"""
WITH t AS (SELECT doc_id, lang,
                  regexp_extract_all(lower(text), '\S+') AS toks
           FROM documents),
bg AS (
  SELECT doc_id, lang,
    ('0x' || substr(md5(unnest(list_transform(
        range(1, greatest(len(toks), 1)),
        i -> toks[i] || ' ' || toks[i + 1]))), 1, {DSIR_HASH_HEX})
    )::BIGINT % {b} AS bucket
  FROM t
),
cnt AS (SELECT bucket,
               count(*) FILTER (lang = '{DSIR_TARGET_LANG}') AS n_t,
               count(*) AS n_r
        FROM bg GROUP BY bucket),
tot AS (SELECT sum(n_t) AS tot_t, sum(n_r) AS tot_r FROM cnt),
llr AS (SELECT bucket,
               ln((n_t + 1.0) / (tot_t + {b}.0))
             - ln((n_r + 1.0) / (tot_r + {b}.0)) AS v
        FROM cnt CROSS JOIN tot),
s AS (SELECT bg.doc_id, round(sum(llr.v), 6) AS score
      FROM bg JOIN llr USING (bucket) GROUP BY bg.doc_id),
g AS (SELECT doc_id, score,
             round(score
                   - ln(-ln((('0x' || substr(md5(doc_id::VARCHAR),
                                             1, 11))::BIGINT + 0.5)
                            / 17592186044416.0)), 6) AS sample_key
      FROM s)
SELECT doc_id, score AS dsir_logratio, sample_key
FROM g ORDER BY sample_key DESC, doc_id LIMIT {DSIR_SAMPLE_K}
"""


QUERIES = {"dsir_weights": dsir_weights, "dsir_resample": dsir_resample}
ORACLE_SQL = {"dsir_weights": sql_dsir_weights(),
              "dsir_resample": sql_dsir_resample()}
