"""CCNet-style perplexity bucketing (Wenzek et al., LREC 2020): split
each language's documents into head / middle / tail quality buckets by
their language-model score — the standard corpus-quality partition a
crawl pipeline applies before choosing what to train on.

Composition: the score IS the bigram-LM mean log-probability from
lm.bigram_logprob (same trained model, same scoring stage, same
round6 quantization — the score column here is bit-identical to that
operator's). Thresholds are the per-language tertile ORDER STATISTICS
of a deterministic hash sample, CCNet's own recipe (it fits its KenLM
percentile cutoffs on a sample too):

- sample membership: 44-bit md5 fraction of str(doc_id) < rate, the
  engine-wide membership-hash contract (mix_sample, dsir_resample);
- rate = round6(min(PPLB_RATE_MAX, PPLB_SAMPLE_CAP / n_docs)) — the
  sample is HARD-BOUNDED at ~2M docs no matter the corpus size, so
  the driver-side threshold fit holds its budget at 100 TB (n_docs
  comes from parquet footers, count(*) in the oracle — both exact);
- per lang, with the m sampled (score, doc_id) pairs sorted
  ascending, t1 = score at rank ceil(m/3), t2 = at rank ceil(2m/3)
  (1-indexed); bucket = tail if score <= t1, middle if <= t2, else
  head. A lang with NO sampled docs buckets everything 'tail'
  (deterministic on both sides via LEFT JOIN semantics).

Scale shape: scoring is bigram_logprob's plain function stage over
the broadcast model (no actor pool, so a 1-CPU session never starves
its read); sample rows are the only thing the driver
fits thresholds on (cap-bounded); the threshold table is 2 floats per
language — in a sink-shaped deployment the bucket pass is a map-only
stage against that broadcast table. Docs with < 2 tokens have no
score and are excluded, exactly like bigram_logprob.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from raysearch.numutil import round6
from raysearch.pipelines.lm import _DOCS, _ngram_logprob, _train

PPLB_RATE_MAX = 0.25
PPLB_SAMPLE_CAP = 2_000_000


def _sample_rate(sf_dir: str) -> float:
    from raysearch.hashing import parquet_rows

    n = parquet_rows(os.path.join(sf_dir, _DOCS))
    return round6(min(PPLB_RATE_MAX, PPLB_SAMPLE_CAP / n)) if n else 0.0


def _lang_scored(batch: pa.Table, model_ref, rate: float,
                 capped: bool = False) -> pa.Table:
    """bigram_logprob's scoring stage (lm._ngram_logprob) + the doc's
    lang and its sample-membership flag, carried batch-locally (the
    scorer's keep-filter is re-joined on doc_id inside the batch)."""
    from raysearch.pipelines.textops import md5_prefix_ints

    out = _ngram_logprob(batch, model_ref, capped).to_pandas()
    meta = pd.DataFrame({
        "doc_id": batch["doc_id"].to_numpy(),
        "lang": batch["lang"].to_pylist()})
    j = out.merge(meta, on="doc_id")
    ids = j.doc_id.to_numpy(np.int64)
    sid = np.array([str(int(i)) for i in ids], dtype=object)
    h = md5_prefix_ints(sid, 11)
    frac = (h.astype(np.float64) + 0.5) / float(1 << 44)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "lang": pa.array(j.lang.tolist(), pa.string()),
        "logprob": pa.array(j.logprob.to_numpy(np.float64),
                            pa.float64()),
        "samp": pa.array((frac < rate).astype(np.int8), pa.int8()),
    })


def perplexity_buckets(sf_dir: str,
                       vocab_cap: int | None = None) -> pa.Table:
    """(doc_id, lang, logprob, bucket): every scored doc's CCNet
    head/middle/tail assignment under the per-lang sampled-tertile
    thresholds documented in the module docstring. ``vocab_cap``
    bounds the broadcast LM model exactly as in lm.bigram_logprob
    (default None = exact, the oracle contract)."""
    import ray.data

    rate = _sample_rate(sf_dir)
    model_ref = _train(sf_dir, vocab_cap=vocab_cap)
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, _DOCS),
        columns=["doc_id", "text", "lang"]).map_batches(
        _lang_scored,
        fn_kwargs={"model_ref": model_ref, "rate": rate,
                   "capped": vocab_cap is not None},
        batch_format="pyarrow", zero_copy_batch=True)
    scored = pa.concat_tables(
        ds.iter_batches(batch_format="pyarrow")).to_pandas()
    if not len(scored):
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "lang": pa.array([], pa.string()),
                         "logprob": pa.array([], pa.float64()),
                         "bucket": pa.array([], pa.string())})

    # threshold fit on the cap-bounded sample: per lang, tertile
    # order statistics under the (score, doc_id) total order
    thr: dict[str, tuple[float, float]] = {}
    samp = scored[scored.samp == 1]
    for lang, g in samp.groupby("lang"):
        s = g.sort_values(["logprob", "doc_id"],
                          ignore_index=True).logprob.to_numpy()
        m = len(s)
        thr[lang] = (s[(m + 2) // 3 - 1], s[(2 * m + 2) // 3 - 1])

    langs = scored.lang.to_numpy()
    lp = scored.logprob.to_numpy(np.float64)
    t1 = np.array([thr.get(l, (np.inf, np.inf))[0] for l in langs])
    t2 = np.array([thr.get(l, (np.inf, np.inf))[1] for l in langs])
    bucket = np.where(lp <= t1, "tail",
                      np.where(lp <= t2, "middle", "head"))
    out = (scored.assign(bucket=bucket)
           .sort_values("doc_id", ignore_index=True))
    return pa.table({
        "doc_id": pa.array(out.doc_id.to_numpy(np.int64), pa.int64()),
        "lang": pa.array(out.lang.tolist(), pa.string()),
        "logprob": pa.array(out.logprob.to_numpy(np.float64),
                            pa.float64()),
        "bucket": pa.array(out.bucket.tolist(), pa.string()),
    })


def sql_perplexity_buckets() -> str:
    from raysearch.pipelines.lm import bigram_score_ctes

    return rf"""
WITH {bigram_score_ctes()},
scored AS (
  SELECT s.doc_id, d.lang, round(s.lp / s.n, 6) AS logprob
  FROM s JOIN documents d USING (doc_id)
),
rate AS (
  SELECT round(least({PPLB_RATE_MAX},
                     {PPLB_SAMPLE_CAP}.0 / count(*)), 6) AS r
  FROM documents
),
samp AS (
  SELECT lang, logprob, doc_id FROM scored, rate
  WHERE (('0x' || substr(md5(doc_id::VARCHAR), 1, 11))::BIGINT + 0.5)
        / 17592186044416.0 < rate.r
),
ranked AS (
  SELECT lang, logprob,
         row_number() OVER (PARTITION BY lang
                            ORDER BY logprob, doc_id) AS rn,
         count(*) OVER (PARTITION BY lang) AS m
  FROM samp
),
thr AS (
  SELECT lang,
         max(CASE WHEN rn = (m + 2) // 3 THEN logprob END) AS t1,
         max(CASE WHEN rn = (2 * m + 2) // 3 THEN logprob END) AS t2
  FROM ranked GROUP BY lang
)
SELECT scored.doc_id, scored.lang, scored.logprob,
       CASE WHEN thr.lang IS NULL THEN 'tail'
            WHEN scored.logprob <= thr.t1 THEN 'tail'
            WHEN scored.logprob <= thr.t2 THEN 'middle'
            ELSE 'head' END AS bucket
FROM scored LEFT JOIN thr USING (lang)
ORDER BY scored.doc_id
"""


QUERIES = {
    "perplexity_buckets": perplexity_buckets,
}

ORACLE_SQL = {
    "perplexity_buckets": sql_perplexity_buckets(),
}
