"""Additional aggregation / ranking operators over the testdata tables
— the SURVEY §2.6 categories the reference lacks, expressed
Ray-Data-first with exact DuckDB oracles.

- source_stats: grouped aggregate with map-side partials (the
  combiner pattern: one partial row per key per batch).
- top_terms_tfidf: per-document top-k ranking against a broadcast
  global-df side (tiny) — no shuffle join.
- window_top_events: windowed top-k (tumbling hour windows, top event
  types per window) — the streaming-top-k shape on a batch log.
- phrase_counts: adjacent-bigram phrase membership via the shingle
  machinery (a positional query the unigram index cannot answer).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from raysearch.numutil import fmt_doc, frame_table, rank_cut, round6
from raysearch.pipelines.textops import _tokens

_DOCS = "documents.parquet"

TFIDF_TOPK = 3
WINDOW_US = 3_600_000_000
WINDOW_TOPK = 2
PHRASES = ["hash join", "sort merge", "window stream"]


def _read_docs(sf_dir: str, columns):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, _DOCS),
                                 columns=columns)


def source_stats(sf_dir: str) -> pa.Table:
    """(source, n_docs, total_tokens, avg_dl): grouped aggregate with
    per-batch partials so the shuffle carries one row per (source,
    batch), not one per document."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        dl = pc.list_value_length(_tokens(b)).to_numpy().astype(np.int64)
        df = pd.DataFrame({"source": b["source"].to_pylist(), "dl": dl})
        g = df.groupby("source", as_index=False).agg(
            n_docs=("dl", "size"), total_tokens=("dl", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    ds = _read_docs(sf_dir, ["source", "text"]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = ds.groupby("source").aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("total_tokens", alias_name="total_tokens"))
    df = agg.to_pandas()
    return pa.table({
        "source": pa.array(df.source.tolist(), pa.string()),
        "n_docs": pa.array(df.n_docs.to_numpy(np.int64), pa.int64()),
        "total_tokens": pa.array(df.total_tokens.to_numpy(np.int64),
                                 pa.int64()),
        "avg_dl": pa.array(
            round6(df.total_tokens.to_numpy(np.float64)
                   / df.n_docs.to_numpy(np.float64)), pa.float64()),
    })


_TFIDF_SCHEMA = pa.schema([("doc_id", pa.int64()), ("rank", pa.int64()),
                          ("term", pa.string()), ("tfidf", pa.float64())])


def _top_tfidf(b: pa.Table, df_ref, n_docs: float) -> pa.Table:
    """Per-doc tf-idf top-k of one batch: (doc, term) tf counting,
    scoring and top-k ranking are all numpy/pandas kernels — zero
    Python-per-row (round-1 VERDICT item 5). The global df arrives as
    ONE broadcast pd.Series (term index, built once on the driver),
    which this plain function stage ray.gets itself — Ray Data does
    not resolve refs in fn_kwargs."""
    import ray

    toks = _tokens(b)
    dl = pc.list_value_length(toks).to_numpy().astype(np.int64)
    flat = toks.flatten().to_numpy(zero_copy_only=False)
    if len(flat) == 0:
        return _TFIDF_SCHEMA.empty_table()
    doc_idx = np.repeat(np.arange(b.num_rows, dtype=np.int64), dl)
    codes, uniq_terms = pd.factorize(flat, sort=False)
    # tf per (doc, term): one np.unique over packed keys
    pair = doc_idx * np.int64(len(uniq_terms)) + codes
    uniq_pair, tf = np.unique(pair, return_counts=True)
    p_doc = uniq_pair // len(uniq_terms)
    p_code = uniq_pair % len(uniq_terms)
    dfs = ray.get(df_ref).reindex(uniq_terms).fillna(1.0).to_numpy()
    score = round6(tf.astype(np.float64) * np.log(n_docs / dfs[p_code]))
    doc_ids = b["doc_id"].to_numpy()
    df = pd.DataFrame({"doc_id": doc_ids[p_doc],
                       "term": uniq_terms[p_code],
                       "tfidf": score})
    return frame_table(
        rank_cut(df, [("tfidf", False), ("term", True)], TFIDF_TOPK,
                 "doc_id"),
        _TFIDF_SCHEMA)


def top_terms_tfidf(sf_dir: str) -> pa.Table:
    """Top-3 terms per doc by tf * ln(N/df), ties by term asc; global
    df comes from the index lexicon, broadcast once via ray.put to a
    plain function stage (no shuffle join). Scores rounded to 6;
    re-ranked on the rounded value on both sides."""
    import ray
    from raysearch.pipelines.search_queries import cached_index
    from raysearch.stats import load_stats
    import pyarrow.dataset as pads

    idx = cached_index(sf_dir)
    st = load_stats(idx)
    lex = pads.dataset(os.path.join(idx, "lexicon")).to_table(
        columns=["term", "df"])
    df_ref = ray.put(pd.Series(lex["df"].to_numpy().astype(np.float64),
                               index=lex["term"].to_pylist(),
                               dtype=np.float64))
    out = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        _top_tfidf, fn_kwargs={"df_ref": df_ref,
                               "n_docs": float(st["n_docs"])},
        batch_format="pyarrow", zero_copy_batch=True)
    return pa.concat_tables(out.iter_batches(batch_format="pyarrow"))


def window_top_events(sf_dir: str) -> pa.Table:
    """Per tumbling hour window: top-2 event types by count (ties by
    event_type asc) — windowed top-k over the event log."""
    import ray.data
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        tus = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        win = (tus // WINDOW_US) * WINDOW_US
        return (df.assign(window_start_us=win)
                .groupby(["window_start_us", "event_type"], as_index=False)
                .agg(n=("event_type", "size")))

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["ts", "event_type"]).map_batches(
            partial, batch_format="pandas")
    agg = ds.groupby(["window_start_us", "event_type"]).aggregate(
        Sum("n", alias_name="n")).to_pandas()
    return frame_table(
        rank_cut(agg, [("n", False), ("event_type", True)], WINDOW_TOPK,
                 "window_start_us"),
        pa.schema([("window_start_us", pa.int64()),
                   ("event_type", pa.string()), ("n", pa.int64()),
                   ("rank", pa.int64())]))


def phrase_counts(sf_dir: str) -> pa.Table:
    """(phrase, n_docs): documents containing each fixed phrase as an
    ADJACENT token bigram (what a positional/shingle index answers and
    a bag-of-words index cannot)."""

    def count(b: pa.Table) -> pa.Table:
        # vectorized: flat token array -> adjacent-join bigrams (mask
        # kills cross-document joins), membership via np.isin, distinct
        # (doc, phrase) hits via one np.unique — no Python per row
        toks = _tokens(b)
        dl = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        hits = np.zeros(len(PHRASES), dtype=np.int64)
        if len(flat) >= 2:
            doc_idx = np.repeat(np.arange(len(dl), dtype=np.int64), dl)
            bigrams = flat[:-1] + " " + flat[1:]
            same_doc = doc_idx[:-1] == doc_idx[1:]
            pidx = np.full(len(bigrams), -1, dtype=np.int64)
            for k, p in enumerate(PHRASES):
                pidx[bigrams == p] = k
            sel = same_doc & (pidx >= 0)
            if sel.any():
                packed = doc_idx[:-1][sel] * np.int64(len(PHRASES)) \
                    + pidx[sel]
                uniq = np.unique(packed)
                np.add.at(hits, uniq % len(PHRASES), 1)
        return pa.table({
            "phrase": pa.array(PHRASES, pa.string()),
            "n_docs": pa.array(hits, pa.int64()),
        })

    from ray.data.aggregate import Sum

    ds = _read_docs(sf_dir, ["text"]).map_batches(
        count, batch_format="pyarrow", zero_copy_batch=True)
    agg = ds.groupby("phrase").aggregate(Sum("n_docs", alias_name="n_docs"))
    df = agg.to_pandas()
    return pa.table({
        "phrase": pa.array(df.phrase.tolist(), pa.string()),
        "n_docs": pa.array(df.n_docs.to_numpy(np.int64), pa.int64()),
    })


# ---- oracle SQL ----

def sql_source_stats() -> str:
    return r"""
SELECT source, count(*)::BIGINT AS n_docs,
       sum(len(regexp_extract_all(text, '\S+')))::BIGINT AS total_tokens,
       round(sum(len(regexp_extract_all(text, '\S+')))::DOUBLE
             / count(*), 6) AS avg_dl
FROM documents GROUP BY source
"""


def sql_top_terms_tfidf() -> str:
    return rf"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) AS term
  FROM documents
),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf
       FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
n AS (SELECT count(*)::DOUBLE AS n_docs FROM documents),
scored AS (
  SELECT tf.doc_id, tf.term,
         round(tf.tf * ln(n.n_docs / df.df), 6) AS tfidf
  FROM tf JOIN df USING (term) CROSS JOIN n
),
ranked AS (
  SELECT doc_id, term, tfidf,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY tfidf DESC, term) AS rank
  FROM scored
)
SELECT doc_id, rank, term, tfidf FROM ranked WHERE rank <= {TFIDF_TOPK}
"""


def sql_window_top_events() -> str:
    return f"""
WITH counts AS (
  SELECT (epoch_us(ts) // {WINDOW_US} * {WINDOW_US})::BIGINT
           AS window_start_us,
         event_type, count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2
),
ranked AS (
  SELECT window_start_us, event_type, n,
         row_number() OVER (PARTITION BY window_start_us
                            ORDER BY n DESC, event_type) AS rank
  FROM counts
)
SELECT window_start_us, event_type, n, rank
FROM ranked WHERE rank <= {WINDOW_TOPK}
"""


def sql_phrase_counts() -> str:
    phrases = ", ".join(f"('{p}')" for p in PHRASES)
    return rf"""
WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
           FROM documents),
g AS (
  SELECT DISTINCT doc_id,
    unnest(list_transform(range(1, greatest(len(toks), 1)),
           i -> toks[i] || ' ' || toks[i + 1])) AS bigram
  FROM t
),
p(phrase) AS (VALUES {phrases})
SELECT p.phrase, count(g.doc_id)::BIGINT AS n_docs
FROM p LEFT JOIN g ON g.bigram = p.phrase
GROUP BY p.phrase
"""


# ---- top collocations by pointwise mutual information ----

PMI_MIN_COUNT = 5   # bigrams below this global count are noise
PMI_TOPK = 20


@fmt_doc(k=PMI_TOPK, m=PMI_MIN_COUNT)
def pmi_top_bigrams(sf_dir: str) -> pa.Table:
    """Top-{k} adjacent-token collocations by PMI
    ln(p(w1 w2) / (p(w1) p(w2))), min pair count {m} — the classic
    collocation-mining signal (Church & Hanks 1990).

    Scale shape: ONE corpus pass emits per-batch (kind, gram, n)
    count partials (the combiner); one vocabulary-cardinality groupby
    sums them. The summed counts table is materialized ONCE (it is
    lexicon-scale, not corpus-scale — same budget class as the index
    lexicon merge) and read twice: the unigram side collects to the
    driver and broadcasts via ray.put (sorted term array +
    counts; at true scale, hash terms and searchsorted exactly like
    lm.py's model transport), the bigram side streams through a PMI +
    LOCAL-top-k map stage, so the driver merges n_blocks x {k}
    candidate rows — never the bigram table. Ranking uses the total
    order (round6(pmi) DESC, w1, w2) on BOTH engine and oracle, so
    per-batch top-k truncation is exact."""
    import ray
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        dl = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        grams, kinds, ns = [], [], []
        if len(flat):
            u1, n1 = np.unique(flat, return_counts=True)
            grams.append(u1)
            kinds.append(np.ones(len(u1), dtype=np.int64))
            ns.append(n1.astype(np.int64))
        if len(flat) >= 2:
            doc_idx = np.repeat(np.arange(len(dl), dtype=np.int64), dl)
            same = doc_idx[:-1] == doc_idx[1:]
            bg = (flat[:-1] + " " + flat[1:])[same]
            if len(bg):
                u2, n2 = np.unique(bg, return_counts=True)
                grams.append(u2)
                kinds.append(np.full(len(u2), 2, dtype=np.int64))
                ns.append(n2.astype(np.int64))
        if not grams:
            return pa.table({"kind": pa.array([], pa.int64()),
                             "gram": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        return pa.table({
            "kind": pa.array(np.concatenate(kinds), pa.int64()),
            "gram": pa.array(np.concatenate(grams).tolist(), pa.string()),
            "n": pa.array(np.concatenate(ns), pa.int64())})

    counts = (_read_docs(sf_dir, ["text"])
              .map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
              .groupby(["kind", "gram"])
              .aggregate(Sum("n", alias_name="n"))).materialize()

    def only_kind(k):
        def sel(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b["kind"], k))
        return sel

    uni = pa.concat_tables(
        counts.map_batches(only_kind(1), batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")).to_pandas()
    uni = uni.sort_values("gram", ignore_index=True)
    terms = uni["gram"].to_numpy(object)
    c1 = uni["n"].to_numpy(np.int64)
    t_tok = float(c1.sum())
    t2 = counts.map_batches(only_kind(2), batch_format="pyarrow") \
        .sum("n") or 0
    empty = pa.table({"w1": pa.array([], pa.string()),
                      "w2": pa.array([], pa.string()),
                      "n_pair": pa.array([], pa.int64()),
                      "pmi": pa.array([], pa.float64())})
    if t2 == 0 or not len(terms):
        return empty
    uni_ref = ray.put((terms, c1))
    t2 = float(t2)

    def pmi_topk(b: pa.Table) -> pa.Table:
        ts, cs = ray.get(uni_ref)
        n2 = b["n"].to_numpy()
        keep = n2 >= PMI_MIN_COUNT
        if not keep.any():
            return empty
        gr = b["gram"].to_numpy(zero_copy_only=False)[keep]
        n2 = n2[keep].astype(np.int64)
        parts = pd.Series(gr).str.split(" ", n=1, expand=True)
        w1 = parts[0].to_numpy(object)
        w2 = parts[1].to_numpy(object)
        ca = cs[np.searchsorted(ts, w1)].astype(np.float64)
        cb = cs[np.searchsorted(ts, w2)].astype(np.float64)
        pmi = round6(np.log(n2 / t2) - np.log(ca / t_tok)
                     - np.log(cb / t_tok))
        order = np.lexsort((w2, w1, -pmi))[:PMI_TOPK]
        return pa.table({
            "w1": pa.array(w1[order].tolist(), pa.string()),
            "w2": pa.array(w2[order].tolist(), pa.string()),
            "n_pair": pa.array(n2[order], pa.int64()),
            "pmi": pa.array(pmi[order], pa.float64())})

    cand = pa.concat_tables(
        counts.map_batches(only_kind(2), batch_format="pyarrow")
        .map_batches(pmi_topk, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")).to_pandas()
    if cand.empty:
        return empty
    cand = cand.sort_values(["pmi", "w1", "w2"],
                            ascending=[False, True, True],
                            ignore_index=True).head(PMI_TOPK)
    return pa.table({
        "w1": pa.array(cand.w1.tolist(), pa.string()),
        "w2": pa.array(cand.w2.tolist(), pa.string()),
        "n_pair": pa.array(cand.n_pair.to_numpy(np.int64), pa.int64()),
        "pmi": pa.array(cand.pmi.to_numpy(np.float64), pa.float64()),
    })


def sql_pmi_top_bigrams() -> str:
    return rf"""
WITH t AS (SELECT regexp_extract_all(lower(text), '\S+') AS toks
           FROM documents),
flat AS (SELECT unnest(toks) AS tok FROM t),
bg AS (
  SELECT unnest(list_transform(range(1, greatest(len(toks), 1)),
                i -> toks[i])) AS w1,
         unnest(list_transform(range(1, greatest(len(toks), 1)),
                i -> toks[i + 1])) AS w2
  FROM t
),
c1 AS (SELECT tok, count(*) AS n FROM flat GROUP BY tok),
c2 AS (SELECT w1, w2, count(*) AS n FROM bg GROUP BY w1, w2
       HAVING count(*) >= {PMI_MIN_COUNT}),
tot AS (SELECT (SELECT count(*) FROM flat)::DOUBLE AS t1,
               (SELECT count(*) FROM bg)::DOUBLE AS t2)
SELECT c2.w1, c2.w2, c2.n::BIGINT AS n_pair,
       round(ln(c2.n / tot.t2) - ln(a.n / tot.t1)
             - ln(b.n / tot.t1), 6) AS pmi
FROM c2
JOIN c1 a ON a.tok = c2.w1
JOIN c1 b ON b.tok = c2.w2
CROSS JOIN tot
ORDER BY pmi DESC, c2.w1, c2.w2
LIMIT {PMI_TOPK}
"""


ROLLUP_ALL = "<all>"


def lang_source_rollup(sf_dir: str) -> pa.Table:
    """Multi-level aggregate (SQL ROLLUP over (lang, source)): doc /
    token / char totals at (lang, source), (lang) and grand-total
    grouping levels, absent dimensions labelled '<all>'.

    Scale shape: ONE exchange at the finest (lang, source) grain with
    map-side per-batch partials (combiner pattern — the shuffle
    carries one row per key per batch); the coarser levels are rolled
    up from the finest aggregate, which is dimension-cardinality-sized
    (langs x sources), never data-sized, so the driver rollup is O(keys)."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        dl = pc.list_value_length(_tokens(b)).to_numpy().astype(np.int64)
        nc = b["n_chars"].to_numpy()
        df = pd.DataFrame({"lang": b["lang"].to_pylist(),
                           "source": b["source"].to_pylist(),
                           "dl": dl, "nc": nc})
        g = df.groupby(["lang", "source"], as_index=False).agg(
            n_docs=("dl", "size"), n_tokens=("dl", "sum"),
            n_chars=("nc", "sum"))
        return pa.Table.from_pandas(g, preserve_index=False)

    ds = _read_docs(sf_dir, ["lang", "source", "text", "n_chars"]) \
        .map_batches(partial, batch_format="pyarrow",
                     zero_copy_batch=True)
    fine = (ds.groupby(["lang", "source"]).aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("n_tokens", alias_name="n_tokens"),
        Sum("n_chars", alias_name="n_chars")).to_pandas())
    cols = ["n_docs", "n_tokens", "n_chars"]
    by_lang = fine.groupby("lang", as_index=False)[cols].sum()
    by_lang["source"] = ROLLUP_ALL
    total = fine[cols].sum().to_frame().T
    total["lang"] = ROLLUP_ALL
    total["source"] = ROLLUP_ALL
    out = pd.concat([fine, by_lang, total], ignore_index=True) \
        .sort_values(["lang", "source"], ignore_index=True)
    return pa.table({
        "lang": pa.array(out["lang"].astype(str), pa.string()),
        "source": pa.array(out["source"].astype(str), pa.string()),
        "n_docs": pa.array(out["n_docs"].to_numpy(np.int64), pa.int64()),
        "n_tokens": pa.array(out["n_tokens"].to_numpy(np.int64),
                             pa.int64()),
        "n_chars": pa.array(out["n_chars"].to_numpy(np.int64),
                            pa.int64()),
    })


def sql_lang_source_rollup() -> str:
    return rf"""
WITH t AS (
  SELECT lang, source,
         len(regexp_extract_all(lower(text), '\S+'))::BIGINT AS dl,
         n_chars
  FROM documents
)
SELECT coalesce(lang, '{ROLLUP_ALL}') AS lang,
       coalesce(source, '{ROLLUP_ALL}') AS source,
       count(*)::BIGINT AS n_docs,
       coalesce(sum(dl), 0)::BIGINT AS n_tokens,
       coalesce(sum(n_chars), 0)::BIGINT AS n_chars
FROM t
GROUP BY ROLLUP (lang, source)
"""


def export_by_lang(sf_dir: str, out_dir: str | None = None) -> pa.Table:
    """Partitioned-sink operator: stream the documents table into
    hive-partitioned parquet (one ``lang=<x>/`` directory per
    language, many files — the layout a resuming ORCHESTRATOR needs to
    skip finished partitions; never one giant file), then report
    per-lang row counts read back FROM THE WRITTEN FOOTERS, so the
    result row only hashes green if the sink actually persisted every
    row.

    ``out_dir=None`` (the gate path) writes to a per-run unique temp
    dir and removes it after the footer scan; passing ``out_dir``
    makes it a real sink (files are kept). A re-run into the same
    ``out_dir`` OVERWRITES: stale ``lang=*`` partition dirs are
    removed first, because Ray's write appends uuid-named files and
    would otherwise double-count every surviving row — per-partition
    skip logic belongs to the caller that tracks completion."""
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    keep = out_dir is not None
    dest = out_dir or tempfile.mkdtemp(prefix="raysearch_export_")
    if keep and os.path.isdir(dest):
        for part in os.listdir(dest):
            if part.startswith("lang="):
                # must succeed: a silently surviving stale partition
                # would be double-counted by the footer scan
                shutil.rmtree(os.path.join(dest, part))
    try:
        _read_docs(sf_dir, ["doc_id", "text", "lang", "source",
                            "n_chars"]).write_parquet(
            dest, partition_cols=["lang"])
        rows = []
        for part in sorted(os.listdir(dest)):
            if not part.startswith("lang="):
                continue
            pdir = os.path.join(dest, part)
            n = sum(pq.read_metadata(os.path.join(pdir, f)).num_rows
                    for f in os.listdir(pdir) if f.endswith(".parquet"))
            rows.append((part.split("=", 1)[1], n))
    finally:
        if not keep:
            shutil.rmtree(dest, ignore_errors=True)
    return pa.table({
        "lang": pa.array([r[0] for r in rows], pa.string()),
        "n_rows": pa.array([r[1] for r in rows], pa.int64()),
    })


def sql_export_by_lang() -> str:
    return """
SELECT lang, count(*)::BIGINT AS n_rows
FROM documents GROUP BY lang ORDER BY lang
"""


QUERIES = {
    "source_stats": source_stats,
    "lang_source_rollup": lang_source_rollup,
    "export_by_lang": export_by_lang,
    "top_terms_tfidf": top_terms_tfidf,
    "window_top_events": window_top_events,
    "phrase_counts": phrase_counts,
    "pmi_top_bigrams": pmi_top_bigrams,
}

ORACLE_SQL = {
    "source_stats": sql_source_stats(),
    "lang_source_rollup": sql_lang_source_rollup(),
    "export_by_lang": sql_export_by_lang(),
    "top_terms_tfidf": sql_top_terms_tfidf(),
    "window_top_events": sql_window_top_events(),
    "phrase_counts": sql_phrase_counts(),
    "pmi_top_bigrams": sql_pmi_top_bigrams(),
}
