"""Term-significance analytics: significant-terms aggregation over a
query's result set (the Elasticsearch `significant_terms` shape — "what
is this hit set about, relative to the corpus?") and pairwise source
vocabulary overlap (corpus-comparison / fork-detection shape).

Neither has any analog in the reference engine, whose query path stops
at the ranked doc list (/root/reference/src/lib.rs:374-411); both are
standard follow-on analytics a search/training-data platform runs over
the same index.

Scale shapes:
- sig_terms_topk is k-bounded end to end: the foreground is the top-k
  hit set (k docs per query), its term profile comes from ONE
  candidate-filtered corpus read (predicate pushdown on doc_id), and
  the background frequencies come from a TERM-FILTERED lexicon read —
  never a corpus or lexicon scan.
- source_vocab_overlap ships only narrow (bucket, term, source) rows
  through ONE term-bucketed exchange; pair counts collapse to O(S^2)
  partials inside each bucket group, so the driver sees S^2-bounded
  rows regardless of corpus size. At 10^12 files the same plan runs
  repo-fork detection verbatim with file content hashes in place of
  terms (the hash column replaces `term`; everything else is shape-
  identical).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from raysearch.numutil import fmt_doc, frame_table, rank_cut, round6

# significant-terms: how many terms to report per query
SIG_K = 10

# source-overlap: term-hash buckets for the pair exchange
_OVL_BUCKETS = 64


@fmt_doc(SIG_K=SIG_K)
def sig_terms_topk(sf_dir: str) -> pa.Table:
    """Significant terms of each query's BM25 top-k hit set — per
    query, the {SIG_K} terms most overrepresented in the hit docs
    relative to the whole corpus, scored with the JLH heuristic
    (Elasticsearch's default): (fg% - bg%) * (fg% / bg%), where fg% is
    the share of the query's hits containing the term and bg% the
    share of all docs containing it (round6, ties (score DESC, term)).

    Plan: the hit set comes from the standard rounded top-k contract;
    its per-doc term sets from one doc_id-filtered corpus read (k docs
    per query — a broadcast semi-join, no shuffle); background df from
    a term-filtered LEXICON read restricted to the foreground's terms.
    Work per query ∝ k docs + their vocabulary, independent of corpus
    size."""
    import ray.data

    from raysearch.pipelines.search_queries import (_docs_path,
                                                    bm25_topk,
                                                    cached_index)
    from raysearch.pipelines.textops import _tokens
    from raysearch.query import lexicon_df
    from raysearch.stats import load_stats

    idx = cached_index(sf_dir)
    hits = bm25_topk(sf_dir).to_pandas()
    wanted = pa.array(sorted(set(hits.doc_id.tolist())), pa.int64())

    def doc_terms(b: pa.Table) -> pa.Table:
        sub = b.filter(pc.is_in(b["doc_id"], wanted))
        if sub.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "term": pa.array([], pa.string())})
        toks = _tokens(sub)
        dl = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = np.asarray(toks.flatten().to_pandas(), dtype=object)
        ids = np.repeat(sub["doc_id"].to_numpy(), dl)
        df = pd.DataFrame({"doc_id": ids, "term": flat}).drop_duplicates()
        return pa.table({"doc_id": pa.array(df.doc_id.to_numpy(np.int64),
                                            pa.int64()),
                         "term": pa.array(df.term.tolist(), pa.string())})

    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["doc_id", "text"])
    parts = [t for t in ds.map_batches(
        doc_terms, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow") if t.num_rows]
    dterms = (pa.concat_tables(parts).to_pandas() if parts else
              pd.DataFrame({"doc_id": np.array([], np.int64),
                            "term": pd.Series([], dtype=object)}))

    # foreground df per (query, term): join hits -> candidate term sets
    fg = (hits[["query_id", "doc_id"]]
          .merge(dterms, on="doc_id")
          .groupby(["query_id", "term"], as_index=False)
          .agg(fg_df=("doc_id", "nunique")))
    ksz = hits.groupby("query_id").size().to_dict()

    bg = lexicon_df(idx, sorted(set(fg.term.tolist())))
    n_docs = np.float64(load_stats(idx)["n_docs"])

    fg["df"] = fg.term.map(bg).astype(np.int64)
    fgp = fg.fg_df.to_numpy(np.float64) / np.array(
        [ksz[q] for q in fg.query_id], np.float64)
    bgp = fg.df.to_numpy(np.float64) / n_docs
    fg["score"] = round6((fgp - bgp) * fgp / bgp)

    return frame_table(
        rank_cut(fg, [("score", False), ("term", True)], SIG_K,
                 "query_id"),
        pa.schema([("query_id", pa.int64()), ("rank", pa.int64()),
                   ("term", pa.string()), ("fg_df", pa.int64()),
                   ("df", pa.int64()), ("score", pa.float64())]))


def sql_sig_terms_topk() -> str:
    from raysearch.pipelines.search_queries import (_TOK_CTES,
                                                    sql_bm25_topk)

    return f"""
WITH b AS ({sql_bm25_topk()}),
{_TOK_CTES},
n AS (SELECT count(*)::DOUBLE AS n_docs FROM documents),
dft AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
ksz AS (SELECT query_id, count(*)::DOUBLE AS k FROM b GROUP BY query_id),
fg AS (
  SELECT b.query_id, tf.term, count(DISTINCT tf.doc_id)::BIGINT AS fg_df
  FROM b JOIN tf ON tf.doc_id = b.doc_id
  GROUP BY b.query_id, tf.term
),
scored AS (
  SELECT fg.query_id, fg.term, fg.fg_df, dft.df,
         round((fg.fg_df / ksz.k - dft.df / n.n_docs)
               * (fg.fg_df / ksz.k) / (dft.df / n.n_docs), 6) AS score
  FROM fg
  JOIN dft USING (term)
  JOIN ksz USING (query_id)
  CROSS JOIN n
),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY query_id
                               ORDER BY score DESC, term) AS rank
  FROM scored
)
SELECT query_id::BIGINT AS query_id, rank, term, fg_df, df, score
FROM ranked WHERE rank <= {SIG_K}
"""


def _term_buckets(terms: np.ndarray) -> np.ndarray:
    """Deterministic md5-derived bucket per term — hashed once per
    DISTINCT term via an inverse map, so the Python hash loop runs
    over the batch's vocabulary, not its rows."""
    uniq, inv = np.unique(terms, return_inverse=True)
    hb = np.array([int.from_bytes(hashlib.md5(t.encode()).digest()[:8],
                                  "big") % _OVL_BUCKETS
                   for t in uniq], np.int64)
    return hb[inv]


def source_vocab_overlap(sf_dir: str) -> pa.Table:
    """Pairwise vocabulary overlap between sources: for every source
    pair sharing at least one distinct term, the shared-term count,
    each side's distinct-vocabulary size, and the Jaccard similarity
    (round6) — the corpus-comparison table that drives mixing and
    fork/mirror detection decisions (over code at 10^12 files, the
    identical plan with per-file content hashes in place of terms IS
    repo-fork detection).

    Plan: map-side per-batch distinct (term, source) collapse, ONE
    exchange bucketed by term hash (terms never split across buckets,
    so within-bucket dedup is global), pair emission via a per-term
    self-merge whose cost is sum over terms of (sources-per-term)^2 —
    bounded by S^2 per term — and per-bucket (source_a, source_b)
    partial counts; the driver merges <= buckets * S^2 partial rows.
    Content never shuffles; only narrow (bucket, term, source) rows
    move."""
    import ray.data

    from raysearch.pipelines.search_queries import _docs_path
    from raysearch.pipelines.textops import _tokens

    def distinct_pairs(b: pa.Table) -> pa.Table:
        toks = _tokens(b)
        dl = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = np.asarray(toks.flatten().to_pandas(), dtype=object)
        src = np.repeat(np.asarray(b["source"].to_pylist(), dtype=object),
                        dl)
        df = pd.DataFrame({"term": flat, "source": src}).drop_duplicates()
        terms = df.term.to_numpy()
        return pa.table({
            "bucket": pa.array(_term_buckets(terms), pa.int64()),
            "term": pa.array(terms.tolist(), pa.string()),
            "source": pa.array(df.source.tolist(), pa.string()),
        })

    def bucket_partials(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["term", "source"])
        per = g.groupby("source").size().reset_index(name="cnt")
        m = g.merge(g, on="term")
        m = m[m.source_x < m.source_y]
        pairs = (m.groupby(["source_x", "source_y"]).size()
                 .reset_index(name="cnt"))
        return pd.DataFrame({
            "kind": np.concatenate([np.zeros(len(pairs), np.int64),
                                    np.ones(len(per), np.int64)]),
            "a": pd.concat([pairs.source_x, per.source],
                           ignore_index=True),
            "b": pd.concat([pairs.source_y,
                            pd.Series([""] * len(per))],
                           ignore_index=True),
            "cnt": pd.concat([pairs.cnt, per.cnt], ignore_index=True)
            .to_numpy(np.int64),
        })

    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["text", "source"])
    out = (ds.map_batches(distinct_pairs, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("bucket").map_groups(bucket_partials,
                                         batch_format="pandas")
           .to_pandas())
    tot = out.groupby(["kind", "a", "b"], as_index=False).cnt.sum()
    nsrc = tot[tot.kind == 1].set_index("a").cnt.to_dict()
    pairs = tot[tot.kind == 0].sort_values(["a", "b"],
                                           ignore_index=True)
    shared = pairs.cnt.to_numpy(np.float64)
    n_a = pairs.a.map(nsrc).to_numpy(np.float64)
    n_b = pairs.b.map(nsrc).to_numpy(np.float64)
    jac = round6(shared / (n_a + n_b - shared))
    return pa.table({
        "source_a": pa.array(pairs.a.tolist(), pa.string()),
        "source_b": pa.array(pairs.b.tolist(), pa.string()),
        "shared": pa.array(pairs.cnt.to_numpy(np.int64), pa.int64()),
        "n_a": pa.array(n_a.astype(np.int64), pa.int64()),
        "n_b": pa.array(n_b.astype(np.int64), pa.int64()),
        "jaccard": pa.array(jac, pa.float64()),
    })


def sql_source_vocab_overlap() -> str:
    return """
WITH tok AS (
  SELECT source, unnest(regexp_extract_all(lower(text), '\\S+')) AS term
  FROM documents
),
st AS (SELECT DISTINCT source, term FROM tok),
per AS (SELECT source, count(*)::BIGINT AS n FROM st GROUP BY source),
sh AS (
  SELECT a.source AS source_a, b.source AS source_b,
         count(*)::BIGINT AS shared
  FROM st a JOIN st b ON a.term = b.term AND a.source < b.source
  GROUP BY a.source, b.source
)
SELECT sh.source_a, sh.source_b, sh.shared, p1.n AS n_a, p2.n AS n_b,
       round(sh.shared::DOUBLE / (p1.n + p2.n - sh.shared), 6) AS jaccard
FROM sh
JOIN per p1 ON p1.source = sh.source_a
JOIN per p2 ON p2.source = sh.source_b
ORDER BY source_a, source_b
"""


def source_term_kl(sf_dir: str) -> pa.Table:
    """Per-source unigram-distribution drift: KL(P_source || P_corpus)
    over term frequencies, plus each source's token count and distinct
    vocabulary — the distributional complement to
    source_vocab_overlap's set-based Jaccard (the mixing-time question
    "which sources LOOK different from the blend?").

    KL decomposes into per-term sums that are mergeable partials:
    KL_s = (Σ_t c_st·ln(c_st) − Σ_t c_st·ln(cf_t)) / T_s
           − ln(T_s) + ln(T),
    where c_st is the source's term count, cf_t the corpus term count,
    T_s / T the token totals. P_corpus dominates every P_source (the
    corpus contains the source), so KL is always finite.

    Plan: map-side per-batch (source, term) count partials, ONE
    term-hash bucketed exchange; a term lives in one bucket, so the
    in-bucket kernel finalizes c_st and cf_t and collapses the whole
    bucket to S per-source partial rows (Σc·ln c, Σc·ln cf, Σc,
    vocab). The driver merges ≤ buckets × S rows and applies the
    closed form — corpus size never reaches the driver, and the only
    float reduction is over the vocabulary's mergeable partials. The
    oracle computes the SAME decomposition, so engine and SQL differ
    only in float summation order (absorbed by round6, the repo-wide
    contract)."""
    import ray.data

    from raysearch.pipelines.search_queries import _docs_path
    from raysearch.pipelines.textops import _tokens

    def count_partials(b: pa.Table) -> pa.Table:
        toks = _tokens(b)
        dl = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = np.asarray(toks.flatten().to_pandas(), dtype=object)
        src = np.repeat(np.asarray(b["source"].to_pylist(), dtype=object),
                        dl)
        df = (pd.DataFrame({"term": flat, "source": src})
              .groupby(["term", "source"], as_index=False)
              .size())
        terms = df.term.to_numpy()
        return pa.table({
            "bucket": pa.array(_term_buckets(terms), pa.int64()),
            "term": pa.array(terms.tolist(), pa.string()),
            "source": pa.array(df.source.tolist(), pa.string()),
            "cnt": pa.array(df["size"].to_numpy(np.int64), pa.int64()),
        })

    def bucket_kl_partials(g: pd.DataFrame) -> pd.DataFrame:
        c = (g.groupby(["term", "source"], as_index=False).cnt.sum())
        cf = c.groupby("term").cnt.sum()
        cn = c.cnt.to_numpy(np.float64)
        cfn = c.term.map(cf).to_numpy(np.float64)
        c["a"] = cn * np.log(cn)
        c["b"] = cn * np.log(cfn)
        per = c.groupby("source", as_index=False).agg(
            n_tokens=("cnt", "sum"), vocab=("term", "size"),
            a=("a", "sum"), b=("b", "sum"))
        return per

    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["text", "source"])
    out = (ds.map_batches(count_partials, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("bucket").map_groups(bucket_kl_partials,
                                         batch_format="pandas")
           .to_pandas())
    per = out.groupby("source", as_index=False).agg(
        n_tokens=("n_tokens", "sum"), vocab=("vocab", "sum"),
        a=("a", "sum"), b=("b", "sum")).sort_values(
        "source", ignore_index=True)
    t_s = per.n_tokens.to_numpy(np.float64)
    total = np.float64(t_s.sum())
    kl = round6((per.a.to_numpy(np.float64) - per.b.to_numpy(np.float64))
                / t_s - np.log(t_s) + np.log(total))
    return pa.table({
        "source": pa.array(per.source.tolist(), pa.string()),
        "n_tokens": pa.array(per.n_tokens.to_numpy(np.int64), pa.int64()),
        "vocab": pa.array(per.vocab.to_numpy(np.int64), pa.int64()),
        "kl": pa.array(kl + 0.0, pa.float64()),
    })


def sql_source_term_kl() -> str:
    # the same mergeable decomposition the engine uses, so the two
    # sides differ only in float summation order
    return """
WITH tok AS (
  SELECT source, unnest(regexp_extract_all(lower(text), '\\S+')) AS term
  FROM documents
),
c AS (SELECT source, term, count(*)::DOUBLE AS c
      FROM tok GROUP BY source, term),
cf AS (SELECT term, sum(c) AS cf FROM c GROUP BY term),
tot AS (SELECT sum(c) AS t FROM c),
per AS (
  SELECT c.source, sum(c.c)::BIGINT AS n_tokens,
         count(*)::BIGINT AS vocab,
         sum(c.c * ln(c.c)) AS a, sum(c.c * ln(cf.cf)) AS b
  FROM c JOIN cf USING (term) GROUP BY c.source
)
SELECT source, n_tokens, vocab,
       round((a - b) / n_tokens - ln(n_tokens::DOUBLE)
             + ln((SELECT t FROM tot)), 6) AS kl
FROM per ORDER BY source
"""


QUERIES = {
    "sig_terms_topk": sig_terms_topk,
    "source_vocab_overlap": source_vocab_overlap,
    "source_term_kl": source_term_kl,
}

ORACLE_SQL = {
    "sig_terms_topk": sql_sig_terms_topk(),
    "source_vocab_overlap": sql_source_vocab_overlap(),
    "source_term_kl": sql_source_term_kl(),
}
