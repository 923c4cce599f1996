"""Aggregation extensions: range faceting over a query's hit set and
the Elasticsearch terms aggregation with shard-size error bounds —
two result-set/corpus analytics shapes beyond the reference engine,
whose query path stops at the ranked doc list
(/root/reference/src/lib.rs:374-411).

- range_facet_counts: Lucene LongRangeFacetCounts over the BM25
  top-k — per query, hit counts per document-length range, the dl
  coming FROM THE INDEX (zero text bytes).
- terms_agg_topk: the ES `terms` aggregation contract — each shard
  reports only its local top `shard_size` terms, the coordinator
  merges them, and every reported count carries a deterministic
  doc_count_error_upper_bound (the sum of the last reported count of
  every shard that did NOT report the term). This is the
  approximate-with-error-bounds distributed aggregation family: the
  driver sees shards x shard_size rows no matter the vocabulary.

Scale shapes: range_facet_counts is k-bounded end to end (one
posting read restricted to the hit ids). terms_agg_topk ships only
narrow (shard, term, cnt) count partials through ONE shard-bucketed
exchange; the per-shard kernel is a pandas top-m, and at cluster
scale `TA_SHARDS` is the physical partition count, so group width
mirrors data placement rather than vocabulary size.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from raysearch.numutil import fmt_doc, frame_table, rank_cut, round6

# dl range-facet edges (right-open buckets over token length); the
# sf fixtures span dl 10..99, so all four buckets are populated
FACET_EDGES = [30, 50, 70]
FACET_LABELS = ["[0,30)", "[30,50)", "[50,70)", "[70,inf)"]

# ES terms-agg shape: virtual shards (doc_id % TA_SHARDS), each
# reporting its top TA_SHARD_SIZE terms; final table is top TA_K.
# shard_size of 3 over a ~31-term fixture vocabulary makes the
# truncation (and therefore the error bounds) actually bite.
TA_SHARDS = 16
TA_SHARD_SIZE = 3
TA_K = 10


@fmt_doc(EDGES=FACET_EDGES)
def range_facet_counts(sf_dir: str) -> pa.Table:
    """Lucene range facets over the BM25 top-k hit set: per query,
    the number of hits whose document length falls in each of the
    right-open ranges with edges {EDGES} (only non-empty buckets are
    emitted — GROUP BY semantics).

    Plan: the hit set is the standard rounded top-k contract; each
    hit's dl comes from ONE candidate probe (_probe_candidates: a hit
    by definition matches >= 1 of its query's terms, and dl rides the
    posting rows), so the op reads ZERO documents.parquet bytes and
    the driver sees k x Q narrow rows."""
    from raysearch.pipelines.rankex import (_candidates_by_query,
                                            _probe_candidates)
    from raysearch.pipelines.search_queries import (DOC_QUERIES,
                                                    bm25_topk,
                                                    cached_index)
    from raysearch.score import query_term_weights

    base = bm25_topk(sf_dir).to_pandas()
    hits = _probe_candidates(cached_index(sf_dir),
                             [query_term_weights(q) for q in DOC_QUERIES],
                             _candidates_by_query(base))
    dlmap = hits[["doc_id", "dl"]].drop_duplicates("doc_id")
    merged = base.merge(dlmap, on="doc_id", how="left")
    lab = np.asarray(FACET_LABELS, dtype=object)[
        np.digitize(merged.dl.to_numpy(np.int64), FACET_EDGES)]
    out = (pd.DataFrame({"query_id": merged.query_id.to_numpy(np.int64),
                         "bucket": lab})
           .groupby(["query_id", "bucket"]).size()
           .reset_index(name="n_docs")
           .sort_values(["query_id", "bucket"], ignore_index=True))
    return pa.table({
        "query_id": pa.array(out.query_id.to_numpy(np.int64), pa.int64()),
        "bucket": pa.array(out.bucket.tolist(), pa.string()),
        "n_docs": pa.array(out.n_docs.to_numpy(np.int64), pa.int64()),
    })


def sql_range_facet_counts() -> str:
    from raysearch.pipelines.search_queries import (_TOK_CTES,
                                                    sql_bm25_topk)

    e1, e2, e3 = FACET_EDGES
    l0, l1, l2, l3 = FACET_LABELS
    return f"""
WITH bq AS ({sql_bm25_topk()}),
{_TOK_CTES},
lab AS (
  SELECT bq.query_id,
         CASE WHEN dl.dl < {e1} THEN '{l0}'
              WHEN dl.dl < {e2} THEN '{l1}'
              WHEN dl.dl < {e3} THEN '{l2}'
              ELSE '{l3}' END AS bucket
  FROM bq JOIN dl ON dl.doc_id = bq.doc_id
)
SELECT query_id::BIGINT AS query_id, bucket, count(*)::BIGINT AS n_docs
FROM lab GROUP BY query_id, bucket
"""


@fmt_doc(S=TA_SHARDS, M=TA_SHARD_SIZE, K=TA_K)
def terms_agg_topk(sf_dir: str) -> pa.Table:
    """Elasticsearch `terms` aggregation with error bounds: the top
    {K} terms by document frequency, computed the way a sharded
    engine computes them — each of {S} shards (shard = doc_id % {S})
    reports only its local top {M} terms by (count DESC, term ASC);
    the merged `reported_df` therefore UNDERCOUNTS whenever a term
    missed some shard's top {M}, and `err_bound` is ES's
    doc_count_error_upper_bound: the sum, over the shards that did
    not report the term, of that shard's last (smallest) reported
    count — or 0 from a shard whose whole vocabulary fit in {M}
    rows. `true_df` (from the index lexicon) pins the invariant
    reported_df <= true_df <= reported_df + err_bound.

    Plan: per-batch (shard, term, cnt) distinct-doc count partials
    are exact (a doc lives in one row), ONE shard-bucketed exchange,
    per-shard pandas top-m kernel; only {S} x {M} narrow rows reach
    the driver regardless of vocabulary size. At cluster scale the
    virtual shards become the physical partitions and the exchange
    disappears entirely — the local-top-m-then-merge contract is the
    point of the operator."""
    import ray.data

    from raysearch.pipelines.search_queries import (_docs_path,
                                                    cached_index)
    from raysearch.pipelines.textops import _tokens
    from raysearch.query import lexicon_df

    def partials(b: pa.Table) -> pa.Table:
        toks = _tokens(b)
        dl = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = np.asarray(toks.flatten().to_pandas(), dtype=object)
        ids = np.repeat(b["doc_id"].to_numpy(), dl)
        d = (pd.DataFrame({"doc_id": ids, "term": flat})
             .drop_duplicates())
        g = (pd.DataFrame({"shard": d.doc_id.to_numpy(np.int64)
                           % TA_SHARDS,
                           "term": d.term.to_numpy()})
             .groupby(["shard", "term"]).size().reset_index(name="cnt"))
        return pa.table({
            "shard": pa.array(g.shard.to_numpy(np.int64), pa.int64()),
            "term": pa.array(g.term.tolist(), pa.string()),
            "cnt": pa.array(g.cnt.to_numpy(np.int64), pa.int64())})

    def shard_top(g: pd.DataFrame) -> pd.DataFrame:
        t = (g.groupby("term", as_index=False).cnt.sum()
             .sort_values(["cnt", "term"], ascending=[False, True],
                          ignore_index=True))
        rep = t.head(TA_SHARD_SIZE)
        last = int(rep.cnt.min()) if len(t) > TA_SHARD_SIZE else 0
        return pd.DataFrame({
            "shard": np.full(len(rep), g.shard.iloc[0], np.int64),
            "term": rep.term,
            "cnt": rep.cnt.to_numpy(np.int64),
            "last_cnt": np.full(len(rep), last, np.int64)})

    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["doc_id", "text"])
    rep = (ds.map_batches(partials, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby("shard").map_groups(shard_top, batch_format="pandas")
           .to_pandas())

    total_last = int(rep.drop_duplicates("shard").last_cnt.sum())
    agg = rep.groupby("term").agg(reported_df=("cnt", "sum"),
                                  covered=("last_cnt", "sum"))
    agg["err_bound"] = total_last - agg.covered.to_numpy(np.int64)
    truth = lexicon_df(cached_index(sf_dir), sorted(agg.index.tolist()))
    agg["true_df"] = [int(truth.get(t, 0)) for t in agg.index]
    return frame_table(
        rank_cut(agg.reset_index(), [("reported_df", False),
                                     ("term", True)], TA_K),
        pa.schema([("rank", pa.int64()), ("term", pa.string()),
                   ("reported_df", pa.int64()), ("err_bound", pa.int64()),
                   ("true_df", pa.int64())]))


def sql_terms_agg_topk() -> str:
    from raysearch.pipelines.search_queries import _TOK_CTES

    return f"""
WITH {_TOK_CTES},
sc AS (
  SELECT doc_id % {TA_SHARDS} AS shard, term, count(*)::BIGINT AS cnt
  FROM tf GROUP BY 1, 2
),
rk AS (
  SELECT shard, term, cnt,
         row_number() OVER (PARTITION BY shard
                            ORDER BY cnt DESC, term) AS r,
         count(*) OVER (PARTITION BY shard) AS nv
  FROM sc
),
rep AS (SELECT * FROM rk WHERE r <= {TA_SHARD_SIZE}),
lastc AS (
  SELECT shard,
         CASE WHEN max(nv) > {TA_SHARD_SIZE} THEN min(cnt)
              ELSE 0 END AS last_cnt
  FROM rep GROUP BY shard
),
cand AS (SELECT DISTINCT term FROM rep),
agg AS (
  SELECT c.term,
         sum(CASE WHEN rep.term IS NOT NULL
                  THEN rep.cnt ELSE 0 END)::BIGINT AS reported_df,
         sum(CASE WHEN rep.term IS NULL
                  THEN l.last_cnt ELSE 0 END)::BIGINT AS err_bound
  FROM cand c
  CROSS JOIN lastc l
  LEFT JOIN rep ON rep.shard = l.shard AND rep.term = c.term
  GROUP BY c.term
),
truth AS (SELECT term, count(*)::BIGINT AS true_df FROM tf GROUP BY term),
ranked AS (
  SELECT agg.term, agg.reported_df, agg.err_bound, truth.true_df,
         row_number() OVER (ORDER BY agg.reported_df DESC,
                            agg.term) AS rank
  FROM agg JOIN truth USING (term)
)
SELECT rank::BIGINT AS rank, term, reported_df, err_bound, true_df
FROM ranked WHERE rank <= {TA_K}
"""


# ES rare_terms shape over the corpus word-bigram field: the LONG
# TAIL (df <= RB_MAX_DF), the opposite cut of terms_agg_topk's top-k.
# Single tokens have no tail in the fixtures (31-term vocab, min df
# 25); bigrams do (~13 rare at both SFs), and rare phrases are the
# real mining target (anomalous-phrase / contamination canaries).
RB_MAX_DF = 2
RB_K = 50

_RB_EMPTY = pa.table({"bigram": pa.array([], pa.string()),
                      "df": pa.array([], pa.int64())})


@fmt_doc(M=RB_MAX_DF, K=RB_K)
def rare_bigrams(sf_dir: str) -> pa.Table:
    """Elasticsearch rare_terms over adjacent word bigrams: every
    bigram whose EXACT global document frequency is <= {M}, up to {K}
    rows under (df ASC, bigram ASC) — the long-tail complement of the
    terms aggregation (rare phrases surface templating anomalies and
    eval-set contamination canaries that top-k views never show).

    Plan: per-batch distinct (doc, bigram) -> (bigram, df) count
    partials are exact (a doc lives in one batch); ONE bigram-bucketed
    groupby sums them; the rare filter + a local top-{K} under the
    total order run on the post-groupby stream (every bigram's total
    is one row), so the driver merges <= blocks x {K} candidate rows —
    never the bigram vocabulary. ES needs a second pass or a bloom
    filter for exactly this cut; the bucketed exchange gives exact
    counts in one."""
    from ray.data.aggregate import Sum

    from raysearch.pipelines.search_queries import _concat_ds
    from raysearch.pipelines.textops import _read_docs, _tokens

    def partial(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        n = pc.list_value_length(toks).to_numpy().astype(np.int64)
        flat = np.asarray(toks.flatten().to_pandas(), dtype=object)
        if len(flat) < 2:
            return _RB_EMPTY
        ids = np.repeat(batch["doc_id"].to_numpy(), n)
        same = ids[:-1] == ids[1:]
        if not same.any():
            return _RB_EMPTY
        big = (pd.Series(flat[:-1][same]) + " "
               + pd.Series(flat[1:][same]))
        g = (pd.DataFrame({"doc_id": ids[:-1][same], "bigram": big})
             .drop_duplicates()
             .groupby("bigram").size().reset_index(name="df"))
        return pa.table({"bigram": pa.array(g.bigram.tolist(),
                                            pa.string()),
                         "df": pa.array(g.df.to_numpy(np.int64),
                                        pa.int64())})

    def local_rare(b: pa.Table) -> pa.Table:
        d = b.to_pandas()
        d = (d[d.df <= RB_MAX_DF]
             .sort_values(["df", "bigram"], ignore_index=True)
             .head(RB_K))
        return pa.Table.from_pandas(d, preserve_index=False)

    counts = (_read_docs(sf_dir)
              .map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
              .groupby("bigram").aggregate(Sum("df", alias_name="df"))
              .map_batches(local_rare, batch_format="pyarrow"))
    cand = _concat_ds(counts, _RB_EMPTY).to_pandas()
    out = (cand.sort_values(["df", "bigram"], ignore_index=True)
           .head(RB_K))
    return pa.table({
        "bigram": pa.array(out.bigram.tolist(), pa.string()),
        "df": pa.array(out.df.to_numpy(np.int64), pa.int64()),
    })


def sql_rare_bigrams() -> str:
    return rf"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS t
  FROM documents
),
bg AS (
  SELECT DISTINCT doc_id, t[i] || ' ' || t[i + 1] AS bigram
  FROM toks, unnest(range(1, len(t))) AS u(i)
),
c AS (SELECT bigram, count(*)::BIGINT AS df FROM bg GROUP BY bigram),
r AS (
  SELECT bigram, df, row_number() OVER (ORDER BY df, bigram) AS rn
  FROM c WHERE df <= {RB_MAX_DF}
)
SELECT bigram, df FROM r WHERE rn <= {RB_K}
"""


# ES adjacency_matrix filters: named whole-doc term filters; the agg
# reports singleton and pairwise-intersection doc counts. Keys are
# 'a' and 'a&b' (ES's intersection separator), emitted sorted.
AM_FILTERS = ["hash", "join", "merge", "sort"]


def _am_keys() -> list[str]:
    ks = list(AM_FILTERS)
    for i, a in enumerate(AM_FILTERS):
        for b in AM_FILTERS[i + 1:]:
            ks.append(f"{a}&{b}")
    return sorted(ks)


def adjacency_matrix(sf_dir: str) -> pa.Table:
    """The Elasticsearch adjacency_matrix aggregation: doc counts for
    each named term filter and every pairwise intersection ('a&b'),
    non-empty buckets only — the co-occurrence matrix marketers and
    graph tools build from filter combinations.

    Plan: per-batch boolean membership masks (one RE2 token-boundary
    match per filter over the batch text — identical semantics to the
    oracle's list_contains over RE2 tokens), reduced to ONE row of
    F + F(F-1)/2 int64 counters per batch; the driver sums batch
    rows. Map-only — no exchange, no vocabulary, driver cost
    batches x 10 ints at any corpus size."""
    import re

    from raysearch.pipelines.textops import _read_docs

    keys = _am_keys()

    def partial(b: pa.Table) -> pa.Table:
        low = pc.utf8_lower(pc.cast(b["text"], pa.large_string()))
        masks = {
            f: pc.match_substring_regex(
                low, rf"(^|\s){re.escape(f)}(\s|$)").to_numpy(
                zero_copy_only=False)
            for f in AM_FILTERS}
        row = {}
        for k in keys:
            if "&" in k:
                a, c = k.split("&")
                row[k] = [int((masks[a] & masks[c]).sum())]
            else:
                row[k] = [int(masks[k].sum())]
        return pa.table({k: pa.array(row[k], pa.int64()) for k in keys})

    ds = (_read_docs(sf_dir, ["text"])
          .map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True))
    totals = dict.fromkeys(keys, 0)
    for b in ds.iter_batches(batch_format="pandas"):
        for k in keys:
            totals[k] += int(b[k].sum())
    out = [(k, totals[k]) for k in keys if totals[k] > 0]
    return pa.table({
        "key": pa.array([k for k, _ in out], pa.string()),
        "doc_count": pa.array([n for _, n in out], pa.int64()),
    })


def sql_adjacency_matrix() -> str:
    rows = []
    for k in _am_keys():
        if "&" in k:
            a, b = k.split("&")
            cond = f"m_{a} AND m_{b}"
        else:
            cond = f"m_{k}"
        rows.append(f"SELECT '{k}' AS key, "
                    f"count(*) FILTER ({cond})::BIGINT AS doc_count "
                    f"FROM f")
    union = "\n  UNION ALL ".join(rows)
    masks = ", ".join(
        rf"list_contains(regexp_extract_all(lower(text), '\S+'), "
        rf"'{t}') AS m_{t}" for t in AM_FILTERS)
    return f"""
WITH f AS (SELECT {masks} FROM documents),
c AS (
  {union}
)
SELECT key, doc_count FROM c WHERE doc_count > 0 ORDER BY key
"""


# ES composite aggregation: ordered (lang, source) bucket stream,
# page size CA_SIZE; the op returns PAGE 2 (the after-key request a
# client issues with the last key of page 1).
CA_SIZE = 8


@fmt_doc(S=CA_SIZE)
def composite_agg(sf_dir: str) -> pa.Table:
    """Elasticsearch composite aggregation, page 2: the (lang, source)
    buckets ranked {S}+1..2x{S} under (lang ASC, source ASC), each
    with its doc count and n_chars sum — after-key pagination over an
    ordered bucket stream (the agg ES built so bucket spaces too big
    for one response can stream page by page).

    Plan: per-batch (lang, source, n, sum_chars) partials (exact
    int64), ONE key-bucketed groupby; pagination runs on the
    post-groupby stream — each block keeps its local first 2x{S}
    buckets under the key order (a bucket past a block's first 2x{S}
    can never reach the global first 2x{S}), the driver merges
    <= blocks x 2{S} rows and windows out the page. The driver never
    holds the bucket space — exactly the composite contract."""
    from ray.data.aggregate import Sum

    from raysearch.pipelines.search_queries import _concat_ds
    from raysearch.pipelines.textops import _read_docs

    empty = pa.table({"lang": pa.array([], pa.string()),
                      "source": pa.array([], pa.string()),
                      "n_docs": pa.array([], pa.int64()),
                      "sum_chars": pa.array([], pa.int64())})

    def partial(b: pa.Table) -> pa.Table:
        g = (pd.DataFrame({"lang": b["lang"].to_pylist(),
                           "source": b["source"].to_pylist(),
                           "n_chars": b["n_chars"].to_numpy()})
             .groupby(["lang", "source"], as_index=False)
             .agg(n_docs=("n_chars", "size"),
                  sum_chars=("n_chars", "sum")))
        return pa.table({
            "lang": pa.array(g.lang.tolist(), pa.string()),
            "source": pa.array(g.source.tolist(), pa.string()),
            "n_docs": pa.array(g.n_docs.to_numpy(np.int64), pa.int64()),
            "sum_chars": pa.array(g.sum_chars.to_numpy(np.int64),
                                  pa.int64())})

    def local_page(b: pa.Table) -> pa.Table:
        d = (b.to_pandas()
             .sort_values(["lang", "source"], ignore_index=True)
             .head(2 * CA_SIZE))
        return pa.Table.from_pandas(d, preserve_index=False)

    ds = (_read_docs(sf_dir, ["lang", "source", "n_chars"])
          .map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True)
          .groupby(["lang", "source"])
          .aggregate(Sum("n_docs", alias_name="n_docs"),
                     Sum("sum_chars", alias_name="sum_chars"))
          .map_batches(local_page, batch_format="pyarrow"))
    cand = _concat_ds(ds, empty).to_pandas()
    page = (cand.sort_values(["lang", "source"], ignore_index=True)
            .iloc[CA_SIZE:2 * CA_SIZE])
    return pa.table({
        "lang": pa.array(page.lang.tolist(), pa.string()),
        "source": pa.array(page.source.tolist(), pa.string()),
        "n_docs": pa.array(page.n_docs.to_numpy(np.int64), pa.int64()),
        "sum_chars": pa.array(page.sum_chars.to_numpy(np.int64),
                              pa.int64()),
    })


def sql_composite_agg() -> str:
    return f"""
WITH b AS (
  SELECT lang, source, count(*)::BIGINT AS n_docs,
         sum(n_chars)::BIGINT AS sum_chars
  FROM documents GROUP BY lang, source
),
r AS (
  SELECT *, row_number() OVER (ORDER BY lang, source) AS rn FROM b
)
SELECT lang, source, n_docs, sum_chars
FROM r WHERE rn > {CA_SIZE} AND rn <= {2 * CA_SIZE}
"""


def string_stats(sf_dir: str) -> pa.Table:
    """The Elasticsearch string_stats aggregation over the `source`
    keyword field: value count, min/max/avg length, and the Shannon
    entropy (log2) of the field's CHARACTER distribution — the
    field-health probe ES exposes (near-zero entropy flags a
    degenerate/templated field).

    Plan: per-batch partials — (n, sum_len, min_len, max_len) ints
    plus a (char, cnt) histogram whose width is the alphabet, not the
    row count (chars decoded vectorized via a utf-32 view of the
    batch's concatenated values); the driver merges batches x
    alphabet narrow rows and finishes entropy from the exact global
    counts, summing in sorted-char order."""
    from raysearch.pipelines.search_queries import _concat_ds
    from raysearch.pipelines.textops import _read_docs

    empty = pa.table({"ch": pa.array([], pa.string()),
                      "cnt": pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64()),
                      "sum_len": pa.array([], pa.int64()),
                      "min_len": pa.array([], pa.int64()),
                      "max_len": pa.array([], pa.int64())})

    def partial(b: pa.Table) -> pa.Table:
        vals = b["source"].to_pylist()
        if not vals:
            return empty
        lens = np.array([len(v) for v in vals], np.int64)
        codes = np.frombuffer("".join(vals).encode("utf-32-le"),
                              dtype=np.uint32)
        u, c = np.unique(codes, return_counts=True)
        # an all-empty-string batch has an EMPTY alphabet: pad one
        # zero-count sentinel row so the length stats still ship (the
        # driver drops cnt==0 rows before the entropy finish)
        chs = [chr(x) for x in u] or [""]
        cnts = c.astype(np.int64).tolist() or [0]
        k = len(chs)
        return pa.table({
            "ch": pa.array(chs, pa.string()),
            "cnt": pa.array(cnts, pa.int64()),
            "n": pa.array([len(vals)] + [0] * (k - 1), pa.int64()),
            "sum_len": pa.array([int(lens.sum())] + [0] * (k - 1),
                                pa.int64()),
            "min_len": pa.array([int(lens.min())] + [0] * (k - 1),
                                pa.int64()),
            "max_len": pa.array([int(lens.max())] + [0] * (k - 1),
                                pa.int64()),
        })

    ds = (_read_docs(sf_dir, ["source"])
          .map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True))
    d = _concat_ds(ds, empty).to_pandas()
    if not len(d):
        return pa.table({"n_values": pa.array([0], pa.int64()),
                         "min_len": pa.array([None], pa.int64()),
                         "max_len": pa.array([None], pa.int64()),
                         "avg_len": pa.array([None], pa.float64()),
                         "entropy": pa.array([None], pa.float64())})
    n = int(d.n.sum())
    sum_len = int(d.sum_len.sum())
    real = d[d.n > 0]  # rows carrying the per-batch len stats
    min_len = int(real.min_len.min())
    max_len = int(real.max_len.max())
    cc = d.groupby("ch").cnt.sum().sort_index()
    cc = cc[cc > 0]  # drop all-empty-batch sentinel rows
    if len(cc):
        tot = float(int(cc.sum()))
        p = cc.to_numpy(np.float64) / tot
        entropy = round6(float(-(p * np.log2(p)).sum()))
    else:
        entropy = None  # zero characters: oracle's sum over cc = NULL
    return pa.table({
        "n_values": pa.array([n], pa.int64()),
        "min_len": pa.array([min_len], pa.int64()),
        "max_len": pa.array([max_len], pa.int64()),
        "avg_len": pa.array([round6(float(sum_len) / n)], pa.float64()),
        "entropy": pa.array([entropy], pa.float64()),
    })


def sql_string_stats() -> str:
    return r"""
WITH lens AS (SELECT length(source) AS l FROM documents),
chars AS (
  SELECT unnest(regexp_extract_all(source, '[\s\S]')) AS ch
  FROM documents
),
cc AS (SELECT ch, count(*)::BIGINT AS c FROM chars GROUP BY ch),
tot AS (SELECT sum(c)::DOUBLE AS t FROM cc)
SELECT (SELECT count(*) FROM documents)::BIGINT AS n_values,
       (SELECT min(l) FROM lens)::BIGINT AS min_len,
       (SELECT max(l) FROM lens)::BIGINT AS max_len,
       round((SELECT sum(l) FROM lens)::DOUBLE
             / (SELECT count(*) FROM documents), 6) AS avg_len,
       round((SELECT -sum((cc.c / t.t) * log2(cc.c / t.t))
              FROM cc, tot t), 6) AS entropy
"""


QUERIES = {
    "range_facet_counts": range_facet_counts,
    "terms_agg_topk": terms_agg_topk,
    "rare_bigrams": rare_bigrams,
    "adjacency_matrix": adjacency_matrix,
    "composite_agg": composite_agg,
    "string_stats": string_stats,
}

ORACLE_SQL = {
    "range_facet_counts": sql_range_facet_counts(),
    "terms_agg_topk": sql_terms_agg_topk(),
    "rare_bigrams": sql_rare_bigrams(),
    "adjacency_matrix": sql_adjacency_matrix(),
    "composite_agg": sql_composite_agg(),
    "string_stats": sql_string_stats(),
}
