"""Span/rewrite extensions: span-NOT retrieval, common-terms query
rewriting, and binary ranking evaluation (MRR/MAP) — three further
Lucene/IR capabilities beyond the reference's single
accumulate-and-sort scorer (/root/reference/src/lib.rs:374-411).

- span_not_topk: Lucene SpanNotQuery — score occurrences of an
  include term EXCEPT those within W tokens of an exclude term,
  verified entirely from the positional index (zero text bytes).
- common_terms_topk: Lucene CommonTermsQuery — df-derived split of
  query terms into rare (selecting) and common (scoring-only)
  groups, so stopword-heavy queries don't scan stopword postings'
  full candidate sets.
- map_mrr_eval: MRR@10 / MAP@10 of the BM25 ranking against the
  reference overlap-tf top-k as binary judgments (the binary
  complement of rankex.ndcg_eval's graded nDCG).

Every op is index-backed and df/k-bounded; per-segment candidate
scores are FINAL under doc-hash partitioning, so the merges are the
shared round6 -> (-score, doc_id) rank contract (rankex helpers).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

# span-NOT window: exclude an include-term occurrence when the exclude
# term occurs within this many token positions (|pos_a - pos_b| <= W)
SPANNOT_W = 3

# (include, exclude) pairs over the documents-table vocabulary; the
# absent exclude term exercises the no-exclusions path (== plain BM25
# on the include term) and the rare include term ('dup', df ~5%)
# exercises the selective-posting path
SPANNOT_QUERIES: list[tuple[str, str]] = [
    ("join", "hash"),
    ("merge", "sort"),
    ("dup", "row"),
    ("query", "zzznothingzzz"),
]

# CommonTermsQuery df cutoff: a term is "common" when it appears in
# more than this fraction of documents (Lucene's maxTermFrequency);
# 0.5 splits the fixture vocabulary (most terms df ~0.78, 'dup' 0.05)
COMMON_CUTOFF = 0.5

# queries mixing rare + common terms; query 2 has NO rare term
# (fallback: plain disjunction), query 3 pairs a rare term with an
# absent one (df=0 classifies rare, matches nothing)
COMMON_QUERIES: list[str] = [
    "Dup row merge?",
    "The dup hash join!",
    "Filter the data scan.",
    "Dup zzznothingzzz scan...",
]


def span_not_topk(sf_dir: str) -> pa.Table:
    """Lucene SpanNotQuery top-10: for each (include, exclude) pair,
    rank documents by BM25 over the include term's SURVIVING
    occurrences — those with no exclude-term occurrence within
    {SPANNOT_W} tokens. The span tf (surviving-occurrence count)
    replaces tf in the BM25 formula, exactly Lucene's SpanWeight
    contract (span freq scores, term stats for idf).

    Plan: one positional per-segment read of both terms' postings
    (work ~ their df); occurrence-level window checks are the same
    searchsorted math as near/slop on gpos = rank<<32|pos
    coordinates; dl comes from the posting rows, so the op reads
    ZERO documents.parquet bytes. Per-segment scores final under
    doc-hash partitioning."""
    from raysearch.pipelines.rankex import (_part_topk, _plan,
                                            _ranked_from_candidates)
    from raysearch.pipelines.search_queries import _gpos, cached_index
    from raysearch.segments import SCORER_COLUMNS_POS

    idx = cached_index(sf_dir, with_positions=True)
    # the include term scores (weight 1); the exclude term only gates
    plan = _plan(idx, [[(ta, 1)] for ta, _ in SPANNOT_QUERIES])
    all_terms = sorted({t for q in SPANNOT_QUERIES for t in q})
    W = np.int64(SPANNOT_W)

    def score_query(qid, post):
        ta, tb = SPANNOT_QUERIES[qid]
        ea = post.get(ta)
        if ea is None or not len(ea[0]):
            return None
        docs_a, tfs_a, dls_a, pos_a = ea
        cand = docs_a  # posting doc ids: sorted unique
        eb = post.get(tb)
        if eb is None or not len(eb[0]):
            stf = tfs_a.astype(np.int64)
        else:
            ra = np.repeat(np.arange(len(docs_a), dtype=np.int64), tfs_a)
            ga = (ra << np.int64(32)) | pos_a.astype(np.int64)
            gb, rb = _gpos(eb, cand)
            lo = np.searchsorted(gb, ga - W, side="left")
            hi = np.searchsorted(gb, ga + W, side="right")
            doc_lo = np.searchsorted(rb, ra, side="left")
            doc_hi = np.searchsorted(rb, ra, side="right")
            cnt = (np.minimum(hi, doc_hi)
                   - np.maximum(lo, doc_lo)).clip(min=0)
            stf = np.zeros(len(cand), np.int64)
            np.add.at(stf, ra[cnt == 0], 1)
        hit = np.flatnonzero(stf > 0)
        if not len(hit):
            return None
        return cand[hit], plan.contrib(ta, 1, stf[hit], dls_a[hit])

    return _ranked_from_candidates(_part_topk(
        idx, all_terms, len(SPANNOT_QUERIES), score_query,
        columns=SCORER_COLUMNS_POS))


def sql_span_not_topk() -> str:
    from raysearch.pipelines.search_queries import B, K1, TOPK

    qrows = ", ".join(f"({i}, '{a}', '{b}')"
                      for i, (a, b) in enumerate(SPANNOT_QUERIES))
    return rf"""
WITH t2 AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
            FROM documents),
ptok AS (
  SELECT doc_id, unnest(toks) AS tok,
         unnest(range(1, len(toks) + 1)) AS pos
  FROM t2
),
dl AS (SELECT doc_id, len(regexp_extract_all(text, '\S+'))::BIGINT AS dl
       FROM documents),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
df AS (SELECT tok AS term, count(DISTINCT doc_id)::DOUBLE AS df
       FROM ptok GROUP BY tok),
q(query_id, inc, exc) AS (VALUES {qrows}),
a AS (SELECT q.query_id, p.doc_id, p.pos
      FROM q JOIN ptok p ON p.tok = q.inc),
b AS (SELECT q.query_id, p.doc_id, p.pos
      FROM q JOIN ptok p ON p.tok = q.exc),
surv AS (
  SELECT a.query_id, a.doc_id, count(*)::BIGINT AS stf
  FROM a
  WHERE NOT EXISTS (
    SELECT 1 FROM b
    WHERE b.query_id = a.query_id AND b.doc_id = a.doc_id
      AND abs(b.pos - a.pos) <= {SPANNOT_W})
  GROUP BY a.query_id, a.doc_id
),
scores AS (
  SELECT surv.query_id, surv.doc_id,
         ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
           * (surv.stf * ({K1} + 1.0))
           / (surv.stf + {K1} * (1 - {B} + {B} * (dl.dl / s.avgdl)))
           AS score
  FROM surv
  JOIN q ON q.query_id = surv.query_id
  JOIN df ON df.term = q.inc
  JOIN dl ON dl.doc_id = surv.doc_id
  CROSS JOIN stats s
),
ranked AS (
  SELECT query_id, doc_id, round(score, 6) AS score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id) AS rank
  FROM scores
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


def common_terms_topk(sf_dir: str) -> pa.Table:
    """Lucene CommonTermsQuery top-10: query terms whose df exceeds
    {COMMON_CUTOFF} of the corpus are "common" — they contribute BM25
    score but do NOT select candidates; candidates are the union of
    the RARE terms' postings (or of all terms when a query has no
    rare term — the plain-disjunction fallback). At 100 TB this is
    the stopword-pressure answer: the candidate set (and the
    per-part accumulate width) is bounded by the rare terms' df, not
    by stopword df, while stopwords still influence ranking.

    Plan: the df split comes from the already-merged global lexicon
    (one filtered read, no corpus pass); per segment, candidates =
    union of rare-term posting docs, then every query term scores
    that candidate set via the spanfirst-style searchsorted gather.
    Per-segment scores final; shared round6 rank merge."""
    from raysearch.pipelines.rankex import (_part_topk, _plan,
                                            _ranked_from_candidates)
    from raysearch.pipelines.search_queries import cached_index
    from raysearch.query import keep_postings

    idx = cached_index(sf_dir)
    plan = _plan(idx, COMMON_QUERIES)
    # rare = df below the cutoff fraction (absent terms: df 0 -> rare);
    # selectors per query: rare terms if any, else all terms
    selectors = []
    for qw in plan.qweights:
        rare = [t for t, _ in qw
                if plan.df.get(t, 0) <= COMMON_CUTOFF * plan.n_docs]
        selectors.append(rare if rare else [t for t, _ in qw])

    def score_query(qid, post):
        sel_docs = [post[t][0] for t in selectors[qid] if t in post]
        if not sel_docs:
            return None
        elig = np.unique(np.concatenate(sel_docs))
        if not len(elig):
            return None
        docs, sc = plan.score(
            plan.qweights[qid],
            lambda t: keep_postings(post[t], elig) if t in post else None)
        return (docs, sc) if len(docs) else None

    return _ranked_from_candidates(
        _part_topk(idx, plan.all_terms, len(plan.qweights), score_query))


def _common_qvalues() -> str:
    from raysearch.score import query_term_weights

    rows = []
    for qid, q in enumerate(COMMON_QUERIES):
        for term, w in query_term_weights(q):
            rows.append(f"({qid}, '{term}', {float(w)!r})")
    return ", ".join(rows)


def sql_common_terms_topk() -> str:
    from raysearch.pipelines.search_queries import (_TOK_CTES, B, K1,
                                                    TOPK)

    return f"""
WITH {_TOK_CTES},
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
q(query_id, term, w) AS (VALUES {_common_qvalues()}),
qdf AS (
  SELECT q.query_id, q.term, q.w, coalesce(df.df, 0) AS df,
         coalesce(df.df, 0)
           <= {COMMON_CUTOFF} * (SELECT n_docs FROM stats) AS is_rare
  FROM q LEFT JOIN df ON df.term = q.term
),
hr AS (SELECT query_id, bool_or(is_rare) AS has_rare
       FROM qdf GROUP BY query_id),
cand AS (
  SELECT DISTINCT qdf.query_id, tf.doc_id
  FROM qdf
  JOIN tf ON tf.term = qdf.term
  JOIN hr ON hr.query_id = qdf.query_id
  WHERE qdf.is_rare OR NOT hr.has_rare
),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.w * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * (tf.tf * ({K1} + 1))
             / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl))) AS score
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN df ON q.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  JOIN cand ON cand.query_id = q.query_id AND cand.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id, doc_id, round(score, 6) AS score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id) AS rank
  FROM scores
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


# MRR/MAP use exact rational arithmetic scaled by lcm(1..10) so the
# engine's and DuckDB's float summation order can't disagree
_LCM10 = 2520


def map_mrr_eval(sf_dir: str) -> pa.Table:
    """Binary ranking evaluation: MRR@10 and MAP@10 of the BM25
    ranking per query, with the reference overlap-tf top-10 as the
    binary judgment set (the binary complement of ndcg_eval's graded
    evaluation; |R| = 10 at every SF, so AP's normalizer is 10).

    Both component rankings are the existing distributed pipelines;
    the eval itself is driver-side over 2 x queries x 10 rows.
    Reciprocal ranks and precision terms are integer-scaled by
    lcm(1..10) before the single float division, so the result is
    bit-deterministic regardless of summation order."""
    from raysearch.pipelines.search_queries import (TOPK, bm25_topk,
                                                    overlap_topk)
    from raysearch.numutil import round6

    bm = bm25_topk(sf_dir).to_pandas()
    rel_pairs = {(int(q), int(d)) for q, d in
                 zip(*[overlap_topk(sf_dir)[c].to_pylist()
                       for c in ("query_id", "doc_id")])}
    bm["rel"] = [int((int(q), int(d)) in rel_pairs)
                 for q, d in zip(bm.query_id, bm.doc_id)]
    out_q, out_mrr, out_ap = [], [], []
    for qid, g in bm.groupby("query_id", sort=True):
        g = g.sort_values("rank")
        rel = g.rel.to_numpy(np.int64)
        rank = g["rank"].to_numpy(np.int64)
        cum = np.cumsum(rel)
        hit = np.flatnonzero(rel == 1)
        mrr_num = int((_LCM10 // rank[hit]).max()) if len(hit) else 0
        ap_num = int((cum[hit] * (_LCM10 // rank[hit])).sum())
        out_q.append(int(qid))
        out_mrr.append(float(round6(np.float64(mrr_num) / _LCM10)))
        out_ap.append(float(round6(
            np.float64(ap_num) / (_LCM10 * TOPK))))
    return pa.table({
        "query_id": pa.array(out_q, pa.int64()),
        "mrr": pa.array(out_mrr, pa.float64()),
        "ap10": pa.array(out_ap, pa.float64()),
    })


def sql_map_mrr_eval() -> str:
    from raysearch.pipelines.search_queries import (TOPK, sql_bm25_topk,
                                                    sql_overlap_topk)

    return f"""
WITH b AS ({sql_bm25_topk()}),
o AS ({sql_overlap_topk()}),
j AS (
  SELECT b.query_id, b.rank,
         CASE WHEN o.doc_id IS NOT NULL THEN 1 ELSE 0 END AS rel
  FROM b LEFT JOIN o
    ON o.query_id = b.query_id AND o.doc_id = b.doc_id
),
p AS (
  SELECT query_id, rank, rel,
         sum(rel) OVER (PARTITION BY query_id ORDER BY rank) AS cum
  FROM j
)
SELECT query_id,
       round(coalesce(max(CASE WHEN rel = 1
                          THEN {_LCM10} // rank END), 0)::DOUBLE
             / {_LCM10}, 6) AS mrr,
       round(coalesce(sum(CASE WHEN rel = 1
                          THEN cum * ({_LCM10} // rank) END), 0)::DOUBLE
             / ({_LCM10} * {TOPK}), 6) AS ap10
FROM p GROUP BY query_id
"""


# ---- ordered interval queries (Lucene Intervals.ordered + maxgaps) ----

# token budget BETWEEN the first and last matched term beyond the
# minimum: an n-term ordered match must fit in a span of
# (n - 1) + INTERVAL_MAXGAPS token positions
INTERVAL_MAXGAPS = 6

# ordered triples over the documents-table vocabulary: three dense
# shapes, one sparse (2 docs at sf0.001), and an absent-term probe
# (zero hits through the missing-posting path)
INTERVAL_QUERIES: list[tuple[str, str, str]] = [
    ("hash", "join", "order"),
    ("sort", "merge", "data"),
    ("fast", "key", "sort"),
    ("spark", "window", "dup"),
    ("dup", "row", "zzznothingzzz"),
]


def interval_topk(sf_dir: str) -> pa.Table:
    """Lucene ordered interval retrieval (Intervals.ordered with
    maxgaps): for each (t1, t2, t3) query, rank documents by the
    number of ANCHOR occurrences of t1 followed by t2 then t3, in
    order, within a span of {W} token positions — the 3-term
    generalization the phrase (exact adjacency) and slop (2-term
    ordered window) family builds toward. Rank = (anchor count DESC,
    doc_id), hits only.

    Matching is exact by a greedy-successor argument: taking each
    term's SMALLEST position beyond its predecessor minimizes the
    final span, so "greedy span <= W" is equivalent to "some ordered
    completion within W" (the oracle's EXISTS) — each anchor needs
    one searchsorted chain, not a cross-product of occurrences.

    Plan: verified ENTIRELY from the positional index (pos_enc),
    zero documents.parquet bytes; candidates are the 3-term posting
    AND (work ~ min df); the searchsorted chain runs on
    gpos = rank<<32|pos coordinates, where a cross-document successor
    inflates the span past 2^32 and fails the W check for free. Per-
    segment counts final under doc-hash partitioning."""
    from raysearch.pipelines.rankex import (_part_topk,
                                            _ranked_from_candidates)
    from raysearch.pipelines.search_queries import _gpos, cached_index
    from raysearch.segments import SCORER_COLUMNS_POS

    if any(len(q) != 3 for q in INTERVAL_QUERIES):
        # the oracle's (ta, tb, tc) VALUES shape and the shared span
        # budget fix the arity; a different-length tuple would get a
        # silently wrong gap budget rather than a clear error
        raise ValueError("INTERVAL_QUERIES entries must be 3-term")
    idx = cached_index(sf_dir, with_positions=True)
    all_terms = sorted({t for q in INTERVAL_QUERIES for t in q})
    W = np.int64(len(INTERVAL_QUERIES[0]) - 1 + INTERVAL_MAXGAPS)

    def score_query(qid, post):
        ents = [post.get(t) for t in INTERVAL_QUERIES[qid]]
        if any(e is None or not len(e[0]) for e in ents):
            return None
        cand = ents[0][0]
        for e in ents[1:]:
            cand = cand[np.isin(cand, e[0], assume_unique=True)]
        if not len(cand):
            return None
        anchors, _ = _gpos(ents[0], cand)
        cur = anchors
        for e in ents[1:]:
            gj, _ = _gpos(e, cand)
            k = np.searchsorted(gj, cur + 1)
            ok = k < len(gj)
            anchors, cur = anchors[ok], gj[k[ok]]
            if not len(cur):
                return None
        good = (cur - anchors) <= W  # cross-doc spans >= 2^32
        if not good.any():
            return None
        n = np.bincount((anchors[good] >> np.int64(32)).astype(np.int64),
                        minlength=len(cand))
        hit = np.flatnonzero(n)
        # the per-part k-bound is lossless: integer counts need no
        # rounding slack, and topk shares the (-score, doc_id) total
        # order of the final merge
        return cand[hit], n[hit].astype(np.float64)

    return _ranked_from_candidates(_part_topk(
        idx, all_terms, len(INTERVAL_QUERIES), score_query,
        columns=SCORER_COLUMNS_POS), score_int=True)


def sql_interval_topk() -> str:
    from raysearch.pipelines.search_queries import TOPK

    w = len(INTERVAL_QUERIES[0]) - 1 + INTERVAL_MAXGAPS
    rows = ", ".join(f"({qid}, '{a}', '{b}', '{c}')"
                     for qid, (a, b, c) in enumerate(INTERVAL_QUERIES))
    return rf"""
WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
           FROM documents),
pos AS (SELECT doc_id, unnest(toks) AS tok,
               unnest(range(len(toks)))::BIGINT AS p FROM t),
q(query_id, ta, tb, tc) AS (VALUES {rows}),
anchors AS (
  SELECT q.query_id, pa.doc_id, pa.p
  FROM q JOIN pos pa ON pa.tok = q.ta
  WHERE EXISTS (
    SELECT 1 FROM pos pb
    JOIN pos pc ON pc.doc_id = pb.doc_id AND pc.tok = q.tc
               AND pc.p > pb.p
    WHERE pb.doc_id = pa.doc_id AND pb.tok = q.tb AND pb.p > pa.p
      AND pc.p - pa.p <= {w})
),
counts AS (
  SELECT query_id, doc_id, count(*)::BIGINT AS score
  FROM anchors GROUP BY query_id, doc_id
),
ranked AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id)::BIGINT AS rank
  FROM counts
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


def pool_depth_k(sf_dir: str) -> pa.Table:
    """TREC depth-k judgment pooling: the union of three retrieval
    systems' top-10 lists (BM25, LM-Dirichlet, ClassicSimilarity —
    maximally diverse scoring families) per query, with each pooled
    document's system count — the assessor-workload table every
    shared-task evaluation builds before relevance judging (docs
    found by more systems are judged first; depth-k pooling is why
    qrels exist at all).

    Shape: three existing k-bounded distributed pipelines + a driver
    union over 3 x Q x k rows. Deterministic output order
    (query_id, n_systems DESC, doc_id)."""
    from raysearch.pipelines.search_queries import (bm25_topk,
                                                    classic_topk,
                                                    dirichlet_topk)

    pools = []
    for name, fn in (("bm25", bm25_topk), ("dirichlet", dirichlet_topk),
                     ("classic", classic_topk)):
        t = fn(sf_dir).to_pandas()
        pools.append(pd.DataFrame({
            "query_id": t.query_id.to_numpy(np.int64),
            "doc_id": t.doc_id.to_numpy(np.int64),
            "system": name}))
    # per-system top-k rows are already unique (query, doc) pairs with
    # distinct system labels, so a plain size() counts systems exactly
    u = pd.concat(pools, ignore_index=True)
    out = (u.groupby(["query_id", "doc_id"], as_index=False)
           .agg(n_systems=("system", "size"))
           .sort_values(["query_id", "n_systems", "doc_id"],
                        ascending=[True, False, True],
                        ignore_index=True))
    return pa.table({
        "query_id": pa.array(out.query_id.to_numpy(np.int64),
                             pa.int64()),
        "doc_id": pa.array(out.doc_id.to_numpy(np.int64), pa.int64()),
        "n_systems": pa.array(out.n_systems.to_numpy(np.int64),
                              pa.int64()),
    })


def sql_pool_depth_k() -> str:
    from raysearch.pipelines.search_queries import (sql_bm25_topk,
                                                    sql_classic_topk,
                                                    sql_dirichlet_topk)

    return f"""
WITH b AS ({sql_bm25_topk()}),
d AS ({sql_dirichlet_topk()}),
c AS ({sql_classic_topk()}),
u AS (
  SELECT query_id, doc_id, 'bm25' AS system FROM b
  UNION
  SELECT query_id, doc_id, 'dirichlet' FROM d
  UNION
  SELECT query_id, doc_id, 'classic' FROM c
)
SELECT query_id::BIGINT AS query_id, doc_id,
       count(DISTINCT system)::BIGINT AS n_systems
FROM u GROUP BY query_id, doc_id
"""


QUERIES = {
    "span_not_topk": span_not_topk,
    "common_terms_topk": common_terms_topk,
    "map_mrr_eval": map_mrr_eval,
    "interval_topk": interval_topk,
    "pool_depth_k": pool_depth_k,
}

ORACLE_SQL = {
    "span_not_topk": sql_span_not_topk(),
    "common_terms_topk": sql_common_terms_topk(),
    "map_mrr_eval": sql_map_mrr_eval(),
    "interval_topk": sql_interval_topk(),
    "pool_depth_k": sql_pool_depth_k(),
}
