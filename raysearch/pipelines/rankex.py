"""Ranking extensions: disjunction-max scoring, fuzzy (edit-distance)
retrieval, passage-windowed MaxP retrieval, and graded ranking
evaluation (nDCG) — four Lucene/IR capabilities the reference's single
accumulate-and-sort scorer (/root/reference/src/lib.rs:374-411) does
not have, each expressed with the engine's existing k-bounded
segment fan-out.

Every op here is index-backed and df/k-bounded — work per part is
proportional to the query terms' posting sizes, never a corpus scan —
and per-segment results are FINAL under doc-hash partitioning, so the
merges are exact (max and top-k are associative; see maxp_topk's
docstring for the per-part distinct-parent truncation proof).

The ops whose per-part output is (query_id, doc_id, score) — here and
in search_queries, spanex, grouping and queryparse — share one plan,
_part_topk: map_parts over the index's parts, one
segments.part_postings read per part, the op's own ``score_query(qid,
post) -> (doc_ids, scores) | None`` per query, a raw per-(part, query)
top-buffer (or every row), one candidate frame;
_ranked_from_candidates rounds it (round6) and ranks it by (-score,
doc_id) through numutil.rank_cut, the one rank cut (sort, 1-based
rank, cut at k) behind every ranked output of the engine. Their
stats, df and query weights come from one place, query.plan_query
(_plan here): each op plans its queries once
and scores through the plan's one unpruned per-query body,
``plan.score(plan.qweights[qid], lookup)`` — the same body query_index
runs — or, for a single term's addends (dismax, percolation, span-NOT,
explain), ``plan.contrib``. Two more shared probes fan out the same
way: _probe_candidates returns one (query, doc, term, w, tf, dl[,
first_pos]) row per candidate doc a query term posts, for the
explain-style ops (explain, ndcg, ltr, range facets, hit positions) to
reduce on the driver; _term_group_docs returns, per group of terms,
the docs holding any (or all) of them with their distinct-term count
(bool_and, blocklist, wildcard, the trigram regex candidates, the
static boost list). Ops with yet another per-part schema (pruning, the
positional proximity kernels, ...) keep their own one-part map_parts
kernel over part_postings.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from raysearch.fanout import map_parts
from raysearch.numutil import fmt_doc, frame_table, rank_cut, round6
from raysearch.pipelines.search_queries import (TOPK, _BY_SCORE,
                                                _RANKED_SCHEMA, _TOPK_BUFFER)
from raysearch.segments import (SCORER_COLUMNS, SCORER_COLUMNS_POS,
                                part_postings)

# dismax tiebreaker (Lucene DisjunctionMaxQuery's tieBreakerMultiplier;
# 0.1 is the conventional "mostly-max, slightly-reward-breadth" value)
DISMAX_TIE = 0.1

# fuzzy retrieval: max Levenshtein edits (Lucene FuzzyQuery default is
# 2; 1 keeps the expansion set small and the oracle join cheap)
FUZZY_MAX_EDITS = 1

# deliberate <=1-edit typos over the documents-table vocabulary
# ("sart" expands to BOTH sort and part — the multi-expansion case)
FUZZY_QUERIES: list[str] = [
    "hach join?",
    "sart the big tabl!",
    "window stram merge.",
    "kei valu scen",
    "dup roe lina",
]

# MaxP passage windowing: fixed token windows, parent = doc
PASSAGE_W = 32
PASSAGE_STRIDE = 4096  # passage_id = doc_id * STRIDE + window_idx

_EMPTY_CAND = pa.table({"query_id": pa.array([], pa.int64()),
                        "doc_id": pa.array([], pa.int64()),
                        "score": pa.array([], pa.float64())})
_RANKED_INT = _RANKED_SCHEMA.set(3, pa.field("score", pa.int64()))


def _ranked_from_candidates(cand: pd.DataFrame, score_int: bool = False,
                            topk: int | None = None) -> pa.Table:
    """The shared round6 -> (-score, doc_id) rank contract over a
    per-part candidate frame (query_id, doc_id, score): numutil.rank_cut
    per query at ``topk`` (default TOPK; 0 is a legitimate "no
    results" request)."""
    score = cand["score"].to_numpy(np.int64 if score_int else np.float64)
    cand = cand.assign(score=score if score_int else round6(score))
    return frame_table(
        rank_cut(cand, _BY_SCORE, TOPK if topk is None else topk,
                 "query_id"),
        _RANKED_INT if score_int else _RANKED_SCHEMA)


def _plan(idx: str, queries: list):
    """The BM25 SegmentScorer of ``queries`` (raw strings or
    [(term, weight), ...] lists) over index ``idx``: query.plan_query,
    the one source of every op's stats, df and query weights. Ops
    score through ``plan.score(plan.qweights[qid], lookup)``."""
    from raysearch.query import plan_query
    from raysearch.stats import load_stats

    return plan_query(idx, load_stats(idx), queries)[0]


def _part_kernel(load, n_queries: int, score_query, buffer: int | None):
    """The per-part top-k plan as a map_parts kernel: for each part,
    ``post = load(part)`` (one segment read), then for each query
    ``score_query(qid, post) -> (doc_ids, scores) | None``, truncated
    to the raw per-(part, query) ``buffer`` under the (-score, doc_id)
    order (``buffer=None`` keeps every row, for merges that must see
    each part's full match set). Per-part scores are FINAL under
    doc-hash partitioning, so the truncation is exact."""
    from raysearch.score import topk

    def kern(part: int) -> pa.Table:
        qs, ds, ss = [], [], []
        post = load(part)
        for qid in range(n_queries):
            got = score_query(qid, post)
            if got is None:
                continue
            docs, sc = got if buffer is None else topk(*got, buffer)
            qs.append(np.full(len(docs), qid, np.int64))
            ds.append(docs)
            ss.append(sc)
        if not qs:
            return _EMPTY_CAND
        return pa.table({
            "query_id": np.concatenate(qs),
            "doc_id": np.concatenate(ds).astype(np.int64),
            "score": np.concatenate(ss).astype(np.float64)})

    return kern


def _part_topk(idx: str, terms: list[str], n_queries: int, score_query,
               buffer: int | None = _TOPK_BUFFER,
               columns: list[str] = SCORER_COLUMNS) -> pd.DataFrame:
    """The (query_id, doc_id, score) candidate frame of every op that
    scores per part: _part_kernel fanned out over the index's parts,
    each part's ``terms`` read once by segments.part_postings."""
    from raysearch.stats import load_stats

    kern = _part_kernel(lambda p: part_postings(idx, p, terms, columns),
                        n_queries, score_query, buffer)
    return map_parts(load_stats(idx)["parts"], kern,
                     _EMPTY_CAND).to_pandas()


_PROBE_TYPES = {"query_id": pa.int64(), "doc_id": pa.int64(),
                "term": pa.string(), "w": pa.int64(), "tf": pa.int64(),
                "dl": pa.int64(), "first_pos": pa.int64()}


def _candidates_by_query(ranked: pd.DataFrame) -> dict[int, np.ndarray]:
    """{query_id: unique doc ids} of a ranked (query_id, doc_id, ...)
    frame: the candidate sets the probes take."""
    return {int(qid): np.unique(docs.to_numpy(np.int64))
            for qid, docs in ranked.groupby("query_id")["doc_id"]}


def _probe_candidates(idx: str, qweights: list, cand_by_query: dict,
                      columns: list[str] = SCORER_COLUMNS
                      ) -> pd.DataFrame:
    """The candidate probe of the explain-style ops: for each query's
    unique candidate docs ``cand_by_query[qid]`` and each ``(term, w)``
    of ``qweights[qid]``, one row (query_id, doc_id, term, w, tf, dl)
    per candidate that term's posting row holds — plus ``first_pos``,
    the doc's first position of the term, when ``columns`` reads
    pos_enc. One map_parts fan-out, one part_postings read per part;
    output is bounded by candidates x terms, and each op reduces the
    rows on the driver."""
    from raysearch.stats import load_stats

    names = list(_PROBE_TYPES)[:6] + (
        ["first_pos"] if "pos_enc" in columns else [])
    empty = pa.table({n: pa.array([], _PROBE_TYPES[n]) for n in names})
    terms = sorted({t for qid, qw in enumerate(qweights)
                    if len(cand_by_query.get(qid, ())) for t, _ in qw})
    if not terms:
        return empty.to_pandas()

    def kern(part: int) -> pa.Table:
        cols: dict[str, list] = {n: [] for n in names}
        post = part_postings(idx, part, terms, columns)
        for qid, qw in enumerate(qweights):
            cand = cand_by_query.get(qid)
            if cand is None or not len(cand):
                continue
            for t, w in qw:
                row = post.get(t)
                if row is None:
                    continue
                sel = np.isin(row[0], cand, assume_unique=True)
                n = int(sel.sum())
                if not n:
                    continue
                cols["query_id"].append(np.full(n, qid, np.int64))
                cols["term"].append(np.full(n, t, object))
                cols["w"].append(np.full(n, w, np.int64))
                for name, arr in zip(("doc_id", "tf", "dl"), row):
                    cols[name].append(arr[sel])
                if "first_pos" in cols:
                    tfs = row[1]
                    cols["first_pos"].append(
                        row[3][(np.cumsum(tfs) - tfs)[sel]])
        if not cols["query_id"]:
            return empty
        return pa.table({n: pa.array(np.concatenate(v), _PROBE_TYPES[n])
                         for n, v in cols.items()})

    return map_parts(load_stats(idx)["parts"], kern, empty).to_pandas()


def _term_group_docs(idx: str, groups: list, all_of: bool = False
                     ) -> pa.Table:
    """Per part and per group of terms: the docs holding any of the
    group's distinct terms (or, with ``all_of``, every one of them),
    as (group, doc_id, n_terms) rows — n_terms is how many distinct
    group terms the doc holds (a posting row lists a doc once, so a
    doc's multiplicity across the group's rows is that count). One
    map_parts fan-out, one part_postings read per part; the filter
    runs in the task, so only surviving rows leave the part. Rows are
    doc-ascending within each (part, group); doc-hash partitioning
    makes every part's rows final."""
    from raysearch.stats import load_stats

    sets = [sorted(set(g)) for g in groups]
    terms = sorted({t for ts in sets for t in ts})
    empty = pa.table({"group": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      "n_terms": pa.array([], pa.int64())})
    if not terms:
        return empty

    def kern(part: int) -> pa.Table:
        out_g, out_d, out_n = [], [], []
        post = part_postings(idx, part, terms)
        for gid, ts in enumerate(sets):
            lists = [post[t][0] for t in ts if t in post]
            if not lists or (all_of and len(lists) < len(ts)):
                continue
            docs, cnt = np.unique(np.concatenate(lists),
                                  return_counts=True)
            if all_of:
                keep = cnt == len(ts)
                docs, cnt = docs[keep], cnt[keep]
            out_g.append(np.full(len(docs), gid, np.int64))
            out_d.append(docs)
            out_n.append(cnt)
        if not out_g:
            return empty
        return pa.table({
            "group": pa.array(np.concatenate(out_g), pa.int64()),
            "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
            "n_terms": pa.array(np.concatenate(out_n), pa.int64())})

    return map_parts(load_stats(idx)["parts"], kern, empty)


# ---- dismax ----

def dismax_topk(sf_dir: str) -> pa.Table:
    """Lucene DisjunctionMaxQuery top-10: score(doc) = max over query
    terms of the BM25 contribution + TIE * (sum - max) — rewarding the
    best single matching term instead of term-count breadth (the "one
    great field/term beats three mediocre ones" ranking the plain
    disjunction bm25_topk inverts).

    Plan: identical fan-out shape to bm25_topk — per segment, decode
    the query terms' postings once, scatter per-term contributions
    into per-doc SUM and MAX lanes (np.add.at / np.maximum.at over one
    np.unique inverse), combine, keep a raw per-(part, query) buffer;
    per-segment scores are FINAL (doc-hash partitioning), so the
    driver merge is the shared round6 rank contract. Work ~ sum of
    query-term df; zero exchanges."""
    from raysearch.pipelines.search_queries import (DOC_QUERIES,
                                                    cached_index)

    idx = cached_index(sf_dir)
    plan = _plan(idx, DOC_QUERIES)

    def score_query(qid, post):
        per_docs, per_c = [], []
        for t, w in plan.qweights[qid]:
            got = post.get(t)
            if got is None:
                continue
            docs, tfs, dls = got
            per_docs.append(docs)
            per_c.append(plan.contrib(t, w, tfs, dls))
        if not per_docs:
            return None
        all_c = np.concatenate(per_c)
        uniq, inv = np.unique(np.concatenate(per_docs), return_inverse=True)
        ssum = np.zeros(len(uniq), np.float64)
        np.add.at(ssum, inv, all_c)
        smax = np.full(len(uniq), -np.inf, np.float64)
        np.maximum.at(smax, inv, all_c)
        return uniq, smax + DISMAX_TIE * (ssum - smax)

    return _ranked_from_candidates(
        _part_topk(idx, plan.all_terms, len(plan.qweights), score_query))


def sql_dismax_topk() -> str:
    from raysearch.pipelines.search_queries import (_TOK_CTES, B, K1,
                                                    TOPK,
                                                    _qterms_values)

    return f"""
WITH {_TOK_CTES},
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
contrib AS (
  SELECT q.query_id, tf.doc_id,
         q.w * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * (tf.tf * ({K1} + 1))
             / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl)) AS c
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN df ON q.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
),
scores AS (
  SELECT query_id, doc_id,
         max(c) + {DISMAX_TIE} * (sum(c) - max(c)) AS score
  FROM contrib GROUP BY query_id, doc_id
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


# ---- fuzzy retrieval ----

def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert/delete/substitute — matches
    DuckDB's levenshtein; transpositions cost 2)."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def fuzzy_expansions(queries: list[str], vocab: list[str],
                     max_edits: int = FUZZY_MAX_EDITS
                     ) -> list[list[tuple[str, int]]]:
    """Per query, the union of lexicon terms within ``max_edits`` of
    any query term, in the ascending-unique-term accumulation order;
    query terms expanding onto the same lexicon term add their
    multiplicities (same collapse rule as the synonym expansion)."""
    out = []
    for q in queries:
        from raysearch.score import query_term_weights

        agg: dict[str, int] = {}
        for t, w in query_term_weights(q):
            for v in vocab:
                if abs(len(v) - len(t)) > max_edits:
                    continue
                if levenshtein(t, v) <= max_edits:
                    agg[v] = agg.get(v, 0) + w
        out.append(sorted(agg.items()))
    return out


@fmt_doc(FUZZY_MAX_EDITS=FUZZY_MAX_EDITS)
def fuzzy_topk(sf_dir: str) -> pa.Table:
    """Lucene FuzzyQuery retrieval: each query term matches every
    LEXICON term within {FUZZY_MAX_EDITS} Levenshtein edit(s) — the
    union expansion (all matches score, weights of colliding
    expansions add), unlike spellfix_topk's single-best correction.
    The expanded term-weight lists then run through the exact
    distributed BM25 fan-out.

    Scale note: Lucene evaluates this as a Levenshtein automaton
    intersected with the term-dictionary FST. Here the expansion scans
    the index's GLOBAL LEXICON (never the corpus) with a length-delta
    prefilter; the lexicon is a partitioned parquet dataset, so at
    100 TB vocabulary the scan distributes as a map over lexicon
    fragments with the tiny query-term list broadcast."""
    import pyarrow.dataset as pads

    from raysearch.pipelines.search_queries import (cached_index,
                                                    topk_rounded_for_index)

    idx = cached_index(sf_dir)
    vocab = pads.dataset(os.path.join(idx, "lexicon")).to_table(
        columns=["term"])["term"].to_pylist()
    qx = fuzzy_expansions(FUZZY_QUERIES, vocab)
    return topk_rounded_for_index(idx, "bm25", queries=qx)


def _fuzzy_qvalues() -> str:
    from raysearch.score import query_term_weights

    rows = []
    for qid, q in enumerate(FUZZY_QUERIES):
        for term, w in query_term_weights(q):
            rows.append(f"({qid}, '{term}', {int(w)})")
    return ", ".join(rows)


def sql_fuzzy_topk() -> str:
    from raysearch.pipelines.search_queries import _TOK_CTES, B, K1, TOPK

    return f"""
WITH {_TOK_CTES},
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
q(query_id, term, w) AS (VALUES {_fuzzy_qvalues()}),
vocab AS (SELECT DISTINCT term FROM tf),
qx AS (
  SELECT q.query_id, v.term, sum(q.w)::DOUBLE AS w
  FROM q JOIN vocab v
    ON levenshtein(q.term, v.term) <= {FUZZY_MAX_EDITS}
  GROUP BY q.query_id, v.term
),
scores AS (
  SELECT qx.query_id, tf.doc_id,
         sum(qx.w * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * (tf.tf * ({K1} + 1))
             / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl))) AS score
  FROM qx
  JOIN tf ON qx.term = tf.term
  JOIN df ON qx.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY qx.query_id, tf.doc_id
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


# ---- prefix retrieval ----

# per-query PREFIX terms (Lucene PrefixQuery, scored-boolean rewrite):
# 's' is the wide expansion (6 lexicon terms), 'sort' inside "s sort"
# pins the collision case (prefix and exact term expand onto the same
# lexicon entry -> weights add), 'xyzzy' is the no-match prefix whose
# query survives on its other term, 'b b' doubles a prefix weight
PREFIX_QUERIES: list[str] = [
    "s table",
    "qu c",
    "b merge b",
    "xyzzy da",
    "s sort",
]


def _expand_prefix(prefix: str, svocab: list[str],
                   agg: dict[str, int], w: int = 1) -> None:
    """Range-scan the SORTED lexicon for terms extending ``prefix``
    (the prefix itself included when it is a term), adding ``w`` to
    each expansion's weight in ``agg`` — the one collapse rule
    (Lucene SCORING_BOOLEAN_REWRITE) shared by prefix_topk and
    search-as-you-type."""
    lo = np.searchsorted(svocab, prefix)
    for i in range(lo, len(svocab)):
        if not svocab[i].startswith(prefix):
            break
        agg[svocab[i]] = agg.get(svocab[i], 0) + w


def prefix_expansions(queries: list[str], vocab: list[str]
                      ) -> list[list[tuple[str, int]]]:
    """Per query, the union of lexicon terms extending any query
    prefix (the prefix itself included when it is a lexicon term);
    prefixes expanding onto the same lexicon term add their
    multiplicities — the same collapse rule as the synonym and fuzzy
    expansions, i.e. Lucene's SCORING_BOOLEAN_REWRITE."""
    from raysearch.score import query_term_weights

    svocab = sorted(vocab)
    out = []
    for q in queries:
        agg: dict[str, int] = {}
        for t, w in query_term_weights(q):
            _expand_prefix(t, svocab, agg, w)
        out.append(sorted(agg.items()))
    return out


def prefix_topk(sf_dir: str) -> pa.Table:
    """Lucene PrefixQuery retrieval (scored-boolean rewrite): each
    query term is a PREFIX matching every lexicon term that extends it;
    all expansions score BM25 and colliding expansions add their
    weights (exactly fuzzy_topk's union-expansion contract with
    startswith in place of edit distance). The reference's scorer has
    no multi-term query rewrite at all (/root/reference/src/lib.rs:
    374-411) — this is the wildcard-family member its `\\w+` query
    tokenizer cannot express.

    Scale note: the expansion is a RANGE SCAN of the sorted global
    lexicon ([prefix, prefix+1) — searchsorted bounds), never a corpus
    pass; the lexicon is a partitioned parquet dataset, so at 10^12
    docs the probe reads only the fragments whose term range overlaps
    the prefix interval, and the expanded term-weight lists run
    through the same k-bounded BM25 fan-out as every other query."""
    import pyarrow.dataset as pads

    from raysearch.pipelines.search_queries import (cached_index,
                                                    topk_rounded_for_index)

    idx = cached_index(sf_dir)
    vocab = pads.dataset(os.path.join(idx, "lexicon")).to_table(
        columns=["term"])["term"].to_pylist()
    qx = prefix_expansions(PREFIX_QUERIES, vocab)
    return topk_rounded_for_index(idx, "bm25", queries=qx)


def _prefix_qvalues() -> str:
    from raysearch.score import query_term_weights

    rows = []
    for qid, q in enumerate(PREFIX_QUERIES):
        for term, w in query_term_weights(q):
            rows.append(f"({qid}, '{term}', {int(w)})")
    return ", ".join(rows)


def sql_prefix_topk() -> str:
    # starts_with, not LIKE: '_' is a \w character AND a LIKE
    # single-char wildcard (sql_sayt_topk's note)
    from raysearch.pipelines.search_queries import _TOK_CTES, B, K1, TOPK

    return f"""
WITH {_TOK_CTES},
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
q(query_id, term, w) AS (VALUES {_prefix_qvalues()}),
vocab AS (SELECT DISTINCT term FROM tf),
qx AS (
  SELECT q.query_id, v.term, sum(q.w)::DOUBLE AS w
  FROM q JOIN vocab v ON starts_with(v.term, q.term)
  GROUP BY q.query_id, v.term
),
scores AS (
  SELECT qx.query_id, tf.doc_id,
         sum(qx.w * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * (tf.tf * ({K1} + 1))
             / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl))) AS score
  FROM qx
  JOIN tf ON qx.term = tf.term
  JOIN df ON qx.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY qx.query_id, tf.doc_id
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


# ---- MaxP passage retrieval ----

@fmt_doc(PASSAGE_W=PASSAGE_W, PASSAGE_STRIDE=PASSAGE_STRIDE)
def _passage_corpus(sf_dir: str):
    """documents -> fixed-{PASSAGE_W}-token passage corpus
    (passage_id = doc_id * {PASSAGE_STRIDE} + window_idx, content =
    the window's tokens re-joined). Fully vectorized: the batch's
    token lists flatten once; window boundaries are numpy arithmetic
    over the list offsets; passage text is one pc.binary_join over a
    re-windowed ListArray of the SAME flat token buffer."""
    import ray.data

    from raysearch.pipelines.textops import _tokens

    def split(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        offs = np.asarray(toks.offsets)
        flat = toks.values
        doc_ids = batch["doc_id"].to_numpy()
        n = np.diff(offs)
        nw = -(-n // PASSAGE_W)  # ceil; 0-token docs -> 0 passages
        if int(nw.max(initial=0)) >= PASSAGE_STRIDE:
            raise ValueError(
                f"document exceeds {PASSAGE_STRIDE * PASSAGE_W} tokens; "
                f"raise PASSAGE_STRIDE (passage ids must stay disjoint)")
        total = int(nw.sum())
        doc_rep = np.repeat(np.arange(len(n)), nw)
        first = np.zeros(len(n), np.int64)
        np.cumsum(nw[:-1], out=first[1:])
        widx = np.arange(total) - np.repeat(first, nw)
        starts = offs[:-1][doc_rep] + widx * PASSAGE_W
        # windows tile each doc and docs tile the flat buffer, so
        # [starts..., offs[-1]] is a valid contiguous offsets vector
        # (binary_join needs a list<string> input: int32 offsets over
        # string values — fine, offsets are per-batch token counts)
        bounds = np.append(starts, offs[-1]).astype(np.int32)
        win = pa.ListArray.from_arrays(
            pa.array(bounds, pa.int32()),
            pc.cast(flat, pa.string()))
        content = pc.binary_join(win, " ")
        return pa.table({
            "doc_id": pa.array(
                doc_ids[doc_rep] * PASSAGE_STRIDE + widx, pa.int64()),
            "content": content,
        })

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return ds.map_batches(split, batch_format="pyarrow",
                          zero_copy_batch=True)


def cached_passage_index(sf_dir: str) -> str:
    """Build (or resume) the PASSAGE-level segment index for this
    sf_dir — same build pipeline as cached_index, corpus = the derived
    window table, so df/N/avgdl are passage-level statistics."""
    import hashlib

    from raysearch.build import build_index
    from raysearch.config import IndexConfig
    from raysearch.pipelines.search_queries import (B, K1, _docs_path,
                                                    _source_fingerprint)

    key = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    idx = os.path.join("/tmp", "raysearch_cache", f"docidx-{key}-maxp")
    os.makedirs(idx, exist_ok=True)
    cfg = IndexConfig(num_parts=8, k1=K1, b=B)
    # STRIDE is part of the stored passage-id encoding — changing it
    # must invalidate the cache, not silently decode with the old one
    input_id = (f"maxp:{PASSAGE_W}:{PASSAGE_STRIDE}:"
                f"{os.path.abspath(sf_dir)}"
                f"@{_source_fingerprint(_docs_path(sf_dir))}")
    build_index(_passage_corpus(sf_dir), idx, cfg, input_id=input_id)
    return idx


@fmt_doc(PASSAGE_W=PASSAGE_W)
def maxp_topk(sf_dir: str) -> pa.Table:
    """BM25 MaxP long-document retrieval (Dai & Callan 2019; the
    ToParentBlockJoin/ScoreMode.Max shape): documents split into
    fixed {PASSAGE_W}-token passages, BM25 scored at PASSAGE level
    (passage-level df/N/avgdl), each document ranked by its BEST
    passage; top-10 documents per query.

    Exactness of the distributed plan: per segment part, passages are
    scored and rolled up to per-PARENT partial maxima, and only the
    part's top-{{buffer}} parents are emitted. Safe because a parent in
    the global top-k has its best passage in some part, where its
    partial max EQUALS its global score; any parent ranked above it
    within that part has global score >= that partial max, and fewer
    than k parents beat a top-k parent globally — so every global
    top-k parent survives its part's distinct-parent truncation. The
    driver merge is then max-of-maxes (order-independent, exact) +
    the shared round6 rank contract."""
    from raysearch.pipelines.search_queries import DOC_QUERIES

    idx = cached_passage_index(sf_dir)
    plan = _plan(idx, DOC_QUERIES)  # passage-level stats

    def score_query(qid, post):
        pids, sc = plan.score(plan.qweights[qid], post.get)
        if not len(pids):
            return None
        uniq, inv = np.unique(pids // PASSAGE_STRIDE, return_inverse=True)
        pmax = np.full(len(uniq), -np.inf, np.float64)
        np.maximum.at(pmax, inv, sc)
        return uniq, pmax

    cand = _part_topk(idx, plan.all_terms, len(plan.qweights), score_query)
    # cross-part parent merge: exact max-of-maxes
    cand = (cand.groupby(["query_id", "doc_id"], as_index=False)
            .agg(score=("score", "max")))
    return _ranked_from_candidates(cand)


def percolate_scored(sf_dir: str) -> pa.Table:
    """Scored percolation (the ES percolate query WITH relevance):
    every (incoming doc, stored query) pair that passes
    percolate_docs' conjunction gate, scored with the SAME BM25
    expression bm25_topk uses — tf/dl from the incoming document,
    df/N/avgdl from the standing index (the background model an
    alerting deployment already has) — so alert consumers can rank
    which subscription fired hardest.

    Plan: map-only over the stream sample with the index's tiny
    df/stats broadcast in the closure (the stored queries' term sets
    ride along as in percolate_docs); no exchange — scoring an
    incoming doc is arithmetic over its own term counts. Output is
    pair-bounded: gate matches x 1 row."""
    import ray.data

    from raysearch.pipelines.search_queries import (DOC_QUERIES,
                                                    _concat_ds,
                                                    _docs_path,
                                                    cached_index)

    plan = _plan(cached_index(sf_dir), DOC_QUERIES)
    qterms = [sorted({t for t, _ in qw}) for qw in plan.qweights]
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "query_id": pa.array([], pa.int64()),
                      "score": pa.array([], pa.float64())})

    def kern(batch: pa.Table) -> pa.Table:
        from raysearch.pipelines.textops import _tokens

        keep = batch["doc_id"].to_numpy() % PERCOLATE_MOD == 0
        sub = batch.filter(pa.array(keep))
        if sub.num_rows == 0:
            return empty
        toks = _tokens(sub)
        ids = sub["doc_id"].to_numpy()
        offs = np.asarray(toks.offsets)
        flat = np.asarray(toks.values.to_pandas(), dtype=object)
        out_d, out_q, out_s = [], [], []
        for i in range(len(ids)):
            doc_toks = flat[offs[i]:offs[i + 1]]
            terms, counts = np.unique(doc_toks, return_counts=True)
            dl = np.array([len(doc_toks)], np.int64)
            for qid, ts in enumerate(qterms):
                if not ts:
                    continue  # token-less stored query matches nothing
                p = np.searchsorted(terms, ts)
                p_c = np.clip(p, 0, max(0, len(terms) - 1))
                if not len(terms) or not (terms[p_c] == ts).all():
                    continue
                # ascending-term accumulation, the bm25_topk contract
                s = 0.0
                for t, w in plan.qweights[qid]:
                    tf = np.array([counts[p_c[ts.index(t)]]], np.int64)
                    s += float(plan.contrib(t, w, tf, dl)[0])
                out_d.append(int(ids[i]))
                out_q.append(qid)
                out_s.append(s)
        if not out_d:
            return empty
        return pa.table({"doc_id": pa.array(out_d, pa.int64()),
                         "query_id": pa.array(out_q, pa.int64()),
                         "score": pa.array(out_s, pa.float64())})

    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["doc_id", "text"])
    got = _concat_ds(ds.map_batches(
        kern, batch_format="pyarrow", zero_copy_batch=True),
        empty).to_pandas()

    got = got.sort_values(["doc_id", "query_id"], ignore_index=True)
    return pa.table({
        "doc_id": pa.array(got.doc_id.to_numpy(np.int64), pa.int64()),
        "query_id": pa.array(got.query_id.to_numpy(np.int64),
                             pa.int64()),
        "score": pa.array(round6(got.score.to_numpy(np.float64)),
                          pa.float64()),
    })


def sql_percolate_scored() -> str:
    from raysearch.pipelines.search_queries import (_TOK_CTES, B, K1,
                                                    DOC_QUERIES,
                                                    _qterms_values)
    from raysearch.score import query_term_weights

    gate_rows = []
    for qid, q in enumerate(DOC_QUERIES):
        for term in sorted({t for t, _ in query_term_weights(q)}):
            gate_rows.append(f"({qid}, '{term}')")
    gate = ", ".join(gate_rows)
    return f"""
WITH {_TOK_CTES},
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
gq(query_id, term) AS (VALUES {gate}),
need AS (SELECT query_id, count(*)::BIGINT AS k FROM gq GROUP BY 1),
stream AS (SELECT doc_id FROM documents
           WHERE doc_id % {PERCOLATE_MOD} = 0),
hit AS (
  SELECT gq.query_id, tf.doc_id, count(*)::BIGINT AS k
  FROM gq JOIN tf ON tf.term = gq.term
  JOIN stream s ON s.doc_id = tf.doc_id
  GROUP BY 1, 2
),
matched AS (
  SELECT h.query_id, h.doc_id
  FROM hit h JOIN need n ON n.query_id = h.query_id AND n.k = h.k
),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
scores AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.w * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * (tf.tf * ({K1} + 1))
             / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl))) AS score
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN df ON q.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
)
SELECT m.doc_id, m.query_id::BIGINT AS query_id,
       round(sc.score, 6) AS score
FROM matched m JOIN scores sc
  ON sc.query_id = m.query_id AND sc.doc_id = m.doc_id
"""


def blockjoin_topk(sf_dir: str) -> pa.Table:
    """Lucene ToParentBlockJoinQuery with ScoreMode.Total (ES
    has_child score_mode=sum): documents ranked by the SUM of their
    matching passages' BM25 scores — breadth of matching passages
    rewarded, where maxp_topk (ScoreMode.Max) rewards the single best
    one. Same passage index, passage-level stats, top-10 parents.

    Distributed-plan delta vs maxp: SUM partials cannot be truncated
    per part (a parent's global sum accumulates across parts, so no
    part can bound another part's contribution) — each part emits its
    full per-parent partial-sum rows, df-bounded like
    query_hit_counts, and the driver merge is sum-of-partial-sums
    (each passage counted exactly once: passages are disjoint across
    parts)."""
    from raysearch.pipelines.search_queries import DOC_QUERIES

    idx = cached_passage_index(sf_dir)
    plan = _plan(idx, DOC_QUERIES)  # passage-level stats

    def score_query(qid, post):
        pids, sc = plan.score(plan.qweights[qid], post.get)
        if not len(pids):
            return None
        uniq, inv = np.unique(pids // PASSAGE_STRIDE, return_inverse=True)
        psum = np.zeros(len(uniq), np.float64)
        np.add.at(psum, inv, sc)
        return uniq, psum

    cand = _part_topk(idx, plan.all_terms, len(plan.qweights), score_query,
                      buffer=None)
    # cross-part parent merge: sum of partial sums (passages disjoint
    # across parts -> every passage counted exactly once)
    cand = (cand.groupby(["query_id", "doc_id"], as_index=False)
            .agg(score=("score", "sum")))
    return _ranked_from_candidates(cand)


def sql_blockjoin_topk() -> str:
    from raysearch.pipelines.search_queries import (B, K1, TOPK,
                                                    _qterms_values)

    return rf"""
WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
           FROM documents),
ptok AS (
  SELECT doc_id, unnest(toks) AS term,
         unnest(range(1, len(toks) + 1)) AS pos
  FROM t
),
pass AS (SELECT doc_id, (pos - 1) // {PASSAGE_W} AS pidx, term FROM ptok),
ptf AS (SELECT doc_id, pidx, term, count(*)::BIGINT AS tf
        FROM pass GROUP BY doc_id, pidx, term),
pdl AS (SELECT doc_id, pidx, count(*)::BIGINT AS dl
        FROM pass GROUP BY doc_id, pidx),
pdf AS (SELECT term, count(*)::DOUBLE AS df FROM ptf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM pdl)::DOUBLE AS n_pass,
         (SELECT sum(dl) FROM pdl)::DOUBLE
           / (SELECT count(*) FROM pdl) AS avgdl
),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
pscores AS (
  SELECT q.query_id, ptf.doc_id, ptf.pidx,
         sum(q.w * ln(1 + (s.n_pass - pdf.df + 0.5) / (pdf.df + 0.5))
             * (ptf.tf * ({K1} + 1))
             / (ptf.tf + {K1} * (1 - {B} + {B} * pdl.dl / s.avgdl)))
           AS score
  FROM q
  JOIN ptf ON q.term = ptf.term
  JOIN pdf ON q.term = pdf.term
  JOIN pdl ON ptf.doc_id = pdl.doc_id AND ptf.pidx = pdl.pidx
  CROSS JOIN stats s
  GROUP BY q.query_id, ptf.doc_id, ptf.pidx
),
parent AS (
  SELECT query_id, doc_id, sum(score) AS score
  FROM pscores GROUP BY query_id, doc_id
),
ranked AS (
  SELECT query_id, doc_id, round(score, 6) AS score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id) AS rank
  FROM parent
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


def sql_maxp_topk() -> str:
    from raysearch.pipelines.search_queries import (B, K1, TOPK,
                                                    _qterms_values)

    return rf"""
WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
           FROM documents),
ptok AS (
  SELECT doc_id, unnest(toks) AS term,
         unnest(range(1, len(toks) + 1)) AS pos
  FROM t
),
pass AS (SELECT doc_id, (pos - 1) // {PASSAGE_W} AS pidx, term FROM ptok),
ptf AS (SELECT doc_id, pidx, term, count(*)::BIGINT AS tf
        FROM pass GROUP BY doc_id, pidx, term),
pdl AS (SELECT doc_id, pidx, count(*)::BIGINT AS dl
        FROM pass GROUP BY doc_id, pidx),
pdf AS (SELECT term, count(*)::DOUBLE AS df FROM ptf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM pdl)::DOUBLE AS n_pass,
         (SELECT sum(dl) FROM pdl)::DOUBLE
           / (SELECT count(*) FROM pdl) AS avgdl
),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
pscores AS (
  SELECT q.query_id, ptf.doc_id, ptf.pidx,
         sum(q.w * ln(1 + (s.n_pass - pdf.df + 0.5) / (pdf.df + 0.5))
             * (ptf.tf * ({K1} + 1))
             / (ptf.tf + {K1} * (1 - {B} + {B} * pdl.dl / s.avgdl)))
           AS score
  FROM q
  JOIN ptf ON q.term = ptf.term
  JOIN pdf ON q.term = pdf.term
  JOIN pdl ON ptf.doc_id = pdl.doc_id AND ptf.pidx = pdl.pidx
  CROSS JOIN stats s
  GROUP BY q.query_id, ptf.doc_id, ptf.pidx
),
parent AS (
  SELECT query_id, doc_id, max(score) AS score
  FROM pscores GROUP BY query_id, doc_id
),
ranked AS (
  SELECT query_id, doc_id, round(score, 6) AS score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id) AS rank
  FROM parent
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


# ---- scored boolean MUST_NOT ----

# per-DOC_QUERIES negative term (Lucene BooleanClause.Occur.MUST_NOT):
# common vocabulary words so the exclusion visibly reshapes each top-k
NEG_TERMS: list[str] = ["scan", "row", "the", "batch", "group",
                        "key", "line", "vector", "dup", "merge"]


def negated_topk(sf_dir: str) -> pa.Table:
    """Scored boolean MUST_NOT retrieval: BM25 top-10 per query over
    documents NOT containing that query's negative term — the missing
    member of the boolean family (bool_and_docs = unscored MUST,
    msm_topk = SHOULD with a floor, this = SHOULD + MUST_NOT).

    Plan: the negative term's posting list is read in the SAME
    per-part fan-out as the positives (one extra term-filtered read,
    work ∝ its df); exclusion is a sorted-membership mask over the
    accumulated candidate array BEFORE top-k truncation, so the
    negated ranking is exact. Per-segment scores stay final."""
    def exclude(docs, sc, neg):
        m = ~np.isin(docs, neg, assume_unique=True)
        return docs[m], sc[m]

    return _neg_term_topk(sf_dir, exclude)


def _neg_term_topk(sf_dir: str, reshape) -> pa.Table:
    """BM25 over DOC_QUERIES with each query's NEG_TERMS posting list
    read in the same per-part fan-out; ``reshape(docs, scores,
    neg_docs)`` applies the negative clause to the accumulated
    candidates BEFORE per-part truncation, so the ranking is exact."""
    from raysearch.pipelines.search_queries import (DOC_QUERIES,
                                                    cached_index)

    idx = cached_index(sf_dir)
    plan = _plan(idx, DOC_QUERIES)

    def score_query(qid, post):
        docs, sc = plan.score(plan.qweights[qid], post.get)
        if not len(docs):
            return None
        got = post.get(NEG_TERMS[qid])
        if got is not None and len(got[0]):
            docs, sc = reshape(docs, sc, got[0])
        return docs, sc

    return _ranked_from_candidates(_part_topk(
        idx, sorted(set(plan.all_terms) | set(NEG_TERMS)),
        len(plan.qweights), score_query))


def sql_negated_topk() -> str:
    from raysearch.pipelines.search_queries import (_TOK_CTES, B, K1,
                                                    TOPK,
                                                    _qterms_values)

    nq = ", ".join(f"({qid}, '{t}')" for qid, t in enumerate(NEG_TERMS))
    return f"""
WITH {_TOK_CTES},
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
nq(query_id, term) AS (VALUES {nq}),
neg AS (
  SELECT DISTINCT nq.query_id, tf.doc_id
  FROM nq JOIN tf ON tf.term = nq.term
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
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
kept AS (
  SELECT sc.* FROM scores sc
  WHERE NOT EXISTS (SELECT 1 FROM neg
                    WHERE neg.query_id = sc.query_id
                      AND neg.doc_id = sc.doc_id)
),
ranked AS (
  SELECT query_id, doc_id, round(score, 6) AS score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id) AS rank
  FROM kept
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


# ---- Lucene BoostingQuery (negative boost / demotion) ----

# exactly 0.5 (a power of two): the demotion multiply is then EXACT
# in binary floating point, so engine and oracle stay bit-identical
DEMOTE_FACTOR = 0.5


def demote_topk(sf_dir: str) -> pa.Table:
    """Lucene BoostingQuery: BM25 top-10 where documents containing
    the query's negative term are DEMOTED (score x 0.5) instead of
    excluded — the soft complement of negated_topk's MUST_NOT (ES
    `boosting` query with negative_boost). Reuses NEG_TERMS so the
    two ops are directly comparable.

    Plan: negated_topk's fan-out with the exclusion mask replaced by
    a multiplicative mask applied to the accumulated candidates
    BEFORE per-part truncation (a doc lives in one part, so demoted
    per-part top-k merges exactly); the factor is a power of two so
    the multiply is exact and per-segment scores stay final."""
    def demote(docs, sc, neg):
        m = np.isin(docs, neg, assume_unique=True)
        return docs, np.where(m, sc * DEMOTE_FACTOR, sc)

    return _neg_term_topk(sf_dir, demote)


def sql_demote_topk() -> str:
    from raysearch.pipelines.search_queries import (_TOK_CTES, B, K1,
                                                    TOPK,
                                                    _qterms_values)

    nq = ", ".join(f"({qid}, '{t}')" for qid, t in enumerate(NEG_TERMS))
    return f"""
WITH {_TOK_CTES},
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
nq(query_id, term) AS (VALUES {nq}),
neg AS (
  SELECT DISTINCT nq.query_id, tf.doc_id
  FROM nq JOIN tf ON tf.term = nq.term
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
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
demoted AS (
  SELECT sc.query_id, sc.doc_id,
         CASE WHEN neg.doc_id IS NOT NULL
              THEN sc.score * {DEMOTE_FACTOR}
              ELSE sc.score END AS score
  FROM scores sc
  LEFT JOIN neg ON neg.query_id = sc.query_id
               AND neg.doc_id = sc.doc_id
),
ranked AS (
  SELECT query_id, doc_id, round(score, 6) AS score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id) AS rank
  FROM demoted
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


# ---- best-passage highlighting ----

def best_passage_topk(sf_dir: str) -> pa.Table:
    """Lucene best-fragment highlighting, index-backed: for every BM25
    top-10 hit, the ordinal and BM25 score of the document's
    best-scoring {PASSAGE_W}-token passage (the fragment a highlighter
    would render) — computed ENTIRELY from the passage index, zero
    text bytes.

    Plan: the doc-level top-k ids ride the passage-index fan-out
    (_part_topk with every row kept); each part scores its passages
    and keeps those whose PARENT is a candidate (sorted-membership
    mask) — output bounded by k x Q x passages-per-doc. The driver
    splits each passage id into (parent, pidx), picks per (query,
    doc) the (round6(pscore) DESC, pidx ASC) champion and attaches the
    doc-level rank."""
    from raysearch.pipelines.search_queries import (DOC_QUERIES,
                                                    bm25_topk)

    base = bm25_topk(sf_dir).to_pandas()
    cand = _candidates_by_query(base)

    idx = cached_passage_index(sf_dir)
    plan = _plan(idx, DOC_QUERIES)  # passage-level stats

    def score_query(qid, post):
        elig = cand.get(qid)
        if elig is None:
            return None
        pids, sc = plan.score(plan.qweights[qid], post.get)
        keep = np.isin(pids // PASSAGE_STRIDE, elig)
        return pids[keep], sc[keep]

    pas = _part_topk(idx, plan.all_terms, len(plan.qweights), score_query,
                     buffer=None)
    rows = pd.DataFrame({"query_id": pas.query_id,
                         "doc_id": pas.doc_id // PASSAGE_STRIDE,
                         "pidx": pas.doc_id % PASSAGE_STRIDE,
                         "pscore": pas.score})
    rows["pscore"] = round6(rows["pscore"].to_numpy(np.float64))
    rows = rows.sort_values(["query_id", "doc_id", "pscore", "pidx"],
                            ascending=[True, True, False, True])
    best = rows.groupby(["query_id", "doc_id"], as_index=False).first()
    out = base.merge(best, on=["query_id", "doc_id"], how="inner")
    out = out.sort_values(["query_id", "rank"])
    return pa.table({
        "query_id": pa.array(out.query_id.to_numpy(np.int64), pa.int64()),
        "doc_id": pa.array(out.doc_id.to_numpy(np.int64), pa.int64()),
        "rank": pa.array(out["rank"].to_numpy(np.int64), pa.int64()),
        "pidx": pa.array(out.pidx.to_numpy(np.int64), pa.int64()),
        "pscore": pa.array(out.pscore.to_numpy(np.float64), pa.float64()),
    })


def sql_best_passage_topk() -> str:
    from raysearch.pipelines.search_queries import (B, K1,
                                                    _qterms_values,
                                                    sql_bm25_topk)

    return rf"""
WITH base AS ({sql_bm25_topk()}),
t AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
      FROM documents),
ptok AS (
  SELECT doc_id, unnest(toks) AS term,
         unnest(range(1, len(toks) + 1)) AS pos
  FROM t
),
pass AS (SELECT doc_id, (pos - 1) // {PASSAGE_W} AS pidx, term FROM ptok),
ptf AS (SELECT doc_id, pidx, term, count(*)::BIGINT AS tf
        FROM pass GROUP BY doc_id, pidx, term),
pdl AS (SELECT doc_id, pidx, count(*)::BIGINT AS dl
        FROM pass GROUP BY doc_id, pidx),
pdf AS (SELECT term, count(*)::DOUBLE AS df FROM ptf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM pdl)::DOUBLE AS n_pass,
         (SELECT sum(dl) FROM pdl)::DOUBLE
           / (SELECT count(*) FROM pdl) AS avgdl
),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
pscores AS (
  SELECT q.query_id, ptf.doc_id, ptf.pidx,
         sum(q.w * ln(1 + (s.n_pass - pdf.df + 0.5) / (pdf.df + 0.5))
             * (ptf.tf * ({K1} + 1))
             / (ptf.tf + {K1} * (1 - {B} + {B} * pdl.dl / s.avgdl)))
           AS score
  FROM q
  JOIN ptf ON q.term = ptf.term
  JOIN pdf ON q.term = pdf.term
  JOIN pdl ON ptf.doc_id = pdl.doc_id AND ptf.pidx = pdl.pidx
  CROSS JOIN stats s
  GROUP BY q.query_id, ptf.doc_id, ptf.pidx
),
psel AS (
  SELECT base.query_id, base.doc_id, base.rank,
         p.pidx::BIGINT AS pidx, round(p.score, 6) AS pscore,
         row_number() OVER (PARTITION BY base.query_id, base.doc_id
                            ORDER BY round(p.score, 6) DESC, p.pidx)
           AS rn
  FROM base
  JOIN pscores p ON p.query_id = base.query_id
                AND p.doc_id = base.doc_id
)
SELECT query_id, doc_id, rank, pidx, pscore
FROM psel WHERE rn = 1
"""


# ---- span-first retrieval (positions-gated) ----

# a query term must occur within the first N tokens (1-based ordinal)
SPANFIRST_N = 10


@fmt_doc(SPANFIRST_N=SPANFIRST_N)
def spanfirst_topk(sf_dir: str) -> pa.Table:
    """Lucene SpanFirstQuery retrieval: BM25 top-10 restricted to
    documents where at least one query term occurs within the first
    {SPANFIRST_N} tokens — the "match near the start" gate (title/lead
    proxy when the schema has one text field). Eligibility comes
    ENTIRELY from the positional index: each term's first occurrence
    per doc is the head of its position run (pos[run_start]), so the
    gate costs one gather over the already-read pos_enc columns —
    zero text bytes, work ∝ the query terms' df.

    Scoring is whole-corpus BM25 over eligible docs only (df/N/avgdl
    unrestricted — the filter-query stats contract, same as
    filtered_topk); per-segment scores stay final."""
    from raysearch.pipelines.search_queries import (DOC_QUERIES,
                                                    cached_index)
    from raysearch.query import keep_postings, plan_query
    from raysearch.stats import load_stats

    idx = cached_index(sf_dir, with_positions=True)
    plan, parts = plan_query(idx, load_stats(idx), DOC_QUERIES)
    all_terms = plan.all_terms

    def load(part: int):
        # each term's gate is computed once per part: its docs whose
        # first occurrence — the head of the doc's position run (stored
        # positions are 0-based token ordinals) — is early enough
        post = part_postings(idx, part, all_terms, SCORER_COLUMNS_POS)
        early = {}
        for t, (docs, tfs, _, pos) in post.items():
            starts = np.zeros(len(docs), np.int64)
            np.cumsum(tfs[:-1], out=starts[1:])
            early[t] = docs[pos[starts] <= SPANFIRST_N - 1]
        return post, early

    def score_query(qid, got):
        post, early = got
        qw = plan.qweights[qid]
        elig_parts = [early[t] for t, _ in qw if t in post]
        if not elig_parts:
            return None
        elig = np.unique(np.concatenate(elig_parts))
        if not len(elig):
            return None
        return plan.score(qw, lambda t: (keep_postings(post[t][:3], elig)
                                         if t in post else None))

    kern = _part_kernel(load, len(plan.qweights), score_query,
                        _TOPK_BUFFER)
    return _ranked_from_candidates(
        map_parts(parts, kern, _EMPTY_CAND).to_pandas())


def sql_spanfirst_topk() -> str:
    from raysearch.pipelines.search_queries import (_TOK_CTES, B, K1,
                                                    TOPK,
                                                    _qterms_values)

    return rf"""
WITH {_TOK_CTES},
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
t2 AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS toks
       FROM documents),
ptok AS (
  SELECT doc_id, unnest(toks) AS tok,
         unnest(range(1, len(toks) + 1)) AS pos
  FROM t2
),
elig AS (
  SELECT DISTINCT q.query_id, p.doc_id
  FROM q JOIN ptok p ON p.tok = q.term
  WHERE p.pos <= {SPANFIRST_N}
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
  JOIN elig ON elig.query_id = q.query_id AND elig.doc_id = tf.doc_id
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


# ---- nDCG ranking evaluation ----

def ndcg_eval(sf_dir: str) -> pa.Table:
    """Graded ranking evaluation: nDCG@10 of the BM25 ranking against
    the reference's integer overlap-tf score as graded relevance —
    the zero-human-label eval that scores the modern ranker with the
    legacy scorer's judgments (linear gain: rel / log2(rank + 1)).

    k-bounded by construction: the gains come from the two ranked
    top-10 tables plus ONE candidate probe (_probe_candidates) of the
    query terms' postings at the <= k x |queries| BM25 hit docs; a
    doc's grade is the sum of w x tf over its probe rows."""
    from raysearch.pipelines.search_queries import (DOC_QUERIES,
                                                    bm25_topk,
                                                    cached_index,
                                                    overlap_topk)
    from raysearch.score import query_term_weights

    idx = cached_index(sf_dir)
    bm = bm25_topk(sf_dir).to_pandas()
    ov = overlap_topk(sf_dir).to_pandas()
    qweights = [query_term_weights(q) for q in DOC_QUERIES]
    hits = _probe_candidates(idx, qweights, _candidates_by_query(bm))
    grades = (hits.assign(rel=hits.w * hits.tf)
              .groupby(["query_id", "doc_id"], as_index=False)["rel"]
              .sum())
    bm = bm.merge(grades, on=["query_id", "doc_id"], how="left")
    bm["rel"] = bm["rel"].fillna(0).astype(np.int64)
    rows = []
    for qid in range(len(DOC_QUERIES)):
        g = bm[bm.query_id == qid].sort_values("rank")
        dcg = float((g.rel.to_numpy(np.float64)
                     / np.log2(g["rank"].to_numpy(np.float64) + 1)).sum())
        i = ov[ov.query_id == qid].sort_values("rank")
        idcg = float((i.score.to_numpy(np.float64)
                      / np.log2(i["rank"].to_numpy(np.float64) + 1)).sum())
        ndcg = dcg / idcg if idcg > 0 else 0.0
        rows.append((qid, float(round6(dcg)), float(round6(idcg)),
                     float(round6(ndcg))))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "dcg": pa.array([r[1] for r in rows], pa.float64()),
        "idcg": pa.array([r[2] for r in rows], pa.float64()),
        "ndcg": pa.array([r[3] for r in rows], pa.float64()),
    })


def sql_ndcg_eval() -> str:
    from raysearch.pipelines.search_queries import (_TOK_CTES, TOPK,
                                                    _qterms_values,
                                                    sql_bm25_topk)

    return f"""
WITH b AS ({sql_bm25_topk()}),
{_TOK_CTES},
q(query_id, term, w) AS (VALUES {_qterms_values(False)}),
qs AS (SELECT DISTINCT query_id FROM q),
ovs AS (
  SELECT q.query_id, tf.doc_id, sum(q.w * tf.tf)::BIGINT AS score
  FROM q JOIN tf ON q.term = tf.term
  GROUP BY q.query_id, tf.doc_id
),
ovr AS (
  SELECT query_id, doc_id, score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id) AS rank
  FROM ovs
),
dcg AS (
  SELECT b.query_id,
         sum(coalesce(o.score, 0) / log2(b.rank + 1)) AS dcg
  FROM b LEFT JOIN ovs o
    ON o.query_id = b.query_id AND o.doc_id = b.doc_id
  GROUP BY b.query_id
),
idcg AS (
  SELECT query_id, sum(score / log2(rank + 1)) AS idcg
  FROM ovr WHERE rank <= {TOPK} GROUP BY query_id
)
SELECT qs.query_id::BIGINT AS query_id,
       round(coalesce(dcg.dcg, 0), 6) AS dcg,
       round(coalesce(idcg.idcg, 0), 6) AS idcg,
       round(CASE WHEN coalesce(idcg.idcg, 0) = 0 THEN 0
                  ELSE coalesce(dcg.dcg, 0) / idcg.idcg END, 6) AS ndcg
FROM qs
LEFT JOIN dcg ON dcg.query_id = qs.query_id
LEFT JOIN idcg ON idcg.query_id = qs.query_id
"""


# ---- learning-to-rank feature export ----

def ltr_features(sf_dir: str) -> pa.Table:
    """Learning-to-rank training-data export: for every (query, doc)
    in the BM25 top-10, the standard LTR feature row — bm25 score,
    integer overlap score, doc length, matched-distinct-term count,
    total query-term hits, and the first query-term token position —
    every feature computed FROM THE INDEX (the export a ranking-model
    training pipeline consumes; zero text bytes).

    Plan: rides two existing k-bounded pipelines (bm25_topk for the
    candidates + hit_positions_topk for n_hits/first_pos) plus ONE
    candidate probe (_probe_candidates) for overlap (sum of w x tf),
    dl and the distinct-term count (probe rows per doc) — work ∝
    query-term df, output = k x Q rows."""
    from raysearch.pipelines.search_queries import (DOC_QUERIES,
                                                    bm25_topk,
                                                    cached_index,
                                                    hit_positions_topk)
    from raysearch.score import query_term_weights

    base = hit_positions_topk(sf_dir).to_pandas()
    # base: query_id, doc_id, rank, first_pos, n_hits — but not the
    # bm25 score; re-attach it from the ranked pipeline
    bm = bm25_topk(sf_dir).to_pandas()
    base = base.merge(bm[["query_id", "doc_id", "score"]],
                      on=["query_id", "doc_id"])

    idx = cached_index(sf_dir)
    qweights = [query_term_weights(q) for q in DOC_QUERIES]
    hits = _probe_candidates(idx, qweights, _candidates_by_query(base))
    feats = (hits.assign(overlap=hits.w * hits.tf)
             .groupby(["query_id", "doc_id"], as_index=False)
             .agg(overlap=("overlap", "sum"), dl=("dl", "first"),
                  n_terms_matched=("term", "size")))
    out = base.merge(feats, on=["query_id", "doc_id"], how="inner")
    out = out.sort_values(["query_id", "rank"], ignore_index=True)
    return pa.table({
        "query_id": pa.array(out.query_id.to_numpy(np.int64), pa.int64()),
        "doc_id": pa.array(out.doc_id.to_numpy(np.int64), pa.int64()),
        "rank": pa.array(out["rank"].to_numpy(np.int64), pa.int64()),
        "bm25": pa.array(out.score.to_numpy(np.float64), pa.float64()),
        "overlap": pa.array(out.overlap.to_numpy(np.int64), pa.int64()),
        "dl": pa.array(out.dl.to_numpy(np.int64), pa.int64()),
        "n_terms_matched": pa.array(
            out.n_terms_matched.to_numpy(np.int64), pa.int64()),
        "n_hits": pa.array(out.n_hits.to_numpy(np.int64), pa.int64()),
        "first_pos": pa.array(out.first_pos.to_numpy(np.int64),
                              pa.int64()),
    })


def sql_ltr_features() -> str:
    from raysearch.pipelines.search_queries import (_TOK_CTES,
                                                    _qterms_values,
                                                    sql_bm25_topk)

    return f"""
WITH b AS ({sql_bm25_topk()}),
{_TOK_CTES},
q(query_id, term, w) AS (VALUES {_qterms_values(False)}),
t2 AS (SELECT doc_id, regexp_extract_all(lower(text), '\\S+') AS toks
       FROM documents),
ptok AS (
  SELECT doc_id, unnest(toks) AS tok,
         unnest(range(1, len(toks) + 1)) AS pos
  FROM t2
),
feat AS (
  SELECT q.query_id, tf.doc_id,
         sum(q.w * tf.tf)::BIGINT AS overlap,
         count(*)::BIGINT AS n_terms_matched
  FROM q JOIN tf ON q.term = tf.term
  GROUP BY q.query_id, tf.doc_id
),
posf AS (
  SELECT q.query_id, p.doc_id, min(p.pos)::BIGINT AS first_pos,
         count(*)::BIGINT AS n_hits
  FROM q JOIN ptok p ON p.tok = q.term
  GROUP BY q.query_id, p.doc_id
)
SELECT b.query_id, b.doc_id, b.rank, b.score AS bm25,
       feat.overlap, dl.dl, feat.n_terms_matched,
       posf.n_hits, posf.first_pos
FROM b
JOIN feat ON feat.query_id = b.query_id AND feat.doc_id = b.doc_id
JOIN dl ON dl.doc_id = b.doc_id
JOIN posf ON posf.query_id = b.query_id AND posf.doc_id = b.doc_id
"""


# ---- percolation (reverse search) ----

# the incoming-document stream: a deterministic 1-in-50 slice of the
# corpus plays the "new documents" role
PERCOLATE_MOD = 50


@fmt_doc(PERCOLATE_MOD=PERCOLATE_MOD)
def percolate_docs(sf_dir: str) -> pa.Table:
    """Reverse search (the Lucene/Elasticsearch percolator): the
    DOC_QUERIES set is STORED as alert subscriptions, and each
    incoming document (doc_id % {PERCOLATE_MOD} == 0 plays the
    stream) reports which stored queries it satisfies — conjunction
    semantics, every distinct query term present in the document (the
    percolator's candidate-match gate).

    Plan: map-only — the tiny stored-query term sets broadcast in the
    task closure; each batch tokenizes its docs once (the shared
    Arrow kernel), builds one sorted unique term array per doc, and
    checks each query with searchsorted membership. No index, no
    exchange: percolation is a scan property of the incoming stream,
    work ∝ stream bytes (at production scale the stored queries form
    a term->query inverted index in each actor's __init__; with Q=10
    the closure form is the same plan)."""
    import ray.data

    from raysearch.pipelines.search_queries import (DOC_QUERIES,
                                                    _concat_ds,
                                                    _docs_path)
    from raysearch.pipelines.textops import _tokens
    from raysearch.score import query_term_weights

    qterms = [sorted({t for t, _ in query_term_weights(q)})
              for q in DOC_QUERIES]
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "query_id": pa.array([], pa.int64())})

    def kern(batch: pa.Table) -> pa.Table:
        keep = batch["doc_id"].to_numpy() % PERCOLATE_MOD == 0
        sub = batch.filter(pa.array(keep))
        if sub.num_rows == 0:
            return empty
        toks = _tokens(sub)
        ids = sub["doc_id"].to_numpy()
        offs = np.asarray(toks.offsets)
        flat = np.asarray(toks.values.to_pandas(), dtype=object)
        out_d, out_q = [], []
        for i in range(len(ids)):
            terms = np.unique(flat[offs[i]:offs[i + 1]])
            for qid, ts in enumerate(qterms):
                if not ts:
                    # a token-less stored query (pure punctuation)
                    # matches nothing — the all() below would be
                    # vacuously True, inverting the oracle's join gate
                    continue
                p = np.searchsorted(terms, ts)
                p_c = np.clip(p, 0, max(0, len(terms) - 1))
                if len(terms) and (terms[p_c] == ts).all():
                    out_d.append(int(ids[i]))
                    out_q.append(qid)
        if not out_d:
            return empty
        return pa.table({"doc_id": pa.array(out_d, pa.int64()),
                         "query_id": pa.array(out_q, pa.int64())})

    ds = ray.data.read_parquet(_docs_path(sf_dir),
                               columns=["doc_id", "text"])
    out = _concat_ds(ds.map_batches(
        kern, batch_format="pyarrow", zero_copy_batch=True),
        empty).to_pandas()
    out = out.sort_values(["doc_id", "query_id"], ignore_index=True)
    return pa.table({
        "doc_id": pa.array(out.doc_id.to_numpy(np.int64), pa.int64()),
        "query_id": pa.array(out.query_id.to_numpy(np.int64),
                             pa.int64()),
    })


def sql_percolate_docs() -> str:
    from raysearch.pipelines.search_queries import (_TOK_CTES,
                                                    _qterms_values)

    return f"""
WITH {_TOK_CTES},
q(query_id, term, w) AS (VALUES {_qterms_values(False)}),
qsize AS (SELECT query_id, count(DISTINCT term) AS n FROM q
          GROUP BY query_id),
stream AS (SELECT DISTINCT doc_id FROM documents
           WHERE doc_id % {PERCOLATE_MOD} = 0),
hits AS (
  SELECT s.doc_id, q.query_id,
         count(DISTINCT q.term)::BIGINT AS n_present
  FROM stream s
  JOIN tf ON tf.doc_id = s.doc_id
  JOIN q ON q.term = tf.term
  GROUP BY s.doc_id, q.query_id
)
SELECT h.doc_id, h.query_id::BIGINT AS query_id
FROM hits h JOIN qsize ON qsize.query_id = h.query_id
WHERE h.n_present = qsize.n
"""


def qpp_stats(sf_dir: str) -> pa.Table:
    """Pre-retrieval query-performance prediction (He & Ounis 2004's
    idf statistics; Zhao, Scholer & Tsegay 2008's SCQ): per query,
    difficulty predictors computed ENTIRELY from the lexicon and the
    collection stats — zero posting or text bytes. This is the
    planning-time signal a query router uses to pick effort (prune
    level, rescore depth, timeout) BEFORE touching postings; at
    100 TB the lexicon read is the same term-filtered fragment read
    every query already performs for df.

    Columns per query: n_terms (distinct tokenized terms), n_present
    (terms with df > 0), max_idf / avg_idf (BM25 idf over present
    terms), scq (sum over present terms of (1 + ln cf) * idf).
    Queries with no collection-present term emit no row (no evidence,
    no prediction — the retrieval ops' convention)."""
    from raysearch.pipelines.search_queries import (DOC_QUERIES,
                                                    cached_index)
    from raysearch.query import lexicon_lookup
    from raysearch.score import bm25_idf, query_term_weights
    from raysearch.stats import load_stats

    idx = cached_index(sf_dir)
    n_docs = load_stats(idx)["n_docs"]
    qterms = [[t for t, _ in query_term_weights(q)] for q in DOC_QUERIES]
    all_terms = sorted({t for ts in qterms for t in ts})
    df, cf = lexicon_lookup(idx, all_terms)
    out = {"query_id": [], "n_terms": [], "n_present": [],
           "max_idf": [], "avg_idf": [], "scq": []}
    for qid, ts in enumerate(qterms):
        present = [t for t in ts if df.get(t, 0) > 0]
        if not present:
            continue
        idfs = np.array([bm25_idf(df[t], n_docs) for t in present],
                        np.float64)
        cfs = np.array([float(cf[t]) for t in present], np.float64)
        out["query_id"].append(qid)
        out["n_terms"].append(len(ts))
        out["n_present"].append(len(present))
        out["max_idf"].append(round6(float(np.max(idfs))))
        # avg mirrors SQL's avg(): sum / count
        out["avg_idf"].append(round6(float(np.sum(idfs)) / len(present)))
        out["scq"].append(round6(float(np.sum((1.0 + np.log(cfs))
                                              * idfs))))
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.int64()),
        "n_terms": pa.array(out["n_terms"], pa.int64()),
        "n_present": pa.array(out["n_present"], pa.int64()),
        "max_idf": pa.array(out["max_idf"], pa.float64()),
        "avg_idf": pa.array(out["avg_idf"], pa.float64()),
        "scq": pa.array(out["scq"], pa.float64()),
    })


def _qpp_qvalues() -> str:
    from raysearch.pipelines.search_queries import DOC_QUERIES
    from raysearch.score import query_term_weights

    rows = []
    for qid, q in enumerate(DOC_QUERIES):
        for term, _ in query_term_weights(q):
            rows.append(f"({qid}, '{term}')")
    return ", ".join(rows)


def sql_qpp_stats() -> str:
    from raysearch.pipelines.search_queries import _TOK_CTES

    idf = "ln(1 + (s.n_docs - lex.df + 0.5) / (lex.df + 0.5))"
    return f"""
WITH {_TOK_CTES},
stats AS (SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs),
lex AS (SELECT term, count(*)::DOUBLE AS df, sum(tf)::DOUBLE AS cf
        FROM tf GROUP BY term),
q(query_id, term) AS (VALUES {_qpp_qvalues()}),
nt AS (SELECT query_id, count(*)::BIGINT AS n_terms
       FROM q GROUP BY query_id),
j AS (
  SELECT q.query_id, {idf} AS idf, (1 + ln(lex.cf)) * {idf} AS scq_t
  FROM q JOIN lex ON q.term = lex.term CROSS JOIN stats s
)
SELECT j.query_id::BIGINT AS query_id, nt.n_terms,
       count(*)::BIGINT AS n_present,
       round(max(idf), 6) AS max_idf,
       round(avg(idf), 6) AS avg_idf,
       round(sum(scq_t), 6) AS scq
FROM j JOIN nt USING (query_id)
GROUP BY j.query_id, nt.n_terms
"""


# ---- multi-field retrieval (ES multi_match "most_fields") ----

# the derived title field: the leading TITLE_K tokens of each doc (a
# deterministic second field on this schema; on the north-rule code
# mandate's (repo, path, commit, lang, content) table the title field
# is simply `path` — same plan, no derivation). Field weights are
# exactly representable so engine and oracle multiply bit-identically.
TITLE_K = 8
W_TITLE, W_BODY = 2.0, 1.0


def _title_corpus(sf_dir: str):
    """documents -> (doc_id, content = the first TITLE_K tokens
    re-joined). Vectorized: list_slice over the tokenized ListArray +
    one binary_join — no per-row Python."""
    import ray.data

    from raysearch.pipelines.textops import _tokens

    def head(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch)
        content = pc.binary_join(
            pc.list_slice(toks, 0, TITLE_K),
            pa.scalar(" ", pa.large_string()))
        return pa.table({"doc_id": batch["doc_id"],
                         "content": pc.cast(content, pa.string())})

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return ds.map_batches(head, batch_format="pyarrow",
                          zero_copy_batch=True)


def cached_title_index(sf_dir: str) -> str:
    """Build (or resume) the TITLE-field segment index — same build
    pipeline and num_parts as cached_index, so part p of the title
    index holds exactly the docs of part p of the body index (same
    doc-hash partitioning), and a per-part field-sum is final."""
    import hashlib

    from raysearch.build import build_index
    from raysearch.config import IndexConfig
    from raysearch.pipelines.search_queries import (B, K1, _docs_path,
                                                    _source_fingerprint)

    key = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    idx = os.path.join("/tmp", "raysearch_cache", f"docidx-{key}-title")
    os.makedirs(idx, exist_ok=True)
    cfg = IndexConfig(num_parts=8, k1=K1, b=B)
    input_id = (f"title:{TITLE_K}:{os.path.abspath(sf_dir)}"
                f"@{_source_fingerprint(_docs_path(sf_dir))}")
    build_index(_title_corpus(sf_dir), idx, cfg, input_id=input_id)
    return idx


@fmt_doc(K=TITLE_K, wt=W_TITLE, wb=W_BODY)
def multifield_topk(sf_dir: str) -> pa.Table:
    """Multi-field retrieval (the ES multi_match "most_fields" /
    Lucene per-field BM25 sum — the sibling of dismax_topk's
    "best_fields" max): score(q,d) = {wb} * bm25_body(q,d) + {wt} *
    bm25_title(q,d), where the title field is the doc's leading-{K}
    token prefix indexed as its OWN segment index with its own field
    statistics (title df/N/avgdl), exactly Lucene's per-field norms.

    Exactness of the distributed plan: both indexes share doc-hash
    partitioning (same num_parts), so part p holds the same docs
    in both fields; the field-sum is computed part-locally over the
    union of the part's candidates and per-part top-k is final — no
    cross-part score re-aggregation, no post-hoc merge of per-field
    top-k lists (a doc strong in both fields but top-k in neither
    would escape that rewrite; it cannot escape this one)."""
    from raysearch.pipelines.search_queries import (DOC_QUERIES,
                                                    cached_index)
    from raysearch.query import plan_query
    from raysearch.stats import load_stats

    bidx = cached_index(sf_dir)
    tidx = cached_title_index(sf_dir)
    stb, stt = load_stats(bidx), load_stats(tidx)
    assert stb["config"]["num_parts"] == stt["config"]["num_parts"]
    # one plan per field index: each carries its own field statistics
    body, parts = plan_query(bidx, stb, DOC_QUERIES)
    title = plan_query(tidx, stt, DOC_QUERIES)[0]
    all_terms = body.all_terms

    def load(part: int):
        return (part_postings(bidx, part, all_terms),
                part_postings(tidx, part, all_terms))

    def score_query(qid, post):
        pb, pt = post
        qw = body.qweights[qid]
        db, sb = body.score(qw, pb.get)
        dt, st_ = title.score(qw, pt.get)
        if not len(db) and not len(dt):
            return None
        # field sum over the union — body contribution first, matching
        # the oracle's W_BODY*b + W_TITLE*t order
        uniq, inv = np.unique(np.concatenate([db, dt]),
                              return_inverse=True)
        comb = np.zeros(len(uniq), np.float64)
        np.add.at(comb, inv, np.concatenate([W_BODY * sb, W_TITLE * st_]))
        return uniq, comb

    kern = _part_kernel(load, len(body.qweights), score_query,
                        _TOPK_BUFFER)
    return _ranked_from_candidates(
        map_parts(parts, kern, _EMPTY_CAND).to_pandas())


def sql_multifield_topk() -> str:
    from raysearch.pipelines.search_queries import (B, K1, TOPK,
                                                    _TOK_CTES,
                                                    _qterms_values)

    def bm25(tf, dfr, dl, avg):
        return (f"sum(q.w * ln(1 + (s.n_docs - {dfr}.df + 0.5) / "
                f"({dfr}.df + 0.5)) * ({tf}.tf * ({K1} + 1)) / "
                f"({tf}.tf + {K1} * (1 - {B} + {B} * {dl}.dl / {avg})))")

    return f"""
WITH {_TOK_CTES},
ttok AS (
  SELECT doc_id,
         unnest((regexp_extract_all(lower(text), '\\S+'))[1:{TITLE_K}])
           AS term
  FROM documents
),
tdl AS (
  SELECT doc_id,
         least(len(regexp_extract_all(text, '\\S+')),
               {TITLE_K})::BIGINT AS dl
  FROM documents
),
ttf AS (SELECT doc_id, term, count(*)::BIGINT AS tf
        FROM ttok GROUP BY doc_id, term),
bdf AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
tdf AS (SELECT term, count(*)::DOUBLE AS df FROM ttf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl_b,
         (SELECT sum(dl) FROM tdl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl_t
),
q(query_id, term, w) AS (VALUES {_qterms_values(True)}),
bscore AS (
  SELECT q.query_id, tf.doc_id, {bm25('tf', 'bdf', 'dl', 's.avgdl_b')}
           AS score
  FROM q
  JOIN tf ON q.term = tf.term
  JOIN bdf ON q.term = bdf.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, tf.doc_id
),
tscore AS (
  SELECT q.query_id, ttf.doc_id, {bm25('ttf', 'tdf', 'tdl', 's.avgdl_t')}
           AS score
  FROM q
  JOIN ttf ON q.term = ttf.term
  JOIN tdf ON q.term = tdf.term
  JOIN tdl ON ttf.doc_id = tdl.doc_id
  CROSS JOIN stats s
  GROUP BY q.query_id, ttf.doc_id
),
comb AS (
  SELECT coalesce(b.query_id, t.query_id) AS query_id,
         coalesce(b.doc_id, t.doc_id) AS doc_id,
         coalesce(b.score, 0) * {W_BODY}
           + coalesce(t.score, 0) * {W_TITLE} AS score
  FROM bscore b
  FULL OUTER JOIN tscore t
    ON b.query_id = t.query_id AND b.doc_id = t.doc_id
),
ranked AS (
  SELECT query_id, doc_id, round(score, 6) AS score,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY round(score, 6) DESC, doc_id) AS rank
  FROM comb
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, score
FROM ranked WHERE rank <= {TOPK}
"""


def sorted_topk(sf_dir: str) -> pa.Table:
    """Field-sorted retrieval (the ES `sort: [{field: desc}]` shape /
    Lucene Sort-by-docvalues with a filter query): per query, the
    top-10 MATCHING docs (>= 1 query term — the filter context; no
    relevance score) ordered by (dl DESC, doc_id ASC), dl being the
    doc-length docvalue the index already stores alongside every
    posting — zero text bytes, candidates df-bounded.

    Exactness: a doc lives in one part, per-part top-k under a total
    order merges associatively (same argument as every k-bounded
    fan-out here). At 100 TB the Lucene answer is index SORTING
    (write segments in field order so the scan early-terminates);
    this query-time form is the semantics contract that such a
    sorted-segment optimization must preserve."""
    from raysearch.pipelines.search_queries import (DOC_QUERIES,
                                                    cached_index)
    from raysearch.score import query_term_weights

    idx = cached_index(sf_dir)
    qterms = [[t for t, _ in query_term_weights(q)] for q in DOC_QUERIES]
    all_terms = sorted({t for ts in qterms for t in ts})

    def score_query(qid, post):
        got = [post[t] for t in qterms[qid] if t in post]
        if not got:
            return None
        uniq, first = np.unique(np.concatenate([g[0] for g in got]),
                                return_index=True)
        dls = np.concatenate([g[2] for g in got])
        return uniq, dls[first].astype(np.float64)

    cand = _part_topk(idx, all_terms, len(qterms), score_query)
    cand = cand.assign(score=cand["score"].astype(np.int64))
    out = _ranked_from_candidates(cand, score_int=True)
    return out.rename_columns(["query_id", "doc_id", "rank", "dl"])


def sql_sorted_topk() -> str:
    from raysearch.pipelines.search_queries import (TOPK, _TOK_CTES,
                                                    _qterms_values)

    return f"""
WITH {_TOK_CTES},
q(query_id, term, w) AS (VALUES {_qterms_values(False)}),
cand AS (SELECT DISTINCT q.query_id, tf.doc_id
         FROM q JOIN tf ON q.term = tf.term),
ranked AS (
  SELECT cand.query_id, cand.doc_id, dl.dl,
         row_number() OVER (PARTITION BY cand.query_id
                            ORDER BY dl.dl DESC, cand.doc_id) AS rank
  FROM cand JOIN dl ON dl.doc_id = cand.doc_id
)
SELECT query_id::BIGINT AS query_id, doc_id, rank, dl
FROM ranked WHERE rank <= {TOPK}
"""


# ---- search-as-you-type ----

# partial queries as a user types them: every token but the last is
# complete, the LAST is an in-flight prefix. 'merge so' -> sort (+any
# sort*); 'merge sort' pins the exact-term-prefix collision (the
# prefix expands onto itself); 'fast zz' pins a dead prefix (query
# survives on its exact terms); 'b ba' pins a one-letter-wide fanout
SAYT_QUERIES: list[str] = [
    "merge so",
    "fast ha",
    "window ba",
    "slow qu",
    "merge sort",
    "fast zz",
    "b ba",
]


def sayt_expansions(queries: list[str], vocab: list[str]
                    ) -> list[list[tuple[str, int]]]:
    """Per query: exact weights for every token but the last, plus the
    last token prefix-expanded over the lexicon (prefix_expansions'
    range-scan rule); expansions colliding with exact tokens add —
    the ES search_as_you_type / Lucene edge-prefix composition."""
    from raysearch.tokenize import tokenize_query

    svocab = sorted(vocab)
    out = []
    for q in queries:
        toks = tokenize_query(q)
        agg: dict[str, int] = {}
        for t in toks[:-1]:
            agg[t] = agg.get(t, 0) + 1
        if toks:
            _expand_prefix(toks[-1], svocab, agg)
        out.append(sorted(agg.items()))
    return out


def sayt_topk(sf_dir: str) -> pa.Table:
    """Search-as-you-type retrieval (the ES search_as_you_type field
    semantics): completed tokens match exactly, the trailing
    in-flight token is a PREFIX — both scored BM25 through the same
    k-bounded fan-out as bm25_topk. Same lexicon range-scan expansion
    as prefix_topk (never a corpus pass), so the incremental-typing
    query shape costs the same as a committed query plus one
    lexicon-fragment probe. The reference tokenizes the whole input
    as complete `\\w+` words (/root/reference/src/lib.rs:374-411) and
    cannot express an in-flight prefix."""
    import pyarrow.dataset as pads

    from raysearch.pipelines.search_queries import (cached_index,
                                                    topk_rounded_for_index)

    idx = cached_index(sf_dir)
    vocab = pads.dataset(os.path.join(idx, "lexicon")).to_table(
        columns=["term"])["term"].to_pylist()
    qx = sayt_expansions(SAYT_QUERIES, vocab)
    return topk_rounded_for_index(idx, "bm25", queries=qx)


def _sayt_qvalues() -> str:
    from raysearch.tokenize import tokenize_query

    rows = []
    for qid, q in enumerate(SAYT_QUERIES):
        toks = tokenize_query(q)
        for t in toks[:-1]:
            rows.append(f"({qid}, '{t}', 1, 0)")
        if toks:
            rows.append(f"({qid}, '{toks[-1]}', 1, 1)")
    return ", ".join(rows)


def sql_sayt_topk() -> str:
    # starts_with, not LIKE: '_' is a \w character AND a LIKE
    # single-char wildcard, so a LIKE-based expansion would silently
    # wildcard-match a prefix like 'col_na' that the engine's
    # startswith treats literally
    from raysearch.pipelines.search_queries import _TOK_CTES, B, K1, TOPK

    return f"""
WITH {_TOK_CTES},
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n_docs,
         (SELECT sum(dl) FROM dl)::DOUBLE
           / (SELECT count(*) FROM documents) AS avgdl
),
q(query_id, term, w, isp) AS (VALUES {_sayt_qvalues()}),
vocab AS (SELECT DISTINCT term FROM tf),
qx AS (
  SELECT q.query_id, v.term, sum(q.w)::DOUBLE AS w
  FROM q JOIN vocab v
    ON (q.isp = 1 AND starts_with(v.term, q.term))
    OR (q.isp = 0 AND v.term = q.term)
  GROUP BY q.query_id, v.term
),
scores AS (
  SELECT qx.query_id, tf.doc_id,
         sum(qx.w * ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * (tf.tf * ({K1} + 1))
             / (tf.tf + {K1} * (1 - {B} + {B} * dl.dl / s.avgdl))) AS score
  FROM qx
  JOIN tf ON qx.term = tf.term
  JOIN df ON qx.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id
  CROSS JOIN stats s
  GROUP BY qx.query_id, tf.doc_id
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


QUERIES = {
    "qpp_stats": qpp_stats,
    "sayt_topk": sayt_topk,
    "multifield_topk": multifield_topk,
    "sorted_topk": sorted_topk,
    "dismax_topk": dismax_topk,
    "fuzzy_topk": fuzzy_topk,
    "prefix_topk": prefix_topk,
    "maxp_topk": maxp_topk,
    "blockjoin_topk": blockjoin_topk,
    "ndcg_eval": ndcg_eval,
    "negated_topk": negated_topk,
    "demote_topk": demote_topk,
    "best_passage_topk": best_passage_topk,
    "spanfirst_topk": spanfirst_topk,
    "ltr_features": ltr_features,
    "percolate_docs": percolate_docs,
    "percolate_scored": percolate_scored,
}

ORACLE_SQL = {
    "qpp_stats": sql_qpp_stats(),
    "sayt_topk": sql_sayt_topk(),
    "multifield_topk": sql_multifield_topk(),
    "sorted_topk": sql_sorted_topk(),
    "dismax_topk": sql_dismax_topk(),
    "fuzzy_topk": sql_fuzzy_topk(),
    "prefix_topk": sql_prefix_topk(),
    "maxp_topk": sql_maxp_topk(),
    "blockjoin_topk": sql_blockjoin_topk(),
    "ndcg_eval": sql_ndcg_eval(),
    "negated_topk": sql_negated_topk(),
    "demote_topk": sql_demote_topk(),
    "best_passage_topk": sql_best_passage_topk(),
    "spanfirst_topk": sql_spanfirst_topk(),
    "ltr_features": sql_ltr_features(),
    "percolate_docs": sql_percolate_docs(),
    "percolate_scored": sql_percolate_scored(),
}
