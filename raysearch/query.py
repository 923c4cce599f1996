"""Query pipeline: batch top-k search over a built index.

The reference serves queries from an unbounded channel into threads
sharing one Arc'd index (/root/reference/src/processor.rs:83-144); its
sharded mode partial-aggregates per-shard scores under locks and
barriers (src/processor.rs:146-369). Here queries are a small broadcast
side and the INDEX is the distributed dimension:

    map_chunks(parts, scorer._score_task_chunk)  # one plain Ray task per
                                                 # CPU, ceil(P / CPUs) parts
      -> T * Q * k candidate rows for T tasks (tiny)
      -> final top-k merge per query (one driver-side lexsort over
         <= T*Q*k rows)

Because segments partition by DOCUMENT hash, each segment computes the
FINAL BM25 score of its docs (global df/N/avgdl are broadcast), so
per-segment top-k is exact and the merge is a k-way selection — no
score re-aggregation, no barriers, and pruning inside a segment stays
safe. (The reference's term-range sharding — where partial scores must
be sum-merged, src/lib.rs:190-226 — is what forced its lock+condvar
dance; doc partitioning dissolves it.) For the same reason a task's
parts are one posting source: their rows for one term join into one
posting list over disjoint docs, and scoring it gives every doc the
score its own part would, so each query is scored once per task, not
once per part (on 1 CPU, a 100-query batch over 8 parts took 89.9 ms
this way against 111.5 ms part by part).

One driver-side plan, plan_query, makes every per-batch decision:
the option check, the parts, df/cf from the lexicon (or ``asof``),
the normalised ``keep``, and the SegmentScorer that carries them.
query_index ships the scorer once to the stateless map_chunks tasks
(raysearch/fanout.py); raysearch/serve.py's QuerySession sends the
same scorer to its resident actors. Both score their set of parts
through the one method, SegmentScorer.score_parts: load the parts'
joined postings, then the keep filter, then SegmentScorer.score_loaded.
They differ only in the loader: a task reads its parts' postings for
the query terms at call time through live_postings (per part, row
groups picked from the footer's term min/max and an exact is_in
filter; the parts' rows concatenated in part order, stable-sorted by
term, then one bulk varint pass per posting column that every term's
arrays are views into; a part listed in stats.json but missing on disk
raises rather than shrinking the top-k) and drops the tombstones read
when the query was called; an actor joins its LRU's per-(part, term)
entries. The driver's df/cf come from
the same footer-pruned term read (segments.read_term_rows) of the
lexicon files. Tasks, actors and the driver all keep parsed footers
in that read's per-process cache, each hit checked against the file's
trailing bytes.

The same plan serves the pipeline ops that reshape scores per part
(dismax, MaxP, collapse, the DSL, rescore, span-NOT, ...): each calls
plan_query(idx, load_stats(idx), queries) once and scores through the
scorer's one unpruned per-query body, SegmentScorer.score(qw, lookup),
over its own lookups; ops that need a single term's contribution read
SegmentScorer.contrib or the bound df / n_docs / avgdl / k1 / b. No
op re-derives stats, df or query weights, and the Dirichlet prior is
the one constant score.DIRICHLET_MU.

Every scoring mode and the knobs it supports come from one table,
raysearch.score.SIMILARITIES; check_query_options validates a query's
knobs and their values once, in plan_query.

Within a task, scoring is exact full evaluation of the query's
joined posting lists (vectorized term-at-a-time accumulation in sorted
term order — the determinism contract shared with the oracle; each
doc sits in one part, so joining reorders no addition). With
prune=True, raysearch/wand.py's one exact MaxScore/block-max pruner
runs instead, part by part, since its blocks need each part's rows
sorted by doc: over the ENCODED rows and their stored block metadata
when a task has nothing to filter, otherwise over the decoded
arrays.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from raysearch.fanout import map_chunks, map_parts
from raysearch.maintenance import filter_postings, load_deletes
from raysearch.numutil import frame_table, rank_cut
from raysearch.score import (
    DIRICHLET_MU,
    SIMILARITIES,
    TermStats,
    as_qweights,
    check_query_options,
    dirichlet_scores,
    score_postings,
    topk,
)
from raysearch.segments import (SCORER_COLUMNS, SCORER_COLUMNS_BMW,
                                decode_postings, has_block_meta,
                                listed_part_dir, read_postings,
                                read_term_rows)
from raysearch.stats import load_stats
from raysearch.wand import (DecodedPostings, LazyPostings,
                            pruned_topk_blockmax)

RESULT_SCHEMA = pa.schema([
    ("query_id", pa.int64()),
    ("rank", pa.int32()),
    ("doc_id", pa.int64()),
    ("score", pa.float64()),
])


def read_queries(path: str) -> list[str]:
    """Query-file source (SURVEY §2.1 S2 — the reference harness reads
    queries.txt lines, /root/reference/src/bin/test.rs:20-32). Returns
    non-empty lines; tokenization happens at scoring time."""
    with open(path, encoding="utf-8") as f:
        return [ln.strip() for ln in f if ln.strip()]


def lexicon_lookup(index_dir: str, terms: list[str]
                   ) -> tuple[dict[str, int], dict[str, int]]:
    """Global (df, cf) for the query terms: one footer-pruned term read
    of every lexicon file (the distributed lexicon build writes
    several). cf is the smoothing denominator of the needs_cf modes."""
    if not terms:
        return {}, {}
    lex_dir = os.path.join(index_dir, "lexicon")
    tbls = [read_term_rows(os.path.join(lex_dir, f), terms,
                           ["term", "df", "cf"])
            for f in sorted(os.listdir(lex_dir)) if f.endswith(".parquet")]
    tbl = pa.concat_tables(tbls)
    got = tbl["term"].to_pylist()
    return (dict(zip(got, tbl["df"].to_pylist())),
            dict(zip(got, tbl["cf"].to_pylist())))


def lexicon_df(index_dir: str, terms: list[str]) -> dict[str, int]:
    """Global df for the query terms."""
    return lexicon_lookup(index_dir, terms)[0]


def asof_df(index_dir: str, parts, terms: list[str]) -> dict[str, int]:
    """Per-generation global df for a snapshot (time-travel) query:
    the sum of each snapshot part's PER-PART df for the query terms.
    Segments are immutable, so the subset sum IS the df the lexicon
    held at that generation. One tiny fan-out over the snapshot parts
    (term-filtered reads of the posting files' narrow (term, df)
    columns — terms x parts rows), never the current global lexicon,
    which already includes later generations. A snapshot part missing
    on disk raises, as on every other query path."""
    if not terms:
        return {}
    empty = pa.table({"term": pa.array([], pa.large_string()),
                      "df": pa.array([], pa.int64())})

    tbl = map_parts(parts, lambda p: read_postings(
        listed_part_dir(index_dir, p), terms, columns=["term", "df"]),
        empty)
    if len(tbl) == 0:
        return {}
    agg = tbl.group_by("term").aggregate([("df", "sum")])
    return dict(zip(agg["term"].to_pylist(), agg["df_sum"].to_pylist()))


def _apply_boost(docs: np.ndarray, sc: np.ndarray, boost):
    """Static document boost (Lucene-style query-time boost list):
    multiply the FINAL accumulated score of every doc in the sorted
    boost-id array by the factor — before top-k truncation, so the
    boosted ranking is exact, not a post-hoc reorder of an unboosted
    top-k. ``boost`` is (sorted int64 ids, float factor) or None."""
    if boost is None or not len(docs):
        return sc
    bids, bf = boost
    pos = np.searchsorted(bids, docs)
    ok = pos < len(bids)
    hit = np.zeros(len(docs), dtype=bool)
    hit[ok] = bids[pos[ok]] == docs[ok]
    sc = sc.astype(np.float64, copy=True)
    sc[hit] *= bf
    return sc


def _gather_dl(docs: np.ndarray, dl_parts) -> np.ndarray:
    """Per-candidate dl from the posting rows already in hand: every
    candidate matched >= 1 term and dl rides alongside tf in the
    decoded postings, so no extra reads or broadcasts. ``docs`` is
    the sorted unique union of the parts' doc arrays; dl is constant
    per doc, so any occurrence may supply it."""
    all_d = np.concatenate([d for d, _ in dl_parts])
    all_l = np.concatenate([l for _, l in dl_parts])
    pos = np.searchsorted(docs, all_d)
    dlv = np.zeros(len(docs), np.float64)
    dlv[pos] = all_l.astype(np.float64)
    return dlv


def _apply_decay(docs: np.ndarray, sc: np.ndarray, dlv, decay):
    """Gaussian length decay (the ES function_score `gauss` shape with
    decay 0.5 at distance ``scale`` from ``origin``): multiply each
    doc's FINAL accumulated score by 0.5 ** (((dl - origin)/scale)^2)
    — before top-k truncation, so the decayed ranking is exact.
    ``dlv`` is the per-candidate dl from _gather_dl (gathered ONCE
    and shared with _apply_rank_feature); ``decay`` is
    (origin, scale) or None."""
    if decay is None or not len(docs):
        return sc
    origin, scale = decay
    # mirrors the oracle SQL term-for-term:
    # pow(0.5, pow((dl - origin) / scale, 2))
    mult = np.power(0.5, ((dlv - origin) / scale) ** 2)
    return sc.astype(np.float64, copy=False) * mult


def _apply_rank_feature(docs: np.ndarray, sc: np.ndarray, dlv,
                        rank_feature):
    """ES rank_feature query (Lucene FeatureField saturation): ADD
    w * dl / (dl + pivot) to each doc's FINAL accumulated score — a
    static per-doc prior blended additively with the text score
    (contrast decay's multiplicative reshaping). Applied before
    top-k truncation, so the blended ranking is exact; ``dlv`` is
    the shared per-candidate dl gather. ``rank_feature`` is
    (w, pivot) or None."""
    if rank_feature is None or not len(docs):
        return sc
    w, pivot = rank_feature
    # mirrors the oracle SQL term-for-term: w * (dl / (dl + pivot))
    return sc.astype(np.float64, copy=False) + w * (dlv / (dlv + pivot))


def score_queries_over_postings(
        qweights, postings: dict, max_tfs: dict, df: dict,
        n_docs: int, avgdl: float, k1: float, b: float, k: int,
        mode: str, prune: bool = False,
        cf: dict | None = None, total_tokens: int = 0,
        boost=None, decay=None, rank_feature=None) -> pa.Table:
    """Score a query batch against one segment's (already decoded)
    postings: SegmentScorer.score_loaded over the given stats. Doc-hash
    partitioning makes these per-segment scores FINAL, so per-segment
    top-k is exact (see module docstring). The knobs are validated
    once at the entry (check_query_options), not here."""
    return SegmentScorer(
        "", qweights, k, mode, df, n_docs, avgdl, k1, b, prune, cf,
        total_tokens, boost=boost, decay=decay,
        rank_feature=rank_feature).score_loaded(postings, max_tfs)


def topk_table(per_query) -> pa.Table:
    """(query_id, rank, doc_id, score) rows from each query's ranked
    (doc_ids, scores) pair, query_id being the pair's position."""
    lens = np.array([len(d) for d, _ in per_query], np.int64)
    if not lens.sum():
        return RESULT_SCHEMA.empty_table()
    starts = np.repeat(np.cumsum(lens) - lens, lens)
    return pa.table({
        "query_id": np.repeat(np.arange(len(lens), dtype=np.int64), lens),
        "rank": (np.arange(lens.sum()) - starts + 1).astype(np.int32),
        "doc_id": np.concatenate([d for d, _ in per_query]).astype(np.int64),
        "score": np.concatenate([s for _, s in per_query]).astype(np.float64),
    }, schema=RESULT_SCHEMA)


def merge_candidates(cand: pd.DataFrame, n_queries: int, k: int) -> pa.Table:
    """Final top-k per query from the P*Q*k candidate rows (k-bounded
    by construction — a driver-side selection, not a shuffle):
    numutil.rank_cut by (-score, doc_id) within each query."""
    if cand.empty:  # Ray's to_pandas() of zero rows has no columns
        return RESULT_SCHEMA.empty_table()
    return frame_table(rank_cut(cand, [("score", False), ("doc_id", True)],
                                k, "query_id"), RESULT_SCHEMA)


def keep_postings(decoded: tuple, keep: np.ndarray) -> tuple:
    """Restrict one decoded posting row (docs, tfs, dls) to the
    ALLOWLISTED docs. ``keep`` sorted unique; an empty allowlist
    matches nothing (the caller passes None for "no filter")."""
    docs, tfs, dls = decoded
    if len(keep) == 0:
        z = np.zeros(0, docs.dtype)
        return z, tfs[:0], dls[:0]
    idx = np.searchsorted(keep, docs)
    idx[idx == len(keep)] = len(keep) - 1
    m = keep[idx] == docs
    if m.all():
        return decoded
    return docs[m], tfs[m], dls[m]


def live_postings(index_dir: str, parts: list[int], terms: list[str],
                  deleted: np.ndarray | None) -> tuple[dict, dict]:
    """(postings, max_tfs) of the ``terms`` the segments ``parts``
    hold, joined: each part's footer-pruned term rows, concatenated in
    part order and stable-sorted by term, then one bulk decode
    (segments.decode_postings), so a term's rows from every part are
    one view. The tombstoned docs are dropped. max_tf is the largest
    stored ``max_tf`` of the term's rows: for live docs it is still a
    valid UPPER bound, which is all the pruner needs."""
    tbl = pa.concat_tables([
        read_postings(listed_part_dir(index_dir, p), terms,
                      columns=SCORER_COLUMNS) for p in parts])
    if len(parts) > 1:
        tbl = tbl.sort_by("term")  # stable: part order within a term
    postings = decode_postings(tbl)
    mt = tbl.group_by("term", use_threads=False).aggregate(
        [("max_tf", "max")])
    max_tfs = dict(zip(mt["term"].to_pylist(), mt["max_tf_max"].to_pylist()))
    if deleted is not None:
        postings = {t: filter_postings(p, deleted)
                    for t, p in postings.items()}
    return postings, max_tfs


class SegmentScorer:
    """One query batch's scoring plan, built driver-side by
    plan_query: queries, global df and stats are bound here. It is
    the one scoring core: ``score(qw, lookup)`` is the unpruned
    per-query body, ``score_loaded`` scores a batch over decoded
    postings (pruned or not), and ``score_parts`` serves both the
    stateless map_chunks tasks (through ``_score_task_chunk``, their
    kernel) and the resident SegmentServer actors
    (raysearch/serve.py), which differ only in the loader they pass.
    Pipeline ops that reshape scores per part call ``score`` over
    their own lookups and read the bound df / n_docs / avgdl / k1 / b,
    or ``contrib``, for a single term's contribution."""

    def __init__(self, index_dir: str, qweights: list, k: int,
                 mode: str, df: dict[str, int], n_docs: int, avgdl: float,
                 k1: float, b: float, prune: bool = False,
                 cf: dict[str, int] | None = None, total_tokens: int = 0,
                 deleted: np.ndarray | None = None,
                 boost=None,
                 keep: np.ndarray | None = None,
                 decay=None,
                 rank_feature=None):
        self.index_dir = index_dir
        self.k, self.mode = k, mode
        self.df, self.n_docs, self.avgdl = df, n_docs, avgdl
        self.k1, self.b = k1, b
        self.prune = prune
        self.cf, self.total_tokens = cf, total_tokens
        self.boost = boost
        self.decay = decay
        self.rank_feature = rank_feature
        # sorted unique tombstoned doc_ids (maintenance.delete_docs) for
        # the one-shot loader, read when the query is called. Stats
        # stay build-time — the standard stale-stats-until-compaction
        # semantics — but tombstoned docs are filtered from every
        # posting list before scoring, so top-k back-fills from live
        # docs. Resident actors filter their own session-start copy.
        self.deleted = (deleted if deleted is not None and len(deleted)
                        else None)
        # sorted unique ALLOWLIST of doc_ids (Lucene filter-query
        # semantics: df/N/avgdl stay whole-corpus, only eligible docs
        # are scored — the mirror image of the tombstone path). None
        # means no filter; an EMPTY array legitimately matches nothing.
        # Broadcast with the scorer like `deleted`; at 100 TB a
        # high-cardinality filter should instead be stored as a
        # per-segment attribute bitmap at build time (same layout as
        # the tombstone files) — this array form is for query-time
        # ad-hoc filters whose id set fits an object-store broadcast.
        self.keep = keep
        self.qweights = qweights  # one [(term, weight), ...] per query
        self.all_terms = sorted({t for qw in self.qweights for t, _ in qw})

    def contrib(self, term: str, w: int, tfs: np.ndarray,
                dls: np.ndarray) -> np.ndarray:
        """One term's per-posting contribution under the plan's mode
        and stats — the addends score() sums."""
        return SIMILARITIES[self.mode].contrib(tfs, dls, w, TermStats(
            self.df.get(term, 0), (self.cf or {}).get(term, 0),
            self.n_docs, self.avgdl, self.total_tokens, self.k1, self.b))

    def score(self, qw, lookup) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, scores) of one query over ``lookup(term) ->
        (docs, tfs, dls) | None``, every matched doc scored (no
        pruning, no top-k cut): the mode's contributions, then the
        boost, decay and rank_feature reshaping."""
        if SIMILARITIES[self.mode].contrib is None:  # dirichlet
            return dirichlet_scores(qw, lookup, self.cf or {},
                                    self.total_tokens, DIRICHLET_MU)
        docs, sc = score_postings(qw, lookup, self.df, self.n_docs,
                                  self.avgdl, self.k1, self.b, self.mode,
                                  self.cf, self.total_tokens)
        sc = _apply_boost(docs, sc, self.boost)
        if len(docs) and (self.decay is not None
                          or self.rank_feature is not None):
            got = (lookup(t) for t, _ in qw)
            dlv = _gather_dl(docs, [(p[0], p[2]) for p in got
                                    if p is not None])
            sc = _apply_decay(docs, sc, dlv, self.decay)
            sc = _apply_rank_feature(docs, sc, dlv, self.rank_feature)
        return docs, sc

    def score_loaded(self, postings: dict, max_tfs: dict) -> pa.Table:
        """Candidates of the batch over decoded ``postings`` (term ->
        (docs, tfs, dls)): each query's top-k, through the block-max
        pruner with ``prune`` (one part's rows: its blocks need docs
        sorted), else through score()."""
        if self.prune:
            # one block view of the part for the whole batch: each
            # term's block first doc / max tf is computed once, not
            # once per query
            view = DecodedPostings(postings, max_tfs)
            return topk_table([pruned_topk_blockmax(
                qw, view, self.df, self.n_docs, self.avgdl, self.k1,
                self.b, self.k, self.mode) for qw in self.qweights])
        return topk_table([topk(*self.score(qw, postings.get), self.k)
                           for qw in self.qweights])

    def score_parts(self, parts: list[int], load) -> pa.Table:
        """Candidates of a set of parts: ``load(parts, terms) ->
        (postings, max_tfs)`` joins their postings with tombstones
        already dropped, then the keep filter, then score_loaded. Each
        doc sits in one part, so the joined scores and the per-task
        top-k under (-score, doc_id) are the parts' own. With
        ``prune`` the parts are loaded and scored one by one."""
        if self.prune and len(parts) > 1:
            return pa.concat_tables([self.score_parts([p], load)
                                     for p in parts])
        postings, max_tfs = load(parts, self.all_terms)
        if self.keep is not None:
            postings = {t: keep_postings(p, self.keep)
                        for t, p in postings.items()}
        return self.score_loaded(postings, max_tfs)

    def _load(self, parts: list[int], terms: list[str]
              ) -> tuple[dict, dict]:
        return live_postings(self.index_dir, parts, terms, self.deleted)

    def _score_task_chunk(self, parts: list[int]) -> pa.Table:
        if not (self.prune and self.deleted is None and self.keep is None):
            return self.score_parts(parts, self._load)
        outs = []
        for part in parts:
            part_dir = listed_part_dir(self.index_dir, part)
            if not has_block_meta(part_dir):
                outs.append(self.score_parts([part], self._load))
                continue
            # stored block-max skip path: posting rows stay ENCODED and
            # the pruner decodes only the blocks its interval sweep
            # proves can matter. Filtering needs the full arrays, so
            # tombstones and keep take the decoded view instead.
            lazy = LazyPostings(read_postings(part_dir, self.all_terms,
                                              columns=SCORER_COLUMNS_BMW))
            outs.append(topk_table([pruned_topk_blockmax(
                qw, lazy, self.df, self.n_docs, self.avgdl, self.k1,
                self.b, self.k, self.mode) for qw in self.qweights]))
        return pa.concat_tables(outs)


def plan_query(index_dir: str, stats: dict, queries: list, k: int = 10,
               mode: str = "bm25", prune: bool = False, boost=None,
               keep: np.ndarray | None = None, decay=None,
               rank_feature=None, asof: dict | None = None,
               deleted: np.ndarray | None = None
               ) -> tuple[SegmentScorer, list[int]]:
    """The one driver-side plan of a query batch over the index whose
    ``stats`` are given: the option check, the parts, df/cf from the
    lexicon (or ``asof``), the normalised ``keep``, and the
    SegmentScorer that carries them to every part."""
    sim = check_query_options(mode, prune, boost, decay, rank_feature)
    cfg = stats["config"]
    parts = stats["parts"]
    # raw strings or pre-tokenized [(term, weight), ...] lists
    # (query-by-document callers build weights themselves)
    qweights = [as_qweights(q) for q in queries]
    all_terms = sorted({t for qw in qweights for t, _ in qw})
    n_docs, avgdl = stats["n_docs"], stats["avgdl"]
    if asof is not None:
        # time-travel (snapshot) query: segments are immutable and
        # append-only (maintenance.append_index numbers new parts
        # after the old — the LSM layout), so a past generation IS a
        # part subset. Collection stats come from the caller (summed
        # from the per-part stats detail of the snapshot parts) and
        # df is re-derived by summing the PER-PART df column over the
        # snapshot parts (one tiny fan-out, terms x parts rows) —
        # never the post-append global lexicon, whose df/N/avgdl
        # would leak future documents into the scores.
        if sim.needs_cf:
            raise ValueError(f"asof does not support {mode} "
                             "(per-generation cf is not reconstructed)")
        if not set(asof["parts"]) <= set(parts):
            raise ValueError("asof parts not in the index")
        parts = sorted(asof["parts"])
        df = asof.get("df")
        if df is None:
            df = asof_df(index_dir, parts, all_terms)
        n_docs, avgdl = asof["n_docs"], asof["avgdl"]
        cf = None
    else:
        df, cf = lexicon_lookup(index_dir, all_terms)
    scorer = SegmentScorer(
        index_dir, qweights, k, mode, df, n_docs, avgdl, cfg["k1"],
        cfg["b"], prune=prune,
        cf=cf if sim.needs_cf else None,
        total_tokens=stats.get("total_tokens", 0), deleted=deleted,
        boost=boost,
        # normalized once driver-side so every scorer shares the
        # sorted unique form keep_postings' searchsorted requires
        keep=(None if keep is None
              else np.unique(np.asarray(keep, dtype=np.int64))),
        decay=decay, rank_feature=rank_feature)
    return scorer, parts


def query_index(
    index_dir: str,
    queries: list[str],
    k: int = 10,
    mode: str = "bm25",
    prune: bool = False,
    boost=None,
    keep: np.ndarray | None = None,
    decay=None,
    rank_feature=None,
    asof: dict | None = None,
) -> pa.Table:
    """Top-k for each query: (query_id, rank, doc_id, score), ranked by
    the deterministic total order (-score, doc_id).

    Scoring runs in stateless tasks: the scorer holds no heavy state
    (global df/stats are tiny and postings reads are term-filtered), so
    a one-shot batch pays no pool spin-up. Long-lived sessions that
    want postings kept hot use raysearch.serve.QuerySession."""
    scorer, parts = plan_query(
        index_dir, load_stats(index_dir), queries, k, mode, prune, boost,
        keep, decay, rank_feature, asof,
        deleted=load_deletes(index_dir))
    candidates = map_chunks(parts, scorer._score_task_chunk,
                            RESULT_SCHEMA.empty_table())
    # T * Q * k candidate rows — k-bounded and tiny by construction, so
    # the final merge is a driver-side selection, not a shuffle
    return merge_candidates(candidates.to_pandas(), len(queries), k)
