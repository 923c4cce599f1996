"""Scoring kernels shared by the engine and the oracle.

Both the Ray Data scorer stage and the single-process oracle call the
SAME functions here, with the same float64 expression tree and the same
per-document accumulation order (ascending unique query-term order), so
BM25 scores are bit-identical between engine and oracle — the
rank-identity gate (BASELINE.json north_rule) then holds exactly, not
within a tolerance.

Scoring modes:
- "bm25": Lucene-style BM25, idf = ln(1 + (N - df + 0.5)/(df + 0.5))
  (always positive), tf-norm = tf*(k1+1) / (tf + k1*(1-b+b*dl/avgdl)).
  Query-term multiplicity multiplies the contribution (the reference
  counts every query-token occurrence — src/lib.rs:383-399).
- "overlap": the reference's integer score, score(doc) = sum over query
  token occurrences of tf(token, doc) (src/lib.rs:374-399).
- "classic": Lucene ClassicSimilarity (the pre-6.0 TFIDFSimilarity
  default): contribution = w * idf^2 * sqrt(tf) / sqrt(dl) with
  idf = 1 + ln(N / (df + 1)). queryNorm and coord are omitted —
  queryNorm is a per-query constant (rank-neutral) and coord was
  removed in Lucene 7; the score CONTRACT here is the bare
  tf*idf^2*fieldNorm sum, mirrored term-for-term by the oracle.
- "jm": Lucene LMJelinekMercerSimilarity (Zhai & Lafferty's other
  query-likelihood smoothing): contribution = w * ln(1 +
  ((1 - lambda) * tf / dl) / (lambda * cf / C)), lambda = 0.1 (the
  Lucene default). tf = 0 contributes ln(1) = 0, so — unlike
  dirichlet — candidate-only scoring is exact and the per-term
  posting loop applies unchanged; needs global cf and C broadcast
  beside df.
- "dfr": Lucene DFRSimilarity with the InL2 model (Amati & van
  Rijsbergen's divergence-from-randomness, inverse-document-frequency
  base, Laplace after-effect, H2 length normalization):
  tfn = tf * log2(1 + avgdl/dl), contribution =
  w * (tfn / (tfn + 1)) * log2((N + 1) / (df + 0.5)).
- "boolean": Lucene BooleanSimilarity — every matched term contributes
  exactly its query weight (tf ignored): the weighted coordination
  count, an integer score like "overlap".
- "dfi": Lucene DFISimilarity (Kocabas, Dincer & Karaoglan's
  divergence from independence) with the STANDARDIZED independence
  measure: expected = (cf + 1) * dl / (C + 1); a term matters only
  when tf exceeds expectation — contribution =
  w * log2((tf - e)/sqrt(e) + 1) when tf > e, else 0. Needs global
  cf and C broadcast beside df (the jm plumbing); candidate-only
  scoring is exact because tf = 0 never exceeds e.
- "axiomatic": Lucene AxiomaticF2EXP (Fang & Zhai's axiomatic
  retrieval framework): contribution =
  w * (N/df)^K * tf / (tf + S + S*dl/avgdl), K = 0.35, S = 0.5 (the
  Lucene defaults). Needs only df/N/avgdl — the bm25 plumbing.
- "dirichlet": see dirichlet_scores below.

SIMILARITIES is the one table of these modes: each entry's per-posting
contribution, its MaxScore per-term bound (None: not prunable) and
the knobs (boost, decay, rank_feature) its score scale supports,
checked once, values included, by check_query_options.

Tie-break is the deterministic total order (-score, doc_id); the
reference's own tie order is HashMap-iteration nondeterminism
(src/lib.rs:401-404), fixed here per SURVEY §7.5.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from raysearch.tokenize import tokenize_query


def query_term_weights(query: str) -> list[tuple[str, int]]:
    """Sorted unique query terms with multiplicities (the accumulation
    order contract: contributions are added term-major in this order)."""
    counts = Counter(tokenize_query(query))
    return sorted(counts.items())


def as_qweights(q) -> list[tuple[str, int]]:
    """Normalize a query to its [(term, weight), ...] form: raw
    strings tokenize via query_term_weights; pre-tokenized lists (in
    ascending term order — the accumulation contract) pass through.
    The single normalization point for every scoring frontend:
    query.plan_query, which plans both query_index and the resident
    QuerySession batches."""
    return q if isinstance(q, list) else query_term_weights(q)


def bm25_idf(df: float, n_docs: float) -> float:
    return float(np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5)))


def bm25_contrib(tf: np.ndarray, dl: np.ndarray, idf: float, weight: int,
                 k1: float, b: float, avgdl: float) -> np.ndarray:
    """Vectorized per-posting BM25 contribution (float64)."""
    tf = tf.astype(np.float64)
    dl = dl.astype(np.float64)
    denom = tf + k1 * (1.0 - b + b * (dl / avgdl))
    return (float(weight) * idf) * (tf * (k1 + 1.0)) / denom


def classic_idf(df: float, n_docs: float) -> float:
    """Lucene ClassicSimilarity idf: 1 + ln(N / (df + 1))."""
    return float(1.0 + np.log(n_docs / (df + 1.0)))


def classic_contrib(tf: np.ndarray, dl: np.ndarray, idf: float,
                    weight: int) -> np.ndarray:
    """Vectorized ClassicSimilarity contribution (float64):
    w * idf^2 * sqrt(tf) / sqrt(dl). A posted doc always has dl >= 1,
    so the field norm is finite."""
    tf = tf.astype(np.float64)
    dl = dl.astype(np.float64)
    return (float(weight) * (idf * idf)) * np.sqrt(tf) / np.sqrt(dl)


JM_LAMBDA = 0.1  # Lucene LMJelinekMercerSimilarity default


def jm_contrib(tf: np.ndarray, dl: np.ndarray, cf: int, total_tokens: int,
               weight: int, lam: float = JM_LAMBDA) -> np.ndarray:
    """Vectorized Jelinek-Mercer contribution (float64), mirroring the
    oracle SQL term-for-term:
    w * ln(1 + ((1 - lam) * tf / dl) / (lam * cf / C)).
    A posting row implies tf >= 1 and cf >= tf, so the denominator is
    positive."""
    tf = tf.astype(np.float64)
    dl = dl.astype(np.float64)
    den = lam * cf / float(total_tokens)
    return float(weight) * np.log(1.0 + ((1.0 - lam) * tf / dl) / den)


def dfr_contrib(tf: np.ndarray, dl: np.ndarray, df: float, n_docs: float,
                avgdl: float, weight: int) -> np.ndarray:
    """Vectorized DFR InL2 contribution (float64), mirroring the
    oracle SQL term-for-term (see module docstring)."""
    tf = tf.astype(np.float64)
    dl = dl.astype(np.float64)
    tfn = tf * np.log2(1.0 + avgdl / dl)
    return ((float(weight) * (tfn / (tfn + 1.0)))
            * float(np.log2((n_docs + 1.0) / (df + 0.5))))


AX_K = 0.35  # AxiomaticF2EXP idf exponent (Lucene default)
AX_S = 0.5   # AxiomaticF2EXP length-norm slope (Lucene default)


def axiomatic_contrib(tf: np.ndarray, dl: np.ndarray, df: float,
                      n_docs: float, avgdl: float,
                      weight: int) -> np.ndarray:
    """Vectorized AxiomaticF2EXP contribution (float64), mirroring
    the oracle SQL term-for-term (module docstring)."""
    tf = tf.astype(np.float64)
    dl = dl.astype(np.float64)
    idf = float((n_docs / df) ** AX_K)
    return (float(weight) * idf) * tf / (tf + AX_S + AX_S * dl / avgdl)


def dfi_contrib(tf: np.ndarray, dl: np.ndarray, cf: int,
                total_tokens: int, weight: int) -> np.ndarray:
    """Vectorized DFI contribution (standardized independence),
    mirroring the oracle SQL term-for-term (module docstring).
    cf == 0 cannot occur for a posted term (its own tf counts)."""
    tf = tf.astype(np.float64)
    dl = dl.astype(np.float64)
    e = (float(cf) + 1.0) * dl / (float(total_tokens) + 1.0)
    out = np.zeros(len(tf), np.float64)
    m = tf > e  # masked, not np.where: log2 of a negative would warn
    if m.any():
        measure = (tf[m] - e[m]) / np.sqrt(e[m])
        out[m] = float(weight) * np.log2(measure + 1.0)
    return out


def accumulate_scores(
    term_postings: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Sum per-term (doc_ids, contribs) pairs into per-doc totals.

    term_postings MUST be in ascending unique-term order; each term's
    doc_ids ascending. Accumulation per doc is then term-major — the
    deterministic order both engine and oracle share.
    Returns (unique_doc_ids, scores) with doc_ids ascending.
    """
    if not term_postings:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    all_docs = np.concatenate([d for d, _ in term_postings])
    all_contrib = np.concatenate([c for _, c in term_postings])
    uniq, inv = np.unique(all_docs, return_inverse=True)
    scores = np.zeros(len(uniq), dtype=all_contrib.dtype)
    np.add.at(scores, inv, all_contrib)
    return uniq.astype(np.int64), scores


class TermStats(NamedTuple):
    """The global statistics one term's contribution may read."""
    df: int
    cf: int
    n_docs: int
    avgdl: float
    total_tokens: int
    k1: float
    b: float


class Similarity(NamedTuple):
    """One scoring mode's contract. ``contrib(tf, dl, w, TermStats)``
    is the vectorized per-posting contribution (None for a
    whole-query scorer); ``term_bound(w, idf, k1, max_tf)`` is the
    MaxScore per-term score upper bound (None: the mode is not
    prunable, raysearch/wand.py); the flags say which other query
    knobs the mode's score scale supports."""
    contrib: Callable | None
    term_bound: Callable | None
    needs_cf: bool    # global cf and total_tokens broadcast beside df
    boostable: bool   # a static multiplicative boost promotes
    reshapable: bool  # decay / rank_feature have an oracle contract


SIMILARITIES: dict[str, Similarity] = {
    "bm25": Similarity(
        lambda tf, dl, w, s: bm25_contrib(tf, dl, bm25_idf(s.df, s.n_docs),
                                          w, s.k1, s.b, s.avgdl),
        # the tf -> infinity limit: the tf-norm is < k1 + 1 for every
        # finite tf and dl
        lambda w, idf, k1, max_tf: w * idf * (k1 + 1.0),
        needs_cf=False, boostable=True, reshapable=True),
    "overlap": Similarity(
        lambda tf, dl, w, s: (w * tf).astype(np.int64),
        lambda w, idf, k1, max_tf: float(w * max_tf),
        needs_cf=False, boostable=True, reshapable=False),
    "classic": Similarity(
        lambda tf, dl, w, s: classic_contrib(
            tf, dl, classic_idf(s.df, s.n_docs), w),
        None, needs_cf=False, boostable=False, reshapable=False),
    "jm": Similarity(
        lambda tf, dl, w, s: jm_contrib(tf, dl, s.cf, s.total_tokens, w),
        None, needs_cf=True, boostable=False, reshapable=False),
    "dfr": Similarity(
        lambda tf, dl, w, s: dfr_contrib(tf, dl, s.df, s.n_docs, s.avgdl,
                                         w),
        None, needs_cf=False, boostable=False, reshapable=False),
    "boolean": Similarity(
        lambda tf, dl, w, s: np.full(len(tf), int(w), np.int64),
        None, needs_cf=False, boostable=False, reshapable=False),
    "dfi": Similarity(
        lambda tf, dl, w, s: dfi_contrib(tf, dl, s.cf, s.total_tokens, w),
        None, needs_cf=True, boostable=False, reshapable=False),
    "axiomatic": Similarity(
        lambda tf, dl, w, s: axiomatic_contrib(tf, dl, s.df, s.n_docs,
                                               s.avgdl, w),
        None, needs_cf=False, boostable=False, reshapable=False),
    "dirichlet": Similarity(  # whole-query scorer: dirichlet_scores
        None, None, needs_cf=True, boostable=False, reshapable=False),
}


def check_query_options(mode: str, prune: bool = False, boost=None,
                        decay=None, rank_feature=None) -> Similarity:
    """The one validation of a query's mode and knobs, run at each
    entry point before any distributed work. MaxScore bounds model
    neither per-doc boost factors nor decay / rank_feature reshaping,
    and a multiplicative boost on a negative log-likelihood scale
    would demote, so each knob is refused where it has no contract,
    and so is a knob value that would zero, invert or divide by zero:
    a boost factor, decay scale, rank_feature weight or pivot <= 0.
    An unknown mode is an error, never a fallback to another scorer.
    ``boost`` is (ids, factor), ``decay`` (origin, scale) and
    ``rank_feature`` (w, pivot), each or None."""
    sim = SIMILARITIES.get(mode)
    if sim is None:
        raise ValueError(f"unknown mode {mode!r}: expected one of "
                         f"{sorted(SIMILARITIES)}")

    def allowed(flag: str) -> str:
        return "/".join(m for m, s in SIMILARITIES.items()
                        if getattr(s, flag))

    if boost is not None and prune:
        raise ValueError("boost requires prune=False (MaxScore bounds "
                         "don't account for per-doc boost factors)")
    if boost is not None and not sim.boostable:
        raise ValueError(f"boost supports {allowed('boostable')} only, "
                         f"not {mode}")
    if prune and sim.term_bound is None:
        raise ValueError(f"{mode} mode requires prune=False (no "
                         "MaxScore bounds for its score curve)")
    for name, knob in (("decay", decay), ("rank_feature", rank_feature)):
        if knob is not None and (prune or not sim.reshapable):
            raise ValueError(f"{name} requires mode="
                             f"{allowed('reshapable')} and prune=False")
    # `not x > 0` also refuses NaN
    if boost is not None and not boost[1] > 0:
        raise ValueError("boost factor must be > 0 (0 zeroes boosted "
                         "docs and a negative factor inverts their "
                         "ranking)")
    if decay is not None and not decay[1] > 0:
        raise ValueError("decay scale must be > 0")
    if rank_feature is not None and not (rank_feature[0] > 0
                                         and rank_feature[1] > 0):
        raise ValueError("rank_feature w and pivot must be > 0 (w <= 0 "
                         "inverts or erases the prior; pivot <= 0 "
                         "breaks the saturation curve)")
    return sim


def score_postings(
    qweights: list[tuple[str, int]],
    lookup,  # term -> (doc_ids, tfs, dls) or None
    df: dict[str, int],
    n_docs: int,
    avgdl: float,
    k1: float,
    b: float,
    mode: str = "bm25",
    cf: dict[str, int] | None = None,
    total_tokens: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Score every candidate doc for one query over one posting source
    — the one per-term loop behind the engine and the oracle.

    ``lookup(term)`` returns this source's (doc_ids, tfs, dls) arrays —
    either the whole index (oracle) or a task's doc-partition
    segments, joined (engine). ``df`` (and ``cf`` for the modes that
    need it) is always GLOBAL, so scores are final regardless of
    partitioning. The mode's knobs are validated once at the callers'
    entry (check_query_options in query.plan_query and Oracle.search),
    not here.
    """
    sim = SIMILARITIES.get(mode)
    if sim is None:
        raise ValueError(f"unknown mode {mode!r}")
    if sim.contrib is None:
        raise ValueError(f"{mode} scores whole queries: use "
                         "dirichlet_scores")
    if sim.needs_cf and cf is None:
        raise ValueError(f"{mode} mode needs cf and total_tokens")
    per_term: list[tuple[np.ndarray, np.ndarray]] = []
    for term, w in qweights:
        got = lookup(term)
        if got is None:
            continue
        docs, tfs, dls = got
        if len(docs) == 0:
            continue
        s = TermStats(df.get(term, 0), (cf or {}).get(term, 0), n_docs,
                      avgdl, total_tokens, k1, b)
        per_term.append((docs, sim.contrib(tfs, dls, w, s)))
    return accumulate_scores(per_term)


DIRICHLET_MU = 2000.0  # smoothing prior (Zhai & Lafferty 2001 default)


def dirichlet_scores(
    qweights: list[tuple[str, int]],
    lookup,  # term -> (doc_ids, tfs, dls) or None
    cf: dict[str, int],
    total_tokens: int,
    mu: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Query-likelihood scoring with Dirichlet smoothing (Zhai &
    Lafferty 2001): score(q, d) = sum over collection-present query
    terms t of  qtf_t * ln((tf_{t,d} + mu*cf_t/C) / (dl_d + mu)).

    Candidates are the docs matching >= 1 query term in this posting
    source (docs elsewhere in the collection are scored by their own
    segment — doc partitioning keeps per-segment scores final, exactly
    as for BM25). Query terms absent from the collection (cf == 0) are
    skipped, the standard convention (p(t|C) = 0 would be ln 0).

    ``cf`` is the GLOBAL collection frequency (lexicon cf) and
    ``total_tokens`` the global token count, both broadcast — so the
    per-doc smoothed probabilities are collection-wide even though the
    postings come from one segment. Terms with global cf > 0 but no
    postings in this segment still contribute their tf = 0 smoothed
    mass to every candidate. The float expression mirrors the DuckDB
    oracle term-for-term (ln((tf + mu*cf/C) / (dl + mu)), accumulated
    in ascending unique-term order); results are compared after
    round6.
    """
    present = [(t, w) for t, w in qweights if cf.get(t, 0) > 0]
    if not present or total_tokens <= 0:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    # candidate docs (union of this source's postings) with their dl
    cand_parts: list[tuple[np.ndarray, np.ndarray]] = []
    matched: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for term, _ in present:
        got = lookup(term)
        if got is None:
            continue
        docs, tfs, dls = got
        if len(docs) == 0:
            continue
        matched[term] = (docs, tfs)
        cand_parts.append((docs, dls))
    if not cand_parts:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    all_docs = np.concatenate([d for d, _ in cand_parts])
    all_dls = np.concatenate([l for _, l in cand_parts])
    cand, first = np.unique(all_docs, return_index=True)
    dl = all_dls[first].astype(np.float64)
    scores = np.zeros(len(cand), np.float64)
    dl_mu = dl + mu
    c = float(total_tokens)
    for term, w in present:  # ascending-term accumulation contract
        # left-to-right (mu * cf) / c — the exact float rounding order
        # of the oracle SQL's `MU * cf.cf / tot.c`
        p_mu = mu * cf[term] / c
        tf_vec = np.zeros(len(cand), np.float64)
        got = matched.get(term)
        if got is not None:
            docs, tfs = got
            pos = np.searchsorted(cand, docs)
            tf_vec[pos] = tfs.astype(np.float64)
        scores += float(w) * np.log((tf_vec + p_mu) / dl_mu)
    return cand.astype(np.int64), scores


def topk(doc_ids: np.ndarray, scores: np.ndarray, k: int
         ) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k under the total order (-score, doc_id)."""
    if len(doc_ids) == 0:
        return doc_ids[:0], scores[:0]
    order = np.lexsort((doc_ids, -scores))[:k]
    return doc_ids[order], scores[order]
