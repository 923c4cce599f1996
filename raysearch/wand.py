"""Exact top-k pruning (MaxScore family) for segment scoring.

The reference evaluates every posting of every query term
(/root/reference/src/lib.rs:374-399 — no pruning of any kind). This
module implements an EXACT pruned evaluation that returns the same
top-k, bit-identical scores included:

1. Per-term score upper bound:
   - bm25: weight * idf * (k1+1) — the tf->infinity limit of the term
     contribution (monotone in tf, independent of dl because the
     tf-norm is < k1+1 for all finite tf, dl).
   - overlap: weight * max_tf (max_tf is stored per posting row at
     build time).
2. theta seed: take the highest-bound term, compute its per-doc
   contributions, and let theta = its k-th largest contribution (0 if
   it has fewer than k postings). At least k documents have final
   score >= theta (their own contribution from that term alone).
3. Non-essential prefix: order terms by ascending bound and mark the
   longest prefix whose cumulative bounds sum STRICTLY below theta.
   A doc containing only non-essential terms scores < theta, so it
   cannot displace any of the >= k docs scoring >= theta — the
   candidate set (union of essential postings) is a superset of the
   true top-k.
3b. Block-max refinement: each essential posting is viewed in
   128-entry blocks with a per-block max-tf score bound (dl-free,
   conservative); a candidate whose summed block bounds plus the
   non-essential total still falls strictly below theta is dropped
   before full scoring. Still a superset of the true top-k.
4. Candidates are then scored over ALL query terms in ascending
   unique-term order — the same canonical accumulation order as full
   evaluation and the oracle — so returned scores are bit-identical.

Two entry points share that logic:

- pruned_topk: over ALREADY-DECODED posting arrays (block bounds
  recomputed per query via reduceat) — the fallback for pre-blockmax
  indexes and tombstone-filtered scoring.
- pruned_topk_blockmax (BMW, Ding & Suel 2011 adapted to the
  vectorized term-at-a-time setting): over ENCODED rows plus the
  segment's stored per-block (first_doc, max_tf) metadata
  (segments.py bfirst_enc/bmax_enc). An interval sweep over block
  doc-ranges proves which blocks can hold a >= theta doc; only those
  are ever VALUE-decoded (bench evidence: ~4% of postings decoded,
  identical top-k, on the long-posting fixture).

Cross-checked against full evaluation on every fixture corpus in
tests/test_wand.py.
"""

from __future__ import annotations

import numpy as np

from raysearch.score import (SIMILARITIES, TermStats, accumulate_scores,
                             bm25_idf, topk)
from raysearch.segments import BLOCK  # posting entries per block

Posting = tuple[np.ndarray, np.ndarray, np.ndarray]  # docs, tfs, dls


def _block_entry_bounds(tfs: np.ndarray, w: int, idf: float, k1: float,
                        b: float, mode: str) -> np.ndarray:
    """Per-entry score upper bound from each 128-entry block's max tf
    (_block_ub_arr of the block maxima, repeated over the block)."""
    n = len(tfs)
    starts = np.arange(0, n, BLOCK)
    block_ub = _block_ub_arr(np.maximum.reduceat(tfs, starts), w, idf,
                             k1, b, mode)
    return np.repeat(block_ub, np.minimum(BLOCK, n - starts))


def _block_max_candidates(essential, postings, idfs, k1, b, mode,
                          theta: float, cum_non_essential: float
                          ) -> np.ndarray:
    """Block-max candidate pruning (exact): a doc whose summed
    block-level upper bounds across the essential terms, plus the
    non-essential terms' total bound, fall strictly below theta cannot
    reach the top-k and is dropped before canonical scoring."""
    if not essential:
        return np.zeros(0, np.int64)
    all_docs = np.concatenate([postings[t][0] for t, _ in essential])
    if theta <= cum_non_essential:
        return np.unique(all_docs)
    all_ubs = np.concatenate([
        _block_entry_bounds(postings[t][1], w, idfs[t], k1, b, mode)
        for t, w in essential])
    uniq, inv = np.unique(all_docs, return_inverse=True)
    ub = np.full(len(uniq), cum_non_essential, dtype=np.float64)
    np.add.at(ub, inv, all_ubs)
    return uniq[ub >= theta]


def _contrib_fn(mode: str, df: dict, n_docs: int, avgdl: float, k1: float,
                b: float):
    """(t, w, docs, tfs, dls) -> the term's per-posting contribution,
    from the one similarity table (bit-identical to full evaluation)."""
    sim = SIMILARITIES[mode].contrib

    def contrib(t: str, w: int, docs, tfs, dls) -> np.ndarray:
        return sim(tfs, dls, w,
                   TermStats(df.get(t, 0), 0, n_docs, avgdl, 0, k1, b))
    return contrib


def term_upper_bound(weight: int, idf: float, k1: float, mode: str,
                     max_tf: int) -> float:
    if mode == "overlap":
        return float(weight * max_tf)
    return weight * idf * (k1 + 1.0)


def pruned_topk(
    qweights: list[tuple[str, int]],
    postings: dict[str, Posting],
    max_tfs: dict[str, int],
    df: dict[str, int],
    n_docs: int,
    avgdl: float,
    k1: float,
    b: float,
    k: int,
    mode: str = "bm25",
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k with MaxScore pruning over one segment's postings."""
    terms = [(t, w) for t, w in qweights if t in postings]
    if not terms:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)

    idfs = {t: bm25_idf(df.get(t, 0), n_docs) for t, _ in terms}
    contrib = _contrib_fn(mode, df, n_docs, avgdl, k1, b)

    bounds = {t: term_upper_bound(w, idfs[t], k1, mode, max_tfs.get(t, 0))
              for t, w in terms}

    # theta seed from the highest-bound term's own contributions
    t_best, w_best = max(terms, key=lambda tw: (bounds[tw[0]], tw[0]))
    docs_b, tfs_b, dls_b = postings[t_best]
    if len(docs_b) >= k:
        cb = contrib(t_best, w_best, docs_b, tfs_b, dls_b)
        theta = float(np.partition(cb, len(cb) - k)[len(cb) - k])
    else:
        theta = 0.0

    # longest ascending-bound prefix with cumulative bounds < theta
    by_bound = sorted(terms, key=lambda tw: (bounds[tw[0]], tw[0]))
    non_essential: set[str] = set()
    cum = 0.0
    for t, _ in by_bound:
        if t == t_best:
            break
        if cum + bounds[t] < theta:
            non_essential.add(t)
            cum += bounds[t]
        else:
            break
    essential = [tw for tw in terms if tw[0] not in non_essential]

    cand = _block_max_candidates(essential, postings, idfs,
                                 k1, b, mode, theta, cum)
    if len(cand) == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)

    # canonical-order scoring restricted to candidates (bit-identical
    # to full evaluation for these docs)
    per_term = []
    for t, w in sorted(terms):
        docs, tfs, dls = postings[t]
        pos = np.searchsorted(docs, cand)
        pos_c = np.clip(pos, 0, len(docs) - 1)
        hit = docs[pos_c] == cand
        sel = pos_c[hit]
        if hit.any():
            per_term.append((cand[hit], contrib(t, w, docs[sel], tfs[sel],
                                                dls[sel])))
    final_docs, final_scores = accumulate_scores(per_term)
    return topk(final_docs, final_scores, k)


# ---- stored block-max skip path (BMW over the segment's stored ----
# ---- bfirst_enc/bmax_enc metadata; segments.py explains the format) ----

_DOC_INF = np.int64(2 ** 62)  # past any real doc id


def _block_ub_arr(bmax: np.ndarray, w: int, idf: float, k1: float,
                  b: float, mode: str) -> np.ndarray:
    """Per-BLOCK score upper bound from the block max tf. The bound is
    dl-free (denominator minimized at dl -> 0: tf*(k1+1)/(tf +
    k1*(1-b)) is the largest the tf-norm can get for that tf), so it
    is conservative for every entry in the block."""
    bm = bmax.astype(np.float64)
    if mode == "overlap":
        return w * bm
    return (w * idf) * (bm * (k1 + 1.0)) / (bm + k1 * (1.0 - b))


class LazyPostings:
    """One segment's term-filtered posting rows, decoded ON DEMAND at
    block granularity. Skipped blocks never leave their varint bytes
    (byte-boundary scan only); a decoded block rebases its cumsum on
    the stored absolute first doc, so the unchanged row encoding needs
    no cross-block delta."""

    def __init__(self, tbl) -> None:
        self.tbl = tbl
        self.row = {t: i for i, t in enumerate(tbl["term"].to_pylist())}
        self.df = dict(zip(self.row, tbl["df"].to_numpy()))
        self.max_tf = dict(zip(self.row, tbl["max_tf"].to_numpy()))
        self._meta: dict = {}
        self._full: dict = {}
        self._blk: dict = {}
        # posting entries actually VALUE-decoded (skip-rate evidence:
        # compare against sum(df) of the query's terms)
        self.decoded_entries = 0

    def has(self, t: str) -> bool:
        return t in self.row

    def meta(self, t: str):
        got = self._meta.get(t)
        if got is None:
            from raysearch.segments import read_block_meta

            got = self._meta[t] = read_block_meta(self.tbl, self.row[t])
        return got

    def block_counts(self, t: str) -> np.ndarray:
        df = int(self.df[t])
        nb = (df + BLOCK - 1) // BLOCK
        counts = np.full(nb, BLOCK, np.int64)
        counts[-1] = df - BLOCK * (nb - 1)
        return counts

    def full(self, t: str) -> Posting:
        got = self._full.get(t)
        if got is None:
            from raysearch.segments import decode_posting_row

            got = self._full[t] = decode_posting_row(self.tbl, self.row[t])
            self.decoded_entries += len(got[0])
        return got

    def blocks(self, t: str, chosen: np.ndarray) -> Posting:
        df = int(self.df[t])
        nb = (df + BLOCK - 1) // BLOCK
        if t in self._full or len(chosen) == nb:
            docs, tfs, dls = self.full(t)
            if len(chosen) == nb:
                return docs, tfs, dls
            counts = self.block_counts(t)
            starts = np.zeros(nb, np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            idx = np.concatenate([
                np.arange(starts[j], starts[j] + counts[j])
                for j in chosen]) if len(chosen) else np.zeros(0, np.int64)
            return docs[idx], tfs[idx], dls[idx]
        from raysearch.segments import decode_posting_blocks

        key = chosen.tobytes()
        memo = self._blk.get(t)
        if memo is not None and memo[0] == key:
            return memo[1]      # candidate-gen + scoring often agree
        out = decode_posting_blocks(self.tbl, self.row[t], df, chosen,
                                    self.meta(t)[0])
        self.decoded_entries += len(out[0])
        self._blk[t] = (key, out)
        return out


def pruned_topk_blockmax(
    qweights: list[tuple[str, int]],
    lazy: LazyPostings,
    df: dict[str, int],
    n_docs: int,
    avgdl: float,
    k1: float,
    b: float,
    k: int,
    mode: str = "bm25",
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k with MaxScore + STORED block-max skipping: the same
    theta / non-essential-prefix logic as pruned_topk, then an interval
    sweep over the essential terms' stored per-block (first_doc, max_tf)
    metadata decides which blocks can contain a >=theta doc — only
    those are ever DECODED. Exactness: every doc d lies inside exactly
    one block interval [bfirst[j], bfirst[j+1]) per term that posts it,
    so the sweep's coverage sum at d's coordinate upper-bounds d's
    score; a doc in any skipped region is provably < theta. Final
    scoring decodes, for every query term, just the blocks whose
    interval intersects the candidate set, and accumulates in the
    canonical ascending-term order — bit-identical scores to full
    evaluation (cross-checked in tests/test_wand.py)."""
    empty = (np.zeros(0, np.int64), np.zeros(0, np.float64))
    terms = [(t, w) for t, w in qweights if lazy.has(t)]
    if not terms:
        return empty

    idfs = {t: bm25_idf(df.get(t, 0), n_docs) for t, _ in terms}
    contrib = _contrib_fn(mode, df, n_docs, avgdl, k1, b)

    bounds = {t: term_upper_bound(w, idfs[t], k1, mode,
                                  int(lazy.max_tf[t]))
              for t, w in terms}
    t_best, w_best = max(terms, key=lambda tw: (bounds[tw[0]], tw[0]))
    docs_b, tfs_b, dls_b = lazy.full(t_best)
    if len(docs_b) >= k:
        cb = contrib(t_best, w_best, docs_b, tfs_b, dls_b)
        theta = float(np.partition(cb, len(cb) - k)[len(cb) - k])
    else:
        theta = 0.0

    by_bound = sorted(terms, key=lambda tw: (bounds[tw[0]], tw[0]))
    non_essential: set[str] = set()
    cum = 0.0
    for t, _ in by_bound:
        if t == t_best:
            break
        if cum + bounds[t] < theta:
            non_essential.add(t)
            cum += bounds[t]
        else:
            break
    essential = [tw for tw in terms if tw[0] not in non_essential]

    # interval sweep over stored block metadata (no decode): region
    # UB(x) = sum of covering blocks' bounds + non-essential total
    starts_l, ends_l, ubs_l = [], [], []
    for t, w in essential:
        bf, bm = lazy.meta(t)
        starts_l.append(bf)
        ends_l.append(np.append(bf[1:], _DOC_INF))
        ubs_l.append(_block_ub_arr(bm, w, idfs[t], k1, b, mode))
    coords = np.unique(np.concatenate(starts_l + ends_l))
    dlt = np.zeros(len(coords), np.float64)
    for s_arr, e_arr, u_arr in zip(starts_l, ends_l, ubs_l):
        np.add.at(dlt, np.searchsorted(coords, s_arr), u_arr)
        np.subtract.at(dlt, np.searchsorted(coords, e_arr), u_arr)
    alive = (np.cumsum(dlt) + cum) >= theta   # region i = [c[i], c[i+1])
    pre = np.zeros(len(coords) + 1, np.int64)
    np.cumsum(alive, out=pre[1:])

    # candidate generation from alive blocks only
    all_docs, all_ubs = [], []
    for (t, w), s_arr, e_arr, u_arr in zip(essential, starts_l,
                                           ends_l, ubs_l):
        r0 = np.searchsorted(coords, s_arr, side="left")
        r1 = np.searchsorted(coords, e_arr, side="left")
        chosen = np.flatnonzero(pre[r1] - pre[r0] > 0)
        if not len(chosen):
            continue
        docs, _, _ = lazy.blocks(t, chosen)
        all_docs.append(docs)
        all_ubs.append(np.repeat(u_arr[chosen],
                                 lazy.block_counts(t)[chosen]))
    if not all_docs:
        return empty
    uniq, inv = np.unique(np.concatenate(all_docs), return_inverse=True)
    ub = np.full(len(uniq), cum, np.float64)
    np.add.at(ub, inv, np.concatenate(all_ubs))
    cand = uniq[ub >= theta]
    if not len(cand):
        return empty

    # canonical-order scoring: per term, decode just the blocks whose
    # interval can contain a candidate (bit-identical contributions)
    per_term = []
    for t, w in sorted(terms):
        bf, _ = lazy.meta(t)
        bend = np.append(bf[1:], _DOC_INF)
        lo = np.searchsorted(cand, bf)
        hi = np.searchsorted(cand, bend)
        need = np.flatnonzero(hi > lo)
        if not len(need):
            continue
        docs, tfs, dls = lazy.blocks(t, need)
        pos = np.searchsorted(docs, cand)
        pos_c = np.clip(pos, 0, len(docs) - 1)
        hit = docs[pos_c] == cand
        sel = pos_c[hit]
        if hit.any():
            per_term.append((cand[hit],
                             contrib(t, w, docs[sel], tfs[sel], dls[sel])))
    final_docs, final_scores = accumulate_scores(per_term)
    return topk(final_docs, final_scores, k)
