"""Exact top-k pruning (MaxScore family) for segment scoring.

The reference evaluates every posting of every query term
(/root/reference/src/lib.rs:374-399 — no pruning of any kind). This
module implements one EXACT pruned evaluation that returns the same
top-k, bit-identical scores included — the prune-by-bound-before-
verify scheme of Koios (ICDE'23) and BMW (Ding & Suel 2011) adapted to
the vectorized term-at-a-time setting:

1. Per-term score upper bound, the mode's ``term_bound`` in
   score.SIMILARITIES:
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
   128-entry blocks with a per-block (first_doc, max-tf score bound)
   (dl-free, conservative). An interval sweep over the block
   doc-ranges proves which blocks can hold a >= theta doc; a candidate
   whose summed block bounds plus the non-essential total still falls
   strictly below theta is dropped before full scoring. Still a
   superset of the true top-k.
4. Candidates are then scored over ALL query terms in ascending
   unique-term order — the same canonical accumulation order as full
   evaluation and the oracle — so returned scores are bit-identical.

One pruner, pruned_topk_blockmax, runs over two postings views:

- LazyPostings: a segment's ENCODED rows plus its stored per-block
  (first_doc, max_tf) metadata (segments.py bfirst_enc/bmax_enc).
  Only the blocks the sweep keeps are ever VALUE-decoded (bench
  evidence: ~4% of postings decoded, identical top-k, on the
  long-posting fixture).
- DecodedPostings: ALREADY-DECODED arrays (tombstone- or
  keep-filtered scoring, the resident actors' cache, indexes without
  stored block metadata), whose block first-doc and max-tf come from
  the arrays themselves. pruned_topk is the pruner over this view.

Cross-checked against full evaluation on every fixture corpus in
tests/test_wand.py.
"""

from __future__ import annotations

import numpy as np

from raysearch.score import (SIMILARITIES, TermStats, accumulate_scores,
                             bm25_idf, topk)
from raysearch.segments import (BLOCK,  # posting entries per block
                                decode_posting_blocks, decode_posting_row,
                                read_block_meta)

Posting = tuple[np.ndarray, np.ndarray, np.ndarray]  # docs, tfs, dls

_DOC_INF = np.int64(2 ** 62)  # past any real doc id


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
    """The mode's per-term score upper bound, from the similarity
    table (SIMILARITIES[mode].term_bound)."""
    return SIMILARITIES[mode].term_bound(weight, idf, k1, max_tf)


def _take_blocks(row: Posting, counts: np.ndarray,
                 chosen: np.ndarray) -> Posting:
    """The entries of the ``chosen`` (sorted) blocks of one decoded
    posting row whose blocks hold ``counts`` entries each."""
    c = counts[chosen]
    starts = np.cumsum(counts) - counts   # block j's first entry in row
    out_starts = np.cumsum(c) - c         # its first entry in the output
    idx = np.arange(c.sum()) + np.repeat(starts[chosen] - out_starts, c)
    return row[0][idx], row[1][idx], row[2][idx]


class DecodedPostings:
    """One segment's ALREADY-DECODED posting rows seen as 128-entry
    blocks: each block's first doc and max tf come from the arrays
    themselves (np.maximum.reduceat), so the pruner runs over them
    exactly as over stored block metadata. ``max_tfs`` may be the
    unfiltered rows' (still a valid upper bound for a filtered row); a
    term whose filtered row is empty is absent."""

    def __init__(self, postings: dict[str, Posting],
                 max_tfs: dict[str, int]) -> None:
        self._rows = {t: p for t, p in postings.items() if len(p[0])}
        self._view({t: len(p[0]) for t, p in self._rows.items()},
                   {t: max_tfs[t] for t in self._rows})

    def _view(self, df: dict, max_tf: dict) -> None:
        self.df, self.max_tf = df, max_tf
        self._meta: dict = {}
        self._full: dict = {}
        self._blk: dict = {}
        # posting entries actually gathered or VALUE-decoded (skip-rate
        # evidence: compare against sum(df) of the query's terms)
        self.decoded_entries = 0

    def _decode(self, t: str) -> Posting:
        return self._rows[t]

    def _block_meta(self, t: str) -> tuple[np.ndarray, np.ndarray]:
        docs, tfs, _ = self._rows[t]
        starts = np.arange(0, len(docs), BLOCK)
        return docs[starts], np.maximum.reduceat(tfs, starts)

    def _decode_blocks(self, t: str, chosen: np.ndarray) -> Posting:
        return _take_blocks(self._rows[t], self.block_counts(t), chosen)

    def has(self, t: str) -> bool:
        return t in self.df

    def meta(self, t: str) -> tuple[np.ndarray, np.ndarray]:
        """(per-block first doc, per-block max tf) of t's row."""
        got = self._meta.get(t)
        if got is None:
            got = self._meta[t] = self._block_meta(t)
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
            got = self._full[t] = self._decode(t)
            self.decoded_entries += len(got[0])
        return got

    def blocks(self, t: str, chosen: np.ndarray) -> Posting:
        """(docs, tfs, dls) of the ``chosen`` blocks of t's row."""
        counts = self.block_counts(t)
        if t in self._full or len(chosen) == len(counts):
            row = self.full(t)
            if len(chosen) == len(counts):
                return row
            return _take_blocks(row, counts, chosen)
        key = chosen.tobytes()
        memo = self._blk.get(t)
        if memo is not None and memo[0] == key:
            return memo[1]      # candidate-gen + scoring often agree
        out = self._decode_blocks(t, chosen)
        self.decoded_entries += len(out[0])
        self._blk[t] = (key, out)
        return out


class LazyPostings(DecodedPostings):
    """One segment's term-filtered ENCODED posting rows, decoded ON
    DEMAND at block granularity from the stored block metadata.
    Skipped blocks never leave their varint bytes (byte-boundary scan
    only); a decoded block rebases its cumsum on the stored absolute
    first doc, so the unchanged row encoding needs no cross-block
    delta."""

    def __init__(self, tbl) -> None:
        self.tbl = tbl
        self.row = {t: i for i, t in enumerate(tbl["term"].to_pylist())}
        self._view(dict(zip(self.row, tbl["df"].to_numpy())),
                   dict(zip(self.row, tbl["max_tf"].to_numpy())))

    def _decode(self, t: str) -> Posting:
        return decode_posting_row(self.tbl, self.row[t])

    def _block_meta(self, t: str) -> tuple[np.ndarray, np.ndarray]:
        return read_block_meta(self.tbl, self.row[t])

    def _decode_blocks(self, t: str, chosen: np.ndarray) -> Posting:
        return decode_posting_blocks(self.tbl, self.row[t], int(self.df[t]),
                                     chosen, self.meta(t)[0])


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
    """Exact top-k with MaxScore pruning over one segment's decoded
    postings: the one pruner over their DecodedPostings view."""
    return pruned_topk_blockmax(qweights, DecodedPostings(postings, max_tfs),
                                df, n_docs, avgdl, k1, b, k, mode)


def pruned_topk_blockmax(
    qweights: list[tuple[str, int]],
    view: DecodedPostings,
    df: dict[str, int],
    n_docs: int,
    avgdl: float,
    k1: float,
    b: float,
    k: int,
    mode: str = "bm25",
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k with MaxScore + block-max skipping over one
    segment's postings ``view`` (LazyPostings or DecodedPostings): the
    theta seed and non-essential prefix, then an interval sweep over
    the essential terms' per-block (first_doc, max_tf) metadata decides
    which blocks can contain a >=theta doc — only those are ever
    gathered (and, for LazyPostings, DECODED). Exactness: every doc d lies inside exactly
    one block interval [bfirst[j], bfirst[j+1]) per term that posts it,
    so the sweep's coverage sum at d's coordinate upper-bounds d's
    score; a doc in any skipped region is provably < theta. Final
    scoring decodes, for every query term, just the blocks whose
    interval intersects the candidate set, and accumulates in the
    canonical ascending-term order — bit-identical scores to full
    evaluation (cross-checked in tests/test_wand.py)."""
    empty = (np.zeros(0, np.int64), np.zeros(0, np.float64))
    terms = [(t, w) for t, w in qweights if view.has(t)]
    if not terms:
        return empty

    idfs = {t: bm25_idf(df.get(t, 0), n_docs) for t, _ in terms}
    contrib = _contrib_fn(mode, df, n_docs, avgdl, k1, b)

    bounds = {t: term_upper_bound(w, idfs[t], k1, mode,
                                  int(view.max_tf[t]))
              for t, w in terms}
    t_best, w_best = max(terms, key=lambda tw: (bounds[tw[0]], tw[0]))
    docs_b, tfs_b, dls_b = view.full(t_best)
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
        bf, bm = view.meta(t)
        starts_l.append(bf)
        ends_l.append(np.append(bf[1:], _DOC_INF))
        # the block's largest contribution: its max tf at dl = 0 (the
        # tf-norm is largest at the smallest dl), so it bounds every
        # entry in the block; a scalar dl broadcasts bit-identically
        ubs_l.append(contrib(t, w, bf, bm, np.int64(0)))
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
        docs, _, _ = view.blocks(t, chosen)
        all_docs.append(docs)
        all_ubs.append(np.repeat(u_arr[chosen],
                                 view.block_counts(t)[chosen]))
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
        bf, _ = view.meta(t)
        bend = np.append(bf[1:], _DOC_INF)
        lo = np.searchsorted(cand, bf)
        hi = np.searchsorted(cand, bend)
        need = np.flatnonzero(hi > lo)
        if not len(need):
            continue
        docs, tfs, dls = view.blocks(t, need)
        pos = np.searchsorted(docs, cand)
        pos_c = np.clip(pos, 0, len(docs) - 1)
        hit = docs[pos_c] == cand
        sel = pos_c[hit]
        if hit.any():
            per_term.append((cand[hit],
                             contrib(t, w, docs[sel], tfs[sel], dls[sel])))
    final_docs, final_scores = accumulate_scores(per_term)
    return topk(final_docs, final_scores, k)
