"""Resident query serving: a long-lived, segment-affine actor pool
that caches decoded postings across query batches.

The reference keeps one process-resident index and serves queries from
a channel into threads sharing it (/root/reference/src/processor.rs:
83-144, src/server.rs:34-118 — the stdin REPL / TCP submit-poll
surface). The Ray-native equivalent of "the index stays hot" is this
module: raw Ray ACTORS (not a Dataset stage — the cache must survive
between calls, which the Dataset API cannot express) with a fixed
part->actor assignment:

- Each ``SegmentServer`` actor owns a static subset of segments
  (segment affinity: a given part's postings are only ever cached in
  one actor, so cluster-wide cache capacity scales with the pool, and
  a part's cache entries are never duplicated).
- Per (part, term) decoded postings live in a bounded LRU; repeat
  terms across query batches never touch parquet again. The one-shot
  path's read (query.live_postings: the footer-pruned term rows and
  one bulk decode, minus the tombstones) fetches ONLY a part's missing
  terms of a batch; a part missing on disk raises.
- Each batch is planned once on the driver by query.plan_query (the
  option check, df/cf, the SegmentScorer) from the stats the session
  loaded at construction — the same plan query_index and the
  per-part pipeline ops use; every actor scores its parts through the
  same SegmentScorer.score_parts as the one-shot tasks, passing as the
  loader the join of its parts' LRU entries (a term's arrays
  concatenated in part order), so each query is scored once per actor
  and a resident session returns bit-identical results to
  ``query_index``. An actor takes one CPU; the Dirichlet prior is
  score.DIRICHLET_MU, as on every other path.
- The driver merge is the same k-bounded selection as the batch path
  (doc-hash partitioning keeps per-segment scores final).

At cluster scale: actors are placed by Ray across nodes; each holds
O(parts/actors) segments; adding actors splits the part sets (cache
shards stay disjoint). A 100-query batch costs one footer-pruned
lexicon term read on the driver (df and cf together), one object-store
put of the scorer and one RPC per actor.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pandas as pd
import pyarrow as pa

from raysearch.query import live_postings, merge_candidates, plan_query
from raysearch.stats import load_stats

DEFAULT_CACHE_TERMS = 65536  # (part, term) LRU entries per actor


class _SegmentServerImpl:
    """Plain-Python actor body (kept undecorated for direct unit
    testing); wrapped by ray.remote in QuerySession."""

    def __init__(self, index_dir: str, parts: list[int],
                 cache_terms: int = DEFAULT_CACHE_TERMS):
        st = load_stats(index_dir)
        self.index_dir = index_dir
        self.parts = list(parts)
        # the session's stats snapshot; every batch's SegmentScorer
        # carries the same values from the driver
        self.n_docs, self.avgdl = st["n_docs"], st["avgdl"]
        self.k1, self.b = st["config"]["k1"], st["config"]["b"]
        self.cache_terms = cache_terms
        # tombstones snapshot AS OF session creation (the documented
        # staleness contract below applies to deletes too)
        from raysearch.maintenance import load_deletes

        _del = load_deletes(index_dir)
        self.deleted = _del if len(_del) else None
        # (part, term) -> ((docs, tfs, dls), max_tf); OrderedDict = LRU
        self._cache: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    # -- cache --

    def _ensure_terms(self, part: int, terms: list[str]) -> tuple[dict, dict]:
        """Return (postings, max_tfs) for ``terms`` of ``part``,
        reading only the cache misses from the segment files."""
        postings, max_tfs = {}, {}
        missing = []
        for t in terms:
            key = (part, t)
            got = self._cache.get(key)
            if got is not None:
                self._cache.move_to_end(key)
                self.hits += 1
                if got[0] is not None:  # negative entries cache absence
                    postings[t], max_tfs[t] = got
            else:
                missing.append(t)
        if missing:
            self.misses += len(missing)
            found, found_max = live_postings(self.index_dir, [part],
                                             missing, self.deleted)
            # copies: a miss read's rows are views into its flat bulk
            # decode, which a cached view would keep alive whole
            for t, decoded in found.items():
                self._cache[(part, t)] = (tuple(a.copy() for a in decoded),
                                          found_max[t])
            for t in missing:
                if t not in found:
                    self._cache[(part, t)] = (None, None)
            postings.update(found)
            max_tfs.update(found_max)
            while len(self._cache) > self.cache_terms:
                self._cache.popitem(last=False)
        return postings, max_tfs

    def _load(self, parts: list[int], terms: list[str]
              ) -> tuple[dict, dict]:
        """(postings, max_tfs) of ``terms`` over ``parts``, joined from
        each part's _ensure_terms: a term's arrays concatenated in part
        order, its max_tf the largest of the parts'."""
        loaded = [self._ensure_terms(p, terms) for p in parts]
        if len(loaded) == 1:
            return loaded[0]
        postings, max_tfs = {}, {}
        for t in terms:
            got = [(post[t], mt[t]) for post, mt in loaded if t in post]
            if got:
                rows = [r for r, _ in got]
                postings[t] = (rows[0] if len(rows) == 1 else
                               tuple(map(np.concatenate, zip(*rows))))
                max_tfs[t] = max(m for _, m in got)
        return postings, max_tfs

    # -- serving --

    def query_batch(self, scorer) -> pa.Table:
        """Candidates of a driver-planned batch (query.plan_query) over
        this actor's parts: the shared scoring method, loading through
        the LRU."""
        return scorer.score_parts(self.parts, self._load)

    def cache_stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._cache), "parts": list(self.parts)}


class QuerySession:
    """A resident search session over a built index.

    >>> s = QuerySession(index_dir, num_actors=4)
    >>> t1 = s.query_batch(["hash join"], k=10)      # cold: segment reads
    >>> t2 = s.query_batch(["hash join fast"], k=10) # warm: only 'fast' read
    >>> s.close()

    Results are bit-identical to ``query_index`` (same kernels, same
    deterministic merge).

    Staleness contract: actors snapshot stats at construction and
    cache postings thereafter — a session observes the index AS OF its
    creation. After an index rebuild or merge, create a new session
    (segment files are replaced atomically, so a live session never
    sees torn data, only the old or the new bytes per part).
    """

    def __init__(self, index_dir: str, num_actors: int | None = None,
                 cache_terms: int = DEFAULT_CACHE_TERMS):
        import ray

        # the stats every batch is planned from (staleness contract)
        self._stats = load_stats(index_dir)
        parts = self._stats["parts"]
        self.index_dir = index_dir
        self.n_parts = len(parts)
        if num_actors is None:
            num_actors = max(1, min(8, len(parts)))
        num_actors = max(1, min(num_actors, max(1, len(parts))))
        # never request more resident actors than the cluster has CPUs
        # for: pending actors would never start and their query calls
        # would block ray.get forever
        try:
            avail = int(ray.cluster_resources().get("CPU", num_actors))
        except Exception:
            avail = num_actors
        num_actors = max(1, min(num_actors, avail))
        remote_cls = ray.remote(num_cpus=1)(_SegmentServerImpl)
        # static round-robin part assignment = segment affinity
        assign: list[list[int]] = [[] for _ in range(num_actors)]
        for i, p in enumerate(sorted(parts)):
            assign[i % num_actors].append(p)
        self._actors = [remote_cls.remote(index_dir, a, cache_terms)
                        for a in assign if a]

    def query_batch(self, queries: list[str], k: int = 10,
                    mode: str = "bm25", prune: bool = False):
        """Top-k per query: (query_id, rank, doc_id, score) pa.Table."""
        import ray

        scorer, _ = plan_query(self.index_dir, self._stats, queries, k,
                               mode, prune)
        ref = ray.put(scorer)
        refs = [a.query_batch.remote(ref) for a in self._actors]
        cand = (pa.concat_tables(ray.get(refs)).to_pandas() if refs
                else pd.DataFrame())  # an index with zero segments
        return merge_candidates(cand, len(queries), k)

    def cache_stats(self) -> list[dict]:
        import ray

        return ray.get([a.cache_stats.remote() for a in self._actors])

    def close(self) -> None:
        import ray

        for a in self._actors:
            ray.kill(a)
        self._actors = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
