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
  path's per-part read (segments.part_postings) fetches ONLY the
  missing terms of a batch; a part missing on disk raises.
- Scoring reuses the exact kernels of the one-shot path
  (raysearch/query.py), so a resident session returns bit-identical
  results to ``query_index``.
- The driver merge is the same k-bounded selection as the batch path
  (doc-hash partitioning keeps per-segment scores final).

At cluster scale: actors are placed by Ray across nodes; each holds
O(parts/actors) segments; adding actors splits the part sets (cache
shards stay disjoint). A 100-query batch costs one footer-pruned
lexicon term read on the driver (df and cf together) + one RPC per
actor.
"""

from __future__ import annotations

from collections import OrderedDict

import pandas as pd
import pyarrow as pa

from raysearch.query import (
    RESULT_SCHEMA,
    lexicon_lookup,
    merge_candidates,
    score_queries_over_postings,
)
from raysearch.score import as_qweights, check_query_options
from raysearch.stats import load_stats

DEFAULT_CACHE_TERMS = 65536  # (part, term) LRU entries per actor


class _SegmentServerImpl:
    """Plain-Python actor body (kept undecorated for direct unit
    testing); wrapped by ray.remote in QuerySession."""

    def __init__(self, index_dir: str, parts: list[int],
                 cache_terms: int = DEFAULT_CACHE_TERMS):
        st = load_stats(index_dir)
        cfg = st["config"]
        self.index_dir = index_dir
        self.parts = list(parts)
        self.n_docs = st["n_docs"]
        self.avgdl = st["avgdl"]
        self.total_tokens = st.get("total_tokens", 0)
        self.k1, self.b = cfg["k1"], cfg["b"]
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
        from raysearch.segments import part_postings

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
            found = part_postings(self.index_dir, part, missing)
            for t, decoded in found.items():
                max_tf = int(decoded[1].max())  # the unfiltered row's
                if self.deleted is not None:
                    from raysearch.maintenance import filter_postings

                    decoded = filter_postings(decoded, self.deleted)
                entry = (decoded, max_tf)
                self._cache[(part, t)] = entry
                postings[t], max_tfs[t] = entry
            for t in missing:
                if t not in found:
                    self._cache[(part, t)] = (None, None)
            while len(self._cache) > self.cache_terms:
                self._cache.popitem(last=False)
        return postings, max_tfs

    # -- serving --

    def query_batch(self, queries: list[str], k: int, mode: str,
                    df: dict[str, int], prune: bool = False,
                    cf: dict[str, int] | None = None,
                    mu: float = 2000.0) -> pa.Table:
        qweights = [as_qweights(q) for q in queries]
        all_terms = sorted({t for qw in qweights for t, _ in qw})
        outs = []
        for part in self.parts:
            postings, max_tfs = self._ensure_terms(part, all_terms)
            outs.append(score_queries_over_postings(
                qweights, postings, max_tfs, df, self.n_docs,
                self.avgdl, self.k1, self.b, k, mode, prune,
                cf=cf, total_tokens=self.total_tokens, mu=mu))
        return pa.concat_tables(outs) if outs else RESULT_SCHEMA.empty_table()

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
                 cache_terms: int = DEFAULT_CACHE_TERMS,
                 num_cpus_per_actor: float = 1.0):
        import ray

        st = load_stats(index_dir)
        parts = st.get("parts")
        if parts is None:
            from raysearch.segments import list_segment_parts

            parts = list_segment_parts(index_dir)
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
        num_actors = max(1, min(num_actors,
                                int(avail / max(num_cpus_per_actor, 1e-9))))
        remote_cls = ray.remote(num_cpus=num_cpus_per_actor)(
            _SegmentServerImpl)
        # static round-robin part assignment = segment affinity
        assign: list[list[int]] = [[] for _ in range(num_actors)]
        for i, p in enumerate(sorted(parts)):
            assign[i % num_actors].append(p)
        self._actors = [remote_cls.remote(index_dir, a, cache_terms)
                        for a in assign if a]

    def query_batch(self, queries: list[str], k: int = 10,
                    mode: str = "bm25", prune: bool = False,
                    mu: float = 2000.0):
        """Top-k per query: (query_id, rank, doc_id, score) pa.Table."""
        import ray

        sim = check_query_options(mode, prune)
        qweights = [as_qweights(q) for q in queries]
        all_terms = sorted({t for qw in qweights for t, _ in qw})
        df, cf = lexicon_lookup(self.index_dir, all_terms)
        cf = cf if sim.needs_cf else None
        refs = [a.query_batch.remote(queries, k, mode, df, prune, cf, mu)
                for a in self._actors]
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
