"""Federated (multi-index) search: one query set over several
independently-built indexes with MERGED global statistics — the
Elasticsearch cross-index / `dfs_query_then_fetch` semantics, and the
shape a 100 TB deployment actually runs (one index per tenant /
source / time range, queried together).

The reference engine holds exactly one in-memory index per process
(/root/reference/src/lib.rs:341-343) and cannot search across two of
them; its sharded mode re-splits ONE index's queries rather than
federating separate indexes (/root/reference/src/processor.rs).

Correctness contract: BM25 scores depend on a document only through
its own (tf, dl) and on GLOBAL (df, N, avgdl). When the per-index
collection stats are first merged (df summed term-wise, N and
total-token counts summed — exact, because the sub-corpora are
disjoint) and injected into every sub-index's scorer, a document's
score is identical to what a single monolithic index would produce.
Each sub-index returns its rounding-tie buffer of top candidates
under those merged stats; since per-document scores match the
monolithic ones exactly, the global top-k is contained in the union
of per-index top-k — so the federated result is EXACT, and the
oracle is the plain single-index BM25 SQL.

Scale notes: stats merging moves one lexicon-row stream per index for
the query's terms only (term-filtered parquet reads, bytes ∝ number
of distinct query terms × indexes); candidate merge moves
indexes × queries × k rows. Neither touches postings beyond the
standard per-part term-filtered fan-out each sub-index already does.
At many indexes the per-term df partials would pre-sum in a tree
(the same tree-merge the build's stats stage uses, build.py).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from raysearch.config import IndexConfig
from raysearch.pipelines.search_queries import (
    _TOPK_BUFFER,
    B,
    DOC_QUERIES,
    K1,
    _docs_path,
    _source_fingerprint,
    sql_bm25_topk,
)

_NUM_PARTS = 4  # per sub-index; 2 indexes -> 8 scoring parts total


def federated_indexes(sf_dir: str) -> list[str]:
    """Build (sentinel-cached, lifecycle cache contract) the two
    disjoint sub-indexes, split by doc_id parity — two fully
    independent builds with their own manifests, lexicons and
    collection stats, exactly as two tenant indexes would be."""
    import os

    from raysearch.build import build_index
    from raysearch.pipelines.lifecycle import (_fresh, _lifecycle_dir,
                                               _split_reader)

    dirs = []
    for half in (0, 1):
        idx, sentinel = _lifecycle_dir(sf_dir, f"fed{half}")
        if not os.path.exists(sentinel):
            _fresh(idx)
            build_index(
                _split_reader(sf_dir, half), idx,
                IndexConfig(num_parts=_NUM_PARTS, k1=K1, b=B),
                input_id=(f"{sf_dir}#fed{half}@"
                          f"{_source_fingerprint(_docs_path(sf_dir))}"))
            open(sentinel, "w").close()
        dirs.append(idx)
    return dirs


def merged_stats(index_dirs: list[str], terms: list[str]) -> dict:
    """Exact cross-index collection statistics: df summed term-wise,
    N and total tokens summed (the sub-corpora are disjoint), avgdl
    recomputed from the sums — the dfs_query_then_fetch stats
    exchange."""
    from raysearch.query import lexicon_df
    from raysearch.stats import load_stats

    n_docs = 0
    total_tokens = 0
    df: dict[str, int] = {}
    for idx in index_dirs:
        st = load_stats(idx)
        n_docs += st["n_docs"]
        total_tokens += st["total_tokens"]
        for t, d in lexicon_df(idx, terms).items():
            df[t] = df.get(t, 0) + d
    return {"n_docs": n_docs, "avgdl": total_tokens / n_docs,
            "df": df}


def federated_topk(sf_dir: str) -> pa.Table:
    """BM25 top-{k} per query ACROSS two independent sub-indexes with
    merged global stats; bit-equal to the monolithic single-index
    ranking (oracle = the plain BM25 SQL).

    Per sub-index the merged stats ride the same injection path the
    time-travel snapshot query uses (query.query_index's ``asof``
    stats override); each sub-index then runs its ordinary
    per-segment candidate fan-out and returns its rounding-tie
    buffer, and the cross-index merge is a driver-side selection of
    indexes × queries × buffer rows."""
    from raysearch.query import query_index
    from raysearch.score import query_term_weights
    from raysearch.stats import load_stats

    idxs = federated_indexes(sf_dir)
    terms = sorted({t for q in DOC_QUERIES
                    for t, _ in query_term_weights(q)})
    stats = merged_stats(idxs, terms)
    cand = []
    for idx in idxs:
        parts = load_stats(idx)["parts"]
        tbl = query_index(
            idx, DOC_QUERIES, k=_TOPK_BUFFER, mode="bm25",
            asof={"parts": parts, "df": stats["df"],
                  "n_docs": stats["n_docs"], "avgdl": stats["avgdl"]})
        cand.append(tbl.to_pandas()[["query_id", "doc_id", "score"]])
    # round6, then the (-score, doc_id) rank cut every ranked output
    # takes from numutil.rank_cut
    from raysearch.pipelines.rankex import _ranked_from_candidates

    return _ranked_from_candidates(pd.concat(cand, ignore_index=True))


def merged_topk(sf_dir: str) -> pa.Table:
    """BM25 top-k after SEGMENT-MERGING the two federated sub-indexes
    into one physical index (raysearch/merge.py: one Ray task per
    partition, same-config guard, posting rows of disjoint corpora
    concatenated per part, stats tree-merged, lexicon rebuilt from
    segment footers) — the Lucene forceMerge/addIndexes lifecycle
    step, completing the driver-gated lifecycle family
    (append / delete / compact / merge / time-travel). Oracle = the
    plain single-index BM25 SQL: a merged index must be
    behavior-identical to one built monolithically.

    Scale: the merge moves each posting row once (parallel per part,
    no shuffle — part p of every input holds disjoint docs of the
    same doc-hash partition space), exactly the sub-index merge a
    multi-tenant consolidation or an LSM level-compaction performs."""
    import os

    from raysearch.merge import merge_indexes
    from raysearch.pipelines.lifecycle import _fresh, _lifecycle_dir
    from raysearch.pipelines.search_queries import topk_rounded_for_index

    srcs = federated_indexes(sf_dir)
    out, sentinel = _lifecycle_dir(sf_dir, "fedmerge")
    if not os.path.exists(sentinel):
        _fresh(out)
        merge_indexes(srcs, out)
        open(sentinel, "w").close()
    return topk_rounded_for_index(out, "bm25")


QUERIES = {
    "federated_topk": federated_topk,
    "merged_topk": merged_topk,
}

ORACLE_SQL = {
    # the exactness claim IS the oracle: federated/merged ==
    # monolithic BM25
    "federated_topk": sql_bm25_topk(),
    "merged_topk": sql_bm25_topk(),
}
