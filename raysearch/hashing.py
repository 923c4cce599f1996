"""Deterministic vectorized hashing (never Python's seeded hash())."""

from __future__ import annotations

import numpy as np

_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xBF58476D1CE4E5B9)
_C3 = np.uint64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64/int64 array (public-domain
    algorithm; deterministic across processes and machines)."""
    with np.errstate(over="ignore"):
        z = x.astype(np.uint64) + _C1
        z = (z ^ (z >> np.uint64(30))) * _C2
        z = (z ^ (z >> np.uint64(27))) * _C3
        return z ^ (z >> np.uint64(31))


def doc_partition(doc_ids: np.ndarray, num_parts: int) -> np.ndarray:
    """Document-hash partition id (int64 in [0, num_parts))."""
    return (splitmix64(doc_ids) % np.uint64(num_parts)).astype(np.int64)


def auto_buckets(n_docs: int, docs_per_bucket: int = 8_000,
                 lo: int = 64, hi: int = 65_536) -> int:
    """Coarse shuffle-key cardinality scaled to the input, so each
    reduce group holds ~docs_per_bucket documents' worth of rows no
    matter how large the corpus is — the same reduce-group-cliff guard
    as build._auto_parts (measured there: group materialization
    degrades ~5x past ~16k docs/group). A FIXED bucket constant makes
    group mass linear in input size; this keeps it O(target).

    Bucket count must never change operator RESULTS — only group
    sizes (asserted in tests/test_skew.py by comparing runs at two
    bucket cardinalities). Always a power of two so callers may mask
    (`x & (nb-1)`) instead of modulo."""
    if n_docs is None:
        return lo
    want = max(lo, min(hi, -(-int(n_docs) // docs_per_bucket)))
    return 1 << (want - 1).bit_length()


def parquet_rows(path: str) -> int:
    """Row count straight from parquet footers — file OR directory of
    .parquet files (real tables are directories of shards). This is
    the input-size hint auto_buckets consumes; no Ray Dataset is built
    for it (a throwaway plan would cost seconds of scheduling)."""
    import os

    import pyarrow.parquet as pq

    if os.path.isdir(path):
        return sum(pq.read_metadata(os.path.join(path, f)).num_rows
                   for f in os.listdir(path) if f.endswith(".parquet"))
    return pq.read_metadata(path).num_rows
