"""Index configuration + config hashing (part of checkpoint lineage).

The config hash is written into every partition manifest; a resume run
only skips a partition when its manifest's config hash matches the
current build's (see raysearch/checkpoint.py).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class IndexConfig:
    """Configuration of an index build.

    num_parts: number of document-hash partitions (segments). Decoupled
        from cluster size on purpose: going from N to 4N nodes changes
        task parallelism, never the on-disk layout — this is what makes
        resume and the scaling gate independent of topology.
    k1, b: BM25 parameters (baked into scoring, not the index).
    """

    num_parts: int = 8
    k1: float = 1.2
    b: float = 0.75
    # Opt-in positional postings (Lucene-style): each posting row
    # gains a pos_enc column — per-doc within-doc token positions,
    # delta+varint with the SAME codec as doc gaps, concatenated in
    # doc order and split by the tf array. Costs extra shuffle payload
    # and segment bytes, buys index-only phrase/NEAR/slop verification
    # (no candidate-doc re-tokenize). Part of the config hash, so
    # positional and plain indexes never share checkpoints.
    with_positions: bool = False
    # BUMP whenever tokenizer semantics change — the hash invalidates
    # every cached/checkpointed segment built under older semantics.
    # v2: drop arrow's empty edge tokens (match str.split exactly).
    tokenizer_version: str = "ref-v2"  # whitespace+lower docs, \w+ lower queries
    codec_version: str = "dv1"  # delta+varint postings

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "IndexConfig":
        # indexes written before the single-shuffle build also record
        # a build-shuffle split factor; every value of it wrote the
        # same segments, so it is dropped
        return IndexConfig(**{k: v for k, v in d.items() if k != "salt"})
