"""Randomized end-to-end rank identity: build + query on SEEDED-RANDOM
corpora across partition counts and modes, bit-identical (including
float scores) to the single-process Oracle. Breadth armor beyond the
fixed fixtures — different seeds shift vocabulary balance, doc-length
spread, and partition assignment; also exercises the resident serving
path on one configuration."""

import pytest

from raysearch.build import build_index
from raysearch.config import IndexConfig
from raysearch.corpus import QUERIES, generate_corpus
from raysearch.oracle import Oracle
from raysearch.query import query_index

# (seed, n_docs, num_parts, mode). The ids keep the names these cases
# had while each also carried a build-shuffle split factor (the
# fourth field; 2 on the 303 and 606 cases), so their history stays
# continuous across the single-shuffle build.
CASES = [
    pytest.param(101, 700, 3, "bm25", id="101-700-3-1-bm25"),
    pytest.param(202, 1200, 16, "overlap", id="202-1200-16-1-overlap"),
    pytest.param(303, 900, 5, "bm25", id="303-900-5-2-bm25"),
    # single partition
    pytest.param(404, 400, 1, "bm25", id="404-400-1-1-bm25"),
    # query-likelihood mode, odd parts
    pytest.param(505, 800, 7, "dirichlet", id="505-800-7-1-dirichlet"),
    pytest.param(606, 600, 2, "dirichlet", id="606-600-2-2-dirichlet"),
]


@pytest.mark.parametrize("seed,n_docs,parts,mode", CASES)
def test_random_corpus_rank_identity(ray_session, tmp_path, seed, n_docs,
                                     parts, mode):
    import ray.data

    corpus = generate_corpus(n_docs, seed=seed, labeled=True)
    idx = str(tmp_path / f"idx{seed}")
    build_index(ray.data.from_arrow(corpus), idx,
                IndexConfig(num_parts=parts), input_id=f"rand-{seed}")
    out = query_index(idx, QUERIES, k=10, mode=mode)
    golden = Oracle(corpus, IndexConfig(num_parts=parts)).search_all(
        QUERIES, k=10, mode=mode)
    assert out.equals(golden)


def test_random_corpus_resident_identity(ray_session, tmp_path):
    import ray.data

    from raysearch.serve import QuerySession

    corpus = generate_corpus(800, seed=505, labeled=True)
    idx = str(tmp_path / "idxserve")
    build_index(ray.data.from_arrow(corpus), idx,
                IndexConfig(num_parts=6), input_id="rand-505")
    golden = Oracle(corpus).search_all(QUERIES, k=10, mode="bm25")
    with QuerySession(idx, num_actors=3) as s:
        got = s.query_batch(QUERIES, k=10)
        warm = s.query_batch(QUERIES, k=10)
    assert got.equals(golden)
    assert warm.equals(golden)
