"""Resident query serving (raysearch/serve.py): bit-identical results
to the one-shot path, postings cached across batches, segment-affine
part assignment."""

import os

import pytest

from raysearch.build import build_index
from raysearch.config import IndexConfig
from raysearch.query import plan_query, query_index
from raysearch.score import SIMILARITIES
from raysearch.serve import QuerySession, _SegmentServerImpl

QUERIES_A = ["fast hash join", "merge sort stream", "window agg"]
QUERIES_B = ["fast hash join", "vector scan filter"]  # overlap + new terms


@pytest.fixture(scope="module")
def idx(ray_session, medium_corpus, tmp_path_factory):
    import ray.data

    d = str(tmp_path_factory.mktemp("serveidx") / "idx")
    build_index(ray.data.from_arrow(medium_corpus), d,
                IndexConfig(num_parts=6), input_id="serve-test")
    return d


@pytest.mark.parametrize("mode", sorted(SIMILARITIES))
def test_session_matches_query_index(ray_session, idx, mode):
    with QuerySession(idx, num_actors=3) as s:
        got = s.query_batch(QUERIES_A, k=10, mode=mode)
    want = query_index(idx, QUERIES_A, k=10, mode=mode)
    assert got.num_rows and got.equals(want)


def test_session_option_check_is_driver_side(ray_session, idx):
    """Bad knob combinations fail once, in the driver, before any
    actor call — not as a RayTaskError from every actor."""
    with QuerySession(idx, num_actors=2) as s:
        with pytest.raises(ValueError, match="classic") as e:
            s.query_batch(QUERIES_A, k=10, mode="classic", prune=True)
        assert type(e.value) is ValueError
        with pytest.raises(ValueError, match="bm25") as e:
            s.query_batch(QUERIES_A, k=10, mode="bm52")
        assert type(e.value) is ValueError
        assert sum(a["misses"] for a in s.cache_stats()) == 0


def test_overlap_mode_matches(ray_session, idx):
    with QuerySession(idx, num_actors=2) as s:
        got = s.query_batch(QUERIES_A, k=5, mode="overlap")
    want = query_index(idx, QUERIES_A, k=5, mode="overlap")
    assert got.equals(want)


def test_cache_reused_across_batches(ray_session, idx):
    with QuerySession(idx, num_actors=2) as s:
        s.query_batch(QUERIES_A, k=10)
        st1 = s.cache_stats()
        misses1 = sum(a["misses"] for a in st1)
        assert misses1 > 0 and sum(a["hits"] for a in st1) == 0
        # same queries again: zero new misses, all hits
        s.query_batch(QUERIES_A, k=10)
        st2 = s.cache_stats()
        assert sum(a["misses"] for a in st2) == misses1
        assert sum(a["hits"] for a in st2) > 0
        # overlapping batch: only the NEW terms miss
        s.query_batch(QUERIES_B, k=10)
        st3 = s.cache_stats()
        new_misses = sum(a["misses"] for a in st3) - misses1
        n_parts_covered = sum(len(a["parts"]) for a in st3)
        # 'vector', 'scan', 'filter' at most: <= 3 new terms per part
        assert 0 < new_misses <= 3 * n_parts_covered
        # and the warm result still matches the cold path exactly
        got = s.query_batch(QUERIES_B, k=10)
    want = query_index(idx, QUERIES_B, k=10)
    assert got.equals(want)


def test_segment_affinity_partition(ray_session, idx):
    with QuerySession(idx, num_actors=4) as s:
        stats = s.cache_stats()
    all_parts = [p for a in stats for p in a["parts"]]
    assert len(all_parts) == len(set(all_parts))  # disjoint
    from raysearch.stats import load_stats

    assert sorted(all_parts) == sorted(load_stats(idx)["parts"])


def _plan(idx, queries, k):
    from raysearch.stats import load_stats

    st = load_stats(idx)
    return st["parts"], plan_query(idx, st, queries, k)[0]


def test_impl_negative_caching(ray_session, idx):
    parts, scorer = _plan(idx, ["zzznotaterm hash"], k=5)
    srv = _SegmentServerImpl(idx, parts[:1])
    srv.query_batch(scorer)
    m1 = srv.misses
    srv.query_batch(scorer)
    assert srv.misses == m1  # absent terms cached too (negative entries)


def test_lru_eviction(ray_session, idx):
    parts, scorer = _plan(idx, ["fast hash join merge sort"], k=5)
    srv = _SegmentServerImpl(idx, parts[:1], cache_terms=2)
    srv.query_batch(scorer)
    assert len(srv._cache) <= 2


def test_cli_serve_repl(idx):
    """End-to-end REPL: queries + :stats + punctuation-only line +
    :quit over a piped stdin, one JSON per line."""
    import json
    import subprocess
    import sys

    REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    lines = "fast hash join\n:stats\nfast hash join\n:stats\n!!! ???\n:quit\n"
    r = subprocess.run(
        [sys.executable, "-m", "raysearch.cli", "serve", "--index", idx,
         "--k", "3", "--actors", "2"],
        input=lines, capture_output=True, text=True, cwd=REPO, timeout=240)
    out = [json.loads(ln) for ln in r.stdout.splitlines() if ln.strip()]
    assert out[0]["ready"] is True
    q1, s1, q2, s2, punct = out[1], out[2], out[3], out[4], out[5]
    assert q1["results"] and q1 == q2          # identical served results
    assert sum(a["misses"] for a in s1["cache"]) > 0
    assert sum(a["hits"] for a in s1["cache"]) == 0
    assert (sum(a["misses"] for a in s2["cache"])
            == sum(a["misses"] for a in s1["cache"]))  # warm: no new reads
    assert sum(a["hits"] for a in s2["cache"]) > 0
    assert punct["results"] == []              # token-less query is clean
    assert r.returncode == 0


def test_cli_monitor(idx):
    """Monitor reads durable manifests: single-shot poll on a finished
    index reports all parts and complete=true."""
    import json
    import subprocess
    import sys

    REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    r = subprocess.run(
        [sys.executable, "-m", "raysearch.cli", "monitor", "--index", idx],
        capture_output=True, text=True, cwd=REPO, timeout=120)
    out = [json.loads(ln) for ln in r.stdout.splitlines() if ln.strip()]
    assert len(out) == 1 and out[0]["complete"] is True
    from raysearch.stats import load_stats

    st = load_stats(idx)
    assert out[0]["parts_done"] == len(st["parts"])
    assert out[0]["n_docs"] == st["n_docs"]
    assert r.returncode == 0


def test_term_weight_queries_all_frontends(ray_session, idx):
    """Pre-tokenized [(term, weight)] queries must work identically on
    every scoring frontend (query_index AND the resident session), and
    must equal the equivalent raw-string query."""
    tq = [[("fast", 1), ("hash", 1), ("join", 1)],
          [("merge", 2), ("sort", 1)]]
    want = query_index(idx, tq, k=10)
    with QuerySession(idx, num_actors=2) as s:
        got = s.query_batch(tq, k=10)
    assert got.equals(want)
    # unit-weight list == raw string through the same tokenizer
    s1 = query_index(idx, ["fast hash join"], k=10)
    assert s1["doc_id"].equals(want.filter(
        __import__("pyarrow").compute.equal(want["query_id"], 0))["doc_id"])
