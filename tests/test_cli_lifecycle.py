"""CLI surface for the index lifecycle: build -> append -> delete ->
query -> compact as a user would run them (each command is its own
process owning its own guarded ray.init, like `ray job submit` would)."""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(args, timeout=240):
    r = subprocess.run([sys.executable, "-m", "raysearch.cli", *args],
                       capture_output=True, text=True, cwd=REPO,
                       timeout=timeout,
                       env={**os.environ, "PYTHONPATH": REPO})
    assert r.returncode == 0, r.stderr[-2000:]
    lines = [ln for ln in r.stdout.splitlines() if ln.startswith("{")]
    return json.loads(lines[-1]) if lines else {}


@pytest.mark.timeout(600)
def test_cli_lifecycle_roundtrip(tmp_path):
    corpus_a = str(tmp_path / "a.parquet")
    corpus_b = str(tmp_path / "b.parquet")
    idx = str(tmp_path / "idx")

    # two disjoint corpora (gen-corpus is seeded; shift doc_ids for b)
    _run(["gen-corpus", "--out", corpus_a, "--docs", "200"])
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    tb = pq.read_table(corpus_a)
    tb = tb.set_column(tb.schema.get_field_index("doc_id"), "doc_id",
                       pc.add(tb["doc_id"], 10_000))
    pq.write_table(tb, corpus_b)

    d = _run(["build", "--corpus", corpus_a, "--index", idx,
              "--parts", "4"])
    assert d["n_docs"] == 200

    d = _run(["append", "--corpus", corpus_b, "--index", idx,
              "--parts", "3"])
    assert d["n_docs"] == 400
    assert d["parts"] == 7

    d = _run(["delete", "--index", idx, "--doc-ids", "0,1,10000"])
    assert d["tombstones"] == 3

    r = subprocess.run(
        [sys.executable, "-m", "raysearch.cli", "query", "--index", idx,
         "--query", "parser ast grammar", "--k", "5",
         "--mode", "dirichlet"],
        capture_output=True, text=True, cwd=REPO, timeout=240,
        env={**os.environ, "PYTHONPATH": REPO})
    assert r.returncode == 0, r.stderr[-2000:]
    rows = [json.loads(ln) for ln in r.stdout.splitlines()
            if ln.startswith("{")]
    assert len(rows) == 5
    assert not {row["doc_id"] for row in rows} & {0, 1, 10_000}

    d = _run(["compact", "--index", idx])
    assert d["n_docs"] == 397


@pytest.mark.timeout(600)
def test_cli_query_boost(tmp_path):
    """--boost-term/--boost-factor: boosting the query's own term
    scales every hit's score by exactly the factor (positive
    control), an absent boost term is inert, and --prune with boost
    is refused."""
    corpus = str(tmp_path / "c.parquet")
    idx = str(tmp_path / "idx")
    _run(["gen-corpus", "--out", corpus, "--docs", "200"])
    _run(["build", "--corpus", corpus, "--index", idx, "--parts", "4"])

    def rows(extra):
        r = subprocess.run(
            [sys.executable, "-m", "raysearch.cli", "query",
             "--index", idx, "--query", "parser", "--k", "3", *extra],
            capture_output=True, text=True, cwd=REPO, timeout=240,
            env={**os.environ, "PYTHONPATH": REPO})
        assert r.returncode == 0, r.stderr[-2000:]
        return [json.loads(ln) for ln in r.stdout.splitlines()
                if ln.startswith("{")]

    plain = rows([])
    boosted = rows(["--boost-term", "parser", "--boost-factor", "2.0"])
    assert [b["doc_id"] for b in boosted] == [p["doc_id"] for p in plain]
    for p, b in zip(plain, boosted):
        assert abs(b["score"] - 2.0 * p["score"]) < 1e-9
    inert = rows(["--boost-term", "zzznothingzzz"])
    assert inert == plain

    # term normalization: a capitalized boost term matches the same
    # postings the lowercased query side would
    capped = rows(["--boost-term", "Parser", "--boost-factor", "2.0"])
    assert capped == boosted

    def fails(extra, needle):
        r = subprocess.run(
            [sys.executable, "-m", "raysearch.cli", "query",
             "--index", idx, "--query", "parser",
             "--boost-term", "parser", *extra],
            capture_output=True, text=True, cwd=REPO, timeout=240,
            env={**os.environ, "PYTHONPATH": REPO})
        assert r.returncode != 0 and needle in r.stderr, r.stderr[-500:]

    fails(["--prune"], "prune")
    fails(["--mode", "dirichlet"], "bm25/overlap")
    fails(["--mode", "dfi"], "bm25/overlap")
    fails(["--boost-factor", "0"], "must be > 0")
    fails(["--boost-factor", "-2.0"], "must be > 0")
    r = subprocess.run(
        [sys.executable, "-m", "raysearch.cli", "query", "--index", idx,
         "--query", "parser", "--boost-term", "two words"],
        capture_output=True, text=True, cwd=REPO, timeout=240,
        env={**os.environ, "PYTHONPATH": REPO})
    assert r.returncode != 0 and "one token" in r.stderr


@pytest.mark.timeout(600)
def test_cli_query_rank_feature(tmp_path):
    """--rank-feature W,PIVOT: every hit's score equals the plain
    score plus the exact saturation prior computed from the hit's dl
    (via a w=0-like control: tiny w barely perturbs, large w
    reorders toward long docs); malformed/invalid values and the
    prune/mode combinations are refused."""
    corpus = str(tmp_path / "c.parquet")
    idx = str(tmp_path / "idx")
    _run(["gen-corpus", "--out", corpus, "--docs", "200"])
    _run(["build", "--corpus", corpus, "--index", idx, "--parts", "4"])

    def rows(extra):
        r = subprocess.run(
            [sys.executable, "-m", "raysearch.cli", "query",
             "--index", idx, "--query", "parser", "--k", "5", *extra],
            capture_output=True, text=True, cwd=REPO, timeout=240,
            env={**os.environ, "PYTHONPATH": REPO})
        assert r.returncode == 0, r.stderr[-2000:]
        return [json.loads(ln) for ln in r.stdout.splitlines()
                if ln.startswith("{")]

    plain = rows([])
    # near-zero prior: same ranking, scores shifted by < w
    eps = rows(["--rank-feature", "0.000001,50"])
    assert [e["doc_id"] for e in eps] == [p["doc_id"] for p in plain]
    for p, e in zip(plain, eps):
        assert 0 <= e["score"] - p["score"] < 1e-6 + 1e-9
    # a large prior must change the score of every hit by (0, w)
    big = rows(["--rank-feature", "5,50"])
    bm = {p["doc_id"]: p["score"] for p in plain}
    moved = [b for b in big if b["doc_id"] in bm]
    assert moved and all(0 < b["score"] - bm[b["doc_id"]] < 5.0
                         for b in moved)

    def fails(extra, needle):
        r = subprocess.run(
            [sys.executable, "-m", "raysearch.cli", "query",
             "--index", idx, "--query", "parser", *extra],
            capture_output=True, text=True, cwd=REPO, timeout=240,
            env={**os.environ, "PYTHONPATH": REPO})
        assert r.returncode != 0 and needle in r.stderr, r.stderr[-500:]

    fails(["--rank-feature", "2,50", "--prune"], "rank-feature")
    fails(["--rank-feature", "2,50", "--mode", "overlap"],
          "rank-feature")
    fails(["--rank-feature", "nope"], "W,PIVOT")
    fails(["--rank-feature", "0,50"], "must be > 0")
    fails(["--rank-feature", "2,-1"], "must be > 0")
    fails(["--rank-feature", "2,50", "--dsl"], "--dsl implies")


@pytest.mark.parametrize("cmd", ["query", "serve", "serve-tcp"])
def test_cli_mode_choices(cmd, capsys):
    """Every query-serving command takes --mode from the similarity
    table: an unknown mode is an argparse usage error (exit 2)."""
    from raysearch.cli import main

    with pytest.raises(SystemExit) as e:
        main([cmd, "--index", "unused", "--mode", "bogus"])
    assert e.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
