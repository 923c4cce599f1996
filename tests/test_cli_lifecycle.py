"""CLI surface for the index lifecycle: build -> append -> delete ->
query -> compact as a user would run them (each command is its own
process owning its own guarded ray.init, like `ray job submit` would),
and the query flags driven through cli.main in this process, on the
session's Ray, which a command must leave running."""

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


@pytest.fixture(scope="module")
def cli_index(ray_session, tmp_path_factory):
    """A 200-doc, 4-part index built through cli.main in this process,
    on the session's Ray."""
    from raysearch.cli import main

    tmp = tmp_path_factory.mktemp("cli")
    corpus, idx = str(tmp / "c.parquet"), str(tmp / "idx")
    main(["gen-corpus", "--out", corpus, "--docs", "200"])
    main(["build", "--corpus", corpus, "--index", idx, "--parts", "4"])
    return idx


def _query_rows(capsys, idx, *extra):
    """The JSON result rows ``cli.main(["query", ...])`` prints."""
    from raysearch.cli import main

    capsys.readouterr()
    main(["query", "--index", idx, "--query", "parser", *extra])
    return [json.loads(ln) for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("{")]


def _query_fails(capsys, idx, extra, needle):
    """``cli.main(["query", ...])`` exits non-zero naming ``needle``."""
    from raysearch.cli import main

    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main(["query", "--index", idx, "--query", "parser", *extra])
    msg = f"{e.value.code} {capsys.readouterr().err}"
    assert e.value.code not in (0, None) and needle in msg, msg[-500:]


def test_cli_keeps_a_running_ray_session(cli_index, capsys):
    """A command run under a Ray session it did not start (the
    driver's, pytest's) leaves that session running."""
    import ray

    assert len(_query_rows(capsys, cli_index, "--k", "3")) == 3
    assert ray.is_initialized()


def test_cli_query_boost(cli_index, capsys):
    """--boost-term/--boost-factor: boosting the query's own term
    scales every hit's score by exactly the factor (positive
    control), an absent boost term is inert, and --prune with boost
    is refused."""
    def rows(extra):
        return _query_rows(capsys, cli_index, "--k", "3", *extra)

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
        _query_fails(capsys, cli_index, ["--boost-term", "parser", *extra],
                     needle)

    fails(["--prune"], "prune")
    fails(["--mode", "dirichlet"], "bm25/overlap")
    fails(["--mode", "dfi"], "bm25/overlap")
    fails(["--boost-factor", "0"], "must be > 0")
    fails(["--boost-factor", "-2.0"], "must be > 0")
    with pytest.raises(ValueError, match="one token"):
        rows(["--boost-term", "two words"])


def test_cli_query_rank_feature(cli_index, capsys):
    """--rank-feature W,PIVOT: every hit's score equals the plain
    score plus the exact saturation prior computed from the hit's dl
    (via a w=0-like control: tiny w barely perturbs, large w
    reorders toward long docs); malformed/invalid values and the
    prune/mode combinations are refused."""
    def rows(extra):
        return _query_rows(capsys, cli_index, "--k", "5", *extra)

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
        _query_fails(capsys, cli_index, extra, needle)

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
