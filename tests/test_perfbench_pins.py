"""perfbench/replay.py replays the build and query layers by calling
raysearch internals directly, but the suite never runs perfbench's own
tests. Pin every ``from raysearch... import name`` it contains, and
every attribute it reads from the resident actor body it runs
in-process, so a refactor that renames or drops one fails here instead
of silently breaking the benchmark's traced replay."""

import ast
import importlib
import inspect
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPLAY = os.path.join(REPO, "perfbench", "replay.py")


def _raysearch_imports() -> list[tuple[str, str]]:
    with open(REPLAY, encoding="utf-8") as f:
        tree = ast.parse(f.read(), REPLAY)
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and (node.module + ".").startswith("raysearch.")
            for alias in node.names]


def _resolves(module: str, name: str) -> bool:
    """What ``from module import name`` would find: an attribute, or
    a submodule of that name."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_replay_raysearch_imports_resolve():
    pins = _raysearch_imports()
    assert len(pins) >= 15, pins  # the parse really found the pins
    missing = [f"{mod}.{name}" for mod, name in pins
               if not _resolves(mod, name)]
    assert not missing, missing


def _server_reads() -> set[str]:
    """The attributes replay.py reads from ``srv``, its
    ``_SegmentServerImpl``."""
    with open(REPLAY, encoding="utf-8") as f:
        tree = ast.parse(f.read(), REPLAY)
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "srv"}


def test_segment_server_keeps_replay_surface(ray_session, small_corpus,
                                             tmp_path):
    import ray.data

    from raysearch.build import build_index
    from raysearch.config import IndexConfig
    from raysearch.serve import _SegmentServerImpl
    from raysearch.stats import load_stats

    reads = _server_reads()
    surface = {"_ensure_terms", "parts", "n_docs", "avgdl", "k1", "b",
               "hits", "misses"}
    assert surface <= reads, reads  # the parse really found them
    idx = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(small_corpus), idx,
                IndexConfig(num_parts=2), input_id="replay-pins")
    st = load_stats(idx)
    srv = _SegmentServerImpl(idx, st["parts"])
    assert not [a for a in reads if not hasattr(srv, a)]
    # required parameters only: ray.remote on the class (test_serve's
    # QuerySession) adds an optional _ray_trace_ctx to every method
    params = inspect.signature(srv._ensure_terms).parameters.values()
    assert [p.name for p in params if p.default is p.empty] == [
        "part", "terms"]
    assert srv.parts == st["parts"]
    assert (srv.n_docs, srv.avgdl, srv.k1, srv.b) == (
        st["n_docs"], st["avgdl"], st["config"]["k1"], st["config"]["b"])
    terms = ["hash", "join", "no-such-term"]
    for rnd in (1, 2):  # cold, then all hits
        postings, max_tfs = srv._ensure_terms(st["parts"][0], terms)
        assert postings and set(postings) == set(max_tfs) <= set(terms)
        assert all(len(p) == 3 for p in postings.values())
        assert (srv.misses, srv.hits) == (len(terms), (rnd - 1) * len(terms))
