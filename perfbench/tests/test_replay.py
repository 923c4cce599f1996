"""Two traced runs on the same inputs report exactly the same counts,
and every per-layer metric the benchmark declares."""

import json
import os

import pytest

from perfbench import replay, run

COUNTS = ("triples.rows", "segments.bytes_written", "resume.parts_rebuilt",
          "query.candidates", "segments.rows_read", "codec.entries_decoded",
          "serve.misses", "build.part_skew", "serve.cache_hit_ratio",
          "query.parts_useful_ratio.hot", "query.parts_useful_ratio.mid",
          "query.parts_useful_ratio.rare", "wand.decode_fraction.hot",
          "wand.decode_fraction.mid", "wand.decode_fraction.rare")


@pytest.fixture(scope="module")
def ray_session(tmp_path_factory):
    import ray

    run._start_ray(str(tmp_path_factory.mktemp("pb")), 1)
    yield
    ray.shutdown()


def _traced(base, workload):
    ctx = run.make_context(base, seed=5, seconds=1, n_docs=1200, num_parts=4)
    return replay.run(workload, ctx)


def test_counts_repeat_across_traced_runs(ray_session, tmp_path):
    a = _traced(str(tmp_path / "a"), "serve")
    b = _traced(str(tmp_path / "b"), "serve")
    assert a["failed"] == b["failed"] == 0
    for name in COUNTS:
        assert a["metrics"][name] == b["metrics"][name], name


def test_traced_run_reports_every_declared_metric(ray_session, tmp_path):
    out = _traced(str(tmp_path), "build")
    bench = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(bench) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(out["metrics"]) == declared == set(replay.UNITS)
    assert out["failed"] == 0
