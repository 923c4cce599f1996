"""The three untraced workloads, driven through raysearch's public API
from one client thread (closed loop: the next call starts when the
previous one returns).

- ``build``: set-up builds the index. The window holds builds, each
  into a fresh directory; after each, a seeded quarter of the segment
  dirs is deleted and the build is resumed. After two such cycles a
  new one starts only if it should end inside the window.
- ``query``: set-up builds the index. The first half of the window
  runs one-shot ``query_index`` calls of one query each, the second
  half 100-query batches; queries come from the hot/mid/rare tiers.
- ``serve``: the index is built first (reported, not set-up: ``query``
  measures it); set-up starts a ``QuerySession`` and warms its cache
  with the popular head. The window sends one query per call from a
  Zipf popularity stream.

Every result is checked after the window: builds byte-for-byte against
the set-up build, resumes against the files they replace, queries
against ``Oracle`` and served queries against ``query_index``.

Set-up runs ``SETUP_REPEATS`` times and ``setup_s`` is the median;
the Ray worker is started beforehand (``warm_up``), so set-up holds
program work only. Each workload returns the four end-to-end metrics
every workload shares (``setup_s``, ``rss_mb``, ``p50_ms``,
``work_per_s``) and a report holding the workload's own named
metrics.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import measure

K = 10
SETUP_REPEATS = 2
MIN_CYCLES = 2


def warm_up(ctx) -> float:
    """Start the Ray worker and import raysearch in it: Ray start-up
    belongs to the host record, not to a workload's set-up."""
    import ray.data

    def touch(batch):
        import raysearch.build  # noqa: F401

        return batch

    t0 = time.perf_counter()
    ray.data.range(ctx.nproc).map_batches(touch).take_all()
    return time.perf_counter() - t0


def build(ctx, name: str) -> tuple[str, float]:
    """Build a fresh index ``name`` under the run dir; (dir, wall s)."""
    from raysearch.build import build_index

    out = os.path.join(ctx.work, name)
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    build_index(ctx.inputs["corpus_files"], out, ctx.config)
    return out, time.perf_counter() - t0


def segment_digests(index_dir: str, parts=None) -> dict:
    """sha256 of every segment file, keyed by (part, file name)."""
    from raysearch.segments import list_segment_parts, part_dirname

    out = {}
    for p in (list_segment_parts(index_dir) if parts is None else parts):
        d = part_dirname(index_dir, p)
        for f in ("postings.parquet", "doclens.parquet"):
            with open(os.path.join(d, f), "rb") as fh:
                out[(p, f)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


def load_oracle(ctx):
    from raysearch.oracle import Oracle

    corpus = pa.concat_tables(pq.read_table(f)
                              for f in ctx.inputs["corpus_files"])
    return Oracle(corpus, ctx.config)


def _tally(ok: bool, counts: dict) -> None:
    counts["attempted"] += 1
    if not ok:
        counts["failed"] += 1


def _shared(setup: list[float], ops_s: list[float], work: int,
            work_s: float, rss: float) -> dict:
    return {
        "setup_s": measure.median(setup),
        "rss_mb": rss,
        "p50_ms": measure.median(ops_s) * 1e3,
        "work_per_s": work / work_s,
    }


def _latency(samples_s: list[float]) -> dict:
    """Sample count, median and the reportable tail of a latency
    sample, in ms (``p95_ms`` when that is the highest percentile with
    ten samples beyond it)."""
    out = {"n": len(samples_s), "p50_ms": measure.median(samples_s) * 1e3}
    t = measure.tail(samples_s)
    if t is not None and t[0] > 50:
        out[f"p{t[0]:g}_ms"] = t[1] * 1e3
    return out


def run_build(ctx) -> dict:
    from raysearch.build import build_index
    from raysearch.query import query_index
    from raysearch.segments import list_segment_parts, part_dirname

    counts = {"attempted": 0, "failed": 0}
    setups = [build(ctx, f"setup{r}") for r in range(SETUP_REPEATS)]
    base = segment_digests(setups[0][0])
    for d, _ in setups[1:]:
        _tally(segment_digests(d) == base, counts)
        shutil.rmtree(d)
    files = ctx.inputs["corpus_files"]
    n_docs = ctx.n_docs
    builds, resumes = [], []
    last = None
    ctx.probe.start()
    t0 = time.perf_counter()
    i = 0
    # a build-and-resume cycle is long: after MIN_CYCLES, start one only
    # if it should end inside the window
    while i < MIN_CYCLES or (time.perf_counter() - t0) * (i + 1) / i \
            <= ctx.seconds:
        out, wall = build(ctx, f"w{i}")
        builds.append(wall)
        _tally(segment_digests(out) == base, counts)
        parts = list_segment_parts(out)
        rng = np.random.default_rng([ctx.seed, i, 3])
        victims = sorted(int(p) for p in rng.choice(
            parts, size=max(1, len(parts) // 4), replace=False))
        before = segment_digests(out, victims)
        for p in victims:
            shutil.rmtree(part_dirname(out, p))
        t1 = time.perf_counter()
        res = build_index(files, out, ctx.config)
        resumes.append(time.perf_counter() - t1)
        _tally(res.parts_built == len(victims)
               and segment_digests(out, victims) == before, counts)
        if last is not None:
            shutil.rmtree(last, ignore_errors=True)
        last = out
        i += 1
    rss = measure.tree_rss_mb()
    host = ctx.probe.stop()
    check = ctx.inputs["streams"]["check"]
    _tally(query_index(last, check, k=K).equals(
        load_oracle(ctx).search_all(check, k=K)), counts)
    ratio = dir_bytes(last) / ctx.inputs["content_bytes"]
    report = {
        "build_docs_per_s": {"value": n_docs * len(builds) / sum(builds),
                             "unit": "docs/s"},
        "resume_s": {"value": measure.median(resumes), "unit": "s"},
        "index_bytes_per_content_byte": {"value": ratio, "unit": "ratio"},
        "builds": len(builds), "build_s": builds, "resume_samples_s": resumes,
    }
    return {"metrics": _shared([w for _, w in setups], builds,
                               n_docs * len(builds),
                               sum(builds), rss),
            "report": report, "host": host, **counts}


def run_query(ctx) -> dict:
    from raysearch.query import query_index

    counts = {"attempted": 0, "failed": 0}
    setup = [build(ctx, "setup")[1] for _ in range(SETUP_REPEATS)]
    idx = os.path.join(ctx.work, "setup")
    streams = ctx.inputs["streams"]
    oneshot, batches = streams["oneshot"], streams["batches"]
    results = []  # (queries, output) for the post-window oracle check
    one_s, one_tier, batch_s = [], [], []
    ctx.probe.start()
    t0 = time.perf_counter()
    i = 0
    while time.perf_counter() - t0 < ctx.seconds / 2:
        q = [oneshot[i % len(oneshot)]]
        t1 = time.perf_counter()
        out = query_index(idx, q, k=K)
        one_s.append(time.perf_counter() - t1)
        one_tier.append(streams["oneshot_tiers"][i % len(oneshot)])
        results.append((q, out))
        i += 1
    j = 0
    while time.perf_counter() - t0 < ctx.seconds:
        b = batches[j % len(batches)]
        t1 = time.perf_counter()
        out = query_index(idx, b, k=K)
        batch_s.append(time.perf_counter() - t1)
        results.append((b, out))
        j += 1
    rss = measure.tree_rss_mb()
    host = ctx.probe.stop()
    oracle = load_oracle(ctx)
    for qs, out in results:
        _tally(out.equals(oracle.search_all(qs, k=K)), counts)
    n_batch_q = sum(len(batches[x % len(batches)]) for x in range(j))
    one = _latency(one_s)
    report = {
        "oneshot_p50_ms": {"value": one["p50_ms"], "unit": "ms"},
        "oneshot_tail": one,
        "oneshot_p50_ms_by_tier": {
            t: measure.median([s for s, tt in zip(one_s, one_tier)
                               if tt == t]) * 1e3
            for t in streams["tiers"] if t in one_tier},
        "batch_qps": {"value": n_batch_q / sum(batch_s), "unit": "queries/s"},
        "batches": j, "batch_s": batch_s,
    }
    return {"metrics": _shared(setup, one_s, n_batch_q, sum(batch_s), rss),
            "report": report, "host": host, **counts}


def run_serve(ctx) -> dict:
    from raysearch.query import query_index
    from raysearch.serve import QuerySession

    counts = {"attempted": 0, "failed": 0}
    streams = ctx.inputs["streams"]
    idx, build_s = build(ctx, "setup")
    setup = []
    for r in range(SETUP_REPEATS):
        t_setup = time.perf_counter()
        session = QuerySession(idx, num_actors=ctx.nproc)
        session.query_batch(streams["serve_warm"], k=K)
        setup.append(time.perf_counter() - t_setup)
        if r + 1 < SETUP_REPEATS:
            session.close()
    stream = streams["serve"]
    lat, served = [], []
    ctx.probe.start()
    t0 = time.perf_counter()
    i = 0
    while time.perf_counter() - t0 < ctx.seconds:
        q = stream[i % len(stream)]
        t1 = time.perf_counter()
        out = session.query_batch([q], k=K)
        lat.append(time.perf_counter() - t1)
        served.append((q, out))
        i += 1
    window = time.perf_counter() - t0
    rss = measure.tree_rss_mb()
    host = ctx.probe.stop()
    cache = session.cache_stats()
    session.close()
    distinct = sorted({q for q, _ in served})
    ref = query_index(idx, distinct, k=K)
    qid = {q: n for n, q in enumerate(distinct)}
    qcol = ref["query_id"].to_numpy()
    for q, out in served:
        want = ref.filter(pa.array(qcol == qid[q])).set_column(
            0, "query_id", pa.array(np.zeros(len(out), np.int64)))
        _tally(out.equals(want), counts)
    seen = {t for q in streams["serve_warm"] for t in q.split()}
    miss_calls = 0
    for q, _ in served:
        miss_calls += not seen.issuperset(q.split())
        seen.update(q.split())
    hits = sum(c["hits"] for c in cache)
    misses = sum(c["misses"] for c in cache)
    s = _latency(lat)
    report = {
        "serve_p50_ms": {"value": s["p50_ms"], "unit": "ms"},
        "serve_tail": s,
        "serve_qps": {"value": len(lat) / window, "unit": "queries/s"},
        "miss_call_share": miss_calls / len(served),
        "cache_hit_ratio": hits / max(1, hits + misses),
        "cache_misses": misses,
        "index_build_s": {"value": build_s, "unit": "s"},
    }
    return {"metrics": _shared(setup, lat, len(lat), window, rss),
            "report": report, "host": host, **counts}


RUNNERS = {"build": run_build, "query": run_query, "serve": run_serve}
