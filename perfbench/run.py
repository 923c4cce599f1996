"""Benchmark entry point.

    python3 perfbench/run.py --workload {build,query,serve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a raysearch checkout. Inputs are generated from
``--seed`` (and cached) under ``.perfbench/``; the Ray session gets
``num_cpus`` = nproc (``measure.nproc``). With ``--trace 0``
the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of the in-process
replay. The line before it is the full report: the workload's own
named metrics, sample counts and the host probe. Exits 1 when any
output was wrong, 2 when raysearch cannot be imported.

BENCHMARK.json gates ``build`` and ``query`` only. ``serve`` runs the
same way but is left out there: on a host with CPU steal its per-call
latency doubles (12% steal share took its p50 from ~31 to ~63 ms), so
its spread across runs tracks the host, not the program. Its layers
are still replayed by every traced run.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import gen, measure  # noqa: E402

N_DOCS = 8_000
NUM_PARTS = 8
WORKDIR = ".perfbench"
INPUT_CACHE_ENTRIES = 8
# AF_UNIX paths are capped at 107 bytes; Ray appends ~63 bytes of
# session and socket name to its temp dir
_RAY_TMP_MAX = 44

UNITS = {"setup_s": "s", "rss_mb": "MB", "p50_ms": "ms", "work_per_s": "1/s"}


@dataclass
class Context:
    seed: int
    seconds: float
    work: str
    inputs: dict
    config: object
    nproc: int
    n_docs: int
    probe: measure.HostProbe


def _prune_cache(cache: str, keep: int) -> None:
    entries = sorted((os.path.getmtime(os.path.join(cache, e)), e)
                     for e in os.listdir(cache))
    for _, e in entries[:-keep]:
        shutil.rmtree(os.path.join(cache, e), ignore_errors=True)


def make_context(base: str, seed: int, seconds: float,
                 n_docs: int = N_DOCS, num_parts: int = NUM_PARTS) -> Context:
    """Inputs for ``seed`` (cached under ``base/inputs``) and a fresh
    run dir under ``base``."""
    from raysearch.config import IndexConfig

    cache = os.path.join(base, "inputs")
    os.makedirs(cache, exist_ok=True)
    t0 = time.perf_counter()
    inputs = gen.ensure_inputs(cache, seed, n_docs)
    inputs["gen_s"] = time.perf_counter() - t0
    _prune_cache(cache, INPUT_CACHE_ENTRIES)
    work = os.path.join(base, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return Context(seed=seed, seconds=seconds, work=work, inputs=inputs,
                   config=IndexConfig(num_parts=num_parts),
                   nproc=measure.nproc(), n_docs=n_docs,
                   probe=measure.HostProbe(ROOT))


def _start_ray(base: str, ncpu: int) -> float:
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    import ray

    kw = {}
    tmp = os.path.join(base, "ray")
    if len(tmp) <= _RAY_TMP_MAX:
        os.makedirs(tmp, exist_ok=True)
        kw["_temp_dir"] = tmp
    t0 = time.perf_counter()
    ray.init(num_cpus=ncpu, include_dashboard=False, log_to_driver=False,
             logging_level="ERROR", object_store_memory=512 * 2**20, **kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["build", "query", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        import raysearch  # noqa: F401
    except ImportError as e:
        print(f"perfbench: raysearch is not importable from {ROOT}: {e}",
              file=sys.stderr)
        return 2

    base = os.path.join(ROOT, WORKDIR)
    ctx = make_context(base, args.seed, args.seconds)
    from perfbench import workloads
    import ray

    try:
        ray_init_s = _start_ray(base, ctx.nproc)
        ray_warm_s = workloads.warm_up(ctx)
        if args.trace:
            from perfbench import replay

            out = replay.run(args.workload, ctx)
        else:
            out = workloads.RUNNERS[args.workload](ctx)
    finally:
        ray.shutdown()
        shutil.rmtree(ctx.work, ignore_errors=True)

    host = dict(out.pop("host"), ray_init_s=ray_init_s,
                ray_warm_s=ray_warm_s, gen_s=ctx.inputs["gen_s"])
    correct = out["failed"] == 0
    if args.trace:
        metrics = {k: {"value": v, "unit": replay.UNITS[k]}
                   for k, v in out["metrics"].items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in out["metrics"].items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "n_docs": ctx.n_docs,
                      "num_parts": ctx.config.num_parts, "report": out["report"],
                      "host": host}))
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
