"""The one part fan-out: every per-segment stage (one-shot scoring,
asof df, compaction, merge, the pipeline candidate stages) maps its
kernel over the parts here. Plain tasks, not a Ray Data job: planning
a streaming executor for a few part rows cost ~137 ms against ~20 ms
for 8 plain tasks (1 CPU). And one task per cluster CPU, like the
reference's one query thread per core (src/processor.rs:83-144): on
1 CPU, scoring 8 parts took 46 ms as one task against 75 ms as 8
tasks. Bulk data paths (the build exchange, the lexicon groupby) stay
on Ray Data.

A chunk kernel (map_chunks) takes a task's whole list of parts and
returns one Arrow table for them, so a kernel may treat the chunk as
one source: one-shot scoring joins its parts' postings and scores
each query once per task, not once per part. A part kernel (map_parts)
takes one part number and returns that part's table."""

from __future__ import annotations

import functools
import math

import pyarrow as pa


def _run_chunk(fn, chunk: list[int]) -> pa.Table | None:
    # one table per task: each returned table costs its own
    # serialization (~1 ms more for 8 small part tables as a list)
    out = fn(chunk)
    return out if out.num_rows else None


@functools.cache
def _chunk_task():
    # built on first use so that importing raysearch never imports Ray
    import ray

    return ray.remote(num_cpus=1)(_run_chunk)


def map_chunks(parts, fn, empty: pa.Table) -> pa.Table:
    """``fn(chunk)`` in one plain Ray task per cluster CPU, ``chunk``
    being a contiguous run of ``ceil(P / CPUs)`` of ``parts`` (more
    tasks than CPUs would only queue, and each launch costs more than
    scoring a small part), results concatenated in part order. ``fn``
    is put in the object store once. Zero-row results are dropped, so
    a kernel's no-hit table need not match the others' schema;
    ``empty`` is returned when nothing remains. A kernel error is
    raised here by ``ray.get``, never turned into a partial table."""
    import ray

    parts = [int(p) for p in parts]
    if not parts:
        return empty
    fn_ref = ray.put(fn)  # starts Ray if needed, before the CPU count
    cpus = max(1, int(ray.cluster_resources().get("CPU", 1)))
    per_task = math.ceil(len(parts) / cpus)
    task = _chunk_task()
    refs = [task.remote(fn_ref, parts[i:i + per_task])
            for i in range(0, len(parts), per_task)]
    outs = [t for t in ray.get(refs) if t is not None]
    return pa.concat_tables(outs) if outs else empty


def _each_part(fn, chunk: list[int]) -> pa.Table:
    outs = [t for t in map(fn, chunk) if t.num_rows]
    return pa.concat_tables(outs) if outs else pa.table({})


def map_parts(parts, fn, empty: pa.Table) -> pa.Table:
    """``fn(part)`` for each of ``parts``: map_chunks over a kernel
    that calls it part by part and concatenates the non-empty
    results."""
    return map_chunks(parts, functools.partial(_each_part, fn), empty)
