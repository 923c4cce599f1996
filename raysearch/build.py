"""Index build pipeline — the Ray Data replacement for the reference's
serial in-memory build loop (/root/reference/src/main.rs:66-69 folding
docs one at a time into a HashMap on one thread).

Dataflow (streaming end-to-end, one shuffle):

    read_parquet(corpus, columns=[doc_id, lang, content])   # prune at read
      -> map_batches(make_triples, pyarrow, zero-copy)      # tokenize+combine
      -> groupby(gkey).map_groups(write_segment)            # THE shuffle:
           build_partials -> merge_partials -> commit_segment
      -> P stats rows -> finalize_index: driver tree-merge, lexicon,
         stats.json
    read_parquet(segments/*/postings.parquet, cols=[term,df,cf])
      -> groupby(term).aggregate(Sum)                       # global lexicon
      -> sort(term) -> lexicon/*.parquet

Append, merge and compaction end the same way: each part through
``segments.commit_segment``, the index through ``finalize_index``.

Skew handling: partitioning is by hash(doc_id), so a hot term's
postings are split across all P parts and no reduce group can exceed
one partition's triple mass; num_parts (``_auto_parts``) is the lever
that bounds it. The lexicon groupby has at most P rows per term, so
the classic hot-term reducer blowup cannot occur there either.
Per-part hot-term metrics are logged in each manifest ("skew": top
terms by cf).

Resume: partitions with a valid manifest (config hash + lineage id +
file digests — checkpoint.py) are not rewritten; a fully-valid index
returns without launching any Ray work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pyarrow as pa

from raysearch import checkpoint
from raysearch import stats as statsmod
from raysearch.config import IndexConfig
from raysearch.segments import (
    build_partials,
    clean_stale_staging,
    commit_segment,
    list_segment_parts,
    merge_partials,
    part_dirname,
)
from raysearch.triples import make_triple_fn

STATS_ROW_SCHEMA = pa.schema([
    ("part", pa.int32()),
    ("n_terms", pa.int64()),
    ("n_postings", pa.int64()),
    ("n_docs", pa.int64()),
    ("sum_dl", pa.int64()),
    ("total_tf", pa.int64()),
    ("skipped", pa.bool_()),
])


@dataclass
class BuildResult:
    index_dir: str
    stats: dict
    parts_built: int
    parts_skipped: int


def _dedup_by_content(ds, n_docs_hint: int | None = None):
    """Exact first-wins dedup on sha256(content): coarse-bucket
    groupby + vectorized drop_duplicates per bucket. Bucket count is
    input-scaled (auto_buckets; full rows travel through this shuffle,
    so groups target ~2k rows) — a fixed constant would make group
    mass linear in corpus size."""
    import hashlib

    import pandas as pd

    from raysearch.hashing import auto_buckets

    nb = auto_buckets(n_docs_hint, docs_per_bucket=2_000)

    def add_sha(b: pa.Table) -> pa.Table:
        shas = [hashlib.sha256(s.encode()).hexdigest()
                for s in b["content"].to_pylist()]
        bucket = [int(s[:8], 16) % nb for s in shas]
        return (b.append_column("_sha", pa.array(shas, pa.string()))
                 .append_column("_bucket", pa.array(bucket, pa.int64())))

    def first_wins(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["_sha", "doc_id"]).drop_duplicates(
            "_sha", keep="first")
        return g.drop(columns=["_sha", "_bucket"])

    return (ds.map_batches(add_sha, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("_bucket")
            .map_groups(first_wins, batch_format="pandas"))


def _footer_rows(source: str | list) -> int:
    """Row count straight from parquet footers (file or directory or
    list of either) — no Ray involvement."""
    import pyarrow.parquet as pq

    paths = source if isinstance(source, list) else [source]
    total = 0
    for p in paths:
        if os.path.isdir(p):
            total += sum(pq.read_metadata(os.path.join(p, f)).num_rows
                         for f in os.listdir(p)
                         if f.endswith(".parquet"))
        else:
            total += pq.read_metadata(p).num_rows
    return total


def _auto_parts(n_docs: int) -> int:
    # ~12.5k docs per segment, clamped; decoupled from cluster size.
    # Measured cliff (2M docs @32cpus): 31k docs/part = 123 s,
    # 15.6k/part = 23.5 s, 7.8k/part = 22.1 s — reduce-group
    # materialization degrades sharply past ~16k docs/part, so the
    # target sits well inside the safe region.
    return max(4, min(4096, (n_docs + 12_499) // 12_500 or 4))


def _make_segment_writer(index_dir: str, config: IndexConfig,
                         input_id: str, valid_parts: frozenset[int],
                         part_offset: int = 0):
    """Segment-writing group fn: one ``gkey`` group of raw triples ->
    posting build + segment commit in the same task. part_offset
    shifts the on-disk part numbers past an existing index's segments
    (incremental append, maintenance.append_index)."""
    config_hash = config.config_hash()

    def write_segment(group: pa.Table) -> pa.Table:
        part = int(group["gkey"][0].as_py()) + part_offset
        part_dir = part_dirname(index_dir, part)
        if part in valid_parts:
            row = {"part": part,
                   **checkpoint.load_manifest(part_dir)["stats"],
                   "skipped": True}
        else:
            postings, doclens = merge_partials(build_partials(group))
            row = {**commit_segment(part_dir, part, postings, doclens,
                                    config_hash, input_id),
                   "skipped": False}
        return pa.Table.from_pylist([row], schema=STATS_ROW_SCHEMA)

    return write_segment


def _segment_rows(source, config: IndexConfig, writer,
                  with_sha: bool) -> list[dict]:
    """The one triples -> segments pipeline (build_index and
    maintenance.append_index): triple map, the single groupby on the
    part key, one stats row per written part. A parquet ``source``
    (path or list) is read at the exchange width, shaping the block
    count AT THE READ instead of paying a separate repartition
    exchange of every triple row (measured: -28% build wall at 400k
    docs); a Dataset's triples are repartitioned to it. On a real
    multi-node cluster the same width cap applies per exchange round —
    see SCALE.md."""
    import ray.data

    width = _exchange_width(config.num_parts)
    triple_fn = make_triple_fn(config, with_sha=with_sha)
    if isinstance(source, (str, list)):
        triples = ray.data.read_parquet(
            source, columns=["doc_id", "lang", "content"],
            override_num_blocks=width).map_batches(
                triple_fn, batch_format="pyarrow", zero_copy_batch=True)
    else:
        triples = source.map_batches(
            triple_fn, batch_format="pyarrow",
            zero_copy_batch=True).repartition(width)
    return (triples.groupby("gkey")
            .map_groups(writer, batch_format="pyarrow").take_all())


def _exchange_width(num_parts: int) -> int:
    """Physical block width for the triples shuffle: the sort exchange
    creates (map blocks x reduce partitions) intermediate objects —
    QUADRATIC in block count (measured: P=64 blocks 13.5 s, P=128
    blocks 45 s on a 1M-doc corpus) — so the width is capped
    independently of num_parts. Reduce groups (one per gkey) are
    unaffected: any number of logical groups flows through a bounded
    physical exchange. Shared by build_index and
    maintenance.append_index (ONE place for the cap)."""
    try:
        import ray as _ray

        n_cpus = int(_ray.cluster_resources().get("CPU", 32))
    except Exception:
        n_cpus = 32
    return min(max(num_parts, n_cpus), 64)


def _prune_orphan_segments(index_dir: str, keep: set[int]) -> int:
    """Remove segment dirs not in ``keep``. A rebuild with fewer parts
    (or a crashed append with a different source) leaves orphaned
    part dirs that the lexicon rebuild's directory scan would
    otherwise fold into df/cf. Returns the number removed."""
    import shutil

    n = 0
    for p in list_segment_parts(index_dir):
        if p not in keep:
            shutil.rmtree(part_dirname(index_dir, p), ignore_errors=True)
            n += 1
    return n


_PARTIAL_KEYS = ("n_docs", "sum_dl", "total_tf", "n_postings", "n_terms")


def finalize_index(index_dir: str, rows: list[dict], config: dict,
                   lineage: dict) -> dict:
    """The one index finalize build, append, merge and compaction end
    with. ``rows`` holds one stats row per part the index keeps (its
    ``part`` plus the segment partial); every other segment dir and any
    staging leftover is removed BEFORE the lexicon rebuild scans the
    segments dir, so df/cf count only the kept parts. Tree-merges the
    partials, rebuilds the lexicon and writes stats.json."""
    detail = sorted(({"part": int(r["part"]),
                      **{k: int(r[k]) for k in _PARTIAL_KEYS}}
                     for r in rows), key=lambda d: d["part"])
    merged = statsmod.tree_merge(detail)
    clean_stale_staging(index_dir)
    _prune_orphan_segments(index_dir, keep={d["part"] for d in detail})
    vocab = _write_lexicon(
        index_dir, n_rows_hint=sum(d["n_terms"] for d in detail))
    return statsmod.write_stats(
        index_dir, merged, config, lineage,
        extra={"vocab_size": vocab,
               "parts": [d["part"] for d in detail],
               # per-partition size/skew detail (north rule: per-
               # partition throughput and skew metrics logged); an
               # append stat-merges from it without reading manifests
               # (maintenance._part_partials)
               "parts_detail": detail})


# per-segment lexicon rows below this: aggregate on the driver (a Ray
# job on KB-scale data costs ~2 s of fixed scheduling — it was the
# single largest serial term in the scaling measurement)
_LEXICON_DRIVER_MAX_ROWS = 2_000_000


def _write_lexicon(index_dir: str, n_rows_hint: int | None = None) -> int:
    """Global lexicon: term -> (df, cf) summed over segments. Returns
    global vocabulary size.

    Two paths, same output: when the total per-segment lexicon rows
    (sum of n_terms over manifests — known for free from the build's
    stats rows) are small, the merge is a driver-side pyarrow
    group_by over a threaded parquet read; past the threshold it is
    the distributed Ray groupby (code-scale vocabularies are 10^8-9
    terms x P rows — that side MUST shuffle)."""
    import shutil

    import pyarrow.parquet as pq

    paths = [os.path.join(part_dirname(index_dir, p), "postings.parquet")
             for p in list_segment_parts(index_dir)]
    lex_dir = os.path.join(index_dir, "lexicon")
    tmp_dir = lex_dir + f".tmp-{os.getpid()}"
    if os.path.isdir(tmp_dir):
        shutil.rmtree(tmp_dir)

    if os.environ.get("RAYSEARCH_LEXICON_DISTRIBUTED"):
        n_rows_hint = None  # operational override: always shuffle
    if n_rows_hint is not None and n_rows_hint <= _LEXICON_DRIVER_MAX_ROWS:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=16) as ex:
            tables = list(ex.map(
                lambda p: pq.read_table(p, columns=["term", "df", "cf"]),
                paths))
        merged = pa.concat_tables(tables)
        agg = merged.group_by("term").aggregate(
            [("df", "sum"), ("cf", "sum")])
        # select by NAME: pyarrow has changed whether group keys come
        # first across majors, so a positional rename could silently
        # write df values as terms
        agg = (agg.select(["term", "df_sum", "cf_sum"])
               .rename_columns(["term", "df", "cf"])
               .sort_by([("term", "ascending")]))
        # same schema as the distributed path (string, not the
        # large_string that concat of segment columns produces)
        agg = agg.set_column(0, "term",
                             agg["term"].cast(pa.string()))
        os.makedirs(tmp_dir, exist_ok=True)
        pq.write_table(agg, os.path.join(tmp_dir, "lexicon.parquet"),
                       row_group_size=1024)
        n_terms = agg.num_rows
    else:
        import ray.data
        from ray.data.aggregate import Sum

        # groupby is Ray's sort-based shuffle: output blocks are
        # DISJOINT key ranges, so sorting within each block gives the
        # same row-group min/max pruning as a global sort — without a
        # second full exchange
        ds = (ray.data.read_parquet(paths, columns=["term", "df", "cf"])
              .groupby("term")
              .aggregate(Sum("df", alias_name="df"),
                         Sum("cf", alias_name="cf"))
              .map_batches(
                  lambda b: b.sort_by([("term", "ascending")]),
                  batch_format="pyarrow", zero_copy_batch=True))
        ds.write_parquet(tmp_dir)
        # vocab size from footer metadata — no second read job
        n_terms = sum(
            pq.ParquetFile(os.path.join(tmp_dir, f)).metadata.num_rows
            for f in os.listdir(tmp_dir) if f.endswith(".parquet"))

    if os.path.isdir(lex_dir):
        shutil.rmtree(lex_dir)
    os.replace(tmp_dir, lex_dir)
    return n_terms


def build_index(
    source,
    index_dir: str,
    config: IndexConfig | None = None,
    input_id: str | None = None,
    with_sha: bool = True,
    verify_resume_bytes: bool = True,
    supported_langs: frozenset[str] | None = None,
    dedup_input: bool = False,
) -> BuildResult:
    """Build (or resume) an index at ``index_dir`` from a corpus.

    source: parquet path(s) or a ray.data.Dataset with columns
        (doc_id, lang, content). Extra columns are pruned at the read
        when a path is given.
    supported_langs: if given, rows with other lang values are dropped
        before tokenization (SURVEY §2.2 M6 — the reference skips
        files with unsupported extensions, src/main.rs:336-344). A
        vectorized predicate inside map_batches, not a per-row filter.
    dedup_input: optional exact dedup of identical content before
        indexing (SURVEY §2.6 — "cheap safety groupby", first-wins by
        smallest doc_id). One extra hash-partitioned shuffle keyed on
        a coarse bucket of sha256(content); duplicate resolution is
        vectorized pandas inside each bucket, never per-group Python.
    """
    import pyarrow.compute as _pc
    import ray.data

    if isinstance(source, (str, list)):
        ds = ray.data.read_parquet(source, columns=["doc_id", "lang", "content"])
        default_id = str(source)
    else:
        ds = source
        default_id = "<dataset>"
    if supported_langs is not None:
        langs = pa.array(sorted(supported_langs))
        ds = ds.map_batches(
            lambda b: b.filter(_pc.is_in(b["lang"], langs)),
            batch_format="pyarrow", zero_copy_batch=True)
    if dedup_input:
        # bucket-size hint: parquet-footer row count of the raw source
        # (no Ray Dataset, no plan — the same pq.read_metadata pattern
        # as joins._n_rows/dedup._n_docs; an upper bound when a lang
        # filter dropped rows, fine for sizing); None (-> floor) for
        # opaque Dataset sources
        hint = (_footer_rows(source)
                if isinstance(source, (str, list)) else None)
        ds = _dedup_by_content(ds, n_docs_hint=hint)
    # For plain parquet sources ds.count() is metadata-only (cheap) and
    # makes input_id row-count-sensitive. For a Dataset source with
    # transforms applied it would EXECUTE the whole upstream pipeline
    # once just to count (round-1 VERDICT item 6) — skip it there and
    # count only if num_parts autosizing actually needs a number.
    plain_source = isinstance(source, (str, list)) and not (
        supported_langs is not None or dedup_input)
    n_input = ds.count() if (plain_source or config is None) else None
    input_id = (f"{input_id or default_id}#rows={n_input}"
                if n_input is not None else f"{input_id or default_id}")

    if config is None:
        config = IndexConfig(num_parts=_auto_parts(n_input))
    config_hash = config.config_hash()
    os.makedirs(os.path.join(index_dir, "segments"), exist_ok=True)

    valid = frozenset(
        p for p in range(config.num_parts)
        if checkpoint.validate_manifest(
            part_dirname(index_dir, p), config_hash, input_id,
            verify_bytes=verify_resume_bytes))
    # full-resume shortcut: stats.json (written last) lists the parts
    # that actually exist (hash-empty partitions produce no segment);
    # if they all validate, skip launching any Ray work at all
    if os.path.exists(statsmod.stats_path(index_dir)):
        st = statsmod.load_stats(index_dir)
        if (st.get("lineage", {}).get("input_id") == input_id
                and st.get("lineage", {}).get("config_hash") == config_hash
                and set(st.get("parts", [])) <= valid):
            return BuildResult(index_dir, st, 0, len(st.get("parts", [])))

    writer = _make_segment_writer(index_dir, config, input_id, valid)
    rows = _segment_rows(source if plain_source else ds, config, writer,
                         with_sha)
    stats = finalize_index(
        index_dir, rows, config.to_dict(),
        {"input_id": input_id, "config_hash": config_hash})
    n_skipped = sum(1 for r in rows if r["skipped"])
    return BuildResult(index_dir, stats,
                       parts_built=len(rows) - n_skipped,
                       parts_skipped=n_skipped)
