"""The one part fan-out (raysearch.fanout.map_parts), the one term
read (raysearch.segments.read_term_rows), the one per-part posting
read (segments.part_postings) and the one per-part top-k plan
(pipelines.rankex._part_topk): read_term_rows must return exactly what
a dataset-filtered ``pq.read_table`` returns, from a cold or a warm
footer cache, and never from a stale footer; map_parts must run one
task per CPU, keep part order and surface kernel errors; the lexicon
lookup must agree with a
dataset scan when the lexicon spans several files, map_chunks must do
the same for kernels that take a task's whole list of parts, part_postings must
equal the read + decode it replaces, and a part missing from disk must
raise, never shrink a top-k."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from raysearch import segments
from raysearch.fanout import map_chunks, map_parts
from raysearch.segments import read_term_rows

# 26 * 26 two-letter terms, sorted, 100 rows per row group: group
# boundaries fall at terms[0], terms[99], terms[100], ...
TERMS = sorted(a + b for a in "abcdefghijklmnopqrstuvwxyz"
               for b in "abcdefghijklmnopqrstuvwxyz")
RG = 100


def _write(path, term_type=pa.string(), **kw):
    n = len(TERMS)
    tbl = pa.table({
        "term": pa.array(TERMS, term_type),
        "df": pa.array(range(n), pa.int64()),
        "blob": pa.array([t.encode() * 3 for t in TERMS], pa.binary()),
    })
    pq.write_table(tbl, path, row_group_size=RG, **kw)
    return path


def _reference(path, terms, columns=None):
    typ = pq.read_schema(path).field("term").type
    return pq.read_table(path, columns=columns,
                         filters=pads.field("term").isin(
                             pa.array(terms, typ)))


CASES = {
    "group_first_last": [TERMS[0], TERMS[RG - 1], TERMS[RG],
                         TERMS[2 * RG - 1], TERMS[-1]],
    "absent": ["", "a", "aaa", "zzz", "zz0", "m"],
    "mixed_absent_present": ["ab", "ab0", "mm", "zz"],
    "duplicated": ["cd", "cd", "qq", "cd", "qq"],
    "empty": [],
    "every_term": TERMS,
    "unsorted": ["zz", "aa", "mm"],
}


@pytest.mark.parametrize("term_type", [pa.string(), pa.large_string()],
                         ids=["string", "large_string"])
@pytest.mark.parametrize("stats", [True, False], ids=["stats", "nostats"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_read_term_rows_equals_filtered_read(tmp_path, term_type, stats,
                                             case):
    path = _write(str(tmp_path / "t.parquet"), term_type,
                  write_statistics=stats)
    terms = CASES[case]
    for columns in (None, ["term", "df"], ["blob", "df"], ["df"]):
        want = _reference(path, terms, columns)
        segments._footers.pop(path, None)
        for cache in ("cold", "warm"):
            got = read_term_rows(path, terms, columns)
            assert path in segments._footers
            assert got.equals(want), (case, columns, cache)
            assert got.schema.names == want.schema.names


def test_read_term_rows_sees_replaced_file(tmp_path):
    """A cached footer is never used for a file replaced by an atomic
    rename, or rewritten in place, with different content."""
    path = str(tmp_path / "t.parquet")
    tmp = _write(str(tmp_path / "t.parquet.tmp"))
    os.replace(tmp, path)
    terms = [TERMS[0], TERMS[RG + 7], TERMS[-1]]
    assert read_term_rows(path, terms).equals(_reference(path, terms))

    n = len(TERMS) // 2
    half = pa.table({"term": pa.array(TERMS[n:]),
                     "df": pa.array(range(1000, 1000 + n), pa.int64()),
                     "blob": pa.array([b"new"] * n, pa.binary())})
    pq.write_table(half, tmp, row_group_size=RG // 2)
    os.replace(tmp, path)
    got = read_term_rows(path, terms)
    assert got.equals(_reference(path, terms))
    assert got["term"].to_pylist() == [TERMS[-1]]
    assert got["df"].to_pylist() == [1000 + n - 1]

    pq.write_table(half.set_column(1, "df", pa.array(range(n), pa.int64())),
                   path, row_group_size=RG // 2)
    assert read_term_rows(path, terms)["df"].to_pylist() == [n - 1]


def test_footer_cache_is_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(segments, "FOOTER_CACHE_MAX", 2)
    monkeypatch.setattr(segments, "_footers", type(segments._footers)())
    paths = [_write(str(tmp_path / f"t{i}.parquet")) for i in range(3)]
    for p in paths:
        assert read_term_rows(p, ["mm"], ["df"])["df"].to_pylist() == [
            TERMS.index("mm")]
        assert len(segments._footers) <= 2
    assert list(segments._footers) == paths[1:]


def test_footer_cache_threads(tmp_path, monkeypatch):
    """Threads sharing the cache (the TCP server's) each read the right
    rows while it evicts, and it ends within its cap."""
    import sys
    import threading

    monkeypatch.setattr(segments, "FOOTER_CACHE_MAX", 2)
    monkeypatch.setattr(segments, "_footers", type(segments._footers)())
    paths = [_write(str(tmp_path / f"t{i}.parquet")) for i in range(4)]
    errors, reads = [], []

    def reader(i):
        try:
            for j in range(40):
                got = read_term_rows(paths[(i + j) % 4], ["mm"], ["df"])
                assert got["df"].to_pylist() == [TERMS.index("mm")]
                reads.append(i)
        except Exception as e:  # surfaced by the assert below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(reads) == 8 * 40
    assert len(segments._footers) <= 2


def test_read_term_rows_prunes_row_groups(tmp_path, monkeypatch):
    path = _write(str(tmp_path / "t.parquet"))
    seen = []
    orig = pq.ParquetFile.read_row_groups

    def spy(self, groups, *a, **kw):
        seen.append(list(groups))
        return orig(self, groups, *a, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
    read_term_rows(path, [TERMS[RG], TERMS[5 * RG + 3]], ["df"])
    assert seen == [[1, 5]]


EMPTY = pa.table({"part": pa.array([], pa.int64()),
                  "twice": pa.array([], pa.int64())})


def _double_kernel(fail_on=None):
    # built inside the test so the closure ships by value to the tasks
    def kern(part: int) -> pa.Table:
        if part == fail_on:
            raise ValueError(f"part {fail_on} is corrupt")
        return pa.table({"part": pa.array([part], pa.int64()),
                         "twice": pa.array([2 * part], pa.int64())})
    return kern


def test_map_parts_zero_parts_returns_empty():
    # no task is launched for an empty part list
    assert map_parts([], _double_kernel(), EMPTY) is EMPTY


def test_map_parts_keeps_part_order(ray_session):
    parts = [7, 3, 11, 0, 5] + list(range(100, 170))
    out = map_parts(parts, _double_kernel(), EMPTY)
    assert out["part"].to_pylist() == parts
    assert out["twice"].to_pylist() == [2 * p for p in parts]


def _task_id_kernel():
    def kern(part: int) -> pa.Table:
        import ray

        task = ray.get_runtime_context().get_task_id()
        return pa.table({"part": pa.array([part], pa.int64()),
                         "task": pa.array([task], pa.string())})
    return kern


@pytest.mark.parametrize("n_parts,sizes", [(8, [2, 2, 2, 2]),
                                           (75, [19, 19, 19, 18])])
def test_map_parts_one_task_per_cpu(ray_session, n_parts, sizes):
    import itertools

    import ray

    assert ray.cluster_resources()["CPU"] == 4  # the session's num_cpus
    parts = list(range(n_parts))[::-1]
    out = map_parts(parts, _task_id_kernel(),
                    pa.table({"part": pa.array([], pa.int64())}))
    assert out["part"].to_pylist() == parts
    tasks = out["task"].to_pylist()
    assert len(set(tasks)) == len(sizes)
    assert [len(list(g)) for _, g in itertools.groupby(tasks)] == sizes


def test_map_parts_all_empty_results_give_empty(ray_session):
    def nothing(part):
        return pa.table({"x": pa.array([], pa.float64())})

    assert map_parts(list(range(5)), nothing, EMPTY) is EMPTY


def test_map_parts_raises_kernel_error(ray_session):
    with pytest.raises(ValueError, match="part 3 is corrupt"):
        map_parts(list(range(8)), _double_kernel(fail_on=3), EMPTY)


def _chunk_kernel(fail_on=None):
    # one row per part of the chunk, each naming the chunk's task and
    # its size
    def kern(chunk: list[int]) -> pa.Table:
        import ray

        if fail_on in chunk:
            raise ValueError(f"part {fail_on} is corrupt")
        task = ray.get_runtime_context().get_task_id()
        return pa.table({"part": pa.array(chunk, pa.int64()),
                         "task": pa.array([task] * len(chunk)),
                         "size": pa.array([len(chunk)] * len(chunk))})
    return kern


def test_map_chunks_zero_parts_returns_empty():
    assert map_chunks([], _chunk_kernel(), EMPTY) is EMPTY


@pytest.mark.parametrize("n_parts,sizes", [(8, [2, 2, 2, 2]),
                                           (75, [19, 19, 19, 18]),
                                           (3, [1, 1, 1])])
def test_map_chunks_one_task_per_cpu_in_part_order(ray_session, n_parts,
                                                   sizes):
    import itertools

    parts = [7, 3, 11, 0, 5] + list(range(100, 170))
    parts = parts[:n_parts]
    out = map_chunks(parts, _chunk_kernel(), EMPTY)
    assert out["part"].to_pylist() == parts
    tasks = out["task"].to_pylist()
    assert len(set(tasks)) == len(sizes)
    assert [len(list(g)) for _, g in itertools.groupby(tasks)] == sizes
    assert out["size"].to_pylist() == [n for n in sizes for _ in range(n)]


def test_map_chunks_drops_empty_results(ray_session):
    def some_chunks(chunk):
        if chunk[0] % 4 == 0:
            return pa.table({"x": pa.array([], pa.float64())})
        return pa.table({"part": pa.array(chunk, pa.int64())})

    assert map_chunks([0, 4, 8, 12], some_chunks, EMPTY) is EMPTY
    out = map_chunks(list(range(8)), some_chunks, EMPTY)
    assert out["part"].to_pylist() == [2, 3, 6, 7]  # chunks of 2 on 4 CPUs


def test_map_chunks_raises_kernel_error(ray_session):
    with pytest.raises(ValueError, match="part 3 is corrupt"):
        map_chunks(list(range(8)), _chunk_kernel(fail_on=3), EMPTY)


def test_lexicon_lookup_over_distributed_lexicon(ray_session, small_corpus,
                                                 tmp_path):
    import ray.data

    from raysearch.build import _write_lexicon, build_index
    from raysearch.config import IndexConfig
    from raysearch.query import lexicon_df, lexicon_lookup

    idx = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(small_corpus), idx,
                IndexConfig(num_parts=4), input_id="lexdist")
    _write_lexicon(idx)  # no row hint: the distributed groupby path
    lex_dir = os.path.join(idx, "lexicon")
    files = [f for f in os.listdir(lex_dir) if f.endswith(".parquet")]
    assert len(files) > 1  # the distributed write is multi-file

    full = pads.dataset(lex_dir).to_table(columns=["term"])
    vocab = sorted(full["term"].to_pylist())
    terms = vocab[::7] + vocab[:3] + vocab[-3:] + ["no-such-term", "zzzz"]
    ref = pads.dataset(lex_dir).to_table(
        columns=["term", "df", "cf"],
        filter=pads.field("term").isin(terms))
    want_df = dict(zip(ref["term"].to_pylist(), ref["df"].to_pylist()))
    want_cf = dict(zip(ref["term"].to_pylist(), ref["cf"].to_pylist()))
    assert len(want_df) == len(set(vocab[::7] + vocab[:3] + vocab[-3:]))

    assert lexicon_lookup(idx, terms) == (want_df, want_cf)
    assert lexicon_df(idx, terms) == want_df
    assert lexicon_lookup(idx, []) == ({}, {})


# ---- the one per-part posting read and the one per-part top-k plan ----

@pytest.fixture(scope="module")
def two_indexes(ray_session, small_corpus, tmp_path_factory):
    """(plain, positional) 3-part indexes over the smoke corpus."""
    import ray.data

    from raysearch.build import build_index
    from raysearch.config import IndexConfig

    out = []
    for pos in (False, True):
        idx = str(tmp_path_factory.mktemp("pp") / "idx")
        build_index(ray.data.from_arrow(small_corpus), idx,
                    IndexConfig(num_parts=3, with_positions=pos),
                    input_id=f"part-postings-{pos}")
        out.append(idx)
    return out


def _vocab(idx):
    return sorted(pads.dataset(os.path.join(idx, "lexicon"))
                  .to_table(columns=["term"])["term"].to_pylist())


def _old_comprehension(idx, part, terms, columns):
    from raysearch.segments import (decode_posting_positions,
                                    decode_posting_row, part_dirname,
                                    read_postings)

    tbl = read_postings(part_dirname(idx, part), terms, columns=columns)
    out = {}
    for i in range(tbl.num_rows):
        row = decode_posting_row(tbl, i)
        if "pos_enc" in columns:
            row = (*row, decode_posting_positions(tbl, i, row[1]))
        out[tbl["term"][i].as_py()] = row
    return out


@pytest.mark.parametrize("positional", [False, True],
                         ids=["plain", "positional"])
def test_part_postings_equals_read_and_decode(two_indexes, positional):
    from raysearch.segments import (SCORER_COLUMNS, SCORER_COLUMNS_POS,
                                    part_postings)
    from raysearch.stats import load_stats

    idx = two_indexes[positional]
    vocab = _vocab(idx)
    cases = {"absent": ["no-such-term", "zzzz"],
             "mixed": vocab[::5] + ["no-such-term"],
             "every_term": vocab,
             "empty": []}
    col_sets = [SCORER_COLUMNS] + ([SCORER_COLUMNS_POS] if positional
                                   else [])
    for part in load_stats(idx)["parts"]:
        for name, terms in cases.items():
            for cols in col_sets:
                got = part_postings(idx, part, terms, cols)
                want = _old_comprehension(idx, part, terms, cols)
                assert list(got) == list(want), (part, name)
                for t in want:
                    assert len(got[t]) == len(want[t])
                    for g, w in zip(got[t], want[t]):
                        assert g.dtype == w.dtype
                        assert np.array_equal(g, w), (part, name, t)
                if name in ("absent", "empty"):
                    assert got == {}


def test_part_topk_empty_none_and_buffer(two_indexes):
    from raysearch.pipelines.rankex import _part_topk
    from raysearch.score import topk
    from raysearch.segments import part_postings
    from raysearch.stats import load_stats

    idx = two_indexes[0]
    vocab = _vocab(idx)
    terms = vocab[:6]

    # nothing matches: a typed empty frame, never an untyped one
    none = _part_topk(idx, terms, 3, lambda qid, post: None)
    assert none.empty
    assert list(none.columns) == ["query_id", "doc_id", "score"]
    assert [str(t) for t in none.dtypes] == ["int64", "int64", "float64"]

    # query q scores every doc of terms[q] by its tf (many ties)
    def score_query(qid, post):
        got = post.get(terms[qid])
        return None if got is None else (got[0], got[1].astype(float))

    full = _part_topk(idx, terms, len(terms), score_query, buffer=None)
    per_part = {p: part_postings(idx, p, terms)
                for p in load_stats(idx)["parts"]}
    for qid, t in enumerate(terms):
        rows = full[full.query_id == qid]
        want = np.concatenate([pp[t][0] for pp in per_part.values()
                               if t in pp])
        assert np.array_equal(rows.doc_id.to_numpy(), want)

    for buf in (1, 3):
        cut = _part_topk(idx, terms, len(terms), score_query, buffer=buf)
        for qid, t in enumerate(terms):
            rows = cut[cut.query_id == qid]
            want_d, want_s = [], []
            for pp in per_part.values():
                if t in pp:
                    d, s = topk(pp[t][0], pp[t][1].astype(float), buf)
                    assert len(d) <= buf
                    want_d.append(d)
                    want_s.append(s)
            assert np.array_equal(rows.doc_id.to_numpy(),
                                  np.concatenate(want_d))
            assert np.array_equal(rows.score.to_numpy(),
                                  np.concatenate(want_s))


def test_missing_part_raises_everywhere(ray_session, small_corpus,
                                        tmp_path):
    """A part listed in stats.json without its directory is an error
    with the part named, never a silently partial top-k."""
    import shutil

    import ray.data

    from raysearch.build import build_index
    from raysearch.config import IndexConfig
    from raysearch.pipelines.rankex import _part_topk
    from raysearch.query import asof_df, query_index
    from raysearch.segments import part_dirname
    from raysearch.serve import QuerySession
    from raysearch.stats import load_stats

    idx = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(small_corpus), idx,
                IndexConfig(num_parts=4), input_id="missing-part")
    parts = load_stats(idx)["parts"]
    victim = parts[1]
    terms = _vocab(idx)[:20]
    queries = [" ".join(terms[:10]), " ".join(terms[10:])]
    assert query_index(idx, queries, k=5).num_rows
    shutil.rmtree(part_dirname(idx, victim))

    msg = f"part {victim} of index "
    for prune in (False, True):
        with pytest.raises(FileNotFoundError, match=msg):
            query_index(idx, queries, k=5, prune=prune)
    with QuerySession(idx, num_actors=1) as s:
        with pytest.raises(FileNotFoundError, match=msg):
            s.query_batch(queries, k=5)
    with pytest.raises(FileNotFoundError, match=msg):
        _part_topk(idx, terms, 1, lambda qid, post: None)
    with pytest.raises(FileNotFoundError, match=msg):
        asof_df(idx, parts, terms)
