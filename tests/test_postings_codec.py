"""The postings file layout (IndexConfig.codec_version "dv2"): every
postings column is lz4-compressed with no dictionary pages; a segment
written in the old layout (zstd with dictionaries) still queries the
same; and a resume over an index of the old lineage rebuilds every
part rather than mixing the two layouts."""

import os

import pyarrow.parquet as pq
import pytest

from raysearch.build import build_index
from raysearch.config import IndexConfig
from raysearch.corpus import QUERIES
from raysearch.query import query_index
from raysearch.segments import part_dirname
from raysearch.stats import load_stats


def _postings_path(idx, part):
    return os.path.join(part_dirname(idx, part), "postings.parquet")


def _column_chunks(path):
    md = pq.read_metadata(path)
    for g in range(md.num_row_groups):
        for c in range(md.num_columns):
            yield md.row_group(g).column(c)


@pytest.fixture(scope="module")
def built(ray_session, small_corpus, tmp_path_factory):
    import ray.data

    idx = str(tmp_path_factory.mktemp("codec") / "idx")
    build_index(ray.data.from_arrow(small_corpus), idx,
                IndexConfig(num_parts=4), input_id="codec")
    return idx


def test_postings_are_lz4_without_dictionary(built):
    for part in load_stats(built)["parts"]:
        chunks = list(_column_chunks(_postings_path(built, part)))
        assert {c.path_in_schema for c in chunks} >= {
            "term", "docs_enc", "tfs_enc", "dls_enc"}
        for c in chunks:
            assert c.compression == "LZ4", c.path_in_schema
            assert not c.has_dictionary_page, c.path_in_schema
            assert not any("DICTIONARY" in e for e in c.encodings), (
                c.path_in_schema, c.encodings)


def test_old_layout_segment_queries_the_same(built, tmp_path):
    import shutil

    idx = str(tmp_path / "idx")
    shutil.copytree(built, idx)
    want = {prune: query_index(idx, QUERIES, k=10, prune=prune)
            for prune in (False, True)}
    path = _postings_path(idx, load_stats(idx)["parts"][0])
    pq.write_table(pq.read_table(path), path, row_group_size=1024,
                   compression="zstd")
    chunks = list(_column_chunks(path))
    assert {c.compression for c in chunks} == {"ZSTD"}
    assert any(c.has_dictionary_page for c in chunks)
    for prune, tbl in want.items():
        assert query_index(idx, QUERIES, k=10, prune=prune).equals(tbl)


def test_resume_over_old_lineage_rebuilds_every_part(ray_session,
                                                      small_corpus,
                                                      tmp_path):
    import ray.data

    ds = ray.data.from_arrow(small_corpus)
    idx = str(tmp_path / "idx")
    old = build_index(ds, idx, IndexConfig(num_parts=4, codec_version="dv1"),
                      input_id="lineage")
    assert old.parts_built == 4
    new = build_index(ds, idx, IndexConfig(num_parts=4), input_id="lineage")
    assert new.parts_skipped == 0
    assert new.parts_built == 4
    again = build_index(ds, idx, IndexConfig(num_parts=4),
                        input_id="lineage")
    assert again.parts_built == 0
