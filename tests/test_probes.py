"""The two shared part probes of the pipeline layer —
rankex._probe_candidates and rankex._term_group_docs — checked against
brute force over Oracle postings on a 4-part positional index."""

import numpy as np
import pytest

from raysearch.config import IndexConfig
from raysearch.oracle import Oracle
from raysearch.segments import SCORER_COLUMNS_POS
from raysearch.tokenize import tokenize_doc

ABSENT = "zzzabsentzzz"


@pytest.fixture(scope="module")
def probe_index(ray_session, tmp_path_factory):
    import ray.data

    from raysearch.build import build_index
    from raysearch.corpus import generate_corpus

    corpus = generate_corpus(300, seed=5, labeled=True)
    idx = str(tmp_path_factory.mktemp("probe") / "idx")
    build_index(ray.data.from_arrow(corpus), idx,
                IndexConfig(num_parts=4, with_positions=True),
                input_id="probe")
    oracle = Oracle(corpus)
    # first position of each (term, doc), from the doc tokenizer
    first: dict[tuple[str, int], int] = {}
    for did, content, lang in zip(corpus["doc_id"].to_pylist(),
                                  corpus["content"].to_pylist(),
                                  corpus["lang"].to_pylist()):
        for p, t in enumerate(tokenize_doc(content, lang)):
            first.setdefault((t, did), p)
    terms = sorted(oracle.df, key=lambda t: (-oracle.df[t], t))
    return idx, oracle, first, terms


def _brute_probe(oracle, first, qweights, cand, with_pos):
    rows = []
    for qid, qw in enumerate(qweights):
        for t, w in qw:
            docs, tfs, dls = oracle._np_postings.get(
                t, (np.zeros(0, np.int64),) * 3)
            for d in cand.get(qid, ()):
                hit = np.flatnonzero(docs == d)
                if not len(hit):
                    continue
                j = hit[0]
                row = (qid, int(d), t, int(w), int(tfs[j]), int(dls[j]))
                rows.append(row + ((first[(t, int(d))],) if with_pos
                                   else ()))
    return sorted(rows)


def _rows(frame):
    return sorted(tuple(int(x) if not isinstance(x, str) else x
                        for x in r)
                  for r in frame.itertuples(index=False))


@pytest.mark.parametrize("with_pos", [False, True])
def test_probe_candidates_matches_brute_force(probe_index, with_pos):
    from raysearch.pipelines.rankex import _probe_candidates
    from raysearch.segments import SCORER_COLUMNS

    idx, oracle, first, terms = probe_index
    all_docs = np.asarray(sorted(oracle.doc_lens), np.int64)
    qweights = [
        [(terms[0], 1), (terms[3], 2)],
        [(terms[1], 1), (ABSENT, 1)],      # a term no part holds
        [(terms[2], 1)],                   # no candidates at all
        [(terms[4], 3), (terms[5], 1)],    # an empty candidate array
        [(ABSENT, 1)],                     # only an absent term
    ]
    cand = {
        # every third doc, plus ids no part holds (each candidate is
        # missing from all parts but its home part)
        0: np.concatenate([all_docs[::3], [10 ** 6, 10 ** 6 + 1]]),
        1: all_docs[1::2],
        3: np.zeros(0, np.int64),
        4: all_docs[:10],
    }
    cols = SCORER_COLUMNS_POS if with_pos else SCORER_COLUMNS
    got = _probe_candidates(idx, qweights, cand, cols)
    want_cols = ["query_id", "doc_id", "term", "w", "tf", "dl"] + (
        ["first_pos"] if with_pos else [])
    assert list(got.columns) == want_cols
    want = _brute_probe(oracle, first, qweights, cand, with_pos)
    assert want and _rows(got) == want
    assert set(got.query_id) == {0, 1}


def test_probe_candidates_without_candidates(probe_index):
    from raysearch.pipelines.rankex import _probe_candidates

    idx, _, _, terms = probe_index
    got = _probe_candidates(idx, [[(terms[0], 1)]], {},
                            SCORER_COLUMNS_POS)
    assert got.empty
    assert list(got.columns) == ["query_id", "doc_id", "term", "w", "tf",
                                 "dl", "first_pos"]


def _brute_groups(oracle, groups, all_of):
    rows = []
    for gid, g in enumerate(groups):
        ts = sorted(set(g))
        held: dict[int, int] = {}
        for t in ts:
            for d in oracle._np_postings.get(
                    t, (np.zeros(0, np.int64),))[0].tolist():
                held[d] = held.get(d, 0) + 1
        rows += [(gid, d, n) for d, n in held.items()
                 if n == len(ts) or not all_of]
    return sorted(rows)


@pytest.mark.parametrize("all_of", [False, True])
def test_term_group_docs_matches_brute_force(probe_index, all_of):
    from raysearch.pipelines.rankex import _term_group_docs

    idx, oracle, _, terms = probe_index
    groups = [
        [terms[0], terms[5]],
        [terms[2], terms[7], terms[2]],   # a repeated term
        [ABSENT],                          # a term no part holds
        [terms[3], ABSENT],
        [terms[9]],
        [],
    ]
    got = _term_group_docs(idx, groups, all_of=all_of)
    assert got.column_names == ["group", "doc_id", "n_terms"]
    want = _brute_groups(oracle, groups, all_of)
    assert want and sorted(zip(*(got[c].to_pylist()
                                 for c in got.column_names))) == want
    # the repeated term counts once: an all_of doc holds both terms
    rep = got.filter(got["group"].to_numpy() == 1)["n_terms"].to_pylist()
    assert rep and max(rep) == 2 and (min(rep) == 2 or not all_of)


def test_term_group_docs_all_absent(probe_index):
    from raysearch.pipelines.rankex import _term_group_docs

    idx, _, _, _ = probe_index
    for groups in ([[ABSENT]], [[]], []):
        assert _term_group_docs(idx, groups, all_of=True).num_rows == 0
