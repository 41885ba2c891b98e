"""Tombstone deletes: deleted docs vanish from every query path BEFORE the
top-k cut; surviving docs keep bit-identical scores (pre-delete collection
stats — Lucene liveDocs/docFreq semantics); merge is idempotent."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_engine_framework_ray.query.models import ModelParams
from search_engine_framework_ray.state.index_layout import (
    load_tombstones,
    write_tombstones,
)

TEXTS = [
    "apple banana apple",
    "banana cherry apple",
    "apple cherry cherry",
    "banana banana apple cherry",
    "cherry date apple",
    "apple apple banana",
]


@pytest.fixture()
def del_index(ray_session, tmp_path):
    from search_engine_framework_ray.functions.analysis import PLAIN_ANALYZER
    from search_engine_framework_ray.pipelines.build_index import (
        PlainSource,
        build_index,
    )

    src = tmp_path / "docs.parquet"
    pq.write_table(pa.table({"doc_id": list(range(len(TEXTS))), "text": TEXTS}), src)
    idx = str(tmp_path / "idx")
    build_index(
        str(src), idx, analyzer=PLAIN_ANALYZER, plain_source=PlainSource(), num_shards=2
    )
    return idx


def _bm25(idx, k=100):
    from search_engine_framework_ray.query.executor import run_queries

    res = run_queries(idx, [("q", "apple banana")], ModelParams(model="BM25"), k=k)["q"]
    return [(int(u[3:]), s) for u, s, _ in res]


def test_deletes_filter_and_preserve_scores(del_index):
    before = _bm25(del_index)
    assert {d for d, _ in before} == set(range(6))
    write_tombstones(del_index, [1, 4])
    after = _bm25(del_index)
    assert {d for d, _ in after} == {0, 2, 3, 5}
    # surviving docs: scores BIT-identical (stats untouched by the delete)
    bmap = dict(before)
    for d, s in after:
        assert s == bmap[d]


def test_deletes_apply_before_topk_cut(del_index):
    # k=2 with the top doc deleted: the next live docs must fill the page
    top2 = _bm25(del_index, k=2)
    write_tombstones(del_index, [top2[0][0]])
    after = _bm25(del_index, k=2)
    assert len(after) == 2
    assert top2[0][0] not in {d for d, _ in after}


def _bm25f(idx, k=100):
    from search_engine_framework_ray.query.bm25f import bm25f_topk

    out = bm25f_topk(idx, ["apple", "banana"], {"body": 1.0}, k=k)
    return list(zip(out["docid"].astype(int), out["score"]))


def _passage(idx, k=100):
    from search_engine_framework_ray.query.passage import passage_bm25_topk

    out = passage_bm25_topk(idx, ["apple", "banana"], window=2, k=k)
    return list(zip(out["docid"].astype(int), out["score_micros"]))


def _pruned(idx, k=100):
    from search_engine_framework_ray.pipelines.prune import pruned_bm25_topk

    out = pruned_bm25_topk(idx, ["apple", "banana"], keep_top=10, k=k)
    return list(zip(out["docid"].astype(int), out["score"]))


@pytest.mark.parametrize(
    "rank", [_bm25f, _passage, _pruned], ids=["bm25f", "passage", "pruned"]
)
def test_deletes_filter_field_and_passage_rankers(del_index, rank):
    before = rank(del_index)
    assert {d for d, _ in before} == set(range(6))
    write_tombstones(del_index, [1, 4])
    after = rank(del_index)
    assert {d for d, _ in after} == {0, 2, 3, 5}
    # surviving docs: scores BIT-identical (BM25F's union df keeps counting
    # the deleted docs, as every per-field df does)
    bmap = dict(before)
    for d, s in after:
        assert s == bmap[d]
    # a deleted top doc is replaced at the k cut
    write_tombstones(del_index, [after[0][0]])
    assert rank(del_index, k=2) == after[1:3]


def test_delete_merge_idempotent(del_index):
    assert write_tombstones(del_index, [3, 1]) == 2
    assert write_tombstones(del_index, [1, 5]) == 3
    assert load_tombstones(del_index).tolist() == [1, 3, 5]


def test_compact_apply_deletes_equals_filtered_rebuild(del_index, tmp_path):
    """Physical reclaim: compact_index(apply_deletes=True) must score
    bit-identically to a FRESH index built over the surviving corpus —
    survivor df/ctf/avg_doclen/N all recomputed, tombstoned postings gone."""
    from search_engine_framework_ray.functions.analysis import PLAIN_ANALYZER
    from search_engine_framework_ray.pipelines.build_index import (
        PlainSource,
        build_index,
    )
    from search_engine_framework_ray.pipelines.compact import compact_index
    from search_engine_framework_ray.query.executor import run_queries

    write_tombstones(del_index, [1, 4])
    out = str(tmp_path / "reclaimed")
    rep = compact_index(del_index, out, apply_deletes=True)
    assert rep["stats"]["n_docs"] == 4
    assert not load_tombstones(out).size  # reclaimed index carries no list

    live = [(i, t) for i, t in enumerate(TEXTS) if i not in (1, 4)]
    src2 = tmp_path / "live.parquet"
    pq.write_table(
        pa.table(
            {"doc_id": [i for i, _ in live], "text": [t for _, t in live]}
        ),
        src2,
    )
    ref = str(tmp_path / "refidx")
    build_index(
        str(src2), ref, analyzer=PLAIN_ANALYZER, plain_source=PlainSource(), num_shards=2
    )
    for qtext, model in (
        ("apple banana", "BM25"),
        ("#NEAR/1(banana apple)", "RankedBoolean"),
        ("cherry", "BM25"),
    ):
        p = ModelParams(model=model)
        a = run_queries(out, [("q", qtext)], p, k=100)["q"]
        b = run_queries(ref, [("q", qtext)], p, k=100)["q"]
        assert [(u, s) for u, s, _ in a] == [(u, s) for u, s, _ in b], qtext
    # resume: identical reclaim is a no-op
    rep2 = compact_index(del_index, out, apply_deletes=True)
    assert rep2["resumed"]


def test_deletes_filter_il_root(del_index):
    from search_engine_framework_ray.query.executor import run_il_queries

    write_tombstones(del_index, [0, 5])
    res = run_il_queries(del_index, [("q", "apple")])["q"]
    docs = {int(u[3:]) for u, _, _ in res}
    assert docs and not docs & {0, 5}
