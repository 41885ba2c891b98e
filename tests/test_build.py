"""End-to-end index build on the tiny synthetic corpus: structure, postings
correctness vs a brute-force recount, global termstats, and resume."""

import glob
import hashlib
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from search_engine_framework_ray.functions.analysis import DEFAULT_ANALYZER, analyze_positions
from search_engine_framework_ray.functions.extract import extract_fields
from search_engine_framework_ray.state.index_layout import list_shards, read_stats
from search_engine_framework_ray.state.shard import ShardReader


@pytest.fixture(scope="module")
def built_index(ray_session, tiny_corpus, tmp_path_factory):
    from search_engine_framework_ray.pipelines.build_index import build_index

    index_dir = str(tmp_path_factory.mktemp("idx") / "index")
    report = build_index(
        tiny_corpus, index_dir, num_shards=3, verify_golden=True
    )
    return index_dir, report


def _brute_force(tiny_corpus):
    """Single-process truth: per-(field,term) postings over the whole corpus."""
    rows = []
    for p in sorted(glob.glob(f"{tiny_corpus}/*.parquet")):
        rows.extend(pq.read_table(p).to_pylist())
    rows.sort(key=lambda r: r["url"])
    inlink = {}
    for r in rows:
        for href, atext in extract_fields(r["html"])["links"]:
            inlink.setdefault(href, []).append((r["url"], atext))
    docs = []
    for docid, r in enumerate(rows):
        f = extract_fields(r["html"])
        anchors = [a for _, a in sorted(inlink.get(r["url"], []))]
        docs.append(
            (
                docid,
                r["url"],
                {
                    "body": f["body"],
                    "title": f["title"],
                    "keywords": f["keywords"],
                    "url": r["url"],
                    "inlink": " ".join(anchors),
                },
            )
        )
    postings = {}
    doclens = {}
    for docid, url, fields in docs:
        for field, text in fields.items():
            terms, positions = analyze_positions(text, DEFAULT_ANALYZER)
            doclens[(field, docid)] = len(terms)
            per = {}
            for t, p in zip(terms, positions):
                per.setdefault(t, []).append(p)
            for t, pl in per.items():
                postings.setdefault((field, t), []).append((docid, len(pl), pl))
    return docs, postings, doclens


def test_build_structure(built_index):
    index_dir, report = built_index
    assert report["n_docs"] == 200
    shards = list_shards(index_dir)
    assert len(shards) == 3
    stats = read_stats(index_dir)
    assert stats["n_docs"] == 200
    assert set(stats["fields"]) == {"body", "title", "keywords", "url", "inlink"}
    assert stats["fields"]["body"]["sum_doclen"] > 0
    assert os.path.isdir(os.path.join(index_dir, "termstats"))


def test_docids_are_global_url_rank(built_index, tiny_corpus):
    index_dir, _ = built_index
    docs, _, _ = _brute_force(tiny_corpus)
    got = []
    for s in list_shards(index_dir):
        r = ShardReader(index_dir, s)
        got.extend(zip(range(r.docid_base, r.docid_base + r.n_docs), r.urls))
    got.sort()
    want = [(d, u) for d, u, _ in docs]
    assert got == want


def test_postings_match_brute_force(built_index, tiny_corpus):
    index_dir, _ = built_index
    docs, postings, doclens = _brute_force(tiny_corpus)
    readers = [ShardReader(index_dir, s) for s in list_shards(index_dir)]

    def merged(field, term):
        parts = []
        for r in readers:
            d, t, po, pf, df, ctf = r.get_postings(field, term)
            for i in range(len(d)):
                parts.append((int(d[i]), int(t[i]), pf[po[i] : po[i + 1]].tolist()))
        parts.sort()
        return parts

    # check a spread of terms incl. a hot one and field-specific ones
    checked = 0
    for (field, term), want in sorted(postings.items()):
        if checked >= 40:
            break
        if field == "body" and len(want) < 2 and checked % 2 == 0:
            continue
        assert merged(field, term) == sorted(want), (field, term)
        checked += 1
    assert checked >= 30

    # doclens
    for r in readers:
        for field in ("body", "title", "inlink"):
            ids = np.arange(r.docid_base, r.docid_base + r.n_docs)
            got = r.doclen(field, ids)
            want = np.array([doclens.get((field, int(d)), 0) for d in ids])
            assert np.array_equal(got, want), field


def test_global_termstats(built_index, tiny_corpus):
    index_dir, _ = built_index
    _, postings, _ = _brute_force(tiny_corpus)
    files = sorted(glob.glob(os.path.join(index_dir, "termstats", "bucket=*.parquet")))
    assert files
    got = {}
    for f in files:
        for r in pq.read_table(f).to_pylist():
            got[(r["field"], r["term"])] = (r["df"], r["ctf"])
    want = {
        k: (len(v), sum(tf for _, tf, _ in v)) for k, v in postings.items()
    }
    assert got == want


def _index_hash(index_dir):
    h = hashlib.sha256()
    for p in sorted(glob.glob(f"{index_dir}/**/*", recursive=True)):
        if os.path.isfile(p) and not p.endswith(".json"):
            h.update(open(p, "rb").read())
    return h.hexdigest()


def test_resume_is_noop_and_hash_stable(built_index, tiny_corpus):
    from search_engine_framework_ray.pipelines.build_index import build_index

    index_dir, _ = built_index
    h1 = _index_hash(index_dir)
    mtime = os.path.getmtime(
        os.path.join(index_dir, "shards", "shard=00000", "postings.bin")
    )
    report2 = build_index(tiny_corpus, index_dir, num_shards=3, verify_golden=True)
    assert report2["n_docs"] == 200
    assert _index_hash(index_dir) == h1
    # shard was skipped, not rebuilt
    assert os.path.getmtime(
        os.path.join(index_dir, "shards", "shard=00000", "postings.bin")
    ) == mtime


def test_killed_midbuild_resume_identical(built_index, tiny_corpus, tmp_path_factory):
    """Simulated mid-merge kill (SURVEY.md §5.5): wipe one shard + the
    commit-marker stats.json from a copy of the index, rebuild, and the
    result must be byte-identical — only the missing shard is rebuilt."""
    import shutil

    from search_engine_framework_ray.pipelines.build_index import build_index

    index_dir, _ = built_index
    h_full = _index_hash(index_dir)
    crash = str(tmp_path_factory.mktemp("crash") / "index")
    shutil.copytree(index_dir, crash)
    shutil.rmtree(os.path.join(crash, "shards", "shard=00001"))
    os.remove(os.path.join(crash, "stats.json"))
    kept = os.path.getmtime(os.path.join(crash, "shards", "shard=00000", "postings.bin"))
    build_index(tiny_corpus, crash, num_shards=3, verify_golden=True)
    assert _index_hash(crash) == h_full
    assert os.path.getmtime(
        os.path.join(crash, "shards", "shard=00000", "postings.bin")
    ) == kept  # surviving shard untouched


def test_results_identical_across_shard_counts(built_index, tiny_corpus, tmp_path_factory):
    """Determinism under different physical partitioning (SURVEY.md §5.4):
    the same corpus built at another shard count must produce identical
    query results, doclens, and url↔docid mapping."""
    from search_engine_framework_ray.pipelines.build_index import build_index
    from search_engine_framework_ray.query.executor import run_queries
    from search_engine_framework_ray.query.models import ModelParams

    index_dir, _ = built_index
    other = str(tmp_path_factory.mktemp("alt") / "index")
    build_index(tiny_corpus, other, num_shards=7, verify_golden=True)

    docmap = {}
    for d in (index_dir, other):
        rows = []
        for p in sorted(glob.glob(os.path.join(d, "docmap", "shard=*.parquet"))):
            t = pq.read_table(p)
            rows.extend(zip(t["docid"].to_pylist(), t["url"].to_pylist()))
        docmap[d] = sorted(rows)
    assert docmap[index_dir] == docmap[other]

    qs = [("q1", "search engine"), ("q2", "#NEAR/2(web page)"), ("q3", "the data index")]
    for model in ("BM25", "Indri", "RankedBoolean"):
        r1 = run_queries(index_dir, qs, ModelParams(model=model))
        r2 = run_queries(other, qs, ModelParams(model=model))
        assert r1 == r2, f"{model} results differ across shard counts"


def test_fresh_rebuild_identical(built_index, tiny_corpus, tmp_path_factory):
    """A second build of the same corpus into a fresh directory, with its
    shard builds running side by side, gives the same index: the same bytes
    in every non-JSON file, docmap, global termstats and query results."""
    from search_engine_framework_ray.pipelines.build_index import build_index
    from search_engine_framework_ray.query.executor import run_queries
    from search_engine_framework_ray.query.models import ModelParams

    index_dir, _ = built_index
    other = str(tmp_path_factory.mktemp("rebuild") / "index")
    build_index(tiny_corpus, other, num_shards=3, verify_golden=True)
    assert _index_hash(other) == _index_hash(index_dir)

    for d1, d2, sub in ((index_dir, other, "docmap"), (index_dir, other, "termstats")):
        rows = {}
        for d in (d1, d2):
            acc = []
            for p in sorted(glob.glob(os.path.join(d, sub, "*.parquet"))) or sorted(
                glob.glob(os.path.join(d, sub, "shard=*.parquet"))
            ):
                acc.extend(map(tuple, pq.read_table(p).to_pandas().itertuples(index=False)))
            rows[d] = sorted(acc)
        assert rows[d1] == rows[d2], f"{sub} differs in the rebuild"

    qs = [("q1", "search engine"), ("q2", "#NEAR/2(web page)")]
    for model in ("BM25", "Indri"):
        assert run_queries(index_dir, qs, ModelParams(model=model)) == run_queries(
            other, qs, ModelParams(model=model)
        ), f"{model} results differ in the rebuild"


def _task_spans(name: str, t0: float, t1: float, want: int) -> list[tuple[float, float]]:
    """(start, end) of the ``name`` tasks that started in [t0, t1], read from
    Ray's task timeline. Workers report task events asynchronously, so poll
    for up to 10 s until ``want`` of them are in."""
    import time

    import ray

    deadline = time.monotonic() + 10
    while True:
        spans = sorted(
            (e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6)
            for e in ray.timeline()
            if e.get("ph") == "X"
            and e.get("cat", "").startswith("task::")
            and name in e["cat"]
            and t0 <= e["ts"] / 1e6 <= t1
        )
        if len(spans) >= want or time.monotonic() > deadline:
            return spans
        time.sleep(0.5)


def test_shard_builds_run_side_by_side(ray_session, tiny_corpus, tmp_path):
    """Ray Data's per-operator reservation would hold every map stage of the
    build to one task on the 4-CPU test cluster; the build turns it off on
    its own datasets, so shard builds overlap in time, and the process-wide
    DataContext is left as it was by build, extend, compaction, pruning and
    the impact build (which turn it off the same way)."""
    import time

    import pyarrow as pa
    import ray.data

    from search_engine_framework_ray.pipelines.build_index import (
        build_index,
        extend_index,
    )
    from search_engine_framework_ray.pipelines.compact import compact_index
    from search_engine_framework_ray.state.index_layout import write_tombstones

    def reserved():
        return ray.data.DataContext.get_current().op_resource_reservation_enabled

    before = reserved()
    index_dir = str(tmp_path / "index")
    t0 = time.time()
    build_index(tiny_corpus, index_dir, num_shards=4)
    t1 = time.time()
    assert reserved() == before

    spans = _task_spans("build_group", t0, t1, want=4)
    assert len(spans) >= 4, spans
    assert any(
        b_start < a_end for i, (_, a_end) in enumerate(spans) for b_start, _ in spans[i + 1 :]
    ), f"build_group tasks ran one after another: {spans}"

    # a delta whose urls are disjoint from the base corpus
    delta = pq.read_table(sorted(glob.glob(f"{tiny_corpus}/*.parquet"))[0]).slice(0, 20)
    urls = [u.replace("https://", "https://delta.") for u in delta["url"].to_pylist()]
    delta = delta.set_column(
        delta.schema.get_field_index("url"), "url", pa.array(urls, pa.string())
    )
    delta_path = str(tmp_path / "delta.parquet")
    pq.write_table(delta, delta_path)
    extend_index(delta_path, index_dir, num_shards=1)
    assert reserved() == before

    write_tombstones(index_dir, [0, 1])
    compact_index(index_dir, str(tmp_path / "compact"), apply_deletes=True)
    assert reserved() == before

    from search_engine_framework_ray.pipelines.impact import build_impact_index
    from search_engine_framework_ray.pipelines.prune import pruned_bm25_topk

    assert len(pruned_bm25_topk(index_dir, ["search"], keep_top=5, k=5))
    assert reserved() == before
    texts_path = str(tmp_path / "texts.parquet")
    pq.write_table(
        pa.table({"doc_id": [0, 1, 2], "text": ["a b", "b c c", "a c"]}), texts_path
    )
    build_impact_index(texts_path, str(tmp_path / "impact"), n_buckets=4)
    assert reserved() == before


def test_shard_bloom_sidecar():
    """state/bloom.py: no false negatives ever; adaptive sizing keeps false
    positives ~1% at any vocabulary size; packed round-trip is stable."""
    import numpy as np

    from search_engine_framework_ray.state.bloom import build_bloom, probe

    keys = [f"body:term{i}" for i in range(50_000)]
    bloom = build_bloom(keys)
    assert len(bloom) * 8 >= 8 * len(keys)  # adaptive bits
    for key in keys[::997]:
        assert probe(bloom, key)  # zero false negatives
    rng = [f"body:absent{i}" for i in range(2_000)]
    fp = sum(probe(bloom, key) for key in rng) / len(rng)
    assert fp < 0.05, fp
