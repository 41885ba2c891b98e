"""Rank-identity of the distributed engine (shards + codec + vectorized
kernels + stats pre-pass + heap merge) vs the independent single-process
oracle, across all four retrieval models and every operator (SURVEY.md §5.2).
Scores must be bit-identical, not just close."""

import glob

import pyarrow.parquet as pq
import pytest

from search_engine_framework_ray.query.models import ModelParams
from search_engine_framework_ray.query.oracle import OracleIndex, oracle_run_query
from search_engine_framework_ray.query.parser import parse_query
from search_engine_framework_ray.sources.trec import format_trec_run

# queries restricted to model-legal operators (illegal combos crash the
# reference with a NullPointerException — not part of the contract)
BOOL_QUERIES = [
    ("b1", "search engine ranking"),
    ("b2", "#AND(search engine)"),
    ("b3", "#OR(web crawl)"),
    ("b4", "#SYN(web page)"),
    ("b5", "#NEAR/1(search engine)"),
    ("b6", "#NEAR/3(index query)"),
    ("b7", "#WINDOW/5(model data)"),
    ("b8", "#AND(search #OR(engine index) #NEAR/2(web page))"),
    ("b9", "search.title engine.url crawl.keywords obama.inlink"),
    ("b10", "the of and"),
    ("b11", "Obama's presidency running"),
    ("b12", "#OR(#AND(market stock) #WINDOW/4(price trade))"),
]
BM25_QUERIES = [
    ("s1", "search engine ranking"),
    ("s2", "#SUM(search engine web)"),
    ("s3", "#NEAR/1(search engine)"),
    ("s4", "#SYN(web page) crawl"),
    ("s5", "#WINDOW/5(model data) index"),
    ("s6", "the of and"),
    ("s7", "search.title engine.url ranking"),
    ("s8", "Obama's presidency running"),
    ("s9", "#SUM(#NEAR/2(new york) market)"),
]
INDRI_QUERIES = [
    ("i1", "search engine ranking"),
    ("i2", "#AND(search engine)"),
    ("i3", "#WAND(0.3 search 0.7 engine)"),
    ("i4", "#WSUM(0.5 web 0.3 the 0.2 crawl)"),
    ("i5", "#AND(search #WAND(0.4 engine 0.6 index))"),
    ("i6", "#AND(#NEAR/2(web page) market)"),
    ("i7", "#WAND(0.4 #AND(search engine) 0.6 #WSUM(0.5 web 0.5 crawl))"),
    ("i8", "search.title engine.url"),
    ("i9", "#AND(zzzabsentterm search)"),
    ("i10", "#WINDOW/6(market stock price)"),
]


@pytest.fixture(scope="module")
def engine(ray_session, tiny_corpus, tmp_path_factory):
    from search_engine_framework_ray.pipelines.build_index import build_index

    index_dir = str(tmp_path_factory.mktemp("qidx") / "index")
    build_index(tiny_corpus, index_dir, num_shards=3)
    rows = []
    for p in sorted(glob.glob(f"{tiny_corpus}/*.parquet")):
        rows.extend(pq.read_table(p, columns=["url", "html"]).to_pylist())
    oracle = OracleIndex(rows)
    return index_dir, oracle


def _compare(engine_fixture, queries, model, run=None):
    """Engine vs oracle; ``run(queries, params)`` defaults to the one-shot
    ``run_queries`` over the fixture index."""
    from search_engine_framework_ray.query.executor import run_queries

    index_dir, oracle = engine_fixture
    params = ModelParams(model=model)
    got = run(queries, params) if run else run_queries(index_dir, queries, params)
    n_nonempty = 0
    for qid, qtext in queries:
        qtree = parse_query(qtext, model)
        want = oracle_run_query(qtree, oracle, params) if qtree else []
        have = [(u, s) for u, s, _ in got[qid]]
        assert [u for u, _ in have] == [u for u, _ in want], f"{model} {qid} ranking differs"
        assert [s for _, s in have] == [s for _, s in want], f"{model} {qid} scores differ"
        if have:
            n_nonempty += 1
    assert n_nonempty >= len(queries) - 2, "fixture queries mostly hit nothing"
    return got


def test_ranked_boolean(engine):
    _compare(engine, BOOL_QUERIES, "RankedBoolean")


def test_unranked_boolean(engine):
    _compare(engine, BOOL_QUERIES, "UnrankedBoolean")


def test_bm25(engine):
    _compare(engine, BM25_QUERIES, "BM25")


def test_indri(engine):
    _compare(engine, INDRI_QUERIES, "Indri")


def test_pl2(engine):
    """PL2 (§2.9 extension-surface model) through the same rank-identity
    gate as the built-in four: distributed engine vs scalar oracle,
    bit-identical scores (shared numpy log2 primitive)."""
    _compare(engine, BM25_QUERIES, "PL2")


def test_trec_output_format(engine):
    from search_engine_framework_ray.query.executor import run_queries

    index_dir, _ = engine
    params = ModelParams(model="BM25")
    got = run_queries(index_dir, [("s1", "search engine"), ("s6", "the of")], params)
    text = format_trec_run(got, ["s1", "s6"], is_ranked=True)
    lines = text.strip().split("\n")
    first = lines[0].split()
    assert first[0] == "s1" and first[1] == "Q0" and first[3] == "1"
    assert float(first[4]) != 0
    assert lines[-1] == "s6 Q0 dummy 1 0 None"
    # ranks are 1..n and scores non-increasing
    s1 = [l.split() for l in lines if l.startswith("s1 ")]
    scores = [float(p[4]) for p in s1]
    assert scores == sorted(scores, reverse=True)
    assert [int(p[3]) for p in s1] == list(range(1, len(s1) + 1))


def test_zero_weight_wand_rejected(engine):
    """ADVICE r1: '#WAND(0 a 0 b)' (weights summing to 0) must map to []
    at plan time — in the engine AND the oracle — instead of crashing the
    distributed batch with ZeroDivisionError."""
    from search_engine_framework_ray.query.executor import run_queries

    index_dir, oracle = engine
    params = ModelParams(model="Indri")
    got = run_queries(
        index_dir,
        [("z1", "#WAND(0 search 0 engine)"), ("z2", "#WSUM(0 web 0 crawl)"), ("z3", "search")],
        params,
    )
    assert got["z1"] == [] and got["z2"] == []
    assert got["z3"]  # per-query isolation: the rest of the batch survives
    for q in ("#WAND(0 search 0 engine)", "#WSUM(0 web 0 crawl)"):
        qtree = parse_query(q, "Indri")
        assert oracle_run_query(qtree, oracle, params) == []


def test_il_root_emission(engine):
    """Il-root output path (QryEval.java:295-314): tf-as-score sorted
    (tf desc, extid asc) capped at 100 for ranked; extid-asc score 1.0 for
    unranked. Ranked order equals the RankedBoolean oracle ranking of the
    same Il op (score == tf, same tie-break)."""
    from search_engine_framework_ray.query.executor import run_il_queries

    index_dir, oracle = engine
    for q in ("#SYN(search engine)", "#NEAR/2(search engine)", "search"):
        got = run_il_queries(index_dir, [("q", q)], ranked=True, k=1000)["q"]
        want = oracle_run_query(
            parse_query(q, "RankedBoolean"), oracle, ModelParams(model="RankedBoolean")
        )[:100]
        assert [(u, s) for u, s, _ in got] == want, q
        assert len(got) <= 100
    got = run_il_queries(index_dir, [("q", "#SYN(search engine)")], ranked=False)["q"]
    urls = [u for u, _, _ in got]
    assert urls == sorted(urls) and all(s == 1.0 for _, s, _ in got) and urls
    # malformed Il queries map to [] (per-query isolation), never crash
    mixed = run_il_queries(
        index_dir,
        [("bad1", "#FOO(a b)"), ("bad2", ")"), ("ok", "#SYN(search engine)")],
    )
    assert mixed["bad1"] == [] and mixed["bad2"] == [] and mixed["ok"]


def test_query_service_matches_oracle(engine):
    """A service kept open over several calls (2 workers over 3 shards)
    ranks and scores exactly like the oracle."""
    from search_engine_framework_ray.query.executor import QueryService

    with QueryService(engine[0], num_actors=2) as svc:
        _compare(engine, BM25_QUERIES[:5], "BM25", run=svc.run)
        _compare(engine, INDRI_QUERIES[:5], "Indri", run=svc.run)


def test_query_service_warmup_prefaults_and_is_pure(engine):
    """warmup() makes the postings + termstats resident (returns the byte
    count) and changes NO query result — the first queries after warmup
    equal the oracle."""
    from search_engine_framework_ray.query.executor import QueryService

    with QueryService(engine[0], num_actors=2) as svc:
        assert svc.warmup() > 0
        _compare(engine, BM25_QUERIES[:3], "BM25", run=svc.run)


def test_one_shot_calls_leave_every_cpu_free(engine, monkeypatch):
    """run_queries, run_il_queries, score_documents, bm25f_topk and
    passage_bm25_topk shut their service down before returning, also when
    the call raises after its workers started: every CPU is free again
    within a bounded wait, with no gc pass (a build started right after a
    batch call that held CPUs ran at 55-60 % of its rate)."""
    import time

    import ray

    from search_engine_framework_ray.query import executor
    from search_engine_framework_ray.query.bm25f import bm25f_topk
    from search_engine_framework_ray.query.passage import passage_bm25_topk

    index_dir, _ = engine
    params = ModelParams(model="BM25")

    def wait_all_cpus_free():
        total = ray.cluster_resources()["CPU"]
        deadline = time.monotonic() + 15
        while ray.available_resources().get("CPU", 0) < total:
            assert time.monotonic() < deadline, "CPUs still held after the call"
            time.sleep(0.05)

    wait_all_cpus_free()
    assert executor.run_queries(index_dir, BM25_QUERIES[:2], params)["s1"]
    wait_all_cpus_free()
    assert executor.run_il_queries(index_dir, [("q", "#SYN(search engine)")])["q"]
    wait_all_cpus_free()
    got = executor.score_documents(
        index_dir, [("q", "search engine")], params, {"q": list(range(50))}
    )
    assert len(got)
    wait_all_cpus_free()
    assert len(bm25f_topk(index_dir, ["search"], {"body": 1.0}))
    wait_all_cpus_free()
    assert len(passage_bm25_topk(index_dir, ["search"]))
    wait_all_cpus_free()

    def failing_merge(*_a, **_kw):
        raise RuntimeError("merge failed")

    monkeypatch.setattr(executor, "merge_results", failing_merge)
    with pytest.raises(RuntimeError, match="merge failed"):
        executor.run_queries(index_dir, BM25_QUERIES[:2], params)
    wait_all_cpus_free()


def _random_queries(seed: int, n: int) -> list[tuple[str, str]]:
    """Seeded random structured queries over the fixture vocabulary,
    respecting model-legal operator sets at generation time."""
    import numpy as np

    rng = np.random.default_rng(seed)
    vocab = [
        "search", "engine", "web", "page", "crawl", "index", "ranking",
        "market", "stock", "price", "data", "model", "query", "the", "new",
        "york", "trade", "obama", "running", "zzzabsent",
    ]
    fields = ["", ".title", ".url", ".keywords", ".body"]

    def term():
        t = rng.choice(vocab)
        f = rng.choice(fields) if rng.random() < 0.25 else ""
        return f"{t}{f}"

    def il_op(depth):
        r = rng.random()
        k = int(rng.integers(2, 4))
        # Il-op args must share ONE field (same-field requirement,
        # QryopIlNear.java:156-169) — mixed fields are invalid input
        f = rng.choice(fields) if rng.random() < 0.25 else ""
        args = " ".join(f"{rng.choice(vocab)}{f}" for _ in range(k))
        if r < 0.4:
            return f"#NEAR/{int(rng.integers(1, 6))}({args})"
        if r < 0.7:
            return f"#WINDOW/{int(rng.integers(2, 8))}({args})"
        return f"#SYN({args})"

    def sl_op(model, depth):
        if depth <= 0 or rng.random() < 0.35:
            return il_op(depth) if rng.random() < 0.4 else term()
        k = int(rng.integers(2, 4))
        kids = [sl_op(model, depth - 1) for _ in range(k)]
        if model == "Indri":
            r = rng.random()
            if r < 0.33:
                return "#AND(" + " ".join(kids) + ")"
            ws = [f"{rng.uniform(0.1, 1.0):.2f}" for _ in kids]
            op = "#WAND" if r < 0.66 else "#WSUM"
            return op + "(" + " ".join(f"{w} {c}" for w, c in zip(ws, kids)) + ")"
        if model == "BM25":
            return "#SUM(" + " ".join(kids) + ")"
        return ("#AND(" if rng.random() < 0.5 else "#OR(") + " ".join(kids) + ")"

    model = ["RankedBoolean", "UnrankedBoolean", "BM25", "Indri"][seed % 4]
    return model, [(f"r{i}", sl_op(model, 2)) for i in range(n)]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7, 8])
def test_random_queries_rank_identical(engine, seed):
    """Fuzz: seeded random structured queries must be rank- AND
    score-identical between the distributed engine and the oracle."""
    model, queries = _random_queries(seed, 6)
    _compare_lenient(engine, queries, model)


def _compare_lenient(engine_fixture, queries, model):
    """Like _compare but without the ≥n-2 non-empty requirement (random
    queries may legitimately match nothing)."""
    from search_engine_framework_ray.query.executor import run_queries

    index_dir, oracle = engine_fixture
    params = ModelParams(model=model)
    got = run_queries(index_dir, queries, params)
    for qid, qtext in queries:
        qtree = parse_query(qtext, model)
        want = oracle_run_query(qtree, oracle, params) if qtree else []
        have = [(u, s) for u, s, _ in got[qid]]
        assert [u for u, _ in have] == [u for u, _ in want], f"{model} {qid}: {qtext}"
        assert [s for _, s in have] == [s for _, s in want], f"{model} {qid}: {qtext}"


def test_il_cache_single_composite_eval(engine):
    """The worker-held composite-IL cache must (a) leave scores identical
    and (b) make the stats-prepass + scoring pass evaluate each positional
    subtree ONCE per (query, shard) — the r2 tail-latency fix."""
    from unittest import mock

    from search_engine_framework_ray.query import kernels
    from search_engine_framework_ray.query.executor import (
        _ShardCache,
        apply_prepass,
        exec_rows,
        plan_queries,
        stats_prepass_rows,
    )

    index_dir, _ = engine
    params = ModelParams(model="BM25")
    q = "#NEAR/2(new york) #SYN(city state)"
    trees, score_stats, _comp = plan_queries(index_dir, [("q1", q)], params)

    def run(cache):
        pairs = [("q1", s) for s in range(3)]
        pre = stats_prepass_rows(cache, {"q1": (trees["q1"], params)}, pairs)
        ss = {k: dict(v) for k, v in score_stats.items()}
        apply_prepass(ss, pre)
        return exec_rows(
            cache, {"q1": (trees["q1"], params, ss["q1"])}, pairs, 10
        )

    cached = _ShardCache(index_dir)
    real_eval = kernels.Evaluator.eval_il
    with mock.patch.object(
        kernels.Evaluator, "eval_il", autospec=True, side_effect=real_eval
    ) as spy:
        out_cached = run(cached)
        # composite nodes: #NEAR and #SYN → per shard, each evaluated once
        # in the prepass and HIT in the scoring pass; terms are uncached.
        composite_calls = [
            c for c in spy.call_args_list
            if type(c.args[1]).__name__ in ("Near", "Window", "Syn")
        ]
        assert len(composite_calls) == 2 * 3  # 2 composites × 3 shards

    uncached = _ShardCache(index_dir)
    uncached.il_cache = None  # disable the cache entirely
    out_plain = run(uncached)
    pd_sorted = lambda df: df.sort_values(
        ["qid", "score", "docid"], ignore_index=True
    ) if len(df) else df
    assert pd_sorted(out_cached).equals(pd_sorted(out_plain))


def test_spell_suggest_semantics(ray_session):
    import pandas as pd
    import ray.data

    from search_engine_framework_ray.query.spell import levenshtein, spell_suggest

    # transposition is distance 2 under plain levenshtein — the deletes
    # prefilter shares a variant ('ab'/'ba' both delete to 'a','b') but the
    # exact verify must reject it
    assert levenshtein("ab", "ba") == 2
    vocab = pd.DataFrame(
        {
            "field": ["body"] * 4 + ["title"],
            "term": ["hello", "help", "hell", "ba", "helx"],
            "df": [1] * 5,
            "ctf": [100, 50, 200, 1, 999],
        }
    )
    ts = ray.data.from_pandas([vocab.iloc[:3], vocab.iloc[3:].reset_index(drop=True)])
    out = spell_suggest(ts, ["helo", "ab"], k=2)
    helo = out[out["qtoken"] == "helo"]
    # 'hell'(200), 'hello'(100), 'help'(50) all at distance 1 → ctf order
    assert helo["suggestion"].tolist() == ["hell", "hello"]
    assert helo["distance"].tolist() == [1, 1]
    # title-field 'helx' (distance 1, huge ctf) must be excluded: the
    # suggester reads the requested field's vocabulary only
    assert "helx" not in out["suggestion"].tolist()
    # 'ab' shares delete variants with 'ba' but the exact verify rejects
    # the transposition (distance 2) → no suggestions at all
    assert (out["qtoken"] == "ab").sum() == 0


def test_prefix_suggest_ranking(ray_session):
    import pandas as pd
    import ray.data

    from search_engine_framework_ray.query.spell import prefix_suggest

    vocab = pd.DataFrame(
        {
            "field": ["body"] * 4 + ["title"],
            "term": ["hello", "help", "hero", "zebra", "heXtitle"],
            "df": [1] * 5,
            "ctf": [10, 50, 30, 99, 999],
        }
    )
    ts = ray.data.from_pandas([vocab.iloc[:2], vocab.iloc[2:].reset_index(drop=True)])
    out = prefix_suggest(ts, ["he"], k=2)
    # top-2 by ctf among body terms with the prefix, across blocks;
    # title-field heXtitle excluded
    assert out["suggestion"].tolist() == ["help", "hero"]
    assert out["rank"].tolist() == [1, 2]


def test_mmr_rerank_semantics():
    from search_engine_framework_ray.query.diversify import mmr_rerank

    toks = {
        1: frozenset("abcd"),
        2: frozenset("abce"),  # near-dup of 1
        3: frozenset("wxyz"),  # unrelated
    }
    # relevance order 1 > 2 > 3, but 2 is ~a duplicate of 1 → MMR must
    # promote 3 to rank 2
    # snorm gap 1→2 is (900-880)/(900-870)·1e6 ≈ 667k lost, but 2 pays a
    # 600k redundancy penalty vs 3's zero → 3 outranks 2
    out = mmr_rerank([(1, 900), (2, 880), (3, 870)], toks, k=3)
    assert out["doc_id"].tolist() == [1, 3, 2]
    assert out.loc[0, "snorm_micros"] == 1_000_000
    assert out.loc[0, "maxsim_micros"] == 0
    # negative scores (high-df BM25 idf): min-max keeps relevance order
    out = mmr_rerank([(1, -300), (2, -310), (3, -900)], toks, k=1)
    assert out["doc_id"].tolist() == [1]
    assert out.loc[0, "snorm_micros"] == 1_000_000
    # constant scores → snorm 1e6 everywhere, pure diversity order
    out = mmr_rerank([(1, 5), (2, 5), (3, 5)], toks, k=2)
    assert out["doc_id"].tolist() == [1, 3]


def test_collapse_top_k_quota_and_order():
    """Site collapse: per-key quota honored in rank order, dense final
    ranks, k cut after the quota filter (not before)."""
    import pandas as pd

    from search_engine_framework_ray.query.diversify import collapse_top_k

    ranked = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4, 5, 6, 7],
            "source": ["a", "a", "a", "b", "a", "c", "b"],
            "score_micros": [70, 60, 50, 40, 30, 20, 10],
        }
    )
    out = collapse_top_k(ranked, "source", max_per_key=2, k=4)
    # doc 3 (third 'a') and doc 5 (fourth 'a') are skipped, NOT re-scored
    assert out["doc_id"].tolist() == [1, 2, 4, 6]
    assert out["rank"].tolist() == [1, 2, 3, 4]
    # k cut happens after the quota filter: with k=5 doc 7 (second 'b') enters
    assert collapse_top_k(ranked, "source", max_per_key=2, k=5)[
        "doc_id"
    ].tolist() == [1, 2, 4, 6, 7]


def test_wildcard_expansion_guards(ray_session, engine):
    import os

    import pytest
    import ray.data

    from search_engine_framework_ray.query.spell import (
        expand_wildcard,
        wildcard_query,
    )

    index_dir, _ = engine
    ts = ray.data.read_parquet(os.path.join(index_dir, "termstats"))
    terms = expand_wildcard(ts, "s")
    assert terms == sorted(terms) and all(t.startswith("s") for t in terms)
    q = wildcard_query(ts, "s")
    assert q.startswith("#SYN(") and all(t in q for t in terms)
    with pytest.raises(ValueError):
        expand_wildcard(ts, "")  # whole-vocabulary match refused
    with pytest.raises(ValueError):
        expand_wildcard(ts, "s", max_terms=1)  # clause-count guard
    with pytest.raises(ValueError):
        wildcard_query(ts, "zzznomatch")  # empty expansion is loud


def test_fuzzy_expansion_semantics(ray_session, engine):
    import os

    import pytest
    import ray.data

    from search_engine_framework_ray.query.spell import (
        expand_fuzzy,
        fuzzy_query,
        levenshtein,
    )

    index_dir, _ = engine
    ts = ray.data.read_parquet(os.path.join(index_dir, "termstats"))
    # exact-recall check: expansion == brute-force lev<=1 over the vocab
    vocab = sorted(set(ts.to_pandas().query("field == 'body'")["term"]))
    probe = vocab[0]
    got = expand_fuzzy(ts, probe, max_distance=1)
    want = sorted(t for t in vocab if levenshtein(probe, t) <= 1)
    assert got == want and probe in got
    q = fuzzy_query(ts, probe)
    assert q.startswith("#SYN(") and all(t in q for t in got)
    with pytest.raises(ValueError):
        expand_fuzzy(ts, "")  # empty token refused
    with pytest.raises(ValueError):
        expand_fuzzy(ts, probe, max_distance=2)  # prefilter not exact there
    with pytest.raises(ValueError):
        expand_fuzzy(ts, probe, max_terms=0)  # clause-count guard
    with pytest.raises(ValueError):
        fuzzy_query(ts, "zzzzzzznomatch")  # empty expansion is loud


@pytest.fixture(scope="module")
def filtered_corpus(ray_session, tmp_path_factory):
    import pyarrow as pa

    from search_engine_framework_ray.functions.analysis import PLAIN_ANALYZER
    from search_engine_framework_ray.pipelines.build_index import (
        PlainSource,
        build_index,
    )

    root = tmp_path_factory.mktemp("filt")
    src = str(root / "docs.parquet")
    texts = [f"alpha beta doc{i} " + ("alpha " * (i % 3)) for i in range(12)]
    pq.write_table(
        pa.table(
            {
                "doc_id": list(range(12)),
                "text": texts,
                "source": [f"s{i % 4}" for i in range(12)],
            }
        ),
        src,
    )
    idx = str(root / "idx")
    build_index(src, idx, analyzer=PLAIN_ANALYZER, plain_source=PlainSource(), num_shards=3)
    return idx, src


def test_filtered_bm25_semantics(filtered_corpus):
    """Filter-query semantics: surviving docs keep BIT-IDENTICAL scores
    (global stats), non-members never rank, a filter matching everything
    is the identity, and a shard with no members contributes nothing."""
    from search_engine_framework_ray.query.executor import run_queries
    from search_engine_framework_ray.query.filtered import (
        build_docid_filter,
        filtered_topk,
    )

    idx, src = filtered_corpus
    params = ModelParams(model="BM25")
    q = [("q", "alpha beta")]
    full = run_queries(idx, q, params, k=20)["q"]
    full_scores = {d: s for _, s, d in full}

    got = filtered_topk(idx, src, q, params, "source", ["s1", "s3"], k=20)["q"]
    want_ids = {i for i in range(12) if i % 4 in (1, 3)}
    assert {d for _, _, d in got} == want_ids  # every member matches 'alpha'
    for _, s, d in got:
        assert s == full_scores[d], "filter must not change a survivor's score"

    allof = filtered_topk(
        idx, src, q, params, "source", ["s0", "s1", "s2", "s3"], k=20
    )["q"]
    assert allof == full

    # docids 0-11 over 3 shards → shard ranges [0,4) [4,8) [8,12); a filter
    # hitting only doc 5 must omit the other shards' EF entries entirely
    ef = build_docid_filter(idx, src, "source", ["s1"])
    from search_engine_framework_ray.functions.ef import ef_decode

    members = sorted(
        int(x) for buf in ef.values() for x in ef_decode(buf)[0]
    )
    assert members == [1, 5, 9]
    only = filtered_topk(idx, src, q, params, "source", ["nope"], k=20)["q"]
    assert only == []


def test_query_result_cache(filtered_corpus, tmp_path):
    """Hit returns bit-identical results with zero cluster work counted;
    a tombstone write changes the index fingerprint so stale entries
    never serve; eviction bounds the entry count."""
    from search_engine_framework_ray.query.cache import (
        QueryResultCache,
        index_fingerprint,
    )
    from search_engine_framework_ray.query.executor import run_queries
    from search_engine_framework_ray.state.index_layout import write_tombstones

    import shutil

    # private copy: the tombstone write below must not mutate the shared
    # module fixture other tests score against
    idx = str(tmp_path / "idx")
    shutil.copytree(filtered_corpus[0], idx)
    params = ModelParams(model="BM25")
    q = [("q1", "alpha beta"), ("q2", "beta")]
    cache = QueryResultCache(idx, str(tmp_path / "qcache"))

    fp0 = index_fingerprint(idx)
    first = cache.run(q, params, k=5)
    assert (cache.hits, cache.misses) == (0, 2)
    second = cache.run(q, params, k=5)
    assert (cache.hits, cache.misses) == (2, 2)
    assert second == first == run_queries(idx, q, params, k=5)

    # different k or params → different key, not a stale hit
    cache.run(q, params, k=3)
    assert cache.misses == 4

    # index mutation invalidates: fingerprint changes, results re-evaluate
    write_tombstones(idx, [first["q1"][0][2]])
    assert index_fingerprint(idx) != fp0
    after = cache.run(q, params, k=5)
    assert cache.misses == 6
    assert first["q1"][0][2] not in [d for _, _, d in after["q1"]]

    # eviction keeps the newest max_entries files
    small = QueryResultCache(idx, str(tmp_path / "small"), max_entries=2)
    for i, term in enumerate(["alpha", "beta", "doc1", "doc2"]):
        small.run([(f"e{i}", term)], params, k=2)
    import os

    assert len(os.listdir(str(tmp_path / "small"))) == 2


def test_explain_contributions_sum_to_score(filtered_corpus):
    """explain_bm25 rows must reconstruct the distributed ranking exactly:
    per-doc contribution sums equal the run_queries scores (micros), and
    a term absent from a doc emits no row."""
    from search_engine_framework_ray.query.executor import run_queries
    from search_engine_framework_ray.query.explain import explain_bm25

    idx, _ = filtered_corpus
    params = ModelParams(model="BM25")
    res = run_queries(idx, [("q", "alpha beta")], params, k=12)["q"]
    ids = [d for _, _, d in res]
    ex = explain_bm25(idx, ["alpha", "beta"], ids, params)
    got = ex.groupby("doc_id")["contribution_micros"].sum()
    import numpy as np

    for u, s, d in res:
        want = int(np.sign(s) * np.floor(abs(s) * 1e6 + 0.5))
        # per-term micros rounding vs whole-score rounding: off by ≤ n_terms
        assert abs(int(got[d]) - want) <= 2, (d, int(got[d]), want)
    # every doc matching only 'alpha' has exactly one row
    one_term = ex.groupby("doc_id")["term"].nunique()
    assert set(ex["term"]) <= {"alpha", "beta"}
    assert (one_term >= 1).all()


def test_all_invalid_queries_start_no_service(engine, monkeypatch):
    """A call whose every query fails to parse answers [] / no rows on the
    driver: no service, so no worker, starts."""
    from search_engine_framework_ray.query import executor

    def no_service(*_a, **_kw):
        raise AssertionError("a query service started")

    monkeypatch.setattr(executor, "QueryService", no_service)
    index_dir, _ = engine
    bad = [("a", "#FOO(x y)"), ("b", ")")]
    params = ModelParams(model="BM25")
    assert executor.run_queries(index_dir, bad, params) == {"a": [], "b": []}
    assert executor.run_il_queries(index_dir, bad) == {"a": [], "b": []}
    assert executor.score_documents(index_dir, bad, params, {"a": [1]}).empty


def test_bloom_routing_identical_and_prunes(engine):
    """Bloom fan-out routing (VERDICT r3 #9): the routed query service must
    be result-identical to the full fan-out (``route=False``; no false
    negatives ⇒ a skipped shard is a proven true negative) while launching
    fewer shard tasks for terms confined to few shards; a term absent
    everywhere routes to zero shards and returns []."""
    from search_engine_framework_ray.query import executor
    from search_engine_framework_ray.query.executor import run_queries

    index_dir, _ = engine
    qs = [
        ("r1", "search engine ranking"),
        ("r2", "#NEAR/1(search engine)"),
        ("r3", "obama.inlink"),
        ("r4", "zzznotaterm"),
        ("r5", "#NEAR/2(web page)"),
    ]
    for model in ("BM25", "Indri", "RankedBoolean"):
        params = ModelParams(model=model)
        routed = run_queries(index_dir, qs, params)
        stats = dict(executor.LAST_ROUTE_STATS)
        full = run_queries(index_dir, qs, params, route=False)
        assert routed == full, f"{model}: routed results differ from full fan-out"
        assert stats["shard_tasks_routed"] <= stats["shard_tasks_full"]
        # the nowhere-term query routes to zero shards
        assert stats["shard_tasks_routed"] < stats["shard_tasks_full"]
        assert routed["r4"] == []
