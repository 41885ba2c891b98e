"""``ray job submit``-able entrypoints (north_rule: the whole job launches
via ``ray job submit`` on a fixed-size cluster; locally the same commands
run standalone — Ray Data auto-initialises, or connects to the cluster the
job runner provides).

::

    # index a Common-Crawl-shaped parquet corpus
    ray job submit -- python -m search_engine_framework_ray.cli build \
        --corpus /data/pages --index /data/index --shards 512

    # index a plain text table (documents-style)
    python -m search_engine_framework_ray.cli build \
        --corpus docs.parquet --index /tmp/idx --plain --text-col text

    # batch retrieval → TREC run file (reference main flow, QryEval.java:75-237)
    python -m search_engine_framework_ray.cli query \
        --index /tmp/idx --queries queries.txt --model BM25 --out run.trec

    # reference-style key=value param file drives everything (Sample.param)
    python -m search_engine_framework_ray.cli query \
        --index /tmp/idx --queries q.txt --param-file Sample.param --out run.trec

Query files use the reference's ``qid:text`` line format (QryEval.java:160).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="auto" if _in_job() else "local", include_dashboard=False)


def _in_job() -> bool:
    import os

    return bool(os.environ.get("RAY_JOB_ID"))


def read_query_file(path: str) -> list[tuple[str, str]]:
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or ":" not in line:
                continue
            qid, qtext = line.split(":", 1)
            out.append((qid.strip(), qtext.strip()))
    return out


def cmd_build(args) -> int:
    _ensure_ray()
    from .functions.analysis import AnalyzerConfig
    from .pipelines.build_index import PlainSource, build_index

    analyzer = AnalyzerConfig(stemmer=args.stemmer)
    plain = (
        PlainSource(id_col=args.id_col, text_col=args.text_col, title_col=args.title_col)
        if args.plain
        else None
    )
    report = build_index(
        args.corpus,
        args.index,
        num_shards=args.shards,
        analyzer=analyzer,
        lang_filter=args.lang,
        plain_source=plain,
        block_size=args.block_size,
    )
    print(json.dumps(report))
    return 0


def cmd_query(args) -> int:
    _ensure_ray()
    from .query.executor import run_queries
    from .query.expansion import FeedbackParams, run_queries_with_expansion
    from .query.models import params_from_dict, read_param_file
    from .sources.trec import write_trec_run

    raw = read_param_file(args.param_file) if args.param_file else {}
    if args.model:
        raw["retrievalAlgorithm"] = args.model
    params = params_from_dict(raw)
    queries = read_query_file(args.queries)
    if raw.get("fb", "").lower() == "true" or args.fb:
        from .query.expansion import initial_ranking_from_trec

        fb = FeedbackParams.from_params(raw)
        initial = None
        if raw.get("fbInitialRankingFile"):
            initial = initial_ranking_from_trec(
                args.index, raw["fbInitialRankingFile"], fb.fb_docs
            )
        results, expanded = run_queries_with_expansion(
            args.index, queries, params, fb, k=args.k, initial_ranking=initial
        )
        if raw.get("fbExpansionQueryFile"):
            with open(raw["fbExpansionQueryFile"], "w") as f:
                for qid, _ in queries:
                    f.write(f"{qid}: {expanded[qid]}\n")
    else:
        results = run_queries(args.index, queries, params, k=args.k)
    write_trec_run(
        args.out,
        results,
        [q for q, _ in queries],
        is_ranked=params.is_ranked,
        tag=args.tag,
        k=args.k,
    )
    print(json.dumps({"queries": len(queries), "out": args.out}))
    return 0


def _docmap(index_dir: str) -> tuple[dict[str, int], dict[int, str]]:
    from .state.index_layout import load_docmap

    return load_docmap(index_dir)


def read_qrels(path: str, url2doc: dict[str, int]) -> dict[tuple[str, int], int]:
    """``qid 0 extid rel`` lines (LearnToRank.java:113-127); judgments whose
    extid is not in the index are dropped."""
    out: dict[tuple[str, int], int] = {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) < 4:
                continue
            qid, _, extid, rel = parts[0], parts[1], parts[2], parts[3]
            d = url2doc.get(extid)
            if d is not None:
                out[(qid, int(d))] = int(rel)
    return out


def cmd_letor(args) -> int:
    """retrievalAlgorithm=letor flow (QryEval.java:239-258): train features
    on judged docs → fit ranker → rerank each test query's BM25 top-k."""
    _ensure_ray()
    import numpy as np
    import pandas as pd

    from .pipelines.letor import (
        LetorParams,
        letor_rerank,
        read_score_file,
        scores_by_docid,
    )
    from .query.models import params_from_dict, read_param_file
    from .sources.trec import write_trec_run

    raw = read_param_file(args.param_file) if args.param_file else {}
    u2d, d2u = _docmap(args.index)
    qrels = read_qrels(args.qrels, u2d)
    train_q = read_query_file(args.train_queries)
    test_q = read_query_file(args.queries)
    lp = LetorParams(model_params=params_from_dict({**raw, "retrievalAlgorithm": "BM25"}))
    # PageRank / spam score files: 'extid \t score' (LearnToRank.java:131-144)
    pr_path = args.pagerank_file or raw.get("letor:pageRankFile")
    page_rank = scores_by_docid(args.index, read_score_file(pr_path)) if pr_path else None
    doc_attrs = None
    spam_path = args.spam_file or raw.get("letor:spamScoreFile")
    if spam_path:
        spam = scores_by_docid(args.index, read_score_file(spam_path))
        docids = sorted(d2u)
        doc_attrs = pd.DataFrame(
            {
                "docid": docids,
                "raw_url": [d2u[d] for d in docids],
                "spam_score": [spam.get(d, np.nan) for d in docids],
            }
        )
    ranked = letor_rerank(
        args.index, train_q, qrels, test_q, params=lp, k=args.k,
        page_rank=page_rank, doc_attrs=doc_attrs, learner=args.learner,
    )
    results = {
        qid: [(d2u[d], s, d) for d, s in rows] for qid, rows in ranked.items()
    }
    write_trec_run(
        args.out, results, [q for q, _ in test_q], is_ranked=True, tag=args.tag, k=args.k
    )
    print(json.dumps({"train": len(train_q), "test": len(test_q), "out": args.out}))
    return 0


def cmd_evaluate(args) -> int:
    """Local trec_eval: P10/P20/P30/map per query + all — the metric set
    the reference fetches from its remote evaluation service
    (hw4test.py:46-47, test.pl:51-65)."""
    from .sources.evalmetrics import evaluate_run, read_qrels_grouped
    from .sources.trec import read_trec_run

    run = read_trec_run(args.run)
    qrels = read_qrels_grouped(args.qrels)
    metrics = evaluate_run(run, qrels)
    print(json.dumps(metrics, indent=1, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    """Parameter-grid sweep (the reference's hw4test.py workflow: mutate a
    param dict per grid point, re-run, collect a results table — here with
    the LOCAL distributed metrics instead of the remote trec_eval POST):
    run every (k1, b) combination over one shared index + query set, score
    each run against the qrels, and print a best-first JSON table."""
    _ensure_ray()
    from .query.executor import QueryService
    from .query.models import ModelParams
    from .sources.evalmetrics import evaluate_run, read_qrels_grouped

    queries = read_query_file(args.queries)
    qrels = read_qrels_grouped(args.qrels)
    k1s = [float(x) for x in args.k1.split(",")]
    bs = [float(x) for x in args.b.split(",")]
    rows = []
    # one service for the whole grid: shard state loads once, not per point
    with QueryService(args.index) as svc:
        for k1 in k1s:
            for b in bs:
                res = svc.run(queries, ModelParams(model="BM25", k1=k1, b=b), k=args.k)
                run = {
                    qid: [(extid, score) for extid, score, _ in res[qid]]
                    for qid, _ in queries
                }
                m = evaluate_run(run, qrels)
                rows.append(
                    {"k1": k1, "b": b,
                     **{k: v for k, v in m.get("all", {}).items()}}
                )
    rows.sort(key=lambda r: (-r.get("map", 0.0), r["k1"], r["b"]))
    print(json.dumps(rows, indent=1))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="search_engine_framework_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build the sharded inverted index")
    b.add_argument("--corpus", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--shards", type=int, default=None)
    b.add_argument("--stemmer", default="porter", choices=["porter", "kstem", "none"])
    b.add_argument("--lang", default=None)
    b.add_argument("--block-size", type=int, default=128)
    b.add_argument("--plain", action="store_true", help="plain text table input")
    b.add_argument("--id-col", default="doc_id")
    b.add_argument("--text-col", default="text")
    b.add_argument("--title-col", default=None)
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query", help="batch retrieval → TREC run file")
    q.add_argument("--index", required=True)
    q.add_argument("--queries", required=True, help="qid:text lines")
    q.add_argument("--model", default=None)
    q.add_argument("--param-file", default=None, help="reference key=value file")
    q.add_argument("--out", required=True)
    q.add_argument("--k", type=int, default=100)
    q.add_argument("--tag", default="Run")
    q.add_argument("--fb", action="store_true", help="feedback expansion")
    q.set_defaults(fn=cmd_query)

    lt = sub.add_parser("letor", help="learning-to-rank train + rerank")
    lt.add_argument("--index", required=True)
    lt.add_argument("--train-queries", required=True, help="qid:text lines")
    lt.add_argument("--qrels", required=True, help="qid 0 extid rel lines")
    lt.add_argument("--queries", required=True, help="test queries, qid:text")
    lt.add_argument("--param-file", default=None)
    lt.add_argument("--out", required=True)
    lt.add_argument("--k", type=int, default=100)
    lt.add_argument("--tag", default="Run")
    lt.add_argument("--pagerank-file", default=None, help="extid\\tscore lines (f4)")
    lt.add_argument("--spam-file", default=None, help="extid\\tscore lines (f1)")
    lt.add_argument("--learner", default="ranksvm", choices=["ranksvm", "ridge"])
    lt.set_defaults(fn=cmd_letor)

    sw = sub.add_parser("sweep", help="(k1, b) grid sweep -> best-first metric table")
    sw.add_argument("--index", required=True)
    sw.add_argument("--queries", required=True, help="qid:text lines")
    sw.add_argument("--qrels", required=True, help="qid 0 extid rel lines")
    sw.add_argument("--k1", default="1.2,2.0", help="comma list")
    sw.add_argument("--b", default="0.75,0.3", help="comma list")
    sw.add_argument("--k", type=int, default=100)
    sw.set_defaults(fn=cmd_sweep)

    ev = sub.add_parser("evaluate", help="P@k + MAP for a run vs qrels")
    ev.add_argument("--run", required=True, help="TREC run file")
    ev.add_argument("--qrels", required=True, help="qid 0 extid rel lines")
    ev.set_defaults(fn=cmd_evaluate)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
