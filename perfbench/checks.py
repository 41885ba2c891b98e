"""Output checks made apart from the engine.

Each check returns a list of error strings; an empty list means it passed.
The references are ``query/oracle.OracleIndex`` (a single-process,
row-at-a-time evaluator that shares no scoring code with the engine) and
counts made here from the corpus' golden ``text`` column.
"""

from __future__ import annotations

import glob
import os

import pyarrow.parquet as pq

from search_engine_framework_ray.query.models import ModelParams
from search_engine_framework_ray.query.oracle import OracleIndex, oracle_run_query
from search_engine_framework_ray.query.parser import parse_query

Result = list[tuple[str, float, int]]  # engine top-k: (url, score, docid)


def oracle_topk(oracle: OracleIndex, text: str, model: str, k: int) -> list[tuple[str, float]]:
    tree = parse_query(text, model)
    return oracle_run_query(tree, oracle, ModelParams(model=model), k) if tree else []


def check_sorted(qid: str, got: Result, *, by_url: bool = True) -> list[str]:
    """Results run by score descending; ties by url ascending when
    ``by_url`` (a fresh build numbers docids in url order), else by docid
    ascending (``extend_index`` numbers delta docids in append order)."""
    keys = [(-s, u if by_url else d) for u, s, d in got]
    return [] if keys == sorted(keys) else [f"{qid}: results not sorted by (score desc, tie key asc)"]


def check_exact(qid: str, got: Result, want: list[tuple[str, float]]) -> list[str]:
    """Rank- and score-identical: same urls in the same order, equal scores."""
    if [u for u, _, _ in got] != [u for u, _ in want]:
        return [f"{qid}: ranking differs from the oracle"]
    if [s for _, s, _ in got] != [s for _, s in want]:
        return [f"{qid}: scores differ from the oracle"]
    return []


def check_tie_tolerant(
    qid: str, got: Result, want_deep: list[tuple[str, float]], k: int
) -> list[str]:
    """For an extended index, whose tie order is docid (append) order: the
    score sequence equals the oracle's, and each url sits in the oracle's
    group of documents with exactly that score. ``want_deep`` is the
    oracle's ranking cut well past ``k``, so it holds the whole last tied
    group of the engine's top-k."""
    if len(got) != min(k, len(want_deep)) or len({u for u, _, _ in got}) != len(got):
        return [f"{qid}: duplicate or missing results"]
    if [s for _, s, _ in got] != [s for _, s in want_deep[: len(got)]]:
        return [f"{qid}: scores differ from the oracle"]
    by_score: dict[float, set[str]] = {}
    for u, s in want_deep:
        by_score.setdefault(s, set()).add(u)
    bad = [u for u, s, _ in got if u not in by_score.get(s, ())]
    return [f"{qid}: {len(bad)} urls outside the oracle's tie group"] if bad else []


def check_n_docs(index_dir: str, expected: int) -> list[str]:
    from search_engine_framework_ray.state.index_layout import read_stats

    n = read_stats(index_dir)["n_docs"]
    return [] if n == expected else [f"n_docs {n} != corpus rows {expected}"]


def check_body_df(index_dir: str, golden_df: dict[str, int], terms: list[str]) -> list[str]:
    """Global body-field df of ``terms`` in the index's termstats buckets
    equals the count made from the golden text."""
    from search_engine_framework_ray.state.index_layout import termstats_dir

    want = set(terms)
    have: dict[str, int] = {}
    for p in glob.glob(os.path.join(termstats_dir(index_dir), "bucket=*.parquet")):
        t = pq.read_table(p, columns=["field", "term", "df"]).to_pylist()
        have.update((r["term"], r["df"]) for r in t if r["field"] == "body" and r["term"] in want)
    bad = [t for t in terms if have.get(t, 0) != golden_df.get(t, 0)]
    return [f"termstats df differs for {len(bad)} of {len(terms)} terms, e.g. {bad[:3]}"] if bad else []
