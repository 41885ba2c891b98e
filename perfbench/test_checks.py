"""The benchmark's output checks reject wrong rankings.

    python3 -m pytest perfbench/test_checks.py -q

The oracle's own top-k passes every check; the same list with two results
swapped, a score nudged by one ulp, a result dropped or a url replaced fails.
No Ray is needed: the "engine output" here is built from the oracle.
"""

import math
import os
import sys

import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), HERE]

from checks import check_exact, check_sorted, check_tie_tolerant, oracle_topk  # noqa: E402
from search_engine_framework_ray.query.oracle import OracleIndex  # noqa: E402
from search_engine_framework_ray.sources.corpus import synthesize_corpus  # noqa: E402

K = 10


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    paths = synthesize_corpus(str(tmp_path_factory.mktemp("corpus")), 60, n_files=2, seed=3)
    rows = [r for p in paths for r in pq.read_table(p, columns=["url", "html"]).to_pylist()]
    return OracleIndex(rows)


def _as_engine(oracle, ranking):
    docid = {u: i for i, u in enumerate(oracle.urls)}
    return [(u, s, docid[u]) for u, s in ranking]


@pytest.fixture(scope="module")
def case(oracle):
    want = oracle_topk(oracle, "search engine ranking", "BM25", K)
    assert len(want) == K and len({s for _, s in want}) > 2
    return want, _as_engine(oracle, want)


def test_oracle_output_passes(oracle, case):
    want, got = case
    deep = oracle_topk(oracle, "search engine ranking", "BM25", 10 * K)
    assert check_exact("q", got, want) == []
    assert check_sorted("q", got) == []
    assert check_tie_tolerant("q", got, deep, K) == []


def test_swapped_results_fail(oracle, case):
    want, got = case
    i = next(i for i in range(K - 1) if got[i][1] != got[i + 1][1])
    bad = got[:i] + [got[i + 1], got[i]] + got[i + 2 :]
    deep = oracle_topk(oracle, "search engine ranking", "BM25", 10 * K)
    assert check_exact("q", bad, want)
    assert check_sorted("q", bad)
    assert check_tie_tolerant("q", bad, deep, K)


def test_perturbed_score_fails(oracle, case):
    want, got = case
    u, s, d = got[3]
    bad = got[:3] + [(u, math.nextafter(s, 0.0), d)] + got[4:]
    deep = oracle_topk(oracle, "search engine ranking", "BM25", 10 * K)
    assert check_exact("q", bad, want)
    assert check_tie_tolerant("q", bad, deep, K)


def test_dropped_or_foreign_result_fails(oracle, case):
    want, got = case
    deep = oracle_topk(oracle, "search engine ranking", "BM25", 10 * K)
    assert check_exact("q", got[:-1], want)
    assert check_tie_tolerant("q", got[:-1], deep, K)
    bad = got[:-1] + [("https://elsewhere.example.com/", got[-1][1], 0)]
    assert check_exact("q", bad, want)
    assert check_tie_tolerant("q", bad, deep, K)


def test_unsorted_ties_fail():
    got = [("b", 2.0, 1), ("a", 2.0, 0), ("c", 1.0, 2)]
    assert check_sorted("q", got)
    assert check_sorted("q", got, by_url=False)
    assert check_sorted("q", sorted(got, key=lambda r: (-r[1], r[0]))) == []
