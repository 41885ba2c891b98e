"""Pseudo-relevance-feedback query expansion (reference
``QryExpansion.java:137-221``; flow traced in SURVEY.md §3.2).

Semantics replicated exactly:

* initial ranking = run the original query (top ``fb_docs``), or use a
  caller-supplied TREC-format ranking (``fbInitialRankingFile``,
  QryExpansion.java:240-286);
* candidate terms = stems PRESENT in each top doc's body term vector
  (per-doc loop, stopword slot skipped — QryExpansion.java:183-196); a stem
  absent from a doc gets NO smoothed contribution from that doc;
* per (doc, stem): ``s = (tf + fbMu·Pmle)/(doclen + fbMu) · docScore ·
  ln(1/Pmle)`` with global ``Pmle = ctf/sumTotalTermFreq(body)``
  (QryExpansion.java:186-192), accumulated per stem;
* top ``fb_terms`` by score; ties broken term-ascending — the reference's
  tie order is HashMap-arbitrary (QryExpansion.java:200-204), ours is pinned
  (recorded divergence, SURVEY.md §2.5);
* expanded string ``#wand( w1 t1 w2 t2 … )`` with weights formatted
  ``%.4f`` — the truncation matters because the string is re-parsed
  (QryExpansion.java:205-212);
* rewrite ``#wand( w #and(orig) 1-w #wand(…) )`` (QryExpansion.java:217).

Distribution shape: the initial ranking is the ordinary distributed query
path; term-vector fetches group the ≤``fb_docs`` docids by shard and fan out
as one Ray task per shard (tiny filtered parquet reads of ``fwd.parquet``);
scoring is a driver-side vectorized pandas groupby over ≤ fb_docs × doclen
rows per query.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import pandas as pd
import ray

from ..state.index_layout import list_shards, read_manifest, read_stats
from ..state.shard import ShardReader
from .executor import QueryService, load_term_stats
from .models import ModelParams


@dataclass(frozen=True)
class FeedbackParams:
    """``fb=true`` parameter surface (QryExpansion.java:60-118)."""

    fb_docs: int = 10
    fb_terms: int = 10
    fb_mu: float = 0.0
    fb_orig_weight: float = 0.5

    @classmethod
    def from_params(cls, params: dict) -> "FeedbackParams":
        return cls(
            fb_docs=int(params.get("fbDocs", 10)),
            fb_terms=int(params.get("fbTerms", 10)),
            fb_mu=float(params.get("fbMu", 0.0)),
            fb_orig_weight=float(params.get("fbOrigWeight", 0.5)),
        )


@ray.remote
def _fetch_term_vectors(
    index_dir: str, shard: int, docids: list[int], field: str = "body"
) -> pd.DataFrame:
    """One task per shard: term vectors + doclens for its docids, one field."""
    r = ShardReader(index_dir, shard)
    tvs = r.term_vectors(field, docids)
    rows = {"docid": [], "stem": [], "tf": [], "doclen": []}
    for d in docids:
        got = tvs.get(int(d))
        if got is None:
            continue
        stems, tfs = got
        dl = int(r.doclen(field, np.array([d]))[0])
        rows["docid"].extend([int(d)] * len(stems))
        rows["stem"].extend(stems)
        rows["tf"].extend(int(t) for t in tfs)
        rows["doclen"].extend([dl] * len(stems))
    df = pd.DataFrame(rows)
    df["field"] = field
    return df


def _shard_of(index_dir: str) -> list[tuple[int, int, int]]:
    """[(shard, docid_base, end)] for docid → shard routing."""
    out = []
    for s in list_shards(index_dir):
        man = read_manifest(index_dir, s)
        out.append((s, int(man["docid_base"]), int(man["docid_base"]) + int(man["n_docs"])))
    return out


def expansion_terms(
    index_dir: str,
    top_docs: dict[str, list[tuple[int, float]]],
    fb: FeedbackParams,
) -> dict[str, list[tuple[str, float]]]:
    """qid → [(term, weight)] — the scored expansion vocabulary.

    ``top_docs``: qid → [(docid, docScore)] (already truncated to fb_docs).
    """
    ranges = _shard_of(index_dir)
    stats = read_stats(index_dir)
    c_body = float(stats["fields"]["body"]["sum_doclen"])

    # group every query's top docids by shard → one fetch task per shard
    by_shard: dict[int, set[int]] = {}
    for docs in top_docs.values():
        for d, _ in docs:
            for s, lo, hi in ranges:
                if lo <= d < hi:
                    by_shard.setdefault(s, set()).add(int(d))
                    break
    if not by_shard:
        return {q: [] for q in top_docs}
    futs = [
        _fetch_term_vectors.remote(index_dir, s, sorted(ds))
        for s, ds in sorted(by_shard.items())
    ]
    tv = pd.concat(ray.get(futs), ignore_index=True)

    # global Pmle per candidate stem from the termstats store
    stems = set(tv["stem"])
    ts = load_term_stats(index_dir, {("body", t) for t in stems})
    ctf_map = {t: c for (f, t), (_, c) in ts.items() if f == "body"}

    out: dict[str, list[tuple[str, float]]] = {}
    for qid, docs in top_docs.items():
        if not docs:
            out[qid] = []
            continue
        dscore = {int(d): float(s) for d, s in docs}
        sub = tv[tv["docid"].isin(dscore)].copy()
        if not len(sub):
            out[qid] = []
            continue
        ctf = sub["stem"].map(ctf_map).fillna(0).to_numpy(dtype=np.float64)
        p_mle = ctf / c_body
        tf = sub["tf"].to_numpy(dtype=np.float64)
        dl = sub["doclen"].to_numpy(dtype=np.float64)
        score = sub["docid"].map(dscore).to_numpy(dtype=np.float64)
        with np.errstate(divide="ignore"):
            s = (tf + fb.fb_mu * p_mle) / (dl + fb.fb_mu) * score * np.log(1.0 / p_mle)
        sub["s"] = np.where(np.isfinite(s), s, 0.0)
        agg = sub.groupby("stem")["s"].sum()
        ranked = sorted(agg.items(), key=lambda kv: (-kv[1], kv[0]))[: fb.fb_terms]
        out[qid] = [(t, float(v)) for t, v in ranked]
    return out


def initial_ranking_from_trec(
    index_dir: str, path: str, fb_docs: int
) -> dict[str, list[tuple[int, float]]]:
    """``fbInitialRankingFile`` reader (QryExpansion.java:240-286): TREC rows
    → top fb_docs per query as (docid, score), resolving external ids (urls)
    through the index docmap."""
    import glob
    import os

    import pyarrow.parquet as pq

    from ..sources.trec import read_trec_run

    from ..state.index_layout import load_docmap

    url2doc, _ = load_docmap(index_dir)
    run = read_trec_run(path)
    out: dict[str, list[tuple[int, float]]] = {}
    for qid, rows in run.items():
        # TREC files need not be rank-sorted; pick top fb_docs BY SCORE
        # (tie: first occurrence), as the reference's ranking selection does
        ranked = sorted(rows, key=lambda r: -r[1])
        picked = []
        for extid, score in ranked:
            d = url2doc.get(extid)
            if d is not None:
                picked.append((int(d), float(score)))
            if len(picked) >= fb_docs:
                break
        out[qid] = picked
    return out


def format_expanded(terms: list[tuple[str, float]]) -> str:
    """``#wand( %.4f term … )`` — exact reference formatting
    (QryExpansion.java:205-212)."""
    inner = " ".join(f"{w:.4f} {t}" for t, w in terms)
    return f"#wand( {inner} )"


def rewrite_query(original: str, expanded: str, fb: FeedbackParams) -> str:
    """``#wand( w #and(orig) 1-w expanded )`` (QryExpansion.java:217)."""
    w = fb.fb_orig_weight
    return f"#wand( {w} #and({original}) {1 - w} {expanded})"


def run_queries_with_expansion(
    index_dir: str,
    queries: list[tuple[str, str]],
    params: ModelParams,
    fb: FeedbackParams = FeedbackParams(),
    *,
    k: int = 100,
    initial_ranking: dict[str, list[tuple[int, float]]] | None = None,
    service: "QueryService | None" = None,
) -> tuple[dict, dict[str, str]]:
    """Full fb=true flow: initial ranking → expand → rewrite → re-run.

    Returns (final results as in ``run_queries``, qid → expanded-query
    string — the ``fbExpansionQueryFile`` content).

    Both query rounds run through ONE ``QueryService`` (pass ``service`` to
    reuse a caller's), so shard state loads once — the distributed
    analog of the reference's static ``READER`` — instead of once per
    round. Results are identical to ``run_queries``
    (same plan/merge path).
    """
    # the service's default size leaves a CPU free for the term-vector
    # fetch tasks that run between the two rounds
    with nullcontext(service) if service is not None else QueryService(index_dir) as svc:
        return _expand_with_service(
            svc, index_dir, queries, params, fb, k, initial_ranking
        )


def _expand_with_service(
    service: QueryService,
    index_dir: str,
    queries: list[tuple[str, str]],
    params: ModelParams,
    fb: FeedbackParams,
    k: int,
    initial_ranking: dict[str, list[tuple[int, float]]] | None,
) -> tuple[dict, dict[str, str]]:
    if initial_ranking is None:
        first = service.run(queries, params, k=max(fb.fb_docs, 1))
        initial_ranking = {
            q: [(docid, score) for (_, score, docid) in first[q][: fb.fb_docs]]
            for q, _ in queries
        }
    else:
        # a qid absent from the supplied ranking (fbInitialRankingFile) gets
        # no expansion and keeps its original query — the reference NPEs on
        # this input (QryExpansion.java:178); recorded divergence
        initial_ranking = {q: initial_ranking.get(q, []) for q, _ in queries}
    terms = expansion_terms(index_dir, initial_ranking, fb)
    expanded = {q: format_expanded(t) for q, t in terms.items()}
    # no expansion terms (query matched nothing) → keep the original query;
    # the reference would emit `#wand( )` and fatalError on the re-parse
    # weight mismatch (QryopSlWand.java:57-58) — recorded divergence
    rewritten = [
        (qid, rewrite_query(qtext, expanded[qid], fb) if terms[qid] else qtext)
        for qid, qtext in queries
    ]
    final = service.run(rewritten, params, k=k)
    return final, expanded


def rocchio_terms(
    index_dir: str,
    query_terms: list[str],
    top_docs: list[tuple[int, float]],
    *,
    alpha: float = 1.0,
    beta: float = 0.75,
    n_terms: int = 10,
) -> pd.DataFrame:
    """Rocchio (1971) vector-space feedback — the OTHER classic expansion
    family next to the reference's Indri-style model (QryExpansion.java):

        w(t) = beta * (sum_{d in D} tf(t,d) * idf(t)) / |D|
               + alpha * tf_q(t) * idf(t)            (tf_q = 1 per query term)

    with idf(t) = ln(N / df(t)) over the FULL collection and D the
    pseudo-relevant set (scores unused — Rocchio's relevant set is binary).
    → (term, weight) top ``n_terms`` by (weight desc, term asc).

    Distribution shape: term vectors fetch one task per shard (filtered
    fwd.parquet reads, same path as ``expansion_terms``); df comes from the
    bucketed termstats store; the weighting is driver-side vectorized over
    ≤ |D| x doclen rows."""
    import math

    ranges = _shard_of(index_dir)
    stats = read_stats(index_dir)
    n_docs = int(stats["n_docs"])

    by_shard: dict[int, set[int]] = {}
    for d, _ in top_docs:
        for s, lo, hi in ranges:
            if lo <= d < hi:
                by_shard.setdefault(s, set()).add(int(d))
                break
    tv = (
        pd.concat(
            ray.get(
                [
                    _fetch_term_vectors.remote(index_dir, s, sorted(ds))
                    for s, ds in sorted(by_shard.items())
                ]
            ),
            ignore_index=True,
        )
        if by_shard
        else pd.DataFrame({"stem": pd.Series(dtype="object"), "tf": []})
    )

    stems = set(tv["stem"]) | set(query_terms)
    ts = load_term_stats(index_dir, {("body", t) for t in stems})
    df_map = {t: d for (f, t), (d, _) in ts.items() if f == "body"}
    idf = {t: math.log(n_docs / d) for t, d in df_map.items() if d > 0}

    w: dict[str, float] = {}
    if len(tv):
        tv = tv[tv["stem"].isin(idf)].copy()
        tv["ti"] = tv["tf"].to_numpy(dtype=np.float64) * tv["stem"].map(idf).to_numpy()
        sums = tv.groupby("stem")["ti"].sum()
        nd = len(top_docs)
        for t, s in sums.items():
            w[t] = beta * (float(s) / nd)
    for t in query_terms:
        if t in idf:
            w[t] = w.get(t, 0.0) + alpha * idf[t]
    ranked = sorted(w.items(), key=lambda kv: (-kv[1], kv[0]))[:n_terms]
    return pd.DataFrame(
        {
            "term": pd.Series([t for t, _ in ranked], dtype="object"),
            "weight": pd.Series([v for _, v in ranked], dtype="float64"),
        }
    )


def more_like_this(
    index_dir: str,
    seed_doc: int,
    *,
    n_terms: int = 8,
    k: int = 10,
    model_params: "ModelParams | None" = None,
) -> pd.DataFrame:
    """Lucene-style MoreLikeThis: rank documents related to ``seed_doc`` by
    building a bag-of-words query from the seed's own most-salient terms.

    Term selection scores every stem in the seed's term vector by
    ``tf(t, seed) * ln(N / df(t))`` (Lucene MLT's default tf·idf interest
    measure, MoreLikeThis.java createQueue), micros-quantized with the
    repo's round-half-away so ties are exact, keeps the top ``n_terms`` by
    (score desc, term asc), then runs the ordinary distributed #SUM BM25
    query path over them and drops the seed from the ranking.

    Distribution shape: ONE pruned term-vector task against the seed's
    shard (the Rocchio fwd.parquet path), df from the bucketed termstats
    store (metadata only), then a standard top-(k+1) query — the corpus is
    never scanned for term selection, and the query fan-out is the same
    k·S-row merge every retrieval entry uses. Returns
    ``(rank, doc_id, score_micros)``; the seed never appears.
    """
    import math

    from .executor import run_queries

    ranges = _shard_of(index_dir)
    stats = read_stats(index_dir)
    n_docs = int(stats["n_docs"])
    shard = next(s for s, lo, hi in ranges if lo <= int(seed_doc) < hi)
    tv = ray.get(_fetch_term_vectors.remote(index_dir, shard, [int(seed_doc)]))
    if not len(tv):
        raise KeyError(f"seed doc {seed_doc} has no term vector")

    ts = load_term_stats(index_dir, {("body", t) for t in tv["stem"]})
    df_map = {t: d for (f, t), (d, _) in ts.items() if f == "body" and d > 0}
    tv = tv[tv["stem"].isin(df_map)].copy()
    idf = tv["stem"].map(lambda t: math.log(n_docs / df_map[t])).to_numpy(np.float64)
    interest = tv["tf"].to_numpy(np.float64) * idf
    tv["interest_micros"] = (
        np.sign(interest) * np.floor(np.abs(interest) * 1_000_000 + 0.5)
    ).astype(np.int64)
    sel = (
        tv.sort_values(["interest_micros", "stem"], ascending=[False, True], kind="mergesort")
        .head(n_terms)["stem"]
        .tolist()
    )

    params = model_params or ModelParams(model="BM25")
    res = run_queries(index_dir, [("mlt", " ".join(sel))], params, k=k + 1)["mlt"]
    rows = [
        (int(u[3:]), s) for u, s, _ in res if int(u[3:]) != int(seed_doc)
    ][:k]
    sc = np.array([s for _, s in rows], dtype=np.float64)
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(rows) + 1, dtype=np.int64),
            "doc_id": np.array([d for d, _ in rows], dtype=np.int64),
            "score_micros": (np.sign(sc) * np.floor(np.abs(sc) * 1_000_000 + 0.5)).astype(np.int64),
        }
    )
