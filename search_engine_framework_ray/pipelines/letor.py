"""Learning-to-rank feature pipeline (reference ``LearnToRank.java``; flow
traced in SURVEY.md §3.3).

18-feature vector per (query, judged doc) — reference ``setFeatValue``
(LearnToRank.java:326-596):

====  ==========================================================
f1    spam score (stored doc attribute)
f2    URL depth = count of '/' in the raw url (:337-345)
f3    wikipedia flag: raw url contains "wikipedia.org" (:347-349)
f4    PageRank score (external map; absent → NaN, :351-356)
f5-7  BM25 / Indri / query-term-overlap on body (:358-401)
f8-10 …on title   f11-13 …on url   f14-16 …on inlink
f17   SDM: Indri score of adjacent-bigram ``#NEAR/1`` query (:237-256)
f18   VSM lnc.ltc cosine on title (:451-480)
====  ==========================================================

Missing field (no term vector) → that field's features are NaN; NaN features
are omitted from SVMlight lines (:45-61) and skipped by the per-query
min-max normalization (constant feature → 0, :279-314).

Distribution shape: all 9 engine rankings per query run as two batched
calls (one per model) through ONE persistent ``QueryService``
(``score_documents`` twin — index state loads once per worker; the
reference runs the rankings sequentially per query,
LearnToRank.java:209-256);
term-vector fetches fan out one Ray task per (shard, field); normalization
is a ``groupby(qid)`` over the tiny (queries × candidates) feature table.

The reference shells out to ``svm_rank_learn``/``svm_rank_classify``
(:921-994). Those binaries are not distributable here, so the default
learner is a deterministic closed-form ridge regression on the normalized
features (documented divergence); the SVMlight read/write format is kept
byte-compatible so the external tools drop in unchanged via
``svm_rank_hook``.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import ray

from ..functions.analysis import analyze
from ..query.executor import (
    QueryService,
    load_term_stats,
    resolve_analyzer,
    run_queries,
)
from ..query.expansion import _fetch_term_vectors, _shard_of
from ..query.models import ModelParams
from ..state.index_layout import read_stats

N_FEATURES = 18
_FIELDS = ("body", "title", "url", "inlink")


@dataclass
class LetorParams:
    model_params: ModelParams = field(default_factory=lambda: ModelParams(model="BM25"))
    feature_disable: frozenset[int] = frozenset()  # 1-based feature ids
    svm_c: float = 0.001  # reference default (LearnToRank.java:77)


def _field_query(qtext: str, fld: str) -> str:
    """``"t1 t2"`` → ``"t1.url t2.url "`` (LearnToRank.java:203-206)."""
    return (qtext.strip() + " ").replace(" ", f".{fld} ")


def _sdm_query(qtext: str) -> str:
    """Adjacent-bigram ``#NEAR/1`` query (LearnToRank.java:237-256)."""
    terms = qtext.strip().split(" ")
    if len(terms) <= 1:
        return f"#NEAR/1({terms[0]})"
    return " ".join(f"#NEAR/1({terms[i]} {terms[i + 1]})" for i in range(len(terms) - 1))


def compute_features(
    index_dir: str,
    queries: list[tuple[str, str]],
    candidates: dict[str, list[int]],
    *,
    doc_attrs: pd.DataFrame | None = None,
    page_rank: dict[int, float] | None = None,
    params: LetorParams | None = None,
    service: "QueryService | None" = None,
) -> pd.DataFrame:
    """→ one row per (qid, docid) with columns f1..f18 (NaN = undefined).

    ``doc_attrs``: optional (docid, raw_url, spam_score); defaults to the
    index docmap's url with spam NaN. ``page_rank``: docid → score.
    ``service``: reuse a caller's persistent ``QueryService`` for the nine
    engine rankings; otherwise one is created for the call (both model
    batches share it — index state loads once, not once per pool).
    """
    params = params or LetorParams()
    mp = params.model_params
    analyzer = resolve_analyzer(index_dir)
    stats = read_stats(index_dir)
    n_docs = float(stats["n_docs"])

    all_docids = sorted({d for ds_ in candidates.values() for d in ds_})
    rows = pd.DataFrame(
        [(q, d) for q, ds_ in candidates.items() for d in sorted(set(ds_))],
        columns=["qid", "docid"],
    )
    if not all_docids:  # e.g. a qrels file whose extids match nothing
        out = rows.copy()
        for j in range(N_FEATURES):
            out[f"f{j + 1}"] = pd.Series(dtype="float64")
        return out
    qtext_of = dict(queries)

    # ---- f5..f16 + f17: nine engine rankings, ONE distributed batch ----
    bm25 = ModelParams(model="BM25", k1=mp.k1, b=mp.b, k3=mp.k3)
    indri = ModelParams(model="Indri", mu=mp.mu, lambda_=mp.lambda_)
    jobs: list[tuple[str, str, ModelParams]] = []  # (job_qid, qtext, params)
    want: dict[str, list[int]] = {}
    for qid, qtext in queries:
        cand = candidates.get(qid, [])
        if not cand:
            continue
        for fld in _FIELDS:
            qf = qtext if fld == "body" else _field_query(qtext, fld)
            jobs.append((f"{qid}|bm25|{fld}", qf, bm25))
            jobs.append((f"{qid}|indri|{fld}", qf, indri))
        jobs.append((f"{qid}|indri|sdm", _sdm_query(qtext), indri))
        for j in jobs[-9:]:
            want[j[0]] = cand
    score_map: dict[tuple[str, str], dict[int, float]] = {}
    with nullcontext(service) if service is not None else QueryService(index_dir) as svc:
        for prm in (bm25, indri):
            batch = [(j, q) for j, q, p in jobs if p is prm]
            if not batch:
                continue
            got = svc.score_documents(batch, prm, want)
            for r in got.itertuples():
                score_map.setdefault(r.qid, {})[int(r.docid)] = float(r.score)

    # ---- term vectors for overlap + f18 + field presence ----
    ranges = _shard_of(index_dir)
    by_shard: dict[int, list[int]] = {}
    for d in all_docids:
        for s, lo, hi in ranges:
            if lo <= d < hi:
                by_shard.setdefault(s, []).append(d)
                break
    futs = [
        _fetch_term_vectors.remote(index_dir, s, ds_, fld)
        for s, ds_ in sorted(by_shard.items())
        for fld in _FIELDS
    ]
    tv = pd.concat(ray.get(futs), ignore_index=True)
    # (field, docid) → dict(stem → tf); docs absent here lack the field
    tv_map: dict[tuple[str, int], dict[str, int]] = {}
    for (fld, d), g in tv.groupby(["field", "docid"]):
        tv_map[(fld, int(d))] = dict(zip(g["stem"], g["tf"]))

    # ---- df(title, token) for f18 ----
    qtokens = {qid: [t for t in analyze(qt, analyzer)] for qid, qt in queries}
    title_terms = {("title", t) for toks in qtokens.values() for t in toks}
    title_stats = load_term_stats(index_dir, title_terms)

    # ---- doc attributes f1-f4 ----
    if doc_attrs is None:
        urls = _docmap_urls(index_dir, all_docids)
        doc_attrs = pd.DataFrame(
            {"docid": all_docids, "raw_url": [urls[d] for d in all_docids],
             "spam_score": np.nan}
        )
    attr = doc_attrs.set_index("docid")
    page_rank = page_rank or {}

    feats = np.full((len(rows), N_FEATURES), np.nan)
    for i, (qid, docid) in enumerate(zip(rows["qid"], rows["docid"])):
        docid = int(docid)
        qtext = qtext_of[qid]
        toks = qtokens[qid]
        f = feats[i]
        raw_url = str(attr.loc[docid, "raw_url"]) if docid in attr.index else ""
        f[0] = attr.loc[docid, "spam_score"] if docid in attr.index else np.nan
        f[1] = raw_url.count("/")
        f[2] = 1.0 if "wikipedia.org" in raw_url else 0.0
        f[3] = page_rank.get(docid, np.nan)
        for k, fld in enumerate(_FIELDS):
            base = 4 + 3 * k
            tvec = tv_map.get((fld, docid))
            if tvec is None:  # missing field → NaN triple (ref :399-401 etc.)
                continue
            f[base] = score_map.get(f"{qid}|bm25|{fld}", {}).get(docid, 0.0)
            f[base + 1] = score_map.get(f"{qid}|indri|{fld}", {}).get(docid, 0.0)
            valid = [t for t in toks if t]
            if valid:
                f[base + 2] = sum(1 for t in valid if t in tvec) / len(valid)
        f[16] = score_map.get(f"{qid}|indri|sdm", {}).get(docid, 0.0)
        # f18: VSM lnc.ltc on title (LearnToRank.java:451-480)
        tvec = tv_map.get(("title", docid))
        if tvec is not None:
            doc_len2 = sum((math.log(tf) + 1) ** 2 for tf in tvec.values())
            dot = 0.0
            for t in toks:
                tf = tvec.get(t)
                if tf is not None:
                    df_t = title_stats.get(("title", t), (0, 0))[0]
                    dot += (math.log(tf) + 1) * (
                        math.log(n_docs / df_t) if df_t else math.inf
                    )
            qry_len2 = 0.0
            for t in toks:
                df_t = title_stats.get(("title", t), (0, 0))[0]
                qry_len2 += (math.log(n_docs / df_t) if df_t else math.inf) ** 2
            # IEEE division exactly as Java: x/inf → 0, inf/inf & 0/0 → NaN
            with np.errstate(divide="ignore", invalid="ignore"):
                f[17] = float(
                    np.float64(dot) / np.float64(math.sqrt(doc_len2 * qry_len2))
                )

    for fid in params.feature_disable:  # letor:featureDisable (:899-908)
        feats[:, fid - 1] = np.nan
    out = rows.copy()
    for j in range(N_FEATURES):
        out[f"f{j + 1}"] = feats[:, j]
    return out


def _docmap_urls(index_dir: str, docids: list[int]) -> dict[int, str]:
    from ..state.index_layout import load_docmap

    _, d2u = load_docmap(index_dir)
    return {d: d2u[d] for d in docids if d in d2u}


def normalize_features(feats: pd.DataFrame) -> pd.DataFrame:
    """Per-query min-max over non-NaN values; constant → 0, NaN passthrough
    (LearnToRank.java:279-314). groupby(qid) — the reference's per-query
    loop, expressed as the grouped transform it is."""

    def norm(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        for c in g.columns:
            if not c.startswith("f"):
                continue
            v = g[c].to_numpy(dtype=np.float64)
            ok = ~np.isnan(v)
            if not ok.any():
                continue
            lo, hi = v[ok].min(), v[ok].max()
            g[c] = np.where(ok, (v - lo) / (hi - lo) if hi != lo else 0.0, np.nan)
        return g

    out = [norm(g) for _, g in feats.groupby("qid", sort=False)]
    return pd.concat(out, ignore_index=True) if out else feats


def write_svmlight(
    feats: pd.DataFrame, rel: dict[tuple[str, int], int], extid: dict[int, str]
) -> str:
    """SVMlight lines ``rel qid:q i:v … # extid`` — NaN features omitted
    (LearnToRank.java:45-61)."""
    lines = []
    for r in feats.itertuples():
        docid = int(r.docid)
        parts = [str(rel.get((r.qid, docid), 0)), f"qid:{r.qid}"]
        for j in range(N_FEATURES):
            v = getattr(r, f"f{j + 1}")
            if not (isinstance(v, float) and math.isnan(v)):
                parts.append(f"{j + 1}:{v}")
        lines.append(" ".join(parts) + " # " + extid.get(docid, str(docid)))
    return "\n".join(lines) + "\n"


def read_svmlight_scores(text: str) -> list[float]:
    return [float(line) for line in text.splitlines() if line.strip()]


def read_score_file(path: str) -> dict[str, float]:
    """``extid \\t score`` per line → {extid: score} — the reference's
    PageRank-file reader (LearnToRank.java:131-144; the same shape serves
    stored spam scores, :331-345). Malformed lines are skipped exactly like
    the reference's ``split("\\t").length != 2`` guard."""
    out: dict[str, float] = {}
    with open(path) as f:
        for line in f:
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                continue
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                continue
    return out


def scores_by_docid(index_dir: str, extid_scores: dict[str, float]) -> dict[int, float]:
    """Resolve an {extid: score} map through the index docmap → {docid:
    score} (absent extids dropped → their feature stays NaN, ref :351-356)."""
    from ..state.index_layout import load_docmap

    url2doc, _ = load_docmap(index_dir)
    return {
        int(url2doc[e]): float(s) for e, s in extid_scores.items() if e in url2doc
    }


def train_ranksvm(
    feats: pd.DataFrame,
    rel: dict[tuple[str, int], int],
    *,
    c: float = 0.001,
    epochs: int = 300,
) -> np.ndarray:
    """Deterministic pairwise RankSVM — the reference's model FAMILY
    (svm_rank_learn, LearnToRank.java:921-957) without the external binary:
    minimize ``0.5·||w||² + C·Σ hinge(1 − w·(xᵢ − xⱼ))`` over per-query
    preference pairs (relᵢ > relⱼ), full-batch subgradient with a harmonic
    step schedule — no randomness, bit-reproducible across runs. NaN
    features contribute 0 (the SVMlight writer omits them, so svm_rank sees
    the same zeros)."""
    X = np.nan_to_num(
        feats[[f"f{j + 1}" for j in range(N_FEATURES)]].to_numpy(dtype=np.float64)
    )
    y = np.array(
        [rel.get((q, int(d)), 0) for q, d in zip(feats["qid"], feats["docid"])],
        dtype=np.float64,
    )
    diffs = []
    for _, g in feats.reset_index(drop=True).groupby("qid", sort=False):
        idx = g.index.to_numpy()
        for a in range(len(idx)):
            for b in range(len(idx)):
                if y[idx[a]] > y[idx[b]]:
                    diffs.append(X[idx[a]] - X[idx[b]])
    if not diffs:
        return np.zeros(N_FEATURES)
    D = np.stack(diffs)
    w = np.zeros(N_FEATURES)
    for t in range(epochs):
        viol = (D @ w) < 1.0
        grad = w - c * D[viol].sum(axis=0)
        w = w - (1.0 / (1.0 + t)) * grad
    return w


def train_linear(feats: pd.DataFrame, rel: dict[tuple[str, int], int], l2: float = 1e-3) -> np.ndarray:
    """Deterministic stand-in for ``svm_rank_learn``: closed-form ridge
    regression of relevance on the (NaN→0) normalized features. Documented
    divergence from the reference's external SVM (LearnToRank.java:921-957)."""
    X = feats[[f"f{j + 1}" for j in range(N_FEATURES)]].to_numpy(dtype=np.float64)
    X = np.nan_to_num(X)
    y = np.array([rel.get((q, int(d)), 0) for q, d in zip(feats["qid"], feats["docid"])], dtype=np.float64)
    A = X.T @ X + l2 * np.eye(N_FEATURES)
    return np.linalg.solve(A, X.T @ y)


def rerank_scores(feats: pd.DataFrame, weights: np.ndarray) -> pd.DataFrame:
    X = np.nan_to_num(
        feats[[f"f{j + 1}" for j in range(N_FEATURES)]].to_numpy(dtype=np.float64)
    )
    out = feats[["qid", "docid"]].copy()
    out["score"] = X @ weights
    return out


def _run_svm_exec(argv: list[str]) -> None:
    """Run one svm_rank executable, consuming stdout/stderr (the reference
    stresses the consumption to avoid pipe-buffer stalls,
    LearnToRank.java:932-953) and failing on a non-zero exit exactly like
    the reference's ``waitFor() != 0`` → "SVM Rank crashed."."""
    import subprocess

    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.stdout:
        print(proc.stdout, end="")
    if proc.stderr:
        print(proc.stderr, end="")
    if proc.returncode != 0:
        raise RuntimeError(f"SVM Rank crashed. (exit {proc.returncode}: {argv[0]})")


def svm_rank_train(
    learn_path: str, c: float, train_file: str, model_file: str
) -> None:
    """``svm_rank_learn -c <C> train model`` (LearnToRank.java:921-957)."""
    _run_svm_exec([learn_path, "-c", str(c), train_file, model_file])


def svm_rank_classify_run(
    classify_path: str, test_file: str, model_file: str, scores_file: str
) -> None:
    """``svm_rank_classify test model scores`` (LearnToRank.java:959-994)."""
    _run_svm_exec([classify_path, test_file, model_file, scores_file])


def svm_rank_hook(
    train_feats: pd.DataFrame,
    rel: dict[tuple[str, int], int],
    test_feats: pd.DataFrame,
    extid: dict[int, str],
    *,
    c: float = 0.001,
    learn_path: str | None = None,
    classify_path: str | None = None,
    workdir: str | None = None,
) -> list[float]:
    """The reference's external svm_rank flow end-to-end
    (LearnToRank.java:921-994): write the byte-compatible SVMlight train and
    test files, exec ``svm_rank_learn`` then ``svm_rank_classify``, and
    return the per-test-row scores in test_feats row order. Dormant unless
    the binaries exist (this sandbox ships none) — pass explicit paths or
    have ``svm_rank_learn``/``svm_rank_classify`` on PATH; otherwise raises
    ``FileNotFoundError`` with the in-family fallback named."""
    import os
    import shutil
    import tempfile

    learn = learn_path or shutil.which("svm_rank_learn")
    classify = classify_path or shutil.which("svm_rank_classify")
    if not learn or not classify:
        raise FileNotFoundError(
            "svm_rank_learn/svm_rank_classify not found; pass learn_path/"
            "classify_path or use the in-family learner='ranksvm' "
            "(train_ranksvm) instead"
        )
    with tempfile.TemporaryDirectory(dir=workdir) as td:
        train_file = os.path.join(td, "train.feat")
        test_file = os.path.join(td, "test.feat")
        model_file = os.path.join(td, "svm.model")
        scores_file = os.path.join(td, "test.scores")
        with open(train_file, "w") as f:
            f.write(write_svmlight(train_feats, rel, extid))
        with open(test_file, "w") as f:
            f.write(write_svmlight(test_feats, {}, extid))
        svm_rank_train(learn, c, train_file, model_file)
        svm_rank_classify_run(classify, test_file, model_file, scores_file)
        with open(scores_file) as f:
            scores = read_svmlight_scores(f.read())
    if len(scores) != len(test_feats):
        raise RuntimeError(
            f"svm_rank_classify wrote {len(scores)} scores for "
            f"{len(test_feats)} test rows"
        )
    return scores


def letor_rerank(
    index_dir: str,
    train_queries: list[tuple[str, str]],
    qrels: dict[tuple[str, int], int],
    test_queries: list[tuple[str, str]],
    *,
    params: LetorParams | None = None,
    k: int = 100,
    page_rank: dict[int, float] | None = None,
    doc_attrs: pd.DataFrame | None = None,
    learner: str = "ranksvm",
    svm_rank_paths: tuple[str, str] | None = None,
) -> dict[str, list[tuple[int, float]]]:
    """Full LeToR flow (QryEval.java:239-258): train features on judged docs
    → fit ranker (``ranksvm`` = deterministic pairwise hinge, the
    reference's model family; ``ridge`` = regression stand-in; ``svm_rank``
    = the reference's external binaries via :func:`svm_rank_hook`, dormant
    unless present) → test features on BM25-body top-100 initial ranking
    (LearnToRank.java:840-858) → rerank. Returns qid → [(docid, score)]."""
    params = params or LetorParams()
    train_cand = {
        q: sorted({d for (qq, d) in qrels if qq == q}) for q, _ in train_queries
    }
    train_f = normalize_features(
        compute_features(
            index_dir, train_queries, train_cand, params=params,
            page_rank=page_rank, doc_attrs=doc_attrs,
        )
    )
    if learner == "ranksvm":
        w = train_ranksvm(train_f, qrels, c=params.svm_c)
    elif learner == "ridge":
        w = train_linear(train_f, qrels)
    elif learner == "svm_rank":
        w = None  # scores come from the external classifier, not a w·x
    else:
        raise ValueError(f"unknown learner {learner!r} (ranksvm|ridge|svm_rank)")

    bm25 = params.model_params
    initial = run_queries(index_dir, test_queries, bm25, k=k)
    test_cand = {q: [docid for (_, _, docid) in initial[q]] for q, _ in test_queries}
    test_f = normalize_features(
        compute_features(
            index_dir, test_queries, test_cand, params=params,
            page_rank=page_rank, doc_attrs=doc_attrs,
        )
    )
    if learner == "svm_rank":
        from ..state.index_layout import load_docmap

        _, doc2url = load_docmap(index_dir)
        lp, cp = svm_rank_paths or (None, None)
        scored = test_f[["qid", "docid"]].copy()
        scored["score"] = svm_rank_hook(
            train_f, qrels, test_f, doc2url,
            c=params.svm_c, learn_path=lp, classify_path=cp,
        )
    else:
        scored = rerank_scores(test_f, w)
    out: dict[str, list[tuple[int, float]]] = {q: [] for q, _ in test_queries}
    for qid, g in scored.groupby("qid"):
        g = g.sort_values(["score", "docid"], ascending=[False, True], kind="mergesort")
        out[str(qid)] = [(int(d), float(s)) for d, s in zip(g["docid"], g["score"])]
    return out


def scores_from_dataset(
    ds,
    extids,
    *,
    key_col: str = "node",
    score_col: str = "rank_micros",
    scale: float = 1e-6,
) -> dict[str, float]:
    """``{extid: score}`` from a corpus-scale score Dataset (e.g. the
    ``stages/graph.pagerank`` output) for the SMALL candidate set LeToR
    actually scores: the extid set is broadcast once (``ray.put``), every
    batch filters vectorized (``pc.is_in``), and only matching rows reach
    the driver — O(candidates) pulled, never the corpus. Replaces
    :func:`read_score_file` when the scores are computed in-cluster rather
    than shipped as a file (LearnToRank.java:131-144 reads the file an
    offline job wrote; this is the same handoff without the file)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    keys = pa.array(sorted({str(e) for e in extids}))
    ref = ray.put(keys)

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t[key_col], value_set=ray.get(ref)))

    rows = ds.map_batches(pick, batch_format="pyarrow").to_pandas()
    return {
        str(k): float(v) * scale
        for k, v in zip(rows[key_col], rows[score_col])
    }
