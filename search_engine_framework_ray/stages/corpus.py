"""Corpus-level statistics and ordering operators for training-data
pipelines: per-source aggregation, global n-gram frequency, per-doc TF-IDF
top terms, and a deterministic (seeded, hash-keyed) global shuffle.

These round out the webtext-curation surface next to the dedup/quality/LM
stages: a real 100-TB run groups its corpus by origin (domain / dump
shard), inspects the global n-gram distribution, extracts salient terms,
and shuffles documents into a reproducible training order.

Scale shapes (all shuffles are narrow — ids/keys/counts only, text never
crosses an exchange):

* ``source_stats`` — per-batch combiner (one partial row per source per
  batch) → one tiny groupby over the partials. A Zipf-skewed source
  contributes ≤ num_batches partial rows, never its documents.
* ``ngram_topk`` — per-batch partial gram counts → hash-bucket groupby
  (each bucket owns its grams fully, so a local top-k is globally correct)
  → k·n_buckets rows to the driver. The full gram table never materializes
  in one place.
* ``tfidf_topk`` — document-frequency table via the same partial/bucket
  reduce, broadcast once (``ray.put``), then ONE streaming pass computes
  per-doc tf-idf and its local top-k inside the batch. Broadcast is right
  while |vocab| ≪ |corpus| (webtext: millions vs billions); if the df
  table outgrew worker heap the fallback is a (term)-partitioned join —
  documented, not needed at this corpus shape.
* ``deterministic_shuffle`` — md5-low64(doc_id) is the sort key; the top
  byte of the key is an ORDERED coarse bucket, so global positions come
  from the same two-level prefix sum as LM packing (per-bucket counts →
  driver prefix-sums 256 tiny totals → per-bucket sort + arange). No full
  sort, no driver materialization; per-task memory is O(bucket).

Reference parity: the reference engine has no corpus-curation layer (its
surface ends at retrieval — see SURVEY.md §2.10 extension hooks); these
operators are the LLM-pipeline additions the brief calls for. Every public
function here is value-hash verified against a DuckDB SQL twin
(md5_number_lower == md5-low64-little, ln/round parity per BASELINE notes).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
from ray.data import Dataset

from .dedup import _md5_hash64
from .textstats import RE2_TOKEN_RE as _WS_RE  # RE2-aligned (oracle parity)


def _round_away(x: np.ndarray) -> np.ndarray:
    """round-half-away-from-zero — DuckDB ``round()`` semantics (numpy's
    ``round`` is half-to-even and would diverge on exact .5 micros)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


# ----------------------------------------------------------------------------
# per-source aggregation
# ----------------------------------------------------------------------------


def source_stats(
    ds: Dataset,
    *,
    source_col: str = "source",
    text_col: str = "text",
) -> Dataset:
    """Per-origin corpus stats → (source, n_docs, n_tokens, n_chars_total).

    The per-domain census every curation run starts with (how much text per
    crawl origin, token budget per domain). Partial-aggregates inside
    ``map_batches`` so the exchange moves one row per (source, batch), then
    reduces the partials with a single small ``groupby``.
    """

    n_buckets = 64

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        texts = b[text_col].fillna("")
        g = pd.DataFrame(
            {
                source_col: b[source_col].to_numpy(),
                "n_docs": 1,
                "n_tokens": texts.str.count(_WS_RE).to_numpy(),
                "n_chars_total": texts.str.len().to_numpy(),
            }
        ).groupby(source_col, as_index=False).sum()
        if not len(g):  # hash_array raises on empty object arrays
            g["_bkt"] = pd.Series(dtype="int64")
            return g
        # coarse source-hash bucket: Ray-grouping on the source itself
        # pays per-group dispatch for every distinct origin (10⁵+ hosts
        # on a real crawl — the many-group trap)
        g["_bkt"] = (
            pd.util.hash_array(g[source_col].to_numpy(object))
            % np.uint64(n_buckets)
        ).astype(np.int64)
        return g

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.groupby(source_col, sort=False, as_index=False)[
                ["n_docs", "n_tokens", "n_chars_total"]
            ].sum()
        )
        for c in ("n_docs", "n_tokens", "n_chars_total"):
            out[c] = out[c].astype("int64")
        return out

    partials = ds.map_batches(partial, batch_format="pandas")
    return partials.groupby("_bkt").map_groups(combine, batch_format="pandas")


def facet_counts(
    ds: Dataset,
    match_ids: set[int],
    facet_cols: list[str],
    *,
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """Faceted-search counts: per-``facet_cols`` doc counts over a retrieved
    id set → one row per facet combination, ``n_docs`` each.

    The retrieved set (a boolean/BM25 match list, bounded by the query's
    top-k) is broadcast into ONE metadata pass; each batch pre-aggregates
    its matches (≤ |facet combos| rows per batch cross the exchange), then
    a tiny groupby sums the partials. Right while |match_ids| ≪ corpus —
    the retrieval depth caps it; if a use case ever needs facets over an
    UNBOUNDED match set, co-partition on ``id_col`` and join instead of
    broadcasting (the `revenue_by_priority` pattern)."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        m = b[b[id_col].isin(match_ids)]
        if not len(m):
            return pd.DataFrame(
                {**{c: pd.Series(dtype=b[c].dtype) for c in facet_cols},
                 "n_docs": pd.Series(dtype="int64")}
            )
        g = m.groupby(facet_cols, as_index=False).size()
        return g.rename(columns={"size": "n_docs"})

    partials = ds.map_batches(partial, batch_format="pandas")
    out = (
        partials.groupby(facet_cols)
        .sum("n_docs")
        .to_pandas()
        .rename(columns={"sum(n_docs)": "n_docs"})
    )
    if "n_docs" not in out.columns:  # every batch empty → schemaless result
        out = pd.DataFrame(
            {**{c: pd.Series(dtype="object") for c in facet_cols},
             "n_docs": pd.Series(dtype="int64")}
        )
    out["n_docs"] = out["n_docs"].astype("int64")
    return out[facet_cols + ["n_docs"]].sort_values(facet_cols).reset_index(
        drop=True
    )


# ----------------------------------------------------------------------------
# global n-gram frequency
# ----------------------------------------------------------------------------


def _batch_gram_counts(
    b: pd.DataFrame, n: int, text_col: str, n_buckets: int
) -> pd.DataFrame:
    """Vectorized partial n-gram counts for one batch: explode the token
    lists, join each token with its n-1 within-doc successors via grouped
    shifts (the `stages/lm.py` bigram pattern generalized), count uniques,
    and tag each distinct gram with its md5-derived reduce bucket."""
    empty = pd.DataFrame(
        {
            "gram": pd.Series(dtype="object"),
            "cnt": pd.Series(dtype="int64"),
            "bucket": pd.Series(dtype="int64"),
        }
    )
    ex = b[text_col].fillna("").str.lower().str.findall(_WS_RE).explode().dropna()
    if ex.empty:
        return empty
    cols = [ex.astype(str)]
    for j in range(1, n):
        cols.append(ex.groupby(level=0).shift(-j))
    mask = cols[-1].notna()  # last shift non-null ⇒ whole window in-doc
    if not mask.any():
        return empty
    gram = cols[0][mask]
    for c in cols[1:]:
        gram = gram + " " + c[mask].astype(str)
    vc = gram.value_counts(sort=False)
    out = pd.DataFrame(
        {"gram": vc.index.to_numpy(object), "cnt": vc.to_numpy(np.int64)}
    )
    # bucket = deterministic VECTORIZED hash (fixed-key siphash); the bucket
    # id only routes the reduce — it never reaches the result, so it needs
    # cross-process determinism, not SQL reproducibility (md5 per gram in a
    # Python loop was the 100k-corpus bottleneck)
    out["bucket"] = (
        pd.util.hash_array(out["gram"].to_numpy(object)) % np.uint64(n_buckets)
    ).astype(np.int64)
    return out


def ngram_topk(
    ds: Dataset,
    *,
    n: int = 2,
    k: int = 20,
    text_col: str = "text",
    n_buckets: int = 64,
) -> pd.DataFrame:
    """Corpus-wide top-``k`` word n-grams → (gram, cnt), ordered by
    (cnt desc, gram asc).

    Each reduce bucket owns ALL occurrences of its grams (bucket =
    md5(gram) mod B), so a per-bucket local top-k is globally sufficient:
    the driver merges k·B candidate rows, never the gram table. Per-batch
    partial counts mean a Zipf-head gram ships ≤ one row per batch.
    """

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("gram", as_index=False)["cnt"].sum()
        tot = tot.sort_values(["cnt", "gram"], ascending=[False, True]).head(k)
        return tot

    partials = ds.map_batches(
        lambda b: _batch_gram_counts(b, n, text_col, n_buckets),
        batch_format="pandas",
    )
    cand = partials.groupby("bucket").map_groups(reduce_bucket, batch_format="pandas")
    top = cand.to_pandas().sort_values(["cnt", "gram"], ascending=[False, True])
    return top.head(k).reset_index(drop=True)[["gram", "cnt"]]


# ----------------------------------------------------------------------------
# per-doc TF-IDF top terms
# ----------------------------------------------------------------------------


def tfidf_topk(
    ds: Dataset,
    *,
    k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int = 64,
) -> Dataset:
    """Top-``k`` terms per document by tf-idf → (doc_id, term, tf,
    tfidf_micros, rank).

    tf-idf = tf · ln(N/df); the ranking key is the MICROS-ROUNDED score
    (ties → term asc) so the DuckDB twin ranks identically regardless of
    last-ulp libm differences. Two phases: a narrow (term, df-partial)
    bucket reduce builds the df table, broadcast ONCE via ``ray.put``; then
    one streaming pass computes each doc's top-k entirely inside its batch
    (a doc's terms never split across batches, so no second shuffle).
    """
    import ray

    def df_partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = b[text_col].fillna("").str.lower().str.findall(_WS_RE)
        ex = toks.explode().dropna()
        if not len(ex):
            return pd.DataFrame({"term": [], "df": [], "bucket": []}).astype(
                {"term": "object", "df": "int64", "bucket": "int64"}
            )
        uniq = pd.DataFrame(
            {"r": ex.index.to_numpy(), "term": ex.to_numpy(object)}
        ).drop_duplicates()
        vc = uniq["term"].value_counts(sort=False)
        out = pd.DataFrame({"term": vc.index.to_numpy(object), "df": vc.to_numpy(np.int64)})
        # routing-only bucket: vectorized fixed-key siphash (see ngram note)
        out["bucket"] = (
            pd.util.hash_array(out["term"].to_numpy(object)) % np.uint64(n_buckets)
        ).astype(np.int64)
        return out

    def df_reduce(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("term", as_index=False)["df"].sum()

    n_docs = ds.count()
    df_tbl = (
        ds.map_batches(df_partial, batch_format="pandas")
        .groupby("bucket")
        .map_groups(df_reduce, batch_format="pandas")
        .to_pandas()
    )
    df_map = dict(zip(df_tbl["term"], df_tbl["df"].astype(np.int64)))
    df_ref = ray.put(df_map)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        dfm = ray.get(df_ref)
        b = b.reset_index(drop=True)
        toks = b[text_col].fillna("").str.lower().str.findall(_WS_RE)
        ex = toks.explode().dropna()
        if not len(ex):
            return pd.DataFrame(
                {
                    id_col: [],
                    "term": [],
                    "tf": [],
                    "tfidf_micros": [],
                    "rank": [],
                }
            ).astype({id_col: "int64", "term": "object", "tf": "int64",
                      "tfidf_micros": "int64", "rank": "int64"})
        tf = ex.groupby([ex.index, ex.to_numpy(object)]).size()
        rows = pd.DataFrame(
            {
                "_row": tf.index.get_level_values(0).to_numpy(),
                "term": tf.index.get_level_values(1).to_numpy(object),
                "tf": tf.to_numpy(np.int64),
            }
        )
        dfs = rows["term"].map(dfm).to_numpy(np.float64)
        sc = rows["tf"].to_numpy(np.float64) * np.log(n_docs / dfs)
        rows["tfidf_micros"] = _round_away(sc * 1e6).astype(np.int64)
        rows = rows.sort_values(
            ["_row", "tfidf_micros", "term"], ascending=[True, False, True]
        )
        rows["rank"] = rows.groupby("_row").cumcount() + 1
        rows = rows[rows["rank"] <= k]
        ids = b[id_col].reset_index(drop=True)
        rows[id_col] = ids.iloc[rows["_row"].to_numpy()].to_numpy()
        return rows[[id_col, "term", "tf", "tfidf_micros", "rank"]]

    return ds.map_batches(score, batch_format="pandas")


# ----------------------------------------------------------------------------
# deterministic global shuffle (training order)
# ----------------------------------------------------------------------------


def deterministic_shuffle(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    n_buckets_shift: int = 56,
) -> Dataset:
    """Reproducible global shuffle → (pos, doc_id): documents ordered by
    md5-low64(doc_id) (tie → doc_id), each with its global position.

    ``random_shuffle`` gives a *non-reproducible* order; training-data
    pipelines want a SEEDED one (resume, ablations, exact replay across
    runs). The md5 key is uniform, so ordering by it IS a shuffle — and the
    key's top byte is an ordered range partition, so global positions come
    from the packing-style two-level prefix sum: 256 bucket counts to the
    driver, per-bucket sort + arange in parallel. Nothing wide moves except
    (id, key) pairs.
    """

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].to_numpy()
        keys = np.fromiter(
            (_md5_hash64(str(int(i))) for i in ids), dtype=np.uint64, count=len(ids)
        )
        return pd.DataFrame(
            {
                id_col: ids,
                "skey": keys,
                "bucket": (keys >> np.uint64(n_buckets_shift)).astype(np.int64),
            }
        )

    kt = ds.map_batches(keyed, batch_format="pandas").materialize()

    counts = (
        kt.map_batches(
            lambda b: b.groupby("bucket", as_index=False).size().rename(columns={"size": "c"}),
            batch_format="pandas",
        )
        .groupby("bucket")
        .map_groups(
            lambda g: pd.DataFrame(
                {"bucket": g["bucket"].iloc[:1], "c": [np.int64(g["c"].sum())]}
            ),
            batch_format="pandas",
        )
        .to_pandas()
        .sort_values("bucket")
    )
    offs = dict(
        zip(
            counts["bucket"].to_numpy(),
            np.concatenate([[0], counts["c"].to_numpy().cumsum()[:-1]]).astype(np.int64),
        )
    )

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["skey", id_col])
        base = offs[int(g["bucket"].iloc[0])]
        return pd.DataFrame(
            {
                "pos": base + np.arange(len(g), dtype=np.int64),
                id_col: g[id_col].to_numpy(),
            }
        )

    return kt.groupby("bucket").map_groups(rank_bucket, batch_format="pandas")


# ----------------------------------------------------------------------------
# end-to-end curation pipeline
# ----------------------------------------------------------------------------


def curate(
    ds: Dataset,
    *,
    min_words: int = 40,
    keep_lang: str = "en",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> Dataset:
    """The flagship composed filter chain of a webtext curation run →
    (doc_id, n_words, lang_pred, cluster_id, reason, keep).

    ``reason`` is the FIRST failing gate, in the order a production
    pipeline applies them (cheap → expensive): 'short' (token count below
    ``min_words``), 'lang' (language-id ≠ ``keep_lang``), 'dup' (not the
    canonical min-id copy of its exact-text cluster), else 'ok'
    (``keep = 1``).

    One streaming pass computes every per-doc signal (language id fused
    with token count and the sha1-low64 content hash), then ONE narrow
    all-to-all — (id, n_words, lang_pred, hash) rows, text never
    crosses the exchange — groups exact-text clusters to pick canonicals;
    the verdict is vectorized ``np.select`` over the joined signals. The
    same gates any real run would chain (quality → langid → dedup), here
    composed as a single 2-stage Ray pipeline instead of three jobs.
    """
    from .dedup import _text_hash64
    from .textstats import LangIdStage

    withlang = ds.map_batches(LangIdStage(), batch_format="pandas")

    def narrow(b: pd.DataFrame) -> pd.DataFrame:
        texts = b[text_col].fillna("")
        h = _text_hash64(texts.tolist())
        return pd.DataFrame(
            {
                id_col: b[id_col].to_numpy(),
                "n_words": texts.str.count(_WS_RE).to_numpy(np.int64),
                "lang_pred": b["lang_pred"].to_numpy(),
                "content_hash": h,
                # coarse shuffle key — per-group dispatch over millions of
                # singleton text clusters is the scale killer; one
                # vectorized transform('min') per bucket is not
                "bucket": (h.astype(np.uint64) % np.uint64(256)).astype(np.int64),
            }
        )

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="mergesort").copy()
        g["cluster_id"] = g.groupby("content_hash")[id_col].transform("min")
        return g

    def verdict(b: pd.DataFrame) -> pd.DataFrame:
        reason = np.select(
            [
                b["n_words"].to_numpy() < min_words,
                b["lang_pred"].to_numpy(object) != keep_lang,
                b[id_col].to_numpy() != b["cluster_id"].to_numpy(),
            ],
            ["short", "lang", "dup"],
            default="ok",
        )
        out = b[[id_col, "n_words", "lang_pred", "cluster_id"]].copy()
        out["reason"] = reason
        out["keep"] = (reason == "ok").astype(np.int64)
        return out

    return (
        withlang.map_batches(narrow, batch_format="pandas")
        .groupby("bucket")
        .map_groups(pick, batch_format="pandas")
        .map_batches(verdict, batch_format="pandas")
    )


# ----------------------------------------------------------------------------
# deterministic weighted sampling (without replacement)
# ----------------------------------------------------------------------------


def weighted_sample(
    ds: Dataset,
    m: int,
    *,
    id_col: str = "doc_id",
    weight_col: str = "n_chars",
) -> pd.DataFrame:
    """Deterministic weighted sample WITHOUT replacement of ``m`` rows,
    P(pick) ∝ weight — the Efraimidis–Spirakis A-ES scheme with the random
    uniform replaced by an md5-derived one, so the draw is exactly
    replayable AND SQL-verifiable → (doc_id, weight, key_picos).

    u_i = (md5low64(id) + 0.5) / 2⁶⁴ ∈ (0,1);  k_i = −ln(u_i) / w_i;
    the m SMALLEST k_i win (equivalent to the classical u^(1/w) top-m).
    The ordering key is pico-quantized (1e-12) before comparison so both
    engines rank on the same integer regardless of last-ulp libm noise.

    Scale shape: each batch keeps its local m smallest (vectorized
    argpartition), the driver merges m·n_batches candidate rows — the
    corpus is never sorted and never leaves the object store. This is the
    importance-sampling / domain-balancing primitive (sample ∝ doc length,
    ∝ quality score, ∝ inverse-domain-frequency …).
    """

    def local(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].to_numpy()
        w = b[weight_col].to_numpy(np.float64)
        h = np.fromiter(
            (_md5_hash64(str(int(i))) for i in ids), dtype=np.uint64, count=len(ids)
        )
        u = (h.astype(np.float64) + 0.5) / 18446744073709551616.0
        key = -np.log(u) / w
        kp = np.floor(key * 1e12 + 0.5).astype(np.int64)
        take = min(m, len(ids))
        part = np.argpartition(kp, take - 1)[:take] if take < len(ids) else np.arange(len(ids))
        order = part[np.lexsort((ids[part], kp[part]))]
        return pd.DataFrame(
            {
                id_col: ids[order],
                "weight": w[order].astype(np.int64),
                "key_picos": kp[order],
            }
        )

    cand = ds.map_batches(local, batch_format="pandas").to_pandas()
    cand = cand.sort_values(["key_picos", id_col], kind="mergesort").head(m)
    return cand.reset_index(drop=True)


# ----------------------------------------------------------------------------
# collocation mining (PMI / lift over bigrams)
# ----------------------------------------------------------------------------


def collocations(
    ds: Dataset,
    *,
    k: int = 20,
    min_count: int = 5,
    text_col: str = "text",
    n_buckets: int = 64,
) -> pd.DataFrame:
    """Corpus-wide top-``k`` bigram collocations by LIFT (= exp(PMI):
    ``P(xy) / (P(x)·P(y))``), the word2vec-era phrase-mining signal →
    ``(gram, cnt, lift_micros)`` ordered by (lift desc, gram asc).

    The ranking key is the exact integer
    ``cnt · N · 10⁶ // (cx · cy)`` (N = corpus token count, cx/cy = unigram
    counts) — no logs, no floats, so any SQL engine ranks identically.
    The int64 fast path holds while ``cnt · N · 10⁶ < 2⁶³``; past that the
    combine kernel automatically promotes the multiply to arbitrary-
    precision Python ints (the candidate table is min_count-pruned and
    bucket-local, so the per-row cost is affordable exactly when needed).

    Distribution shape — four narrow, vocab-scale shuffles, corpus text
    touched exactly twice and never on the driver:

    1. per-batch unigram partials → bucket reduce = full (word, c) table
       (+ the corpus token count N via a distributed sum);
    2. per-batch bigram partials → bucket reduce, ``min_count`` filter ⇒
       candidates; each emits two (word-keyed) probe rows;
    3. probes co-partitioned WITH the unigram table on the same word
       buckets (tagged union — no join actors) pick up cx/cy;
    4. gram-bucket combine computes lift, local top-k per bucket, k·B-row
       driver merge (the `ngram_topk` pattern).
    """

    def reduce_full(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("gram", as_index=False)["cnt"].sum()
        tot["bucket"] = g["bucket"].iloc[0]
        return tot

    uni = (
        ds.map_batches(
            lambda b: _batch_gram_counts(b, 1, text_col, n_buckets),
            batch_format="pandas",
        )
        .groupby("bucket")
        .map_groups(reduce_full, batch_format="pandas")
        .materialize()
    )
    n_tokens = int(uni.sum("cnt"))

    def bi_candidates(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("gram", as_index=False)["cnt"].sum()
        tot = tot[tot["cnt"] >= min_count]
        if not len(tot):
            return pd.DataFrame(
                {
                    "word": pd.Series(dtype="object"),
                    "gram": pd.Series(dtype="object"),
                    "cnt": pd.Series(dtype="int64"),
                    "kind": pd.Series(dtype="object"),
                    "wbucket": pd.Series(dtype="int64"),
                }
            )
        xy = tot["gram"].str.split(" ", n=1, expand=True)
        probes = pd.concat(
            [
                pd.DataFrame(
                    {
                        "word": xy[0].to_numpy(object),
                        "gram": tot["gram"].to_numpy(object),
                        "cnt": tot["cnt"].to_numpy(np.int64),
                        "kind": "x",
                    }
                ),
                pd.DataFrame(
                    {
                        "word": xy[1].to_numpy(object),
                        "gram": tot["gram"].to_numpy(object),
                        "cnt": tot["cnt"].to_numpy(np.int64),
                        "kind": "y",
                    }
                ),
            ],
            ignore_index=True,
        )
        probes["wbucket"] = (
            pd.util.hash_array(probes["word"].to_numpy(object)) % np.uint64(n_buckets)
        ).astype(np.int64)
        return probes

    probes = (
        ds.map_batches(
            lambda b: _batch_gram_counts(b, 2, text_col, n_buckets),
            batch_format="pandas",
        )
        .groupby("bucket")
        .map_groups(bi_candidates, batch_format="pandas")
    )

    def tag_uni(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "word": b["gram"].to_numpy(object),
                "gram": np.full(len(b), "", dtype=object),
                "cnt": b["cnt"].to_numpy(np.int64),
                "kind": np.full(len(b), "u", dtype=object),
                "wbucket": b["bucket"].to_numpy(np.int64),
            }
        )

    def lookup(g: pd.DataFrame) -> pd.DataFrame:
        wc = g[g["kind"] == "u"].set_index("word")["cnt"]
        pr = g[g["kind"] != "u"]
        if not len(pr):
            return pd.DataFrame(
                {
                    "gram": pd.Series(dtype="object"),
                    "cnt": pd.Series(dtype="int64"),
                    "kind": pd.Series(dtype="object"),
                    "wc": pd.Series(dtype="int64"),
                    "gbucket": pd.Series(dtype="int64"),
                }
            )
        out = pd.DataFrame(
            {
                "gram": pr["gram"].to_numpy(object),
                "cnt": pr["cnt"].to_numpy(np.int64),
                "kind": pr["kind"].to_numpy(object),
                "wc": wc.reindex(pr["word"]).to_numpy(np.int64),
            }
        )
        out["gbucket"] = (
            pd.util.hash_array(out["gram"].to_numpy(object)) % np.uint64(n_buckets)
        ).astype(np.int64)
        return out

    enriched = (
        uni.map_batches(tag_uni, batch_format="pandas")
        .union(probes)
        .groupby("wbucket")
        .map_groups(lookup, batch_format="pandas")
    )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        piv = g.pivot_table(
            index=["gram", "cnt"], columns="kind", values="wc", aggfunc="first"
        ).reset_index()
        cnt_a = piv["cnt"].to_numpy(np.int64)
        cx_a = piv["x"].to_numpy(np.int64)
        cy_a = piv["y"].to_numpy(np.int64)
        if cnt_a.size and int(cnt_a.max()) * n_tokens * 1_000_000 < 2**63:
            lift = cnt_a * np.int64(n_tokens) * np.int64(1_000_000) // (cx_a * cy_a)
        else:
            # beyond ~3M tokens · 3M top count the int64 product overflows;
            # the candidate table is min_count-pruned and bucket-local, so
            # arbitrary-precision Python ints per row are affordable here
            lift = np.fromiter(
                (
                    int(c) * n_tokens * 1_000_000 // (int(x) * int(y))
                    for c, x, y in zip(cnt_a, cx_a, cy_a)
                ),
                dtype=np.int64,
                count=cnt_a.size,
            )
        out = pd.DataFrame(
            {
                "gram": piv["gram"].to_numpy(object),
                "cnt": piv["cnt"].to_numpy(np.int64),
                "lift_micros": lift,
            }
        )
        return out.sort_values(
            ["lift_micros", "gram"], ascending=[False, True], kind="mergesort"
        ).head(k)

    cand = enriched.groupby("gbucket").map_groups(combine, batch_format="pandas")
    top = cand.to_pandas().sort_values(
        ["lift_micros", "gram"], ascending=[False, True], kind="mergesort"
    )
    return top.head(k).reset_index(drop=True)[["gram", "cnt", "lift_micros"]]


def chunk_documents(
    ds: Dataset,
    *,
    window: int = 64,
    stride: int = 48,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Token-window chunking for RAG / embedding pipelines → one row per
    chunk ``(doc_id, chunk_id, start_tok, n_tokens, chunk_text)``.

    The retrieval-augmented-generation preprocessing step: every document
    splits into overlapping windows of ``window`` whitespace tokens whose
    starts advance by ``stride`` (< window ⇒ overlap = window - stride
    tokens of shared context across the cut). Chunk starts follow the
    FULL-COVERAGE rule: the last start is the smallest multiple of
    ``stride`` whose window reaches the document end —
    ``n_chunks = 1 if n ≤ window else ceil((n - window) / stride) + 1`` —
    so every token lands in ≥1 chunk and no chunk is a strict subset of
    its predecessor (the degenerate tail a naive ``start < n`` rule emits).
    A document with no tokens still emits one empty chunk so provenance
    joins stay total.

    Tokenization is the RE2-aligned ``[^ \\t\\n\\f\\r]+`` class shared with
    the token-count / quality stages, and ``chunk_text`` re-joins tokens
    with single spaces (whitespace-normalized — the form embedding models
    see anyway), which is exactly what DuckDB's
    ``regexp_extract_all`` + ``list_slice`` + ``array_to_string`` replay.

    Scale shape: a pure per-batch ``map_batches`` flat-map — NO shuffle,
    no driver state, output streams to the next stage (embed / index /
    write) with back-pressure. Window arithmetic (chunk counts, starts,
    per-chunk lengths) is vectorized over the whole batch via
    repeat/cumsum offsets; only the final token-slice string join runs
    per chunk (string assembly, same cost class as the JSONL writer).
    """
    if window <= 0 or stride <= 0 or stride > window:
        raise ValueError(
            f"need 0 < stride <= window, got window={window} stride={stride}"
        )

    def chunk(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[text_col].fillna("").reset_index(drop=True)
        toks = texts.str.findall(_WS_RE)
        n = toks.str.len().to_numpy(np.int64)
        n_chunks = np.where(
            n <= window, 1, (np.maximum(n - window, 0) + stride - 1) // stride + 1
        ).astype(np.int64)
        doc_rep = np.repeat(np.arange(len(batch), dtype=np.int64), n_chunks)
        offs = np.concatenate(([0], np.cumsum(n_chunks)[:-1]))
        k = np.arange(int(n_chunks.sum()), dtype=np.int64) - np.repeat(offs, n_chunks)
        start = k * stride
        tok_arr = toks.to_numpy(object)
        return pd.DataFrame(
            {
                id_col: batch[id_col].to_numpy()[doc_rep],
                "chunk_id": k,
                "start_tok": start,
                "n_tokens": np.minimum(n[doc_rep] - start, window),
                "chunk_text": [
                    " ".join(tok_arr[d][s : s + window])
                    for d, s in zip(doc_rep, start)
                ],
            }
        )

    return ds.map_batches(chunk, batch_format="pandas")


def texttiling_boundaries(
    ds: Dataset,
    *,
    block_tokens: int = 10,
    threshold_micros: int = 500_000,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Semantic chunk boundaries, TextTiling-style (Hearst CL 1997: lexical
    cohesion between adjacent token blocks; low-cohesion valleys are topic
    shifts) — the semantic alternative to the fixed/sliding RAG chunkers in
    this module (:func:`chunk_documents`). This is the LOCAL-MINIMUM
    variant: per doc, tokens fall into ``block_tokens``-sized blocks; gap
    ``g`` (between block g and g+1) scores the cosine of the two blocks'
    term-count vectors (micros, ``floor(x·1e6 + 0.5)``, zero-norm ≡ 0 —
    the repo's pinned kernel); a gap is a boundary when its similarity is
    a weak local minimum (≤ both neighbors, edges as +∞) AND below
    ``threshold_micros``. (Hearst's original smooths with a depth score
    over hill-climbed peaks; the local-minimum rule keeps the decision
    windowed — LAG/LEAD in SQL — with the same cohesion-valley semantics.)

    Row-local ``map_batches`` — ZERO shuffles at any corpus size; output is
    one row per gap: (id, gap, sim_micros, boundary)."""

    def score(b: pd.DataFrame) -> pd.DataFrame:
        out_id, out_gap, out_sim, out_bnd = [], [], [], []
        toks_s = b[text_col].fillna("").str.lower().str.findall(_WS_RE)
        for did, toks in zip(b[id_col].to_numpy(np.int64), toks_s):
            nblocks = len(toks) // block_tokens + (1 if len(toks) % block_tokens else 0)
            if nblocks < 2:
                continue
            sims = np.empty(nblocks - 1, dtype=np.int64)
            counts = []
            for g in range(nblocks):
                blk = toks[g * block_tokens : (g + 1) * block_tokens]
                vals, cnts = np.unique(np.asarray(blk, dtype=object), return_counts=True)
                counts.append(dict(zip(vals, cnts)))
            for g in range(nblocks - 1):
                a, c = counts[g], counts[g + 1]
                dp = sum(v * c[k] for k, v in a.items() if k in c)
                n1 = sum(v * v for v in a.values())
                n2 = sum(v * v for v in c.values())
                if n1 == 0 or n2 == 0:
                    sims[g] = 0
                else:
                    sims[g] = np.int64(
                        np.floor(dp / (np.sqrt(n1) * np.sqrt(n2)) * 1e6 + 0.5)
                    )
            left = np.concatenate([[np.iinfo(np.int64).max], sims[:-1]])
            right = np.concatenate([sims[1:], [np.iinfo(np.int64).max]])
            bnd = (sims <= left) & (sims <= right) & (sims < threshold_micros)
            out_id.extend([did] * (nblocks - 1))
            out_gap.extend(range(nblocks - 1))
            out_sim.extend(sims.tolist())
            out_bnd.extend(bnd.astype(np.int64).tolist())
        return pd.DataFrame(
            {
                id_col: pd.Series(out_id, dtype="int64"),
                "gap": pd.Series(out_gap, dtype="int64"),
                "sim_micros": pd.Series(out_sim, dtype="int64"),
                "boundary": pd.Series(out_bnd, dtype="int64"),
            }
        )

    return ds.map_batches(score, batch_format="pandas")
