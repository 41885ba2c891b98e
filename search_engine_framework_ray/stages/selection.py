"""Data-selection operators for training-corpus curation.

* :func:`dsir_weights` — hashed-n-gram importance weights (the DSIR recipe:
  Xie et al. 2023, "Data Selection for Language Models via Importance
  Resampling", public arXiv 2302.03169): score each document by the
  log-likelihood ratio of a *target* unigram distribution vs the *raw* corpus
  distribution, with the vocabulary hashed into a fixed number of buckets so
  the model size is bounded regardless of corpus size (the property that
  makes the method viable at 100 TB — the weight table is ``n_buckets``
  int64s however big the crawl is).

* :func:`pii_scrub` — vectorized regex redaction of emails / IPv4 addresses /
  phone numbers, the standard pre-training privacy pass. Patterns are written
  in the RE2-compatible subset (no lookaround / backrefs) so a DuckDB
  ``regexp_replace`` oracle reproduces the engine byte-for-byte.

* :func:`domain_mix` — temperature-scaled corpus mixing (the multi-corpus
  sampling recipe of GPT-3 / Llama / The Pile: sample domain g with
  probability ∝ c_g^τ, τ<1 upweighting small domains): one streaming pass
  counts tokens per domain, the document budget is apportioned by the
  largest-remainder method (deterministic — no RNG), and each domain's
  quota is filled with the docs of smallest md5-low64(doc_id), the repo's
  standard reproducible subset selector.

* :func:`feature_corr` — one-pass distributed Pearson correlation over
  integer text-statistic columns via exact sufficient statistics
  (n, Σx, Σy, Σx², Σy², Σxy accumulated as int64 per-batch partials, one
  tiny ≤|pairs|-row shuffle); the classic sufficient-statistics pattern a
  quality-classifier or mixing-weight fit needs at corpus scale.

Scale notes (100 TB design):
- dsir_weights runs TWO streaming passes: pass 1 reduces per-batch bucket
  count partials through one tiny ``groupby(bucket)`` (≤ ``n_buckets`` rows
  cross the wire per batch — the corpus itself never shuffles); pass 2
  ships the ``n_buckets``-entry weight vector inside the scorer instance
  (Ray Data puts the instance in the object store once per operator) and
  scores docs embarrassingly parallel. Per-token md5 is cached per task
  (Zipf vocabulary ⇒ the cache converges to the live vocab after a few
  batches).
- pii_scrub is a stateless single pass, all pandas ``str`` kernels.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
from ray.data import Dataset

from .dedup import _md5_hash64
from .textstats import RE2_TOKEN_RE as _WS_RE

# ----------------------------------------------------------------------------
# DSIR importance weights
# ----------------------------------------------------------------------------


def _round_away(x: np.ndarray) -> np.ndarray:
    """Half-away-from-zero — DuckDB ``round()`` (numpy rounds half-to-even)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


class _BucketCounter:
    """map_batches callable: text → per-batch partial (bucket, c_target, c_all)
    token counts. Token→bucket is md5-low64 % n_buckets — byte-identical to
    DuckDB ``md5_number_lower(tok) % n`` so the SQL oracle can replay the
    whole model — memoised per task (the Python-loop md5 only ever runs
    once per distinct live token per task)."""

    def __init__(self, n_buckets: int, target_col: str, target_value: str,
                 text_col: str):
        self.n_buckets = n_buckets
        self.target_col = target_col
        self.target_value = target_value
        self.text_col = text_col
        self._cache: dict[str, int] = {}

    def _buckets(self, toks: pd.Series) -> np.ndarray:
        cache, n = self._cache, self.n_buckets
        uniq = toks.unique()
        missing = [t for t in uniq if t not in cache]
        for t in missing:
            cache[t] = _md5_hash64(t) % n
        return toks.map(cache).to_numpy(np.int64)

    def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
        b = b.reset_index(drop=True)  # positional index (pandas-misalign guard)
        is_tgt = (b[self.target_col] == self.target_value).to_numpy()
        toks = b[self.text_col].fillna("").str.lower().str.findall(_WS_RE)
        ex = toks.explode().dropna()
        if ex.empty:
            return pd.DataFrame(
                {"bucket": pd.Series(dtype="int64"),
                 "c_tgt": pd.Series(dtype="int64"),
                 "c_all": pd.Series(dtype="int64")}
            )
        bk = self._buckets(ex.astype(str))
        tgt_row = is_tgt[ex.index.to_numpy()]
        c_all = np.bincount(bk, minlength=self.n_buckets)
        c_tgt = np.bincount(bk[tgt_row], minlength=self.n_buckets)
        live = c_all > 0
        return pd.DataFrame(
            {
                "bucket": np.nonzero(live)[0].astype(np.int64),
                "c_tgt": c_tgt[live].astype(np.int64),
                "c_all": c_all[live].astype(np.int64),
            }
        )


class _DsirScorer:
    """map_batches callable: text → (doc_id, dsir_micros) given the
    weight vector, int64[n_buckets], held by the instance."""

    def __init__(self, weights: np.ndarray, n_buckets: int, text_col: str,
                 id_col: str):
        self.w = weights
        self.n_buckets = n_buckets
        self.text_col = text_col
        self.id_col = id_col
        self._cache: dict[str, int] = {}

    def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
        b = b.reset_index(drop=True)  # positional index (pandas-misalign guard)
        toks = b[self.text_col].fillna("").str.lower().str.findall(_WS_RE)
        ex = toks.explode().dropna()
        scores = np.zeros(len(b), dtype=np.int64)
        if not ex.empty:
            cache, n = self._cache, self.n_buckets
            for t in ex.unique():
                if t not in cache:
                    cache[t] = _md5_hash64(t) % n
            bk = ex.map(cache).to_numpy(np.int64)
            # integer sum of per-bucket micro-weights — exact, order-free
            np.add.at(scores, ex.index.to_numpy(np.int64), self.w[bk])
        return pd.DataFrame(
            {"doc_id": b[self.id_col].to_numpy(np.int64),
             "dsir_micros": scores}
        )


def dsir_weights(
    ds: Dataset,
    *,
    target_col: str = "lang",
    target_value: str = "en",
    n_buckets: int = 4096,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """DSIR importance score per document → (doc_id, dsir_micros).

    score(d) = Σ_tok round(1e6·[ln((c_tgt(b)+1)/(T_tgt+n_buckets))
                            − ln((c_all(b)+1)/(T_all+n_buckets))])
    where b = md5low64(token) % n_buckets and counts come from one streaming
    pass over the corpus. The per-bucket micro-weight is rounded BEFORE the
    per-doc integer sum, so engine and SQL agree exactly regardless of
    summation order. Smoothing is add-1 over the bucket space (the hashed
    vocabulary), per the DSIR construction.
    """
    partials = ds.map_batches(
        _BucketCounter(n_buckets, target_col, target_value, text_col),
        batch_format="pandas",
    )
    from ray.data.aggregate import Sum

    cnt = (
        partials.groupby("bucket")
        .aggregate(Sum("c_tgt", alias_name="c_tgt"),
                   Sum("c_all", alias_name="c_all"))
        .to_pandas()
    )  # ≤ n_buckets rows — driver-safe at any corpus size
    t_tgt = float(cnt["c_tgt"].sum())
    t_all = float(cnt["c_all"].sum())
    w = np.zeros(n_buckets, dtype=np.int64)
    lr = np.log((cnt["c_tgt"].to_numpy(np.float64) + 1.0) / (t_tgt + n_buckets)) \
        - np.log((cnt["c_all"].to_numpy(np.float64) + 1.0) / (t_all + n_buckets))
    w[cnt["bucket"].to_numpy(np.int64)] = _round_away(lr * 1e6).astype(np.int64)
    return ds.map_batches(
        _DsirScorer(w, n_buckets, text_col, id_col), batch_format="pandas"
    )


# ----------------------------------------------------------------------------
# fastText-shaped hashed-n-gram linear quality scorer
# ----------------------------------------------------------------------------

FT_BUCKETS = 4096


def ft_weight_vector(n_buckets: int = FT_BUCKETS) -> np.ndarray:
    """Deterministic md5-PRF stand-in weight vector (values 0..2000; the
    score is centered by its 1000 midpoint downstream). A real deployment
    drops in trained fastText weights here — the plumbing is identical."""
    return np.array(
        [_md5_hash64(f"w|{i}") % 2001 for i in range(n_buckets)], dtype=np.int64
    )


class HashedLinearScorer:
    """map_batches callable: fastText-architecture quality scoring (Joulin et
    al. 2016 — a linear model over hashed word unigrams AND bigrams), the
    filter family behind the GPT-3 / CCNet / DCLM web-quality gates. Per
    doc: every gram hashes to a weight bucket; ``score_micros`` =
    1000·(integer mean bucket weight) − 1 000 000 (centered), ``keep`` =
    score ≥ 0. All arithmetic on non-negative integers before one final
    subtraction, so Python ``//`` (floor) and DuckDB ``//`` (trunc) agree
    and a SQL twin hash-matches. The instance holds the weight vector;
    gram→bucket hashes are cached per task (Zipf vocabulary)."""

    def __init__(
        self,
        weights: np.ndarray,
        n_buckets: int = FT_BUCKETS,
        text_col: str = "text",
        id_col: str = "doc_id",
    ):
        self.w = weights
        self.n_buckets = n_buckets
        self.text_col = text_col
        self.id_col = id_col
        self._cache: dict[str, int] = {}

    def _buckets(self, grams: pd.Series) -> np.ndarray:
        cache, n = self._cache, self.n_buckets
        if len(cache) < 2_000_000:  # bound task memory: bigrams are
            # near-unique per doc (no Zipf reuse), so the cache must not
            # grow with corpus size — same bound as kstem_cached
            for g in grams.unique():
                if g not in cache:
                    cache[g] = _md5_hash64("ft|" + g) % n
            return grams.map(cache).to_numpy(np.int64)
        return grams.map(
            lambda g: cache.get(g) or _md5_hash64("ft|" + g) % n
        ).to_numpy(np.int64)

    def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
        b = b.reset_index(drop=True)
        toks = b[self.text_col].fillna("").str.lower().str.findall(_WS_RE)
        bi = toks.map(
            lambda l: [l[i] + " " + l[i + 1] for i in range(len(l) - 1)]
        )
        sw = np.zeros(len(b), dtype=np.int64)
        cnt = np.zeros(len(b), dtype=np.int64)
        for series in (toks, bi):
            ex = series.explode().dropna()
            if ex.empty:
                continue
            idx = ex.index.to_numpy(np.int64)
            np.add.at(sw, idx, self.w[self._buckets(ex)])
            np.add.at(cnt, idx, 1)
        keep_rows = cnt > 0  # token-less docs have no grams (SQL twin: no row)
        score = sw[keep_rows] * 1000 // cnt[keep_rows] - 1_000_000
        return pd.DataFrame(
            {
                "doc_id": b[self.id_col].to_numpy(np.int64)[keep_rows],
                "score_micros": score,
                "keep": (score >= 0).astype(np.int64),
            }
        )


def hashed_linear_score(
    ds: Dataset,
    *,
    weights: "np.ndarray | None" = None,
    n_buckets: int = FT_BUCKETS,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Distributed fastText-shaped scoring pass → (doc_id, score_micros,
    keep). Streaming, zero shuffles; the weight vector ships inside the
    scorer instance, once per operator (not per batch)."""
    w = ft_weight_vector(n_buckets) if weights is None else weights
    return ds.map_batches(
        HashedLinearScorer(w, n_buckets, text_col, id_col), batch_format="pandas"
    )


# ----------------------------------------------------------------------------
# PII scrub
# ----------------------------------------------------------------------------

# RE2-compatible subset (also valid Python re): no lookaround, no backrefs.
PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IPV4_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PII_PHONE_RE = r"\b\d{3}-\d{3}-\d{4}\b"


def pii_scrub(
    ds: Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    keep_text: bool = False,
) -> Dataset:
    """Redact emails / IPv4s / phone numbers → (doc_id, n_email, n_ip,
    n_phone, scrub_md5[, text]).

    Order matters and is fixed: email → ip → phone (an IP never contains an
    '@', a phone never contains a '.', so the passes don't interact — but the
    oracle replays the identical order regardless). ``scrub_md5`` fingerprints
    the redacted text so a value-hash check covers every byte of the rewrite
    without shipping the corpus back.
    """

    def scrub(b: pd.DataFrame) -> pd.DataFrame:
        t = b[text_col].fillna("")
        n_email = t.str.count(PII_EMAIL_RE).to_numpy(np.int64)
        t = t.str.replace(PII_EMAIL_RE, "<EMAIL>", regex=True)
        n_ip = t.str.count(PII_IPV4_RE).to_numpy(np.int64)
        t = t.str.replace(PII_IPV4_RE, "<IP>", regex=True)
        n_phone = t.str.count(PII_PHONE_RE).to_numpy(np.int64)
        t = t.str.replace(PII_PHONE_RE, "<PHONE>", regex=True)
        import hashlib

        out = pd.DataFrame(
            {
                "doc_id": b[id_col].to_numpy(np.int64),
                "n_email": n_email,
                "n_ip": n_ip,
                "n_phone": n_phone,
                "scrub_md5": [
                    hashlib.md5(s.encode("utf-8")).hexdigest() for s in t
                ],
            }
        )
        if keep_text:
            out["text"] = t.to_numpy(object)
        return out

    return ds.map_batches(scrub, batch_format="pandas")


# ----------------------------------------------------------------------------
# Token-blocklist filter
# ----------------------------------------------------------------------------


def blocklist_filter(
    ds: Dataset,
    words: frozenset[str] | set[str],
    *,
    max_ratio: float = 0.1,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Token-blocklist filter (the C4 "bad words" gate: drop documents whose
    blocklisted-token share exceeds ``max_ratio``; C4 used any-hit, Gopher a
    ratio — the ratio generalizes both, any-hit = ``max_ratio=0``).

    → ``(doc_id, n_words, n_flagged, keep)`` with ``keep = 1`` iff
    ``n_flagged <= max_ratio · n_words``. Tokens are lowercased RE2-aligned
    words (the repo's standard analyzer-free tokenization) so a DuckDB
    explode + ``IN``-list twin verifies every count.

    Scale: stateless single streaming pass; the blocklist rides the closure
    (real lists are a few thousand entries — KiBs), the per-batch count is
    one explode + one ``isin`` hash probe, no shuffle, corpus never moves.
    """
    blocked = frozenset(w.lower() for w in words)

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        texts = b[text_col].fillna("").reset_index(drop=True)
        toks = texts.str.lower().str.findall(_WS_RE)
        n_words = toks.str.len().to_numpy(np.int64)
        ex = toks.explode().dropna()
        n_flagged = np.zeros(len(texts), dtype=np.int64)
        if len(ex):
            hits = ex[ex.isin(blocked)].groupby(level=0).size()
            n_flagged[hits.index.to_numpy()] = hits.to_numpy()
        keep = (n_flagged <= max_ratio * n_words).astype(np.int64)
        return pd.DataFrame(
            {
                id_col: b[id_col].to_numpy(np.int64),
                "n_words": n_words,
                "n_flagged": n_flagged,
                "keep": keep,
            }
        )

    return ds.map_batches(flag, batch_format="pandas")


# ----------------------------------------------------------------------------
# Temperature-scaled domain mixing
# ----------------------------------------------------------------------------


def domain_mix(
    ds: Dataset,
    *,
    group_col: str = "lang",
    budget: int = 200,
    temperature: float = 0.5,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """Deterministic temperature-mixed document selection →
    (group, doc_id, n_alloc) with Σ n_alloc distinct groups' quotas = budget.

    p_g ∝ c_g^τ over per-group token counts c_g; quotas are apportioned by
    the largest-remainder method (floor(budget·p_g) base seats, leftovers to
    the largest fractional remainders, ties broken by group name) — integer
    seats, no RNG, SQL-replayable. Each group's quota is filled with its
    docs of smallest md5-low64(doc_id), carried as two int64 halves so the
    uint64 order is exact at any id.

    Scale: pass 1 ships ≤|groups| rows per batch through one tiny groupby;
    the allocation table (|groups| rows) broadcasts in the closure; pass 2
    pre-filters each batch to its local per-group quota before the one
    per-group shuffle — global top-n ⊆ union of per-batch top-n.
    """
    from ray.data.aggregate import Sum

    from .dedup import _md5_hash64

    def count_tokens(b: pd.DataFrame) -> pd.DataFrame:
        n = b[text_col].fillna("").str.count(_WS_RE).to_numpy(np.int64)
        g = pd.DataFrame({group_col: b[group_col], "c": n})
        out = g.groupby(group_col, sort=False, observed=True)["c"].sum()
        return pd.DataFrame(
            {group_col: out.index, "c": out.to_numpy(np.int64)}
        )

    cnt = (
        ds.map_batches(count_tokens, batch_format="pandas")
        .groupby(group_col)
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
        .sort_values(group_col)
        .reset_index(drop=True)
    )  # ≤ |groups| rows — driver-safe at any corpus size

    # largest-remainder apportionment on MICRO-quantized quotas: the float64
    # pow/divide runs in the same operation order as the SQL twin, then the
    # quota is rounded to integer micro-seats BEFORE floor/remainder — so a
    # last-ulp summation-order difference between numpy and DuckDB cannot
    # flip a seat, and remainder ties are broken in exact integers
    cw = np.power(cnt["c"].to_numpy(np.float64), temperature)
    quota = budget * (cw / cw.sum())
    qm = _round_away(quota * 1e6).astype(np.int64)
    base = qm // 1_000_000
    rem = qm % 1_000_000
    leftover = max(0, int(budget - base.sum()))
    seat_rank = (
        pd.DataFrame({"g": cnt[group_col], "rem": rem})
        .sort_values(["rem", "g"], ascending=[False, True], kind="mergesort")
        .index.to_numpy()
    )
    n_alloc = base.copy()
    n_alloc[seat_rank[:leftover]] += 1
    alloc = dict(zip(cnt[group_col], (int(x) for x in n_alloc)))

    def local_topn(b: pd.DataFrame) -> pd.DataFrame:
        b = b.reset_index(drop=True)
        hs = [_md5_hash64(str(int(i))) for i in b[id_col]]
        out = pd.DataFrame(
            {
                group_col: b[group_col],
                id_col: b[id_col].astype("int64"),
                "h_hi": pd.Series([h >> 32 for h in hs], dtype="int64"),
                "h_lo": pd.Series([h & 0xFFFFFFFF for h in hs], dtype="int64"),
            }
        )
        out = out.sort_values(["h_hi", "h_lo", id_col], kind="mergesort")
        cc = out.groupby(group_col, sort=False, observed=True).cumcount()
        return out[cc.to_numpy() < out[group_col].map(alloc).to_numpy()]

    def group_topn(g: pd.DataFrame) -> pd.DataFrame:
        n = alloc.get(g[group_col].iloc[0], 0)
        g = g.sort_values(["h_hi", "h_lo", id_col], kind="mergesort").head(n)
        out = g[[group_col, id_col]].copy()
        out["n_alloc"] = np.int64(n)
        return out

    picked = (
        ds.map_batches(local_topn, batch_format="pandas")
        .groupby(group_col)
        .map_groups(group_topn, batch_format="pandas")
        .to_pandas()
    )
    return picked.sort_values([group_col, id_col]).reset_index(drop=True)


# ----------------------------------------------------------------------------
# One-pass pairwise feature correlation (sufficient statistics)
# ----------------------------------------------------------------------------


def feature_corr(ds: Dataset, cols: list[str]) -> pd.DataFrame:
    """Pearson correlation for every ordered pair of integer columns →
    (feat_x, feat_y, n, sum_x, sum_y, sum_xy, corr_micros), one row per
    i<j pair, computed from EXACT int64 sufficient statistics.

    One streaming pass: each batch emits one partial row per pair
    (n, Σx, Σy, Σx², Σy², Σxy — all integer, all exact), one tiny
    groupby(pair) reduces them (|pairs| rows total cross the wire), and the
    driver finishes with the textbook formula in float64 —
    corr = (n·Σxy − Σx·Σy) / sqrt((n·Σx² − Σx²ᵗᵒᵗ)·(n·Σy² − Σy²ᵗᵒᵗ)) —
    in the same operation order as the SQL twin, rounded half-away to
    micros. int64 partials hold to ~10¹² docs of 10³-scale features; past
    that the same pattern runs on float64 partials (documented tradeoff).
    """
    from itertools import combinations

    from ray.data.aggregate import Sum

    pairs = list(combinations(cols, 2))

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        vals = {c: b[c].to_numpy(np.int64) for c in cols}
        for cx, cy in pairs:
            x, y = vals[cx], vals[cy]
            rows.append(
                {
                    "pair": f"{cx}|{cy}",
                    "n": np.int64(len(x)),
                    "sum_x": x.sum(),
                    "sum_y": y.sum(),
                    "sum_xx": (x * x).sum(),
                    "sum_yy": (y * y).sum(),
                    "sum_xy": (x * y).sum(),
                }
            )
        return pd.DataFrame(rows)

    agg = (
        ds.map_batches(partials, batch_format="pandas")
        .groupby("pair")
        .aggregate(
            *(Sum(c, alias_name=c)
              for c in ("n", "sum_x", "sum_y", "sum_xx", "sum_yy", "sum_xy"))
        )
        .to_pandas()
    )  # |pairs| rows
    n = agg["n"].to_numpy(np.float64)
    sx = agg["sum_x"].to_numpy(np.float64)
    sy = agg["sum_y"].to_numpy(np.float64)
    sxx = agg["sum_xx"].to_numpy(np.float64)
    syy = agg["sum_yy"].to_numpy(np.float64)
    sxy = agg["sum_xy"].to_numpy(np.float64)
    # zero-variance feature (or n<2) ⇒ correlation undefined; define it as 0
    # on both sides (the SQL twin carries the same CASE guard)
    den2 = (n * sxx - sx * sx) * (n * syy - sy * sy)
    num = n * sxy - sx * sy
    corr = np.divide(num, np.sqrt(den2), where=den2 > 0,
                     out=np.zeros_like(num))
    out = pd.DataFrame(
        {
            "feat_x": agg["pair"].str.split("|").str[0],
            "feat_y": agg["pair"].str.split("|").str[1],
            "n": agg["n"].astype("int64"),
            "sum_x": agg["sum_x"].astype("int64"),
            "sum_y": agg["sum_y"].astype("int64"),
            "sum_xy": agg["sum_xy"].astype("int64"),
            "corr_micros": _round_away(corr * 1e6).astype(np.int64),
        }
    )
    return out.sort_values(["feat_x", "feat_y"]).reset_index(drop=True)


def split_assign(
    ds: Dataset,
    *,
    id_col: str = "doc_id",
    test_pct: int = 10,
    val_pct: int = 10,
) -> Dataset:
    """Deterministic train/val/test assignment → (id, bucket, split):
    ``bucket = md5low64(str(id)) % 100`` (DuckDB ``md5_number_lower``
    byte-for-byte, so the draw is SQL-verifiable and exactly replayable),
    buckets [0, test_pct) → test, [test_pct, test_pct+val_pct) → val,
    rest → train. Pure streaming map — the standard corpus-split primitive
    (stable under reshuffles, re-runs, and corpus growth: a document's
    split never changes)."""
    from .dedup import _md5_hash64

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].astype("int64")
        h = np.fromiter(
            (_md5_hash64(str(int(i))) for i in ids), dtype=np.uint64, count=len(b)
        )
        bucket = (h % np.uint64(100)).astype(np.int64)
        split = np.select(
            [bucket < test_pct, bucket < test_pct + val_pct],
            ["test", "val"],
            default="train",
        )
        return pd.DataFrame({id_col: ids.to_numpy(), "bucket": bucket, "split": split})

    return ds.map_batches(assign, batch_format="pandas")


#: Gopher's stopword-presence list (Rae et al. 2021, appendix A1.1)
GOPHER_STOPS = frozenset("the be to of and that have with".split())


def gopher_gate(
    ds: Dataset,
    *,
    min_words: int = 50,
    max_words: int = 100_000,
    min_mean_wl: int = 3,
    max_mean_wl: int = 10,
    stops: frozenset[str] | set[str] = GOPHER_STOPS,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Gopher document-quality gate (Rae et al. 2021, Table A1 — the rule
    set MassiveText/most LLM corpora filter with), first-failing-rule
    reporting like ``stages/corpus.py curate``:

      1. word count in [min_words, max_words]
      2. mean word length in [min_mean_wl, max_mean_wl]
      3. symbol-to-word ratio ('#' chars + '...' runs) < 0.1
      4. >= 80% of words contain an alphabetic character
      5. >= 2 distinct Gopher stopwords present

    Every threshold is evaluated in EXACT integer arithmetic (mean word
    length in [3,10] <=> 3*n_words <= word_chars <= 10*n_words; alpha >= 80%
    <=> 5*n_alpha >= 4*n_words; symbols < 10% <=> 10*n_sym < n_words), so the
    SQL twin cannot diverge on a float knife edge. (The repetition rules of
    the same table live in ``stages/repetition.py``.) One streaming pass,
    no shuffle."""

    def gate(b: pd.DataFrame) -> pd.DataFrame:
        texts = b[text_col].fillna("").reset_index(drop=True)
        toks = texts.str.lower().str.findall(_WS_RE)
        n_words = toks.str.len().to_numpy(np.int64)
        ex = toks.explode().dropna()
        word_chars = np.zeros(len(texts), dtype=np.int64)
        n_alpha = np.zeros(len(texts), dtype=np.int64)
        n_stops = np.zeros(len(texts), dtype=np.int64)
        if len(ex):
            wl = ex.str.len().groupby(level=0).sum()
            word_chars[wl.index.to_numpy()] = wl.to_numpy(np.int64)
            al = ex[ex.str.contains("[a-z]", regex=True)].groupby(level=0).size()
            n_alpha[al.index.to_numpy()] = al.to_numpy(np.int64)
            st = ex[ex.isin(frozenset(stops))].groupby(level=0).nunique()
            n_stops[st.index.to_numpy()] = st.to_numpy(np.int64)
        n_sym = (
            texts.str.count("#").to_numpy(np.int64)
            + texts.str.count(r"\.\.\.").to_numpy(np.int64)
        )
        reasons = np.full(len(texts), "", dtype=object)
        ok = np.ones(len(texts), dtype=bool)

        def fail(mask: np.ndarray, reason: str) -> None:
            hit = mask & ok
            reasons[hit] = reason
            ok[hit] = False

        fail((n_words < min_words) | (n_words > max_words), "word_count")
        fail(
            (word_chars < min_mean_wl * n_words)
            | (word_chars > max_mean_wl * n_words),
            "mean_word_length",
        )
        fail(10 * n_sym >= n_words, "symbol_ratio")
        fail(5 * n_alpha < 4 * n_words, "alpha_fraction")
        fail(n_stops < 2, "stopword_presence")
        return pd.DataFrame(
            {
                id_col: b[id_col].to_numpy(np.int64),
                "n_words": n_words,
                "word_chars": word_chars,
                "n_sym": n_sym,
                "n_alpha": n_alpha,
                "n_stops": n_stops,
                "keep": ok.astype(np.int64),
                "fail_reason": pd.Series(reasons, dtype="object"),
            }
        )

    return ds.map_batches(gate, batch_format="pandas")
