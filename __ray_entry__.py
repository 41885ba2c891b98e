"""Driver contract for the Ray-Data-native search-engine-framework rebuild.

``queries()`` exposes one callable per implemented pipeline/operator from
SURVEY.md §2 (plus the training-data additions); ``oracle_sql()`` gives the
DuckDB-equivalent SQL for every SQL-expressible entry. Float columns are
compared as integer micros (``*_micros = round(x·10⁶)``) so value-hashes are
robust to sub-ulp accumulation-order differences between engines.

Ray is initialised by the driver BEFORE this module is imported — nothing
here calls ``ray.init``/``ray.shutdown``.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd

# ----------------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------------

_BM25_TERMS = ("spark", "join")
_K1, _B = 1.2, 0.75


def _sf_key(sf_dir: str) -> str:
    """Per-corpus cache key: every derived /tmp fixture of sf_dir lives
    under it, so the same corpus reuses its warm caches across runs."""
    return hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:12]


def _docs_index(sf_dir: str) -> str:
    """Build (once, resumable) a plain-analyzer index over sf_dir/documents —
    whitespace/lowercase analysis, so DuckDB regexp_extract_all
    (RE2 [^ \\t\\n\\f\\r]+ class) oracles can reproduce the scoring exactly."""
    from search_engine_framework_ray.functions.analysis import PLAIN_ANALYZER
    from search_engine_framework_ray.pipelines.build_index import (
        PlainSource,
        build_index,
    )

    idx = f"/tmp/sefr_indices/{_sf_key(sf_dir)}"
    # always call build_index: its metadata fast-path makes an up-to-date
    # index a no-op, while a stale /tmp cache (older corpus file, older code
    # without fwd.parquet, …) is detected and rebuilt instead of reused
    build_index(
        os.path.join(sf_dir, "documents.parquet"),
        idx,
        analyzer=PLAIN_ANALYZER,
        plain_source=PlainSource(),
        num_shards=4,
    )
    return idx


# KStem probe suffix appended to every fixture doc so the kstem_term_stats
# entry exercises each KStem rule family (-ies revert-to-ie, e-restoration,
# consonant undoubling, irregular exceptions, dictionary passthrough, short /
# non-alpha passthrough) regardless of the fixture vocabulary. Both the engine
# corpus derivation and the SQL twin append the SAME suffix.
_KSTEM_PROBE = (
    "movies ties pies cookies flies stories zombies churches horses classes "
    "cats tried cried stopped wanted cared saved uses running making caring "
    "children mice series species police glass i42"
)


def _kstem_base(sf_dir: str) -> str:
    return f"/tmp/sefr_kstem/{_sf_key(sf_dir)}"


def _kstem_corpus(sf_dir: str) -> str:
    """Derive (once, fingerprint-resumable) the KStem probe corpus:
    ``text || ' ' || _KSTEM_PROBE`` per doc (SQL twin: the same concat)."""
    src = os.path.join(sf_dir, "documents.parquet")
    base = _kstem_base(sf_dir)
    out_dir, meta_p = os.path.join(base, "corpus"), os.path.join(base, "corpus.meta")
    st = os.stat(src)
    marker = f"{st.st_size}:{st.st_mtime_ns}:kstem_v1:{_KSTEM_PROBE}"
    if os.path.isdir(out_dir) and os.path.exists(meta_p):
        with open(meta_p) as fh:
            if fh.read() == marker:
                return out_dir
    import shutil

    import ray.data

    def aug(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": b["doc_id"].to_numpy(), "text": b["text"] + " " + _KSTEM_PROBE}
        )

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    ray.data.read_parquet(src, columns=["doc_id", "text"]).map_batches(
        aug, batch_format="pandas"
    ).write_parquet(out_dir)
    with open(meta_p, "w") as fh:
        fh.write(marker)
    return out_dir


def _kstem_index(sf_dir: str) -> str:
    """KStem-analyzed index (the reference's configured stemmer,
    QryEval.java:61-65 → KSTEM) over the probe corpus; resumable. The index
    path carries a LEXICON fingerprint: ``AnalyzerConfig.key()`` can't see
    dictionary edits, so without it a lexicon change would silently reuse a
    stale index while the SQL twin stems with the new rules."""
    from search_engine_framework_ray.functions.analysis import AnalyzerConfig
    from search_engine_framework_ray.functions.kstem import _DICT, _EXCEPTIONS
    from search_engine_framework_ray.pipelines.build_index import (
        PlainSource,
        build_index,
    )

    lex = hashlib.sha1(
        (" ".join(sorted(_DICT)) + "|" + repr(sorted(_EXCEPTIONS.items()))).encode()
    ).hexdigest()[:10]
    idx = os.path.join(_kstem_base(sf_dir), f"idx_{lex}")
    build_index(
        _kstem_corpus(sf_dir),
        idx,
        analyzer=AnalyzerConfig(lowercase=True, stopword_removal=False, stemmer="kstem"),
        plain_source=PlainSource(),
        num_shards=4,
    )
    return idx


# The LeToR full-feature entry needs a FOUR-field index (the reference
# scores body/title/url/inlink separately, LearnToRank.java:358-445). The
# plain corpus has only text, so the driver-visible fields are DERIVED
# deterministically from it by token slices — reproducible in SQL with list
# slicing over the same RE2 tokenization, which is what makes every field
# feature oracle-checkable. Slice bounds (0-based, Python half-open):
_LETOR_TITLE = (0, 6)  # words[0:6]  → title field (always ≥6 words ⇒ present)
_LETOR_URLF = (6, 10)  # words[6:10] → url field (present: docs have ≥10 words)
_LETOR_INLINK = (10, 16)  # words[10:16] → inlink field (EMPTY for 10-word docs
#                            → missing field → the reference's NaN triple)
_WS_RE = re.compile(r"[^ \t\n\f\r]+")  # == RE2/DuckDB \S


def _letor_base(sf_dir: str) -> str:
    return f"/tmp/sefr_letor/{_sf_key(sf_dir)}"


def _letor_corpus(sf_dir: str) -> str:
    """Derive (once, fingerprint-resumable) the multi-field corpus parquet:
    (doc_id, text, title, urltext, inlinktext)."""
    src = os.path.join(sf_dir, "documents.parquet")
    base = _letor_base(sf_dir)
    out_dir, meta_p = os.path.join(base, "corpus"), os.path.join(base, "corpus.meta")
    st = os.stat(src)
    marker = f"{st.st_size}:{st.st_mtime_ns}:fields_v1:{_LETOR_TITLE}{_LETOR_URLF}{_LETOR_INLINK}"
    if os.path.isdir(out_dir) and os.path.exists(meta_p):
        with open(meta_p) as fh:
            if fh.read() == marker:
                return out_dir
    import shutil

    import ray.data

    def derive(b: pd.DataFrame) -> pd.DataFrame:
        words = [_WS_RE.findall(t) for t in b["text"]]
        cols = {"doc_id": b["doc_id"].to_numpy(), "text": b["text"].to_numpy()}
        for name, (lo, hi) in (
            ("title", _LETOR_TITLE), ("urltext", _LETOR_URLF), ("inlinktext", _LETOR_INLINK),
        ):
            cols[name] = [" ".join(w[lo:hi]) for w in words]
        return pd.DataFrame(cols)

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(base, exist_ok=True)
    ds = ray.data.read_parquet(src, columns=["doc_id", "text"])
    ds.map_batches(derive, batch_format="pandas").write_parquet(out_dir)
    with open(meta_p, "w") as fh:
        fh.write(marker)
    return out_dir


def _letor_index(sf_dir: str) -> str:
    """Four-field plain-analyzer index over the derived corpus (resumable —
    build_index's metadata fast-path makes repeat calls a no-op)."""
    from search_engine_framework_ray.functions.analysis import PLAIN_ANALYZER
    from search_engine_framework_ray.pipelines.build_index import (
        PlainSource,
        build_index,
    )

    corpus = _letor_corpus(sf_dir)
    idx = os.path.join(_letor_base(sf_dir), "idx")
    build_index(
        corpus,
        idx,
        analyzer=PLAIN_ANALYZER,
        plain_source=PlainSource(
            title_col="title", url_field_col="urltext", inlink_col="inlinktext"
        ),
        num_shards=4,
    )
    return idx


def _hits_frame(res) -> pd.DataFrame:
    """One query's ``(url, score, docid)`` hits as a (doc_id, score) frame;
    the fixture's external id is ``doc<doc_id>``."""
    return pd.DataFrame(
        {
            "doc_id": np.array([int(u[3:]) for u, _, _ in res], dtype=np.int64),
            "score": np.array([s for _, s, _ in res], dtype=np.float64),
        }
    )


def _run(sf_dir: str, qtext: str, model: str, k: int = 100):
    from search_engine_framework_ray.query.executor import run_queries
    from search_engine_framework_ray.query.models import ModelParams

    idx = _docs_index(sf_dir)
    return _hits_frame(run_queries(idx, [("q", qtext)], ModelParams(model=model), k=k)["q"])


def _round_away(v: np.ndarray) -> np.ndarray:
    """Ties-away-from-zero, matching DuckDB/SQL ``round()`` — np.round's
    banker's rounding would differ on exact .5 values."""
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.floor(np.abs(v) + 0.5)


def _micros(x) -> "pd.Series":
    return pd.Series(_round_away(np.asarray(x, dtype=np.float64) * 1_000_000)).astype("int64")


def _micros_top(df: pd.DataFrame, n: int | None) -> pd.DataFrame:
    """The shared ranking cut: order by (score_micros desc, doc_id asc) —
    ``score`` micros-rounded first when the frame has no score_micros —
    and keep the top n (all rows when n is None)."""
    if "score_micros" not in df:
        df = df.assign(score_micros=_micros(df["score"]).to_numpy())
    df = df.sort_values(["score_micros", "doc_id"], ascending=[False, True], kind="mergesort")
    return (df if n is None else df.head(n)).reset_index(drop=True)


def _flagship_bm25_over(idx: str, n: int = 20, k: int = 100) -> pd.DataFrame:
    """The flagship BM25 query (same terms/shape as `bm25_topk`) over an
    arbitrary on-disk index: top-n (doc_id, score_micros)."""
    from search_engine_framework_ray.query.executor import run_queries
    from search_engine_framework_ray.query.models import ModelParams

    res = run_queries(idx, [("q", " ".join(_BM25_TERMS))], ModelParams(model="BM25"), k=k)["q"]
    return _micros_top(_hits_frame(res), n)[["doc_id", "score_micros"]]


def _full_k(sf_dir: str) -> int:
    """A top-k covering every doc of sf_dir: a re-sort on the micros key
    after the engine's float cut can then never miss a doc that a tie group
    straddling the cut ranks inside."""
    import pyarrow.parquet as papq

    return max(10_000, papq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows)


# ----------------------------------------------------------------------------
# fulltext pipelines (reference operator surface, SURVEY.md §2.3-2.5)
# ----------------------------------------------------------------------------

_T0, _T1 = _BM25_TERMS


def _vocab_query(expand: str, *args, **kw) -> "Callable[[str], str]":
    """Query text expanded over an index's vocabulary by the
    ``query/spell.py`` rewriter ``expand`` (one streaming termstats pass)."""

    def text(idx: str) -> str:
        import ray.data

        from search_engine_framework_ray.query import spell

        ts = ray.data.read_parquet(os.path.join(idx, "termstats"))
        return getattr(spell, expand)(ts, *args, **kw)

    return text


# Single-query ranked entries over the plain docs index, one row each:
# (name, query text — or idx → text —, retrieval model, k, output shape,
# output column). Shapes: "top" = top-20 (doc_id, column) by the micros
# ranking key; "int" = the score as a per-doc integer column; "micros" =
# per-doc micros score; both doc_id-ordered; "docs" = doc_id membership in
# the engine's url order.
_RANKED_ENTRIES = [
    # #SUM BM25 bag-of-words top-20 (QryopSlScore/QryopSlSum semantics).
    ("bm25_topk", f"{_T0} {_T1}", "BM25", 100, "top", "score_micros"),
    # PL2 divergence-from-randomness top-20 (Amati & van Rijsbergen TOIS
    # 2002 — Poisson randomness, Laplace after-effect, tf-normalization 2).
    # This is the §2.9 extension-surface demonstration: the NEW retrieval
    # model plugged in as one MODEL_NAMES entry + one Evaluator._eval_score
    # branch + one parser default-wrap line (the reference's
    # RetrievalModel.java:11-28 subclass + QryopSlScore.java:57-72 branch
    # seam), and the whole distributed query path — parser wrap, global-stats
    # prepass, mmap'd shard actors, k·S heap merge — serves it unchanged.
    ("pl2_topk", f"{_T0} {_T1}", "PL2", 100, "top", "score_micros"),
    # RankedBoolean #AND: intersection, score=min(tf) (QryopSlAnd).
    ("ranked_and", f"#AND({_T0} {_T1})", "RankedBoolean", 10_000, "int", "tf_min"),
    # RankedBoolean #OR: union, score=max(tf) (QryopSlOr).
    ("ranked_or", f"#OR({_T0} {_T1})", "RankedBoolean", 10_000, "int", "tf_max"),
    # #ANDNOT boolean exclusion under RankedBoolean — the operator-
    # registry extension exercised (ast.AndNotOp + one parser branch + one
    # kernel, the reference's Qryop subclass seam; the reference ships no
    # NOT). Docs matching #OR(spark join) with every 'slow' doc removed;
    # survivors keep the #OR score (max tf).
    ("ranked_andnot", f"#ANDNOT(#OR({_T0} {_T1}) slow)", "RankedBoolean", 10_000, "int",
     "tf_max"),
    # UnrankedBoolean #AND membership, url-order (QryEval.java:389-412).
    ("unranked_and", f"#AND({_T0} {_T1})", "UnrankedBoolean", 10_000, "docs", "doc_id"),
    # #NEAR/1(spark join): adjacency matches, score=tf under RankedBoolean
    # (QryopIlNear cursor semantics).
    ("near1_tf", "#NEAR/1(spark join)", "RankedBoolean", 10_000, "int", "tf"),
    # #NEAR/2 membership (UnrankedBoolean).
    ("near2_docs", "#NEAR/2(spark join)", "UnrankedBoolean", 10_000, "docs", "doc_id"),
    # #WINDOW/3 membership: both terms within an unordered 3-token window.
    # (Reference QryopIlWindow; SQL oracle via position self-join.)
    ("window_docs", "#WINDOW/3(spark join)", "UnrankedBoolean", 10_000, "docs", "doc_id"),
    # #SYN(spark join): per-doc merged positions, tf = total occurrences
    # (QryopIlSyn), RankedBoolean score=tf.
    ("syn_tf", "#SYN(spark join)", "RankedBoolean", 10_000, "int", "tf"),
    # Indri #AND(spark join): union sweep, score = ∏ pᵢ^(1/k) with
    # missing-term default smoothing (QryopSlAnd.java:69-134, 297-319).
    ("indri_and", f"#AND({_T0} {_T1})", "Indri", 10_000, "micros", "score_micros"),
    # Indri #WAND(0.7 spark 0.3 join): ∏ pᵢ^(wᵢ/Σw) (QryopSlWand.java).
    ("indri_wand", f"#WAND(0.7 {_T0} 0.3 {_T1})", "Indri", 10_000, "micros", "score_micros"),
    # Indri #WSUM(0.7 spark 0.3 join): Σ (wᵢ/Σw)·pᵢ (QryopSlWsum.java).
    ("indri_wsum", f"#WSUM(0.7 {_T0} 0.3 {_T1})", "Indri", 10_000, "micros", "score_micros"),
    # Sequential dependence model (Metzler & Croft 2005) expressed in the
    # reference's own operator algebra: ``#WSUM(0.8 #AND(t0 t1) 0.1
    # #NEAR/1(t0 t1) 0.1 #WINDOW/8(t0 t1))`` under Indri — unigram evidence
    # plus the ordered-bigram and unordered-window-8 dependence features,
    # every composite leaf smoothed with its own collection ctf from the
    # distributed stats pre-pass. Exercises score-op nesting (#AND inside
    # #WSUM) and IL leaves (#NEAR/#WINDOW) scored as Indri terms — the SDM is
    # the classic term-dependence ranker this operator set exists to express
    # (QryopSlWsum.java + QryopIlNear/QryopIlWindow composition).
    ("sdm_topk",
     f"#WSUM(0.8 #AND({_T0} {_T1}) 0.1 #NEAR/1({_T0} {_T1}) 0.1 #WINDOW/8({_T0} {_T1}))",
     "Indri", 100_000, "micros", "score_micros"),
    # Wildcard term query (query/spell.py ``wildcard_query``): ``s*``
    # expands over the index vocabulary (one streaming termstats pass, only
    # matching terms cross; Lucene maxClauseCount-style loud bound) and
    # rewrites to ``#SYN(...)`` — whose position merge makes the per-doc tf
    # exactly the count of prefix-matching tokens, which is what the SQL
    # twin counts with LIKE.
    ("wildcard_tf", _vocab_query("wildcard_query", "s"), "RankedBoolean", 100_000, "int",
     "tf"),
    # Fuzzy term query (query/spell.py ``fuzzy_query`` — Lucene
    # FuzzyQuery): ``scam~1`` expands over the index vocabulary (one
    # streaming termstats pass; the SymSpell 1-delete prefilter is
    # exact-recall at distance 1, exact-Levenshtein verified in-batch) and
    # rewrites to ``#SYN(...)`` — the typo recovers the real term and the
    # per-doc tf is exactly the count of tokens within one edit, which is
    # what the SQL twin counts with levenshtein().
    ("fuzzy_tf", _vocab_query("fuzzy_query", "scam", max_distance=1), "RankedBoolean",
     100_000, "int", "tf"),
]


def _ranked_entry(query, model: str, k: int, shape: str, col: str):
    """The runner behind one ``_RANKED_ENTRIES`` row."""

    def run(sf_dir: str) -> pd.DataFrame:
        text = query(_docs_index(sf_dir)) if callable(query) else query
        df = _run(sf_dir, text, model, k=k)
        if shape == "top":
            return _micros_top(df, 20)[["doc_id", col]]
        if shape == "docs":
            return df[["doc_id"]].reset_index(drop=True)
        df[col] = df["score"].astype("int64") if shape == "int" else _micros(df["score"])
        return df[["doc_id", col]].sort_values("doc_id").reset_index(drop=True)

    return run


def q_passage_bm25(sf_dir: str):
    """Passage-level BM25 (query/passage.py; Callan SIGIR'94, Liu & Croft
    SIGIR'02): rank docs by their BEST 16-token window — Σ idf·c/(c+k1)
    over within-window term counts, candidate starts = match positions,
    global df idf, constant length norm. Window scores micro-quantized
    BEFORE the per-doc argmax (ties → earliest start), global order
    (score_micros desc, doc_id) — the SQL twin replays every window with
    a positional self-join. start_pos is the engine's 0-based
    gap-preserving token offset (the twin's 1-based unnest minus one)."""
    from search_engine_framework_ray.query.passage import passage_bm25_topk

    idx = _docs_index(sf_dir)
    out = passage_bm25_topk(idx, list(_BM25_TERMS), window=16, k=10)
    out = out.rename(columns={"docid": "doc_id"})
    out.insert(0, "rank", np.arange(1, len(out) + 1, dtype=np.int64))
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out[["rank", "doc_id", "start_pos", "score_micros"]]


def q_phrase_accel(sf_dir: str):
    """Materialized phrase postings (next-word/phrase index, Williams, Zobel
    & Bahle TOIS 2004): the hot phrase ('spark join') is materialized ONCE at
    build time by the REAL analyze_positions + _near_match kernels (one
    streaming corpus pass, fingerprint-resumable, no shuffle), and the query
    becomes a single pruned metadata read. Oracle = near1_tf's SQL VERBATIM —
    the value hash proves the accelerated store indistinguishable from
    evaluating #NEAR/1 at query time."""
    from search_engine_framework_ray.functions.analysis import PLAIN_ANALYZER
    from search_engine_framework_ray.pipelines.phrases import (
        build_phrase_postings,
        phrase_tf,
    )

    store = build_phrase_postings(
        os.path.join(sf_dir, "documents.parquet"),
        f"/tmp/sefr_phrases/{_sf_key(sf_dir)}",
        [("spark", "join")],
        analyzer=PLAIN_ANALYZER,
    )
    return phrase_tf(store, "spark join")


def _tombstoned_index(sf_dir: str) -> tuple[str, int]:
    """The plain docs index rebuilt under /tmp/sefr_delidx with every 7th
    doc tombstoned (an idempotent merge); returns (index, corpus rows)."""
    import pyarrow.parquet as papq

    from search_engine_framework_ray.functions.analysis import PLAIN_ANALYZER
    from search_engine_framework_ray.pipelines.build_index import (
        PlainSource,
        build_index,
    )
    from search_engine_framework_ray.state.index_layout import write_tombstones

    idx = f"/tmp/sefr_delidx/{_sf_key(sf_dir)}"
    corpus = os.path.join(sf_dir, "documents.parquet")
    build_index(
        corpus, idx, analyzer=PLAIN_ANALYZER, plain_source=PlainSource(), num_shards=4
    )
    n = papq.read_metadata(corpus).num_rows
    write_tombstones(idx, range(0, n, 7))
    return idx, n


def q_delete_bm25(sf_dir: str):
    """Tombstone deletes — the missing third of the index lifecycle next to
    `extend_index` (adds) and `compact_index` (merges). Lucene liveDocs /
    LSM delete-list semantics: deleted docs are filtered at query time
    BEFORE the per-shard top-k cut, while collection statistics (df, ctf,
    avg_doclen) keep their pre-delete values until compaction physically
    reclaims — so surviving docs' scores are bit-unchanged. The delete set
    here is every 7th doc; the SQL twin computes full-corpus BM25 stats and
    drops deleted docs only from the ranking, proving both halves of the
    semantics under one hash."""
    idx, n = _tombstoned_index(sf_dir)
    return _flagship_bm25_over(idx, k=max(10_000, n))


def q_compact_reclaim_bm25(sf_dir: str):
    """Physical delete reclaim: ``compact_index(apply_deletes=True)`` drops
    the tombstoned docs' postings, recomputes df/ctf and collection stats
    over survivors (global termstats re-reduced from the output shards),
    and the compacted index carries no delete list — post-reclaim BM25 must
    equal a fresh build over the surviving corpus. The twin restricts EVERY
    statistic (N, df, ctf, doclen, avg_doclen) to ``doc_id % 7 <> 0`` —
    contrast with `delete_bm25`, whose query-time filtering keeps
    pre-delete stats."""
    from search_engine_framework_ray.pipelines.compact import compact_index

    idx, n = _tombstoned_index(sf_dir)
    out = f"{idx}_reclaimed"
    compact_index(idx, out, apply_deletes=True)
    return _flagship_bm25_over(out, k=max(10_000, n))


def q_impact_topk(sf_dir: str):
    """Impact-ordered quantized index (Anh & Moffat SIGIR 2005): per
    (term, doc) BM25 contributions precomputed at BUILD time with global
    stats and linearly quantized to 8-bit integer levels; the query path is
    a pruned read of the query terms' rows plus an EXACT integer sum — the
    layout behind impact-sorted posting lists and learned-sparse indexes.
    Build: one streaming tokenize pass, ONE term-bucket shuffle (bucket owns
    its terms ⇒ df local), order-free min/max bounds, one quantize pass
    (pipelines/impact.py)."""
    from search_engine_framework_ray.functions.analysis import PLAIN_ANALYZER
    from search_engine_framework_ray.pipelines.impact import (
        build_impact_index,
        impact_topk,
    )

    store = build_impact_index(
        os.path.join(sf_dir, "documents.parquet"),
        f"/tmp/sefr_impact/{_sf_key(sf_dir)}",
        analyzer=PLAIN_ANALYZER,
    )
    return impact_topk(store, list(_BM25_TERMS), k=20)


def q_cascade_rerank(sf_dir: str):
    """Two-stage ranking cascade (Wang, Lin & Metzler SIGIR 2011 — the
    production retrieve-then-rerank shape): stage 1 retrieves the depth-100
    pool with cheap flat BM25 (block-max path), stage 2 re-scores ONLY the
    pool with the expensive SDM query through score_documents (the
    score-requested-docs path — per-shard postings probes, never a
    second full-corpus evaluation). Output: the pool's top-20 in SDM order
    with each doc's stage-1 rank alongside (the cascade's audit trail)."""
    from search_engine_framework_ray.query.executor import (
        run_queries,
        score_documents,
    )
    from search_engine_framework_ray.query.models import ModelParams
    from search_engine_framework_ray.state.index_layout import load_docmap

    t0, t1 = _BM25_TERMS
    idx = _docs_index(sf_dir)
    res = run_queries(idx, [("q", f"{t0} {t1}")], ModelParams(model="BM25"), k=_full_k(sf_dir))["q"]
    pool = _micros_top(_hits_frame(res).assign(extid=[u for u, _, _ in res]), 100)
    pool["bm25_rank"] = np.arange(1, len(pool) + 1, dtype=np.int64)

    u2d, _ = load_docmap(idx)
    sdm = f"#WSUM(0.8 #AND({t0} {t1}) 0.1 #NEAR/1({t0} {t1}) 0.1 #WINDOW/8({t0} {t1}))"
    scored = score_documents(
        idx,
        [("q", sdm)],
        ModelParams(model="Indri"),
        {"q": [u2d[e] for e in pool["extid"]]},
    )
    d2e = dict(zip((u2d[e] for e in pool["extid"]), pool["doc_id"]))
    scored["doc_id"] = scored["docid"].map(d2e).astype("int64")
    out = scored.merge(pool[["doc_id", "bm25_rank"]], on="doc_id")
    out["sdm_micros"] = _micros(out["score"])
    out = out.sort_values(
        ["sdm_micros", "doc_id"], ascending=[False, True], kind="mergesort"
    ).head(20)
    out["rnk"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out[["rnk", "doc_id", "sdm_micros", "bm25_rank"]].reset_index(drop=True)


def q_search_after(sf_dir: str):
    """Cursor pagination (search_after): page 2 of the BM25 ranking fetched
    by the CURSOR PREDICATE ``(score, id) < (cursor_score, cursor_id)`` in
    the shared (score_micros DESC, doc_id ASC) order — never by offset.
    Offset paging at depth d costs every shard d rows per page; a cursor
    bounds each shard at page_size rows regardless of depth (in production
    the predicate pushes into the per-shard top-k; here it is applied to
    the ranking so the hash pins the exact predicate semantics, boundary
    ties included). The cursor is page 1's last row."""
    df = _flagship_bm25_over(_docs_index(sf_dir), n=None, k=_full_k(sf_dir))
    page1 = df.head(10)
    c_score = int(page1["score_micros"].iloc[-1])
    c_doc = int(page1["doc_id"].iloc[-1])
    after = df[
        (df["score_micros"] < c_score)
        | ((df["score_micros"] == c_score) & (df["doc_id"] > c_doc))
    ].head(10)
    after = after.reset_index(drop=True)
    after.insert(
        0, "rnk", pd.Series(range(11, 11 + len(after)), dtype="int64")
    )
    return after[["rnk", "doc_id", "score_micros"]]


def q_term_stats(sf_dir: str):
    """Global per-term df/ctf from the build-time termstats store (the salted
    groupby aggregate, SURVEY.md §2.7)."""
    import glob

    import pyarrow.parquet as pq

    idx = _docs_index(sf_dir)
    frames = [
        pq.read_table(p).to_pandas()
        for p in sorted(glob.glob(os.path.join(idx, "termstats", "bucket=*.parquet")))
    ]
    df = pd.concat(frames)
    df = df[df["field"] == "body"][["term", "df", "ctf"]]
    return df.sort_values("term", kind="mergesort").reset_index(drop=True)


def q_kstem_term_stats(sf_dir: str):
    """Global per-term df/ctf from a KStem-analyzed index — the stemmer the
    reference actually configures (EnglishAnalyzerConfigurable.java:154-157
    via QryEval.java:61-65). The probe corpus guarantees every KStem rule
    family is under the driver hash (-ies revert-to-ie: movies→movie,
    ties→tie; e-restoration: cared→care; undoubling: stopped→stop;
    exceptions: children→child; dictionary passthrough: series/species).
    The SQL twin re-implements the dictionary-guided Krovetz rules in
    DuckDB over the embedded head-word lexicon (functions/kstem.py)."""
    import glob

    import pyarrow.parquet as pq

    idx = _kstem_index(sf_dir)
    frames = [
        pq.read_table(p).to_pandas()
        for p in sorted(glob.glob(os.path.join(idx, "termstats", "bucket=*.parquet")))
    ]
    df = pd.concat(frames)
    df = df[df["field"] == "body"][["term", "df", "ctf"]]
    return df.sort_values("term", kind="mergesort").reset_index(drop=True)


def q_postings_export(sf_dir: str):
    """Full index-integrity check: decode EVERY body posting of the plain
    index back into a (term, doc_id, tf) table (pipelines/export.py — one
    decode task per shard) and hash-compare it against direct SQL
    tokenization. Strictly stronger than `term_stats` (which only checks
    the df/ctf sums): this certifies the postings content — docids, term
    frequencies, and the codec round-trip — byte-for-byte."""
    from search_engine_framework_ray.pipelines.export import export_postings

    idx = _docs_index(sf_dir)
    out = export_postings(idx, field="body").to_pandas()
    out["doc_id"] = out["url"].str[3:].astype("int64")
    out["tf"] = out["tf"].astype("int64")
    return (
        out[["term", "doc_id", "tf"]]
        .sort_values(["term", "doc_id"], kind="mergesort")
        .reset_index(drop=True)
    )


def q_doclen_stats(sf_dir: str):
    """Per-doc body doclen from the index doclens sidecar (DocLengthStore
    equivalent)."""
    import glob

    import pyarrow.parquet as pq

    idx = _docs_index(sf_dir)
    frames = [
        pq.read_table(p, columns=["docid", "len_body"]).to_pandas()
        for p in sorted(glob.glob(os.path.join(idx, "shards", "shard=*", "doclens.parquet")))
    ]
    df = pd.concat(frames).rename(columns={"docid": "doc_id", "len_body": "doclen"})
    return df.sort_values("doc_id").reset_index(drop=True)


# ----------------------------------------------------------------------------
# training-data pipelines (dedup / ANN / text analysis / windows)
# ----------------------------------------------------------------------------


def q_fb_expansion(sf_dir: str):
    """Pseudo-relevance-feedback expansion terms (QryExpansion.java:137-221):
    Indri initial ranking (top fbDocs) → per-top-doc term scoring
    ``(tf/dl)·docScore·ln(C/ctf)`` (fbMu=0) → top fbTerms; SQL oracle
    reproduces the full flow over the plain-analyzer token stream."""
    from search_engine_framework_ray.query.expansion import (
        FeedbackParams,
        expansion_terms,
    )
    from search_engine_framework_ray.query.executor import run_queries
    from search_engine_framework_ray.query.models import ModelParams

    idx = _docs_index(sf_dir)
    fb = FeedbackParams(fb_docs=10, fb_terms=10, fb_mu=0.0)
    first = run_queries(idx, [("q", " ".join(_BM25_TERMS))], ModelParams(model="Indri"), k=fb.fb_docs)
    top = {"q": [(docid, score) for (_, score, docid) in first["q"]]}
    terms = expansion_terms(idx, top, fb)["q"]
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(terms) + 1, dtype=np.int64),
            "term": [t for t, _ in terms],
            "weight_micros": _micros([w for _, w in terms]),
        }
    )


def _trec_parsed_frame(parsed) -> pd.DataFrame:
    """Parsed TREC ``(extid, score)`` rows → (extid, score_micros) in
    (score_micros desc, extid) order."""
    df = pd.DataFrame(
        {
            "extid": [e for e, _ in parsed],
            "score_micros": _micros([s for _, s in parsed]),
        }
    )
    return df.sort_values(
        ["score_micros", "extid"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)


def q_trec_roundtrip(sf_dir: str):
    """TREC writer → reader roundtrip under the driver hash
    (QryEval.java:268-318 format; QryExpansion.java:240-286 reader): the
    BM25 top-20 run is WRITTEN as a TREC file (repr(float) scores — exact
    roundtrip) and parsed back, and the parsed (extid, score) rows must
    hash-match the SQL ranking — a writer or parser that corrupts any
    field (extid rendering, rank sequence, score text) fails here."""
    from search_engine_framework_ray.query.executor import run_queries
    from search_engine_framework_ray.query.models import ModelParams
    from search_engine_framework_ray.sources.trec import (
        read_trec_run,
        write_trec_run,
    )

    idx = _docs_index(sf_dir)
    res = run_queries(
        idx, [("q", " ".join(_BM25_TERMS))], ModelParams(model="BM25"), k=20
    )
    os.makedirs("/tmp/sefr_trec", exist_ok=True)
    path = os.path.join(
        "/tmp/sefr_trec",
        _sf_key(sf_dir) + ".teIn",
    )
    write_trec_run(path, res, ["q"], True, k=20)
    parsed = read_trec_run(path)["q"]
    # the writer's rank column must be the contiguous 1..n sequence — checked
    # here (the parsed tuple drops it, so the hash can't)
    with open(path) as f:
        ranks = [int(line.split()[3]) for line in f if line.strip()]
    assert ranks == list(range(1, len(parsed) + 1)), "writer rank sequence broken"
    return _trec_parsed_frame(parsed)


def q_cli_query(sf_dir: str):
    """Reference main flow end-to-end through the CLI (QryEval.java:75-237):
    a key=value param file (Sample.param format) and a ``qid:text`` query
    file drive ``cli query`` in-process, the TREC run it writes is parsed
    back, and the rows must hash-match the BM25 SQL ranking — param-file
    reader, query-file reader, engine, and TREC writer all under one hash."""
    from search_engine_framework_ray.cli import main as cli_main
    from search_engine_framework_ray.sources.trec import read_trec_run

    idx = _docs_index(sf_dir)
    base = f"/tmp/sefr_trec/cli_{_sf_key(sf_dir)}"
    os.makedirs(base, exist_ok=True)
    params_path = os.path.join(base, "run.param")
    queries_path = os.path.join(base, "queries.txt")
    out_path = os.path.join(base, "run.trec")
    with open(params_path, "w") as f:
        f.write(
            "retrievalAlgorithm=BM25\nBM25:k_1=1.2\nBM25:b=0.75\nBM25:k_3=0\n"
        )
    with open(queries_path, "w") as f:
        f.write("q:" + " ".join(_BM25_TERMS) + "\n")
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()):  # CLI status JSON line
        rc = cli_main(
            [
                "query",
                "--index", idx,
                "--queries", queries_path,
                "--param-file", params_path,
                "--out", out_path,
                "--k", "20",
            ]
        )
    assert rc == 0, f"cli query exited {rc}"
    parsed = read_trec_run(out_path)["q"]
    return _trec_parsed_frame(parsed)


def q_fb_from_file(sf_dir: str):
    """fbInitialRankingFile path (QryExpansion.java:240-286): the Indri
    initial run is written to a TREC file, read back through
    initial_ranking_from_trec (extid → docid via the index docmap), and fed
    to the same expansion scoring — output and oracle are fb_expansion's
    verbatim, so the hash proves the file writer + reader + docmap
    resolution reproduce the in-memory ranking exactly."""
    from search_engine_framework_ray.query.executor import run_queries
    from search_engine_framework_ray.query.expansion import (
        FeedbackParams,
        expansion_terms,
        initial_ranking_from_trec,
    )
    from search_engine_framework_ray.query.models import ModelParams
    from search_engine_framework_ray.sources.trec import write_trec_run

    idx = _docs_index(sf_dir)
    fb = FeedbackParams(fb_docs=10, fb_terms=10, fb_mu=0.0)
    first = run_queries(
        idx, [("q", " ".join(_BM25_TERMS))], ModelParams(model="Indri"), k=fb.fb_docs
    )
    os.makedirs("/tmp/sefr_trec", exist_ok=True)
    path = os.path.join(
        "/tmp/sefr_trec",
        _sf_key(sf_dir) + ".fbIn",
    )
    write_trec_run(path, first, ["q"], True, k=fb.fb_docs)
    initial = initial_ranking_from_trec(idx, path, fb.fb_docs)
    terms = expansion_terms(idx, initial, fb)["q"]
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(terms) + 1, dtype=np.int64),
            "term": [t for t, _ in terms],
            "weight_micros": _micros([w for _, w in terms]),
        }
    )


def _inlink_index(sf_dir: str) -> str:
    """HTML corpus whose pages link each other (two deterministic outbound
    anchors per page) + its built index, cached per sf_dir. Anchors target
    OTHER pages' urls, so the build's anchor rows genuinely cross partitions
    through the co-partition shuffle before the per-target join."""
    import pyarrow.parquet as _pq

    import ray.data

    from search_engine_framework_ray.functions.analysis import PLAIN_ANALYZER
    from search_engine_framework_ray.pipelines.build_index import build_index

    base = f"/tmp/sefr_inlink/{_sf_key(sf_dir)}"
    corpus = os.path.join(base, "corpus")
    idx = os.path.join(base, "idx")
    docs_path = os.path.join(sf_dir, "documents.parquet")
    n = _pq.read_metadata(docs_path).num_rows
    if not os.path.exists(os.path.join(corpus, "_done")):
        # a synthesis that crashed mid-write leaves partial parquet parts;
        # a blind re-write would ADD files beside them (duplicate rows)
        import shutil

        shutil.rmtree(corpus, ignore_errors=True)
        ds = ray.data.read_parquet(docs_path, columns=["doc_id", "text"])

        def synth(b, n=n):
            d = b["doc_id"].astype("int64")
            t1 = ((d * 7 + 3) % n).map("doc{:010d}".format)
            t2 = ((d * 13 + 1) % n).map("doc{:010d}".format)
            html = (
                "<html><head><title>t</title></head><body><p>"
                + b["text"].fillna("")
                + '</p><a href="' + t1 + '">anchor alpha '
                + (d % 5).astype(str)
                + '</a><a href="' + t2 + '">beta link '
                + (d % 3).astype(str)
                + "</a></body></html>"
            )
            return pd.DataFrame(
                {
                    "url": d.map("doc{:010d}".format),
                    "html": [h.encode() for h in html],
                    "lang": "en",
                }
            )

        ds.map_batches(synth, batch_format="pandas").write_parquet(corpus)
        with open(os.path.join(corpus, "_done"), "w") as f:
            f.write("ok")
    files = [
        os.path.join(corpus, f)
        for f in sorted(os.listdir(corpus))
        if f.endswith(".parquet")
    ]
    build_index(files, idx, analyzer=PLAIN_ANALYZER, num_shards=4)
    return idx


def q_inlink_join(sf_dir: str):
    """Build-side inlink anchor-text join driver-verified (SURVEY.md §2.6;
    reference corpus had anchors joined out-of-band into the `inlink`
    field, LearnToRank.java:358-445 scores it): pages link each other, the
    REAL html build extracts anchors, ships them through the same
    co-partition shuffle as the docs, joins them per target url, and
    indexes the joined text — then the target-side term vectors are read
    back and each page's inlink doclen + tf('alpha') must match the SQL
    twin's replay of the link synthesis."""
    from search_engine_framework_ray.query.expansion import (
        _fetch_term_vectors,
        _shard_of,
    )

    import ray

    idx = _inlink_index(sf_dir)
    ranges = _shard_of(idx)
    futs = [
        _fetch_term_vectors.remote(idx, s, list(range(lo, hi)), "inlink")
        for s, lo, hi in ranges
    ]
    tv = pd.concat(ray.get(futs), ignore_index=True)
    n = max(hi for _, _, hi in ranges)
    out = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64)})
    if len(tv):
        dl = tv.groupby("docid")["doclen"].first()
        alpha = tv[tv["stem"] == "alpha"].groupby("docid")["tf"].sum()
        out["inlink_doclen"] = out["doc_id"].map(dl).fillna(0).astype("int64")
        out["alpha_tf"] = out["doc_id"].map(alpha).fillna(0).astype("int64")
    else:
        out["inlink_doclen"] = np.int64(0)
        out["alpha_tf"] = np.int64(0)
    return out.sort_values("doc_id").reset_index(drop=True)


def q_syn_root_tf(sf_dir: str):
    """Il-root output path (QryEval.java:295-314): a #SYN at the query root
    emits the inverted list itself — tf as score, (tf desc, extid asc),
    capped at the reference's hard 100-row bound."""
    from search_engine_framework_ray.query.executor import run_il_queries

    idx = _docs_index(sf_dir)
    res = run_il_queries(idx, [("q", "#SYN(spark join)")], ranked=True, k=10_000)["q"]
    df = _hits_frame(res)
    df.insert(0, "rank", np.arange(1, len(df) + 1, dtype=np.int64))
    df["tf"] = df.pop("score").astype("int64")
    return df


def _letor_doc_attrs(ids: list[int], spam: dict[int, float]) -> pd.DataFrame:
    """Deterministic raw-url fixture: '/'-count (f2) varies with doc_id%5,
    the wikipedia flag (f3) with doc_id%7 — both reproducible in SQL by
    constructing the identical string."""
    return pd.DataFrame(
        {
            "docid": ids,
            "raw_url": [
                "http://"
                + ("www.wikipedia.org" if d % 7 == 0 else "www.example.com")
                + "/p" * (d % 5)
                + f"/doc{d}"
                for d in ids
            ],
            "spam_score": [spam.get(d, np.nan) for d in ids],
        }
    )


def q_letor_features(sf_dir: str):
    """LeToR full 18-feature vectors (LearnToRank.java:326-596) for the BM25
    top-20 of the fixture query over the derived FOUR-field index, normalized
    per query — micro-scaled ints, NaN → -1_000_000 sentinel (inlink is
    genuinely missing for 10-word docs → the reference's NaN triple).

    f1 (spam) and f4 (PageRank) flow through the reference's file format: an
    ``extid \\t score`` fixture is written, read back with the
    LearnToRank.java:131-144 reader and joined via the docmap. f2/f3 come
    from a deterministic raw-url fixture via ``doc_attrs`` (reference
    :337-349). Every feature is SQL-oracled (field features via token-slice
    CTEs over the documents view)."""
    from search_engine_framework_ray.pipelines.letor import (
        compute_features,
        normalize_features,
        read_score_file,
        scores_by_docid,
    )
    from search_engine_framework_ray.query.executor import run_queries
    from search_engine_framework_ray.query.models import ModelParams

    idx = _letor_index(sf_dir)
    res = run_queries(idx, [("q", " ".join(_BM25_TERMS))], ModelParams(model="BM25"), k=20)
    cand = {"q": [docid for (_, _, docid) in res["q"]]}
    ids = sorted(cand["q"])
    base = _letor_base(sf_dir)
    pr_path = os.path.join(base, "fixture_pagerank.tsv")
    spam_path = os.path.join(base, "fixture_spam.tsv")
    with open(pr_path, "w") as fh:
        for d in ids:  # full-precision repr: SQL 1.0/(1+d%17) is the same double
            fh.write(f"doc{d:010d}\t{1.0 / (1 + d % 17)!r}\n")
    with open(spam_path, "w") as fh:
        for d in ids:  # integral values are exact in float64
            fh.write(f"doc{d:010d}\t{float((d * 37) % 101)!r}\n")
    page_rank = scores_by_docid(idx, read_score_file(pr_path))
    spam = scores_by_docid(idx, read_score_file(spam_path))
    f = normalize_features(
        compute_features(
            idx,
            [("q", " ".join(_BM25_TERMS))],
            cand,
            doc_attrs=_letor_doc_attrs(ids, spam),
            page_rank=page_rank,
        )
    )
    out = f[["docid"] + [f"f{j}" for j in range(1, 19)]].copy()
    for j in range(1, 19):
        c = f"f{j}"
        v = out[c].to_numpy(dtype=np.float64)
        out[c] = np.where(np.isnan(v), -1_000_000, _round_away(v * 1_000_000)).astype("int64")
    return out.rename(columns={"docid": "doc_id"}).sort_values("doc_id").reset_index(drop=True)


def q_letor_core(sf_dir: str):
    """SQL-expressible core of the LeToR feature pipeline
    (LearnToRank.java:358-401, 237-256, 279-314) over the BM25 top-20:
    f5 (BM25 body), f6 (Indri body), f7 (query-term overlap), f17 (SDM
    #NEAR/1 Indri score, 0 when no match) — raw AND per-query min-max
    normalized. Field features (title/url/inlink) are NaN on the plain
    corpus and stay in the rows-only ``letor_features`` entry."""
    from search_engine_framework_ray.pipelines.letor import (
        compute_features,
        normalize_features,
    )
    from search_engine_framework_ray.query.executor import run_queries
    from search_engine_framework_ray.query.models import ModelParams

    idx = _docs_index(sf_dir)
    res = run_queries(idx, [("q", " ".join(_BM25_TERMS))], ModelParams(model="BM25"), k=20)
    cand = {"q": [docid for (_, _, docid) in res["q"]]}
    raw = compute_features(idx, [("q", " ".join(_BM25_TERMS))], cand)
    norm = normalize_features(raw)
    out = raw[["docid"]].copy()
    for src, cols in ((raw, ("f5", "f6", "f7", "f17")),):
        for c in cols:
            out[f"{c}_micros"] = _micros(src[c].fillna(0.0))
    for c in ("f5", "f6", "f7", "f17"):
        out[f"{c}n_micros"] = _micros(norm[c].fillna(0.0))
    return out.rename(columns={"docid": "doc_id"}).sort_values("doc_id").reset_index(drop=True)


def q_svmlight_roundtrip(sf_dir: str):
    """SVM feature writer under the driver hash (LearnToRank.java:45-61
    format ``rel qid:q i:v … # extid``): the letor_core feature table is
    WRITTEN as SVMlight text (repr-float values — exact roundtrip, NaN
    features omitted) with a synthesized rel map (docid % 3) and docmap
    extids, then parsed back from the text; the parsed (extid, rel,
    f5/f6/f7/f17) rows must match the letor_core SQL twin wrapped with the
    same rel/extid rendering."""
    from search_engine_framework_ray.pipelines.letor import (
        compute_features,
        write_svmlight,
    )
    from search_engine_framework_ray.query.executor import run_queries
    from search_engine_framework_ray.query.models import ModelParams
    from search_engine_framework_ray.state.index_layout import load_docmap

    idx = _docs_index(sf_dir)
    res = run_queries(
        idx, [("q", " ".join(_BM25_TERMS))], ModelParams(model="BM25"), k=20
    )
    cand = {"q": [docid for (_, _, docid) in res["q"]]}
    raw = compute_features(idx, [("q", " ".join(_BM25_TERMS))], cand)
    rel = {("q", int(d)): int(d) % 3 for d in raw["docid"]}
    _, doc2url = load_docmap(idx)
    text = write_svmlight(raw, rel, doc2url)

    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        body, _, extid = line.partition(" # ")
        parts = body.split()
        fvals = dict(
            p.split(":", 1) for p in parts[2:]
        )  # parts[0]=rel, parts[1]=qid:q
        rows.append(
            {
                "extid": extid,
                "rel": int(parts[0]),
                **{
                    f"f{j}_micros": _micros([float(fvals[str(j)])])[0]
                    for j in (5, 6, 7, 17)
                },
            }
        )
    out = pd.DataFrame(rows)
    for c in out.columns:
        if c != "extid":
            out[c] = out[c].astype("int64")
    return out.sort_values("extid").reset_index(drop=True)


def _letor_write_score_fixtures(base: str, ids: list[int]) -> tuple[str, str]:
    """Write the deterministic pagerank/spam score files BOTH letor-rerank
    entries feed through the reference-format readers (one writer — the
    two entries must never desynchronize these shared inputs). Returns
    (pagerank_path, spam_path)."""
    pr_path = os.path.join(base, "fixture_pagerank_all.tsv")
    spam_path = os.path.join(base, "fixture_spam_all.tsv")
    with open(pr_path, "w") as fh:
        for d in ids:
            fh.write(f"doc{d:010d}\t{1.0 / (1 + d % 17)!r}\n")
    with open(spam_path, "w") as fh:
        for d in ids:
            fh.write(f"doc{d:010d}\t{float((d * 37) % 101)!r}\n")
    return pr_path, spam_path


def _letor_fixture_grades(ids: list[int]) -> list[tuple[int, int]]:
    """The editorial qrels fixture: every doc_id % 11 == 0 judged with
    grade doc_id % 3."""
    return [(d, d % 3) for d in ids if d % _LETOR_QREL_MOD == 0]


def _letor_rerank_over(sf_dir: str, qrels_name: str, grades, **learner: Any) -> pd.DataFrame:
    """The LeToR train→rerank flow the rerank entries share: the score-file
    fixtures, a reference-format qrels file ``qrels_name`` holding the
    ``(doc_id, grade)`` rows ``grades(ids)`` yields for training query
    'qt' (read back by the reference reader), then ``letor_rerank`` with
    the ``learner`` options over the test query's BM25-body top-20 →
    (rank, doc_id, score_micros)."""
    import pyarrow.parquet as papq

    from search_engine_framework_ray.cli import read_qrels
    from search_engine_framework_ray.pipelines.letor import (
        letor_rerank,
        read_score_file,
        scores_by_docid,
    )
    from search_engine_framework_ray.state.index_layout import load_docmap

    idx = _letor_index(sf_dir)
    base = _letor_base(sf_dir)
    ids = sorted(
        int(x)
        for x in papq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
        )["doc_id"].to_pylist()
    )
    pr_path, spam_path = _letor_write_score_fixtures(base, ids)
    qrels_path = os.path.join(base, qrels_name)
    with open(qrels_path, "w") as fh:
        for d, g in grades(ids):
            fh.write(f"qt 0 doc{d:010d} {g}\n")
    u2d, _ = load_docmap(idx)
    spam = scores_by_docid(idx, read_score_file(spam_path))
    res = letor_rerank(
        idx,
        [("qt", " ".join(_BM25_TERMS))],
        read_qrels(qrels_path, u2d),
        [("te", " ".join(_LETOR_TEST_TERMS))],
        k=20,
        page_rank=scores_by_docid(idx, read_score_file(pr_path)),
        doc_attrs=_letor_doc_attrs(ids, spam),
        **learner,
    )["te"]
    return pd.DataFrame(
        {
            "rank": pd.Series(range(1, len(res) + 1), dtype="int64"),
            "doc_id": pd.Series([d for d, _ in res], dtype="int64"),
            "score_micros": _micros([s for _, s in res]),
        }
    )


def q_letor_rerank(sf_dir: str):
    """Full LeToR train→rerank flow (QryEval.java:239-258) over the derived
    four-field index: a qrels fixture (``qid 0 extid rel`` lines, read by the
    reference-format reader) judges every doc_id % 11 == 0 with grade
    doc_id % 3; features for the judged docs train the deterministic
    pairwise RankSVM; the held-out test query's BM25-body top-20 is
    re-scored with the learned weights. Deterministic end-to-end, so the
    reranked (rank, doc_id, score) table is hash-checked against a SQL twin
    that reruns the training recursion in DuckDB."""
    return _letor_rerank_over(sf_dir, "fixture_qrels.txt", _letor_fixture_grades, learner="ranksvm")


def q_letor_from_clicks(sf_dir: str):
    """The PRODUCTION LeToR loop the reference's editorial qrels stand in
    for (LearnToRank.java:113-127 reads qrels exactly where these labels
    flow): the PBM click model's debiased per-(query, doc) attractiveness
    α (co-partitioned EM fit, stages/clicks.py) thresholds into graded
    relevance labels, written in the reference's qrels file format, read
    back by the reference-format reader, and used as the training targets
    for the deterministic pairwise RankSVM — then the held-out test
    query's BM25 top-20 is reranked with the learned weights. One SQL twin
    runs the whole chain (click EM → α grades → features → recursive
    RankSVM → rerank) under the driver hash."""
    from search_engine_framework_ray.stages.clicks import pbm_fit

    _theta, alpha_ds = pbm_fit(_click_impressions(sf_dir), iters=2)
    # one training query's labels leave the cluster — the α table itself
    # (corpus-scale on a real log) stays distributed
    al = (
        alpha_ds.map_batches(
            lambda b: b[b["qid"] == 0], batch_format="pandas"
        )
        .to_pandas()
        .sort_values("doc_id")
    )
    grades = [
        (int(d), 2 if a >= _CLICK_GRADE2 else 1 if a >= _CLICK_GRADE1 else 0)
        for d, a in zip(al["doc_id"], al["alpha_micros"])
    ]
    return _letor_rerank_over(
        sf_dir, "fixture_qrels_clicks.txt", lambda ids: grades, learner="ranksvm"
    )


def _fake_svmrank_binaries() -> tuple[str, str]:
    """Deterministic fake svm_rank executables (this sandbox ships no real
    binary; the reference's are Windows .exes — LearnToRank.java:921-994):
    ``learn`` copies the train file as the 'model' (exercising the argv
    contract ``-c C train model``); ``classify`` scores each test line with
    Σ j·f_j over the features PRESENT in the SVMlight text, printed at
    %.17g so every double round-trips exactly through write→exec→parse.
    The driver entry hash-checks this full subprocess path against a SQL
    twin computing the same weighted sum over the normalized features."""
    import stat

    d = "/tmp/sefr_svmrank"
    os.makedirs(d, exist_ok=True)
    learn = os.path.join(d, "svm_rank_learn")
    classify = os.path.join(d, "svm_rank_classify")
    with open(learn, "w") as fh:
        fh.write('#!/bin/sh\ncp "$3" "$4"\n')
    with open(classify, "w") as fh:
        fh.write(
            "#!/bin/sh\n"
            "awk '{v=0; for(i=3;i<=NF;i++){if($i==\"#\") break; "
            'split($i,a,":"); v+=a[1]*a[2]} printf "%.17g\\n", v}\' "$1" > "$3"\n'
        )
    for p in (learn, classify):
        os.chmod(p, os.stat(p).st_mode | stat.S_IXUSR)
    return learn, classify


def q_letor_rerank_svmrank(sf_dir: str):
    """The reference's EXTERNAL svm_rank flow (LearnToRank.java:921-994)
    under the driver hash: ``letor_rerank(learner='svm_rank')`` writes the
    byte-compatible SVMlight train/test files, execs the (deterministic
    fake) ``svm_rank_learn``/``svm_rank_classify`` binaries, parses the
    scores file in row order, and reranks the test query's BM25-body
    top-20. The fake classifier's Σ j·f_j linear model is reproduced by
    the SQL twin over the replayed normalized features, so the exec→
    classify→parse plumbing itself is hash-checked (VERDICT r3 #5); the
    real-binary path is the same code with real paths."""
    return _letor_rerank_over(
        sf_dir, "fixture_qrels.txt", _letor_fixture_grades,
        learner="svm_rank", svm_rank_paths=_fake_svmrank_binaries(),
    )


# trec_eval query set: 4 bag-of-words BM25 queries over the plain index.
# Relevance is a deterministic arithmetic rule so the qrels need no file:
# rel(qi, doc) = (doc_id + 37·i) % 9 == 0 (~11% of the corpus per query).
_TREC_QSET = [
    ("q1", ["spark", "join"]),
    ("q2", ["hash", "table"]),
    ("q3", ["window", "agg", "batch"]),
    ("q4", ["customer", "query", "scan"]),
]
_TREC_REL_MOD = 9
_TREC_DEPTH = 100


_TREC_RUN_CACHE: dict[tuple, pd.DataFrame] = {}


def _corpus_fingerprint(sf_dir: str) -> tuple:
    """(path, size, mtime_ns) of documents.parquet — the cache key fragment
    that invalidates the TREC memos when the same path is regenerated
    within one driver process (ADVICE r3: a path-only key would serve
    stale rankings; the shard index cache is already fingerprint-keyed)."""
    st = os.stat(os.path.join(sf_dir, "documents.parquet"))
    return (os.path.abspath(sf_dir), st.st_size, st.st_mtime_ns)


def _trec_run(sf_dir: str, *, k1: float = 1.2, b: float = 0.75) -> pd.DataFrame:
    """Shared depth-100 BM25 run over ``_TREC_QSET`` → (qid, rnk, doc_id)
    in (score_micros DESC, doc_id ASC) order — the micros tie-break both
    engines share. k covers the FULL candidate set (the depth cut happens
    after the micros re-sort): a smaller k could drop a doc the SQL twin's
    order ranks inside the top-100 when a raw-score tie group straddles
    the cut. Memoized per (sf_dir, k1, b): seven eval entries (trec_eval,
    sig_test, bpref, err_metric, kendall_tau, mrr, hard_negatives) share
    the same deterministic runs within one driver sweep. The key carries
    the corpus fingerprint, so a regenerated documents.parquet at the same
    path re-runs instead of serving stale rankings."""
    key = (_corpus_fingerprint(sf_dir), k1, b)
    cached = _TREC_RUN_CACHE.get(key)
    if cached is not None:
        return cached.copy()
    from search_engine_framework_ray.query.executor import run_queries
    from search_engine_framework_ray.query.models import ModelParams

    res = run_queries(
        _docs_index(sf_dir),
        [(qid, " ".join(terms)) for qid, terms in _TREC_QSET],
        ModelParams(model="BM25", k1=k1, b=b),
        k=_full_k(sf_dir),
    )
    runs = []
    for qid, _terms in _TREC_QSET:
        df = _micros_top(_hits_frame(res[qid]), _TREC_DEPTH)
        df["qid"] = qid
        df["rnk"] = np.arange(1, len(df) + 1, dtype=np.int64)
        runs.append(df[["qid", "rnk", "doc_id"]])
    out = pd.concat(runs, ignore_index=True)
    _TREC_RUN_CACHE[key] = out
    return out.copy()


def q_judgment_pool(sf_dir: str):
    """TREC depth pooling (the assessment-set construction method, TREC-1
    onward): the union of each run's top-10 for 'spark join' across three
    BM25 parameterizations — (k1=1.2, b=0.75), (k1=2.0, b=0.3), (k1=1.2,
    b=0.0) — with per-doc provenance (which runs retrieved it, how many,
    best rank). Pools are built from already-reduced top-k lists, so the
    combine is driver-cheap at any corpus size; the three runs share one
    index."""
    from search_engine_framework_ray.query.executor import run_queries
    from search_engine_framework_ray.query.models import ModelParams

    idx = _docs_index(sf_dir)
    variants = [(1.2, 0.75), (2.0, 0.3), (1.2, 0.0)]
    pools = []
    for rid, (k1, b) in enumerate(variants, start=1):
        res = run_queries(
            idx,
            [("q", " ".join(_BM25_TERMS))],
            ModelParams(model="BM25", k1=k1, b=b),
            k=100,
        )["q"]
        df = _micros_top(_hits_frame(res), 10)
        df["rnk"] = np.arange(1, len(df) + 1, dtype=np.int64)
        df["run"] = rid
        pools.append(df[["doc_id", "rnk", "run"]])
    allp = pd.concat(pools, ignore_index=True)
    out = (
        allp.groupby("doc_id")
        .agg(
            n_runs=("run", "nunique"),
            min_rank=("rnk", "min"),
            in_r1=("run", lambda r: int((r == 1).any())),
            in_r2=("run", lambda r: int((r == 2).any())),
            in_r3=("run", lambda r: int((r == 3).any())),
        )
        .reset_index()
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_mrr(sf_dir: str):
    """Mean reciprocal rank (trec_eval's recip_rank — THE metric for
    known-item / question-answering runs): per query, 1/rank of the first
    relevant doc in the shared depth-100 BM25 run (0 when none), plus the
    'all' mean row. Relevance is the synthetic qrels rule the trec_eval
    entry pins ((doc_id + 37·i) % 9 == 0); rank arithmetic is driver-side
    over the already-reduced 100-row-per-query run
    (sources/evalmetrics.py reciprocal_rank)."""
    run = _trec_run(sf_dir)
    qnums = {qid: int(qid[1:]) for qid, _ in _TREC_QSET}
    rows = []
    for qid, i in qnums.items():
        g = run[run["qid"] == qid].sort_values("rnk")
        rel = (g["doc_id"].to_numpy() + 37 * i) % _TREC_REL_MOD == 0
        hits = g["rnk"].to_numpy()[rel]
        rr = 1_000_000.0 / hits[0] if len(hits) else 0.0
        rows.append((qid, int(_round_away(np.array([rr]))[0])))
    mean = float(np.mean([m for _, m in rows]))
    rows.append(("all", int(_round_away(np.array([mean]))[0])))
    out = pd.DataFrame(rows, columns=["qid", "rr_micros"])
    return out.sort_values("qid").reset_index(drop=True)


_TREC_RELCOUNT_CACHE: dict[tuple, tuple[dict, dict]] = {}


def _trec_rel_counts(sf_dir: str) -> tuple[dict, dict]:
    """|relevant(qid)| (and grade-2 counts) over the WHOLE corpus:
    distributed partial counts (4 ints per batch), summed — the corpus
    never reaches the driver. Memoized per corpus fingerprint alongside
    ``_TREC_RUN_CACHE`` (ADVICE r3: trec_eval / sig_test / bpref each
    launched this counting pass separately within one driver sweep)."""
    key = _corpus_fingerprint(sf_dir)
    cached = _TREC_RELCOUNT_CACHE.get(key)
    if cached is not None:
        return {**cached[0]}, {**cached[1]}
    import ray.data

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    qnums = {qid: int(qid[1:]) for qid, _ in _TREC_QSET}

    def rel_counts(t) -> pd.DataFrame:
        d = t["doc_id"].to_numpy()
        cols = {}
        for qid, i in qnums.items():
            rel = (d + 37 * i) % _TREC_REL_MOD == 0
            # graded judgments: grade 2 for doc_id % 3 == 0, else 1
            cols[qid] = [int(rel.sum())]
            cols[f"{qid}_g2"] = [int((rel & (d % 3 == 0)).sum())]
        return pd.DataFrame(cols)

    count_cols = list(qnums) + [f"{q}_g2" for q in qnums]
    totals = (
        docs.map_batches(rel_counts, batch_format="pandas").sum(count_cols)
        or {}
    )
    r_by_qid = {qid: int(totals[f"sum({qid})"]) for qid in qnums}
    g2_by_qid = {qid: int(totals[f"sum({qid}_g2)"]) for qid in qnums}
    _TREC_RELCOUNT_CACHE[key] = (r_by_qid, g2_by_qid)
    return {**r_by_qid}, {**g2_by_qid}


def _trec_ap_micros(run: pd.DataFrame, r_by_qid: dict) -> dict[str, int]:
    """Per-query AP (micros, the trec_eval arithmetic) over a depth-100
    run DataFrame — driver-side over ≤100 rows per query."""
    qnums = {qid: int(qid[1:]) for qid, _ in _TREC_QSET}
    out = {}
    for qid, i in qnums.items():
        g = run[run["qid"] == qid].sort_values("rnk")
        rel = ((g["doc_id"].to_numpy() + 37 * i) % _TREC_REL_MOD == 0).astype(
            np.int64
        )
        rnk = g["rnk"].to_numpy()
        c = np.cumsum(rel)
        r_total = r_by_qid[qid]
        ap = float((rel * c / rnk).sum() / r_total) if r_total else 0.0
        out[qid] = int(_round_away(np.array([ap * 1e6]))[0])
    return out


# (k1, b) grid for the param-sweep harness twin; shared with its SQL twin
_SWEEP_GRID = [(1.2, 0.75), (2.0, 0.3), (1.2, 0.0), (0.9, 0.4)]


def q_param_sweep(sf_dir: str):
    """The reference's parameter-sweep harness (hw4test.py:62-84: mutate a
    param dict per grid point, re-run the engine, collect per-measure rows
    into a results table) re-expressed as ONE hash-checked pipeline: a
    (k1, b) grid of BM25 runs over the shared TREC query set, each scored
    with distributed MAP and mean P@10 (micros), rows ordered best-first —
    the pick-best-params workflow with the local distributed metrics in
    place of the reference's remote trec_eval POST (test.pl). Runs share
    one index, one memoized run cache, and one relevance-count pass."""
    r_by_qid, _g2 = _trec_rel_counts(sf_dir)
    nq = len(_TREC_QSET)
    qnums = {qid: int(qid[1:]) for qid, _ in _TREC_QSET}
    rows = []
    for k1, b in _SWEEP_GRID:
        run = _trec_run(sf_dir, k1=k1, b=b)
        ap = _trec_ap_micros(run, r_by_qid)
        map_micros = int(_round_away(np.array([np.mean([ap[q] for q in qnums])]))[0])
        top10 = run[run["rnk"] <= 10]
        rel10 = 0
        for qid, i in qnums.items():
            d = top10.loc[top10["qid"] == qid, "doc_id"].to_numpy()
            rel10 += int(((d + 37 * i) % _TREC_REL_MOD == 0).sum())
        p10_micros = int(_round_away(np.array([rel10 / 10.0 / nq * 1e6]))[0])
        rows.append((int(round(k1 * 1e6)), int(round(b * 1e6)), map_micros, p10_micros))
    out = pd.DataFrame(
        rows, columns=["k1_micros", "b_micros", "map_micros", "p10_micros"]
    ).astype("int64")
    return out.sort_values(
        ["map_micros", "k1_micros", "b_micros"], ascending=[False, True, True]
    ).reset_index(drop=True)


def q_trec_eval(sf_dir: str):
    """TREC effectiveness metrics P@10/20/30 + (M)AP per query and the
    ``all`` mean row (the reference's committed metric set — capture.pl
    goldens, hw4test.py:46-47/test.pl:51-65 — computed natively instead of
    via the remote trec_eval service; definitions in
    sources/evalmetrics.py). Rankings come from the distributed BM25 batch
    path (shared ``_trec_run``); |relevant| per query is ONE vectorized
    counting pass over the corpus (≤4 partial rows per batch); per-query
    metrics are a cumsum kernel inside groupby(qid).map_groups."""
    import ray.data

    run = _trec_run(sf_dir)
    qnums = {qid: int(qid[1:]) for qid, _ in _TREC_QSET}
    r_by_qid, g2_by_qid = _trec_rel_counts(sf_dir)

    def _idcg(n2: int, n1: int, k: int) -> float:
        r = np.arange(1, k + 1, dtype=np.int64)
        g = np.where(r <= n2, 2, np.where(r <= n2 + n1, 1, 0))
        return float((g / np.log(r + 1)).sum())

    def metrics(g: pd.DataFrame) -> pd.DataFrame:
        qid = g["qid"].iloc[0]
        g = g.sort_values("rnk")
        i = qnums[qid]
        rel = ((g["doc_id"].to_numpy() + 37 * i) % _TREC_REL_MOD == 0).astype(
            np.int64
        )
        rnk = g["rnk"].to_numpy()
        c = np.cumsum(rel)
        r_total = r_by_qid[qid]
        pk = {
            f"p{k}_micros": int(_round_away(rel[rnk <= k].sum() / k * 1e6))
            for k in (10, 20, 30)
        }
        ap = float((rel * c / rnk).sum() / r_total) if r_total else 0.0
        # NDCG@k, linear gain (grade 2 when doc_id % 3 == 0), ln discount
        # (the log base cancels in the DCG/IDCG ratio)
        grade = rel * np.where(g["doc_id"].to_numpy() % 3 == 0, 2, 1)
        n2 = g2_by_qid[qid]
        n1 = r_total - n2
        nd = {}
        for k in (10, 20):
            dcg = float((grade / np.log(rnk + 1.0))[rnk <= k].sum())
            ideal = _idcg(n2, n1, k)
            nd[f"ndcg{k}_micros"] = int(
                _round_away(dcg / ideal * 1e6) if ideal > 0 else 0
            )
        return pd.DataFrame(
            {"qid": [qid], **{k: [v] for k, v in pk.items()},
             "ap_micros": [int(_round_away(ap * 1e6))],
             **{k: [v] for k, v in nd.items()}}
        )

    perq = (
        ray.data.from_pandas(run)
        .groupby("qid")
        .map_groups(metrics, batch_format="pandas")
        .to_pandas()
        .sort_values("qid")
        .reset_index(drop=True)
    )
    cols = [
        "p10_micros", "p20_micros", "p30_micros", "ap_micros",
        "ndcg10_micros", "ndcg20_micros",
    ]
    # a qid that retrieved nothing has no run rows (and no group above);
    # it still scores 0 and belongs in the 'all' mean — mirror the twin's
    # LEFT-JOIN over the full qid universe (degenerate-qid closure)
    missing = [q for q in qnums if q not in set(perq["qid"])]
    if missing:
        perq = pd.concat(
            [perq, pd.DataFrame([{"qid": q, **{c: 0 for c in cols}} for q in missing])],
            ignore_index=True,
        ).sort_values("qid").reset_index(drop=True)
    allrow = {"qid": "all"}
    for c in cols:
        allrow[c] = int(_round_away(perq[c].to_numpy(np.float64).mean()))
    out = pd.concat([perq, pd.DataFrame([allrow])], ignore_index=True)
    for c in cols:
        out[c] = out[c].astype("int64")
    return out.sort_values("qid").reset_index(drop=True)


def q_sig_test(sf_dir: str):
    """Exact randomization significance test (Fisher sign-flip; Smucker,
    Allan & Carterette CIKM'07 — the recommended test for comparing IR
    runs) between two BM25 parameterizations, A=(k1=1.2, b=0.75) vs
    B=(k1=2.0, b=0.3), on per-query AP. Both runs come from the
    distributed batch query path (shared ``_trec_run``); |relevant| per
    query is the distributed counting pass (``_trec_rel_counts``). AP is
    micros-quantized BEFORE differencing, so the test statistic
    T = |Σ_i d_i| and every sign-flipped replicate are integer-exact —
    engine and SQL twin agree bit-for-bit. With |Q|=4 the 2^|Q|=16
    assignments are enumerated exactly (one vectorized numpy matmul over
    per-query scalars — at a real 50-query eval you'd Monte-Carlo sample
    sign vectors instead; the per-query APs, the expensive part, stay
    fully distributed either way). p_num/p_den is the exact two-sided
    p-value as a rational: #{s : |s·d| ≥ |Σd|} / 2^|Q| (identity
    assignment included, so p ≥ 1/2^|Q| — the standard convention)."""
    run_a = _trec_run(sf_dir)
    run_b = _trec_run(sf_dir, k1=2.0, b=0.3)
    r_by_qid, _g2 = _trec_rel_counts(sf_dir)
    ap_a = _trec_ap_micros(run_a, r_by_qid)
    ap_b = _trec_ap_micros(run_b, r_by_qid)
    qids = [qid for qid, _ in _TREC_QSET]
    d = np.array([ap_a[q] - ap_b[q] for q in qids], dtype=np.int64)
    n = len(qids)
    masks = np.arange(1 << n, dtype=np.int64)
    signs = 1 - 2 * ((masks[:, None] >> np.arange(n)) & 1)  # (2^n, n) ±1
    t = np.abs(signs @ d)
    t_obs = abs(int(d.sum()))
    p_num = int((t >= t_obs).sum())
    return pd.DataFrame(
        {
            "qid": qids,
            "ap_a_micros": pd.Series([ap_a[q] for q in qids], dtype="int64"),
            "ap_b_micros": pd.Series([ap_b[q] for q in qids], dtype="int64"),
            "diff_micros": pd.Series(d, dtype="int64"),
            "p_num": pd.Series([p_num] * n, dtype="int64"),
            "p_den": pd.Series([1 << n] * n, dtype="int64"),
        }
    ).sort_values("qid").reset_index(drop=True)


def q_bpref(sf_dir: str):
    """Remaining trec_eval metric family: bpref (Buckley & Voorhees
    SIGIR'04 — binary preference, the judged-pool-robust MAP surrogate),
    R-precision, and success@{1,5,10}, per query plus the ``all`` mean
    row. With the complete arithmetic qrels every retrieved doc is judged
    and N ≫ R, so bpref = (1/R)·Σ_{rel r} (1 − min(nonrel_above(r), R)/R)
    over the depth-100 run; Rprec counts relevant in the top min(R, 100).
    The run is the distributed BM25 batch path (shared ``_trec_run``);
    |relevant| per query is the distributed counting pass; the per-query
    reduction is a cumsum kernel over ≤100 rows."""
    run = _trec_run(sf_dir)
    r_by_qid, _g2 = _trec_rel_counts(sf_dir)
    qnums = {qid: int(qid[1:]) for qid, _ in _TREC_QSET}
    rows = []
    for qid, i in qnums.items():
        g = run[run["qid"] == qid].sort_values("rnk")
        rel = ((g["doc_id"].to_numpy() + 37 * i) % _TREC_REL_MOD == 0)
        rnk = g["rnk"].to_numpy()
        c = np.cumsum(rel.astype(np.int64))
        r_total = r_by_qid[qid]
        n_above = (rnk - c)[rel]  # nonrel retrieved above each rel hit
        bpref = (
            float((1.0 - np.minimum(n_above, r_total) * 1.0 / r_total).sum()
                  / r_total)
            if r_total else 0.0
        )
        rprec = (
            float(rel[rnk <= min(r_total, _TREC_DEPTH)].sum() * 1.0 / r_total)
            if r_total else 0.0
        )
        succ = {
            f"s{k}_micros": int(1_000_000 if rel[rnk <= k].any() else 0)
            for k in (1, 5, 10)
        }
        rows.append(
            {
                "qid": qid,
                "bpref_micros": int(_round_away(np.array([bpref * 1e6]))[0]),
                "rprec_micros": int(_round_away(np.array([rprec * 1e6]))[0]),
                **succ,
            }
        )
    perq = pd.DataFrame(rows)
    cols = ["bpref_micros", "rprec_micros", "s1_micros", "s5_micros", "s10_micros"]
    allrow = {"qid": "all"}
    for col in cols:
        allrow[col] = int(_round_away(perq[col].to_numpy(np.float64).mean()))
    out = pd.concat([perq, pd.DataFrame([allrow])], ignore_index=True)
    for col in cols:
        out[col] = out[col].astype("int64")
    return out.sort_values("qid").reset_index(drop=True)


def q_kendall_tau(sf_dir: str):
    """Kendall rank correlation between the two sig-test BM25 runs
    (A=(1.2, 0.75) vs B=(2.0, 0.3)) on the docs common to both depth-100
    lists — tau-a over the common set (both orders are strict, so no tie
    terms), the third leg of the ranker-comparison family next to RBO
    (top-weighted overlap) and the randomization test (effectiveness).
    Runs are the distributed batch path; the pair count is a ≤100×100
    boolean matmul per query on the driver. tau_micros =
    round((2C − P)/P · 1e6) with C, P integers — exact vs the SQL
    self-join twin."""
    run_a = _trec_run(sf_dir)
    run_b = _trec_run(sf_dir, k1=2.0, b=0.3)
    common = run_a.merge(run_b, on=["qid", "doc_id"], suffixes=("_a", "_b"))
    rows = []
    for qid, _terms in _TREC_QSET:
        g = common[common["qid"] == qid].sort_values("rnk_a")
        rb = g["rnk_b"].to_numpy()
        n = len(rb)
        p_total = n * (n - 1) // 2
        if p_total:
            conc = int(np.triu(rb[:, None] < rb[None, :], 1).sum())
            tau = int(_round_away(
                np.array([(2 * conc - p_total) / p_total * 1e6])
            )[0])
        else:
            conc, tau = 0, 0
        rows.append(
            {
                "qid": qid,
                "n_common": int(n),
                "n_pairs": int(p_total),
                "concordant": conc,
                "discordant": int(p_total - conc),
                "tau_micros": tau,
            }
        )
    out = pd.DataFrame(rows)
    for c in out.columns[1:]:
        out[c] = out[c].astype("int64")
    return out.sort_values("qid").reset_index(drop=True)


def q_err_metric(sf_dir: str):
    """Expected Reciprocal Rank (Chapelle et al. CIKM'09 — the graded
    cascade-model web metric next to NDCG) per query plus the ``all``
    mean row, over the shared depth-100 BM25 run. Grades follow the
    trec_eval arithmetic rule (2 when doc_id % 3 == 0, else 1);
    R = (2^g − 1)/4 ∈ {0, 1/4, 3/4}, so the cascade continue-probability
    multiplier (1 − R) is exactly (4 − rnum)/4 with rnum ∈ {0, 1, 3}.
    The whole recursion is run in MICROS INTEGER state with floor
    division at each step (prob' = prob·(4−rnum)//4, term =
    prob·rnum//(4·rnk)) — a quantized ERR within 1e-4 of the float
    definition that is bit-identical to the SQL twin's recursive CTE,
    with no pow() in either engine (numpy vs libm pow parity is the
    known 1-ulp hazard; see functions/numerics.py). The run is the
    distributed batch path; the per-query reduction is over ≤100
    already-reduced rows."""
    run = _trec_run(sf_dir)
    rows = []
    for qid, _terms in _TREC_QSET:
        i = int(qid[1:])
        g = run[run["qid"] == qid].sort_values("rnk")
        doc = g["doc_id"].to_numpy()
        rel = (doc + 37 * i) % _TREC_REL_MOD == 0
        rnum = np.where(rel, np.where(doc % 3 == 0, 3, 1), 0)
        prob, acc = 1_000_000, 0
        for r, rn in enumerate(rnum.tolist(), start=1):
            acc += (prob * rn) // (4 * r)
            prob = (prob * (4 - rn)) // 4
        rows.append({"qid": qid, "err_micros": acc})
    perq = pd.DataFrame(rows)
    allrow = {
        "qid": "all",
        "err_micros": int(
            _round_away(perq["err_micros"].to_numpy(np.float64).mean())
        ),
    }
    out = pd.concat([perq, pd.DataFrame([allrow])], ignore_index=True)
    out["err_micros"] = out["err_micros"].astype("int64")
    return out.sort_values("qid").reset_index(drop=True)


def q_clarity(sf_dir: str):
    """Post-retrieval clarity score (Cronen-Townsend, Zhou & Croft SIGIR
    2002): KL(top-k LM ‖ collection LM) per trec_eval query — the
    post-retrieval difficulty predictor next to ``q_qpp``'s pre-retrieval
    idf/SCQ. Top-10 from the ordinary distributed BM25 path in the shared
    (score_micros DESC, doc_id ASC) order; term vectors one task per shard;
    ctf from the bucketed termstats store; per-term contributions
    micros-quantized then integer-summed so a ~|V|-term reduction has no
    float summation-order dependence. Cost is independent of corpus size."""
    from search_engine_framework_ray.query.clarity import clarity_scores

    run = _trec_run(sf_dir)
    top = {qid: run.loc[run["qid"] == qid, "doc_id"].head(10).tolist() for qid, _ in _TREC_QSET}
    return clarity_scores(_docs_index(sf_dir), top)


def q_hard_negatives(sf_dir: str):
    """DPR-style hard-negative mining for retrieval-model training
    (Karpukhin et al. 2020): for each trec_eval query, run distributed BM25,
    take the depth-100 pool in the shared (score_micros DESC, doc_id ASC)
    order, and pair the first 10 RELEVANT pool docs (the qrels arithmetic
    rule) with the first 5 NON-relevant — the highest-ranked confusable
    docs, which is what makes them hard. Pairing runs per-query inside
    groupby(qid).map_groups (at real scale: millions of queries, each group
    independent); the run itself is the engine's batch query path. Output:
    one training pair per (qid, pos, neg)."""
    import ray.data

    run = _trec_run(sf_dir)
    qnums = {qid: int(qid[1:]) for qid, _ in _TREC_QSET}

    def mine(g: pd.DataFrame) -> pd.DataFrame:
        qid = g["qid"].iloc[0]
        g = g.sort_values("rnk")
        rel = (g["doc_id"].to_numpy() + 37 * qnums[qid]) % _TREC_REL_MOD == 0
        pos = g[rel].head(10)
        neg = g[~rel].head(5)
        out = pos[["doc_id", "rnk"]].rename(
            columns={"doc_id": "pos_doc", "rnk": "pos_rank"}
        ).merge(
            neg[["doc_id", "rnk"]].rename(
                columns={"doc_id": "neg_doc", "rnk": "neg_rank"}
            ),
            how="cross",
        )
        out.insert(0, "qid", qid)
        return out

    out = (
        ray.data.from_pandas(run)
        .groupby("qid")
        .map_groups(mine, batch_format="pandas")
        .to_pandas()
    )
    for c in ("pos_doc", "pos_rank", "neg_doc", "neg_rank"):
        out[c] = out[c].astype("int64")
    return out.sort_values(
        ["qid", "pos_rank", "neg_rank"], kind="mergesort"
    ).reset_index(drop=True)


def q_bm25_snippets(sf_dir: str):
    """Display snippets for the BM25 top-10 of q1 ("spark join"): each
    doc's best 10-token window (most query-term hits, earliest on ties),
    found by ONE streaming corpus pass against the broadcast top-k map
    (query/snippets.py). Ranking replays the trec_eval recipe
    (score_micros DESC, doc_id ASC). The SQL twin re-ranks, re-scans
    every window position, and rebuilds the snippet string byte-for-byte."""
    import ray.data

    from search_engine_framework_ray.query.snippets import snippets_for_topk

    qid, terms = _TREC_QSET[0]
    run = _trec_run(sf_dir)
    top = run.loc[run["qid"] == qid, "doc_id"].head(10)
    doc_ranks = {int(d): r for r, d in enumerate(top.to_numpy(), start=1)}

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = snippets_for_topk(docs, doc_ranks, set(terms), width=10).to_pandas()
    out["qid"] = qid
    for c in ("rnk", "doc_id", "win_start", "win_score"):
        out[c] = out[c].astype("int64")
    return (
        out[["qid", "rnk", "doc_id", "win_start", "win_score", "snippet"]]
        .sort_values("rnk")
        .reset_index(drop=True)
    )


def q_events_sliding(sf_dir: str):
    """Sliding windows (size 3600 s, slide 900 s): each event replicated to
    its 4 covering windows inside map_batches (with a per-batch combiner),
    then one pre-aggregated shuffle."""
    import ray.data

    from search_engine_framework_ray.stages.window import sliding_window

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"))
    out = sliding_window(ds, 3600, 900).to_pandas()
    out["n"] = out["n"].astype("int64")
    out["value_sum_micros"] = _micros(out["value_sum"])
    out["window_start_s"] = (
        out["window_start"].astype("datetime64[us]").astype("int64") // 1_000_000
    )
    return (
        out[["window_start_s", "n", "value_sum_micros"]]
        .sort_values("window_start_s")
        .reset_index(drop=True)
    )


def q_events_window_topk(sf_dir: str):
    """Continuous top-3 per tumbling hour by value: per-batch LOCAL top-k
    per window before the one shuffle (global top-k ⊆ union of local
    top-ks), bounded per-window finalize (stages/window.py window_topk)."""
    import ray.data

    from search_engine_framework_ray.stages.window import window_topk

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "value"],
    )
    out = window_topk(ds, 3600, 3).to_pandas()
    out["window_start_s"] = (
        out["window_start"].astype("datetime64[us]").astype("int64") // 1_000_000
    )
    out["value_micros"] = _micros(out["value"])
    out = out.rename(columns={"rank": "rnk"})
    for c in ("window_start_s", "rnk", "event_id", "value_micros"):
        out[c] = out[c].astype("int64")
    return (
        out[["window_start_s", "rnk", "event_id", "value_micros"]]
        .sort_values(["window_start_s", "rnk"])
        .reset_index(drop=True)
    )


def q_events_funnel(sf_dir: str):
    """view → click → purchase funnel within 30-min-gap sessions: sessions
    reaching each step, step k+1 strictly later than the session's first
    completion of step k — exact integer counts, one coarse key-bucket
    shuffle, vectorized per-bucket masked groupby-mins
    (stages/window.py session_funnel)."""
    import ray.data

    from search_engine_framework_ray.stages.window import session_funnel

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_type"],
    )
    out = session_funnel(ds, 1800, ["view", "click", "purchase"])
    out["step"] = out["step"].astype("int64")
    return out.reset_index(drop=True)


def q_events_decayed(sf_dir: str):
    """Exponentially time-decayed counters per event type at ref = max(ts),
    half-life 30 min — per-row weights are reference-fixed so per-batch
    combiners collapse to ≤ |types| rows per batch before one tiny groupby
    (stages/window.py decayed_agg)."""
    import ray.data

    from search_engine_framework_ray.stages.window import decayed_agg

    path = os.path.join(sf_dir, "events.parquet")
    ds = ray.data.read_parquet(path, columns=["ts", "event_type", "value"])
    ref = ds.max("ts")
    out = decayed_agg(
        ray.data.read_parquet(path, columns=["ts", "event_type", "value"]),
        ref, 1800.0, keys=["event_type"],
    ).to_pandas()
    out["decayed_n_micros"] = _micros(out["decayed_n"])
    out["decayed_sum_micros"] = _micros(out["decayed_sum"])
    return (
        out[["event_type", "decayed_n_micros", "decayed_sum_micros"]]
        .sort_values("event_type")
        .reset_index(drop=True)
    )


def q_doc_packing(sf_dir: str):
    """LM-training document packing (stages/packing.py): contiguous-fill
    assignment of docs to 512-token packs via a distributed two-level
    prefix sum — SQL window-cumsum oracle verifies every pack id/offset."""
    import ray.data

    from search_engine_framework_ray.stages.packing import pack_documents

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = pack_documents(ds, window=512).to_pandas()
    cols = ["doc_id", "n_tokens", "tokens_before", "pack_id", "pack_offset"]
    for c in cols:
        out[c] = out[c].astype("int64")
    return out[cols].sort_values("doc_id").reset_index(drop=True)


def _events_asof(sf_dir: str, **salt: int) -> pd.DataFrame:
    """events_asof's pipeline; ``salt`` passes asof_join's hot-key salting."""
    import ray.data

    from search_engine_framework_ray.stages.join import asof_join

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "event_type"],
    )
    left = ds.select_columns(["event_id", "ts", "user_id"])

    def views(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["event_type"] == "view"]
        return pd.DataFrame(
            {"user_id": b["user_id"], "ts": b["ts"], "event_id": b["event_id"]}
        )

    right = ds.map_batches(views, batch_format="pandas")
    out = asof_join(left, right, by="user_id", on="ts", **salt).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["last_view_id"] = out["r_event_id"].astype("int64")
    out["lag_us"] = (
        out["ts"].astype("datetime64[us]").astype("int64")
        - out["r_ts"].astype("datetime64[us]").astype("int64")
    )
    return (
        out[["event_id", "last_view_id", "lag_us"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def q_events_asof(sf_dir: str):
    """As-of join (custom temporal operator, stages/join.py): each event is
    matched to the latest 'view' event of the same user at or before it —
    one co-partitioning shuffle, vectorized merge_asof per key group. SQL
    oracle is a deterministic LATERAL top-1 (ties ts desc, id desc)."""
    return _events_asof(sf_dir)


def q_events_asof_salted(sf_dir: str):
    """HOT-KEY as-of path (stages/join.py salt_slice_s): both sides shuffle
    on (user, 2-hour slice); each probe slice gets ONE carry-in right row —
    the nearest earlier occupied slice's kernel-tie-sort latest view. The
    in-slice merge_asof then reproduces the single-group join exactly, so
    this entry shares `events_asof`'s SQL oracle verbatim."""
    return _events_asof(sf_dir, salt_slice_s=7200)


def _events_in_sessions(sf_dir: str, **salt: int) -> pd.DataFrame:
    """events_in_sessions' pipeline; ``salt`` passes range_join's hot-key
    salting."""
    import ray.data

    from search_engine_framework_ray.stages.join import range_join
    from search_engine_framework_ray.stages.window import session_windows

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "value"],
    )
    sess = session_windows(ds, gap_s=1800)

    def project(b: pd.DataFrame) -> pd.DataFrame:
        return b[["user_id", "session_start", "session_end"]]

    right = sess.map_batches(project, batch_format="pandas")
    left = ds.select_columns(["event_id", "ts", "user_id"])
    out = range_join(
        left, right, by="user_id", on="ts", lo="session_start", hi="session_end", **salt
    ).to_pandas()
    out["event_id"] = out["event_id"].astype("int64")
    out["session_start_us"] = (
        out["r_session_start"].astype("datetime64[us]").astype("int64")
    )
    return (
        out[["event_id", "session_start_us"]]
        .sort_values(["event_id", "session_start_us"])
        .reset_index(drop=True)
    )


def q_events_in_sessions(sf_dir: str):
    """Composition: session windows → range join back (stages/join.py):
    every event matched to its containing session interval per user — the
    windowed-aggregate + interval-containment pattern. SQL oracle rebuilds
    sessions with window functions and joins with BETWEEN."""
    return _events_in_sessions(sf_dir)


def q_events_in_sessions_salted(sf_dir: str):
    """HOT-KEY range-join path (stages/join.py salt_slice_s): probes
    shuffle on (user, 1-hour slice) and every session interval replicates
    to each slice it overlaps — a probe lives in exactly one slice so each
    (event, session) match surfaces exactly once. Shares
    `events_in_sessions`'s SQL oracle verbatim: the hash proves the salted
    path bit-identical."""
    return _events_in_sessions(sf_dir, salt_slice_s=3600)


def q_dedup_exact(sf_dir: str):
    import ray.data

    from search_engine_framework_ray.stages.dedup import exact_dedup

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    out = exact_dedup(ds).to_pandas()
    return (
        out[["doc_id", "cluster_id"]].sort_values("doc_id").reset_index(drop=True)
    )


def q_dedup_minhash(sf_dir: str):
    """MinHash-LSH candidates + EXACT trigram-Jaccard verification → every
    near-dup pair (J ≥ 0.8). 32 bands × 2 rows: a true pair is missed with
    prob (1−J²)³² ≈ 6e-15, so the all-pairs SQL oracle verifies the output."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import minhash_neardup_pairs

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    pairs = minhash_neardup_pairs(ds, threshold=0.8, k_shingle=3, bands=32)
    pairs["jaccard_micros"] = _micros(pairs["jaccard"])
    return pairs[["a", "b", "jaccard_micros"]]


def q_mm_pnm_decode(sf_dir: str):
    """REAL image decode under the driver hash (stages/multimodal.py
    ``decode_pnm``): deterministic binary P6 payloads (gradient rasters,
    size varying by doc, comment lines in every 5th header) synthesized
    per doc, decoded by the stdlib+numpy Netpbm parser in map tasks,
    reduced to exact-integer stats. The SQL twin replays the generating
    arithmetic WITHOUT parsing — any header/raster misread breaks the
    hash, so this certifies a genuinely decoded codec leg (the PIL/ffmpeg
    legs remain env-gated fakes)."""
    import ray.data

    from search_engine_framework_ray.stages.multimodal import (
        DecodePnmStage,
        synthesize_pnm_corpus,
    )

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    decoded = synthesize_pnm_corpus(docs).map_batches(
        DecodePnmStage(),
        batch_format="pyarrow",
        batch_size=64,  # binary payloads: small batches (module convention)
    )

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "px_h": b["px_h"].to_numpy(np.int64),
                "px_w": b["px_w"].to_numpy(np.int64),
                "mean_micros": b["sample_sum"].to_numpy(np.int64)
                * 1_000_000
                // b["n_samples"].to_numpy(np.int64),
                "lum_sum": b["lum_sum"].to_numpy(np.int64),
            }
        )

    out = decoded.map_batches(stats, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q_mm_wav_decode(sf_dir: str):
    """REAL audio decode under the driver hash (stages/multimodal.py
    ``decode_wav_pcm``): deterministic 16-bit PCM mono RIFF/WAVE payloads
    (length/rate varying by doc, junk LIST chunks in every 4th file)
    decoded by the stdlib+numpy chunk walker in map tasks and reduced
    to per-frame mean |amplitude| in exact integer micros. The SQL twin
    replays the waveform-generation arithmetic without parsing — a
    mis-walked chunk or mis-signed sample breaks the hash."""
    import ray.data

    from search_engine_framework_ray.stages.multimodal import (
        DecodeWavStage,
        synthesize_wav_corpus,
    )

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    out = (
        synthesize_wav_corpus(docs)
        .map_batches(DecodeWavStage(), batch_format="pyarrow", batch_size=64)
        .to_pandas()
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values(["doc_id", "frame"]).reset_index(drop=True)


def q_mm_bmp_decode(sf_dir: str):
    """REAL image decode, third leg (stages/multimodal.py ``decode_bmp``):
    deterministic uncompressed Windows BMPs cycling 24-bit BGR / 16-bit
    X1R5G5B5 / 8-bit paletted variants, bottom-up and top-down rasters,
    and 0-3 bytes of row padding — decoded by the stdlib+numpy parser in
    map tasks and reduced to exact-integer stats. ``wsum`` weights
    each pixel by its top-down position, so a missed orientation flip, a
    palette misread, a 5→8-bit expansion slip, or a padding-byte leak
    breaks the hash. The SQL twin replays the generation arithmetic
    without parsing."""
    import ray.data

    from search_engine_framework_ray.stages.multimodal import (
        DecodeBmpStage,
        synthesize_bmp_corpus,
    )

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    out = (
        synthesize_bmp_corpus(docs)
        .map_batches(
            DecodeBmpStage(),
            batch_format="pyarrow",
            batch_size=64,  # binary payloads: small batches (module convention)
        )
        .to_pandas()
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_mm_qoi_decode(sf_dir: str):
    """REAL image decode, fourth leg (stages/multimodal.py ``decode_qoi``
    + ``encode_qoi``, the public QOI spec): per-doc pixel arithmetic
    chosen so the encoder emits EVERY op — RUN, INDEX (64-slot color
    cache), DIFF, LUMA, RGB, RGBA — then the sequential op-stream decoder
    rebuilds the raster in map tasks. Spec byte vectors in
    tests/test_stages.py pin the wire format against symmetric
    encoder/decoder bugs; the SQL twin replays the closed-form pixel
    arithmetic without parsing, and the position-weighted sum makes a
    one-short run or an off-by-one cache slot hash-visible."""
    import ray.data

    from search_engine_framework_ray.stages.multimodal import (
        DecodeQoiStage,
        synthesize_qoi_corpus,
    )

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    out = (
        synthesize_qoi_corpus(docs)
        .map_batches(DecodeQoiStage(), batch_format="pyarrow", batch_size=64)
        .to_pandas()
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_incremental_neardup(sf_dir: str):
    """Incremental near-dup probe (stages/dedup.py ``minhash_probe_pairs``):
    the corpus splits by ingest time (prior archive = doc_id % 10 < 7,
    new crawl = the rest) and every (archive, new) pair at exact trigram
    Jaccard ≥ 0.8 is found WITHOUT re-self-joining the archive — band
    groups emit cross-side candidates only, the continuous-ingestion twin
    of the batch ``dedup_minhash``. The all-pairs cross-join SQL oracle
    verifies the banding missed nothing."""
    import pyarrow as pa
    import ray.data

    from search_engine_framework_ray.stages.dedup import minhash_probe_pairs

    def side(keep_old: bool):
        def f(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy()
            return t.filter(pa.array((ids % 10 < 7) == keep_old))

        return f

    base = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    pairs = minhash_probe_pairs(
        base.map_batches(side(True), batch_format="pyarrow"),
        base.map_batches(side(False), batch_format="pyarrow"),
        threshold=0.8,
        k_shingle=3,
        bands=32,
    )
    pairs["jaccard_micros"] = _micros(pairs["jaccard"])
    return pairs[["a", "b", "jaccard_micros"]]


def q_incremental_neardup_warm(sf_dir: str):
    """The AMORTIZED incremental-probe path under the driver hash: the
    archive's signature table is computed separately (the once-per-crawl-
    cycle persisted sketch store) and passed into the probe via
    ``sigs_old`` — the delta probe then sketches only the delta — AND
    (round 5) the archive's persisted SHINGLE store is passed via
    ``shingles_old``, so the verify stage locates archive sets from the
    store and never re-shingles archive text: the whole warm probe's text
    work is delta-proportional. Output is identical to
    ``incremental_neardup`` by construction, so the two entries share one
    SQL oracle verbatim and the hash proves both amortizations exact."""
    import pyarrow as pa
    import ray.data

    from search_engine_framework_ray.stages.dedup import (
        _minhash_sigs,
        minhash_probe_pairs,
        minhash_shingle_store,
    )

    def side(keep_old: bool):
        def f(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy()
            return t.filter(pa.array((ids % 10 < 7) == keep_old))

        return f

    base = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    old = base.map_batches(side(True), batch_format="pyarrow")
    sigs_old = _minhash_sigs(
        old, n_perm=64, k_shingle=3, text_col="text", id_col="doc_id",
        strict_k=True,
    )
    shingles_old = minhash_shingle_store(old, k_shingle=3)
    pairs = minhash_probe_pairs(
        old,
        base.map_batches(side(False), batch_format="pyarrow"),
        threshold=0.8,
        k_shingle=3,
        bands=32,
        sigs_old=sigs_old,
        shingles_old=shingles_old,
    )
    pairs["jaccard_micros"] = _micros(pairs["jaccard"])
    return pairs[["a", "b", "jaccard_micros"]]


def q_crawl_cycle(sf_dir: str):
    """The CONTINUOUS-INGESTION lifecycle a 100-TB crawl pipeline actually
    runs, chained under ONE driver hash (each piece is an already-green
    entry; this certifies the composition): two synthetic crawl cycles
    (archive drops doc_id%10==0; the new crawl drops %10==1 and rewrites
    %10==2 with a ' v2' suffix) flow through

    1. ``crawl_delta`` — fingerprint diff classifies every url
       added/removed/changed/unchanged (counts under the hash);
    2. churn semi-join — added+changed docs stream out via the broadcast
       Bloom (the removed/unchanged majority never moves);
    3. snapshot dedup — exact-content anti-join against the archive drops
       re-crawled bodies that only moved urls;
    4. incremental near-dup probe — ``minhash_probe_pairs`` flags fresh
       docs ≥ 0.8 trigram Jaccard against the archive (the ' v2' rewrites
       die here without the archive re-self-joining);
    5. ``extend_index`` — survivors (ids offset by 1e6, the ingest-epoch
       namespace) append to the archive's index without a rebuild, and
       the flagship BM25 top-20 over the extended index closes the loop.

    The SQL twin replays all five stages (FULL OUTER diff → status
    semi-join → NOT IN exact dedup → all-pairs trigram Jaccard → BM25
    over the union corpus)."""
    import shutil

    import ray.data

    from search_engine_framework_ray.functions.analysis import PLAIN_ANALYZER
    from search_engine_framework_ray.pipelines.build_index import (
        PlainSource,
        build_index,
        extend_index,
    )
    from search_engine_framework_ray.stages.dedup import (
        _text_hash64,
        minhash_probe_pairs,
    )
    from search_engine_framework_ray.stages.join import bloom_semi_join
    from search_engine_framework_ray.stages.textstats import fingerprint_md5
    from search_engine_framework_ray.stages.web import crawl_delta

    path = os.path.join(sf_dir, "documents.parquet")

    def crawl(drop_mod: int, suffix_mod: int | None):
        def prep(b: pd.DataFrame) -> pd.DataFrame:
            d = b["doc_id"].astype("int64")
            b = b[d % 10 != drop_mod].copy()
            d = b["doc_id"].astype("int64")
            # fillna on BOTH crawls so the exact-dedup hkey hashes ''
            # exactly like the twin's coalesce(text, '') — without this a
            # null-text archive doc would hash as the literal 'nan'
            b["text"] = b["text"].fillna("")
            if suffix_mod is not None:
                mod = (d % 10 == suffix_mod).to_numpy()
                t = b["text"].to_numpy(object)
                t[mod] = t[mod] + " v2"
                b["text"] = t
            b["url"] = "https://ex.com/p/" + d.astype(str)
            return b

        return ray.data.read_parquet(
            path, columns=["doc_id", "text"]
        ).map_batches(prep, batch_format="pandas")

    # each crawl feeds 3+ downstream passes (fingerprint diff, dedup
    # build side, probe, index source) — materialize ONCE into the object
    # store (spillable) instead of re-running read+prep per consumer
    archive = crawl(0, None).materialize()
    newcrawl = crawl(1, 2).materialize()

    def fp(ds):
        return ds.map_batches(
            lambda b: fingerprint_md5(b)[["url", "fp_md5"]],
            batch_format="pandas",
        )

    # 1. classify; counts reduce as bounded per-batch partials
    cls = crawl_delta(
        fp(archive), fp(newcrawl), key_col="url", fp_col="fp_md5"
    ).materialize()
    cpart = cls.map_batches(
        lambda b: b.groupby("status", as_index=False).size(),
        batch_format="pandas",
    ).to_pandas()
    counts = cpart.groupby("status")["size"].sum().to_dict()

    # 2. ingest = new-crawl rows whose url classified added/changed
    def ukey(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["ukey"] = _text_hash64(b["url"].astype(str).tolist())
        return b

    churn = cls.map_batches(
        lambda b: ukey(b[b["status"].isin(["added", "changed"])][["url"]]),
        batch_format="pandas",
    )
    ingest = bloom_semi_join(
        newcrawl.map_batches(ukey, batch_format="pandas"), churn,
        probe_key="ukey", build_key="ukey",
    )

    # 3. exact-content snapshot dedup against the archive
    def hkey(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["hkey"] = _text_hash64(b["text"].astype(str).tolist())
        return b

    fresh = bloom_semi_join(
        ingest.map_batches(hkey, batch_format="pandas"),
        archive.map_batches(
            lambda b: hkey(b)[["hkey"]], batch_format="pandas"
        ),
        probe_key="hkey", build_key="hkey", anti=True,
    ).materialize()
    n_fresh = fresh.count()

    # 4. near-dup probe (fresh ids move to the ingest-epoch namespace so
    # the two sides — and later the extended index — have distinct ids)
    def renum(b: pd.DataFrame) -> pd.DataFrame:
        b = b[["doc_id", "text"]].copy()
        b["doc_id"] = b["doc_id"].astype("int64") + 1_000_000
        return b

    # the semi-join emits ~bucket-count tiny blocks; compact them so the
    # probe's sketch stage and band sort don't pay per-block fixed costs
    fresh_r = (
        fresh.map_batches(renum, batch_format="pandas")
        .repartition(2)
        .materialize()
    )
    pairs = minhash_probe_pairs(
        archive, fresh_r, threshold=0.8, k_shingle=3, bands=32
    )
    nd = {int(x) for x in pairs["b"]}
    kept = (
        fresh_r.map_batches(
            lambda b: b[~b["doc_id"].isin(nd)], batch_format="pandas"
        )
        .repartition(2)
        .materialize()
    )
    n_kept = kept.count()

    # 5. extend the archive's index with the survivors and query it
    root = f"/tmp/sefr_indices/cycle_{_sf_key(sf_dir)}"
    shutil.rmtree(root, ignore_errors=True)
    base_p, delta_p = os.path.join(root, "base"), os.path.join(root, "delta")
    archive.map_batches(
        lambda b: b[["doc_id", "text"]], batch_format="pandas"
    ).write_parquet(base_p)
    kept.write_parquet(delta_p)
    idx = os.path.join(root, "index")
    build_index(
        base_p, idx, analyzer=PLAIN_ANALYZER, plain_source=PlainSource(),
        num_shards=3,
    )
    extend_index(
        delta_p, idx, analyzer=PLAIN_ANALYZER, plain_source=PlainSource(),
        num_shards=2,
    )
    bm = _flagship_bm25_over(idx)

    rows = [("bm25", int(d), int(s)) for d, s in
            zip(bm["doc_id"], bm["score_micros"])]
    for name in ("added", "removed", "changed", "unchanged"):
        rows.append((f"n_{name}", int(counts.get(name, 0)), -1))
    rows.append(("n_fresh", int(n_fresh), -1))
    rows.append(("n_kept", int(n_kept), -1))
    out = pd.DataFrame(rows, columns=["kind", "k1", "k2"])
    out["k1"] = out["k1"].astype("int64")
    out["k2"] = out["k2"].astype("int64")
    return out.sort_values(["kind", "k1", "k2"]).reset_index(drop=True)


def q_leakage_safe_split(sf_dir: str):
    """Cluster-aware (leakage-safe) train/val/test split: near-duplicate
    docs must land in the SAME split or the held-out sets leak training
    text through paraphrases (the dedup-aware split hygiene of Lee et al.
    ACL 2022 §6.2, standard LLM-data practice — the naive per-doc
    ``split_assign`` cannot guarantee it). Split key = md5 PRF of the
    near-dup CLUSTER id (the exact-Jaccard component labels of
    ``dedup_minhash_clusters``), so every cluster member moves together;
    80/10/10 by hash range, assigned inside the distributed labeling
    map_batches (no extra pass)."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import (
        _md5_hash64,
        assign_clusters,
        minhash_neardup_pairs,
    )

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    pairs = minhash_neardup_pairs(ds, threshold=0.8, k_shingle=3, bands=32)
    labeled = assign_clusters(ds.select_columns(["doc_id"]), pairs, "doc_id")

    def add_split(b: pd.DataFrame) -> pd.DataFrame:
        cl = b["cluster_id"].to_numpy(np.int64)
        h = np.array([_md5_hash64(f"ls|{c}") % 10 for c in cl], dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "cluster_id": cl,
                "split": np.where(h < 8, "train", np.where(h == 8, "val", "test")),
            }
        )

    out = labeled.map_batches(add_split, batch_format="pandas").to_pandas()
    for c in ("doc_id", "cluster_id"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_cluster_weights(sf_dir: str):
    """Soft dedup: instead of dropping near-duplicates, keep ONE
    representative per cluster carrying the cluster's multiplicity as a
    training-loss weight (the count-once-but-weight alternative to hard
    removal — preserves the corpus distribution while killing verbatim
    repetition). Cluster sizes come from one narrow groupby over the
    labeled ids; weights attach inside the distributed labeling pass's
    output (no corpus pull). Output: (doc_id, cluster_id, weight, keep)."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import (
        assign_clusters,
        minhash_neardup_pairs,
    )

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    pairs = minhash_neardup_pairs(ds, threshold=0.8, k_shingle=3, bands=32)
    labeled = assign_clusters(ds.select_columns(["doc_id"]), pairs, "doc_id")

    def size_partials(b: pd.DataFrame) -> pd.DataFrame:
        return (
            b.groupby("cluster_id", as_index=False)
            .agg(n=("doc_id", "size"))
        )

    # cluster sizes: per-batch combiner partials → tiny driver reduce
    # (≤ distinct clusters rows), broadcast back as the weight map
    sizes = (
        labeled.map_batches(size_partials, batch_format="pandas")
        .to_pandas()
        .groupby("cluster_id")["n"]
        .sum()
        .to_dict()
    )
    import ray as _ray

    sizes_ref = _ray.put(sizes)

    def attach(b: pd.DataFrame) -> pd.DataFrame:
        sz = _ray.get(sizes_ref)
        cl = b["cluster_id"].to_numpy(np.int64)
        ids = b["doc_id"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": ids,
                "cluster_id": cl,
                "weight": np.array([sz[int(c)] for c in cl], dtype=np.int64),
                "keep": (ids == cl).astype(np.int64),  # min-id representative
            }
        )

    out = labeled.map_batches(attach, batch_format="pandas").to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_dedup_minhash_clusters(sf_dir: str):
    """Near-dup clustering over the EXACT-Jaccard pair graph: LSH candidates
    → exact trigram-Jaccard verify (the SQL-checked ``dedup_minhash`` pair
    set) → connected components, labeled distributed (union-find over pairs
    only, root map broadcast into map_batches). The SQL oracle computes the
    same components with a recursive-CTE reachability closure. (The
    signature-estimate clustering variant, ``minhash_lsh_dedup``, stays the
    fast library path and is unit-tested.)"""
    import ray.data

    from search_engine_framework_ray.stages.dedup import (
        assign_clusters,
        minhash_neardup_pairs,
    )

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    pairs = minhash_neardup_pairs(ds, threshold=0.8, k_shingle=3, bands=32)
    ids = ds.select_columns(["doc_id"])
    out = assign_clusters(ids, pairs, "doc_id").to_pandas()
    out["is_dup"] = out["is_dup"].astype("int64")  # bool → int64 for hashing
    return (
        out[["doc_id", "cluster_id", "is_dup"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_simhash_values(sf_dir: str):
    """Per-doc 64-bit weighted SimHash sketch (md5-low64 token hashes) —
    SQL oracle rebuilds every sketch bit-for-bit via md5_number_lower."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import simhash_sketches

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = simhash_sketches(ds).to_pandas()
    return out[["doc_id", "simhash"]].sort_values("doc_id").reset_index(drop=True)


def q_dedup_simhash(sf_dir: str):
    """SimHash near-dup pairs (Hamming ≤ 3) via 4×16-bit band blocking —
    exact recall by pigeonhole (≤3 differing bits can't touch all 4 bands),
    so the all-pairs SQL oracle verifies the pair set and distances."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import (
        simhash_pairs,
        simhash_sketches,
    )

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    sk = simhash_sketches(ds)
    return simhash_pairs(sk, max_hamming=3, max_bucket=None)[["a", "b", "hamming"]]


def q_jaccard_pairs(sf_dir: str):
    """Exact 3-word-shingle Jaccard for doc pairs (2i, 2i+1), i<25 —
    distributed: shingle sets per doc in map_batches, pair groupby, exact
    set Jaccard per pair (the MinHash verification kernel, stages/dedup)."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import _shingles

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).filter(expr="doc_id < 50")

    def strict_shingles(t: str):
        # oracle semantics: a doc with < 3 words has NO trigrams (the
        # library _shingles shrinks k for MinHash recall; here we mirror SQL)
        return _shingles(t, 3) if len(t.split()) >= 3 else np.empty(0, np.uint64)

    def shingle(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "pair": (b["doc_id"] // 2).astype("int64"),
                "sh": [strict_shingles(t) for t in b["text"].fillna("")],
            }
        )

    def jac(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        if len(g) != 2 or not (g["sh"].iloc[0].size and g["sh"].iloc[1].size):
            # either doc lacks trigrams → the oracle's inner join drops the pair
            return pd.DataFrame({"a": [], "b": [], "jaccard_micros": []})
        sa, sb = g["sh"].iloc[0], g["sh"].iloc[1]
        inter = np.intersect1d(sa, sb).size
        union = sa.size + sb.size - inter
        j = inter / union if union else 1.0
        return pd.DataFrame(
            {
                "a": [int(g["doc_id"].iloc[0])],
                "b": [int(g["doc_id"].iloc[1])],
                "jaccard_micros": [int(_round_away(j * 1_000_000))],
            }
        )

    out = (
        ds.map_batches(shingle, batch_format="pandas")
        .groupby("pair")
        .map_groups(jac, batch_format="pandas")
        .to_pandas()
    )
    out["a"] = out["a"].astype("int64")
    out["b"] = out["b"].astype("int64")
    out["jaccard_micros"] = out["jaccard_micros"].astype("int64")
    return out.sort_values("a").reset_index(drop=True)


def q_setsim_pairs(sf_dir: str):
    """ALL document pairs with distinct-token Jaccard ≥ 9/10 via the
    prefix-filtered set-similarity self-join (AllPairs/PPJoin family,
    stages/setsim.py) — EXACT recall by the prefix-filter theorem, so the
    all-pairs SQL token join is a complete oracle with no LSH miss-
    probability argument. Candidates come only from each doc's
    df-ascending token prefix; verification is the shared co-partitioned
    exact-Jaccard stage with integer threshold arithmetic."""
    import ray.data

    from search_engine_framework_ray.stages.setsim import setsim_join_pairs

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = setsim_join_pairs(ds, threshold=(9, 10))
    return pd.DataFrame(
        {
            "a": out["a"].astype("int64"),
            "b": out["b"].astype("int64"),
            "jaccard_micros": _micros(out["jaccard"]),
        }
    )


def q_setsim_clusters(sf_dir: str):
    """Exact near-dup clustering over the prefix-filter join's pair graph:
    the SQL-checked ``setsim_pairs`` edge set (distinct-token Jaccard ≥
    9/10, exact recall) → connected components, labeled distributed
    (union-find over pairs only, root map broadcast into map_batches —
    stages/dedup.py assign_clusters). The exact-recall candidate path
    makes this the no-miss-probability twin of ``dedup_minhash_clusters``."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import assign_clusters
    from search_engine_framework_ray.stages.setsim import setsim_join_pairs

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    pairs = setsim_join_pairs(ds, threshold=(9, 10))
    out = assign_clusters(ds.select_columns(["doc_id"]), pairs, "doc_id").to_pandas()
    out["is_dup"] = out["is_dup"].astype("int64")
    return (
        out[["doc_id", "cluster_id", "is_dup"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_setsim_containment(sf_dir: str):
    """Directed containment join (stages/setsim.py containment_join_pairs):
    all ordered pairs (a, b) with trigram-shingle containment
    |A∩B|/|A| ≥ 4/5 and |A| ≥ 8 shingles — the quote / boilerplate-superset
    detector symmetric Jaccard misses. Exact recall via the asymmetric
    prefix-filter theorem (container prefixes bounded by the min_contained
    floor); verification is the shared co-partitioned exact pass with the
    left-side denominator. The containment column is the single float64
    division |∩|/|A| — bit-identical in both engines."""
    import ray.data

    from search_engine_framework_ray.stages.setsim import containment_join_pairs

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = containment_join_pairs(
        ds, threshold=(4, 5), k_shingle=3, min_contained=8
    )
    return out[["a", "b", "containment"]].reset_index(drop=True)


def q_edit_pairs(sf_dir: str):
    """Exact edit-distance similarity join (stages/strsim.py
    edit_distance_join — PassJoin pigeonhole segment blocking, ICDE'11):
    all pairs of 24-char text-prefix keys within Levenshtein distance 2,
    with the exact distance. Exact recall (an alignment with ≤ d edits
    preserves one of d+1 segments verbatim, shifted ≤ d), narrow int-row
    shuffles for blocking, co-partitioned capped-DP verify — candidates
    never funnel through the driver. The fuzzy-key record-linkage
    primitive next to the token-set joins."""
    import ray.data

    from search_engine_framework_ray.stages.strsim import edit_distance_join

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {"doc_id": b["doc_id"].astype("int64"),
             "key": b["text"].fillna("").str.slice(0, 24)}
        ),
        batch_format="pandas",
    )
    out = edit_distance_join(ds, str_col="key", max_dist=2)
    return out[["a", "b", "dist"]].reset_index(drop=True)


def q_vocab_growth(sf_dir: str):
    """Vocabulary-growth (Heaps'-law) curve: cumulative distinct-token
    count after each 50-doc checkpoint in doc_id order — the tokenizer /
    vocab-sizing measurement. One min-reduce per token with a per-batch
    combiner (stages/aggregate.py vocab_growth); only |vocab| narrow int
    rows ever shuffle."""
    import ray.data

    from search_engine_framework_ray.stages.aggregate import vocab_growth

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return vocab_growth(ds, bucket_size=50)


def q_setsim_cross(sf_dir: str):
    """Cross-table exact set-similarity join (stages/setsim.py
    setsim_cross_pairs): docs from sources src0-src4 (the "held-out set")
    against all other sources (the "training corpus"), distinct-token
    Jaccard ≥ 9/10 — the decontamination shape with exact recall (prefix
    filter over a union-wide df order, cross-side-only candidates)."""
    import ray.data

    from search_engine_framework_ray.stages.setsim import setsim_cross_pairs

    srcs = {"src0", "src1", "src2", "src3", "src4"}
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "source"],
    )
    left = ds.map_batches(
        lambda b: b[b["source"].isin(srcs)][["doc_id", "text"]],
        batch_format="pandas",
    )
    right = ds.map_batches(
        lambda b: b[~b["source"].isin(srcs)][["doc_id", "text"]],
        batch_format="pandas",
    )
    out = setsim_cross_pairs(left, right, threshold=(9, 10))
    return pd.DataFrame(
        {
            "a": out["a"].astype("int64"),
            "b": out["b"].astype("int64"),
            "jaccard_micros": _micros(out["jaccard"]),
        }
    )


def q_ann_cosine_topk(sf_dir: str):
    """Brute-force cosine top-10 for the vec_id=0 embedding (numpy matmul per
    batch against a broadcast query)."""
    import pyarrow.parquet as pq
    import ray.data

    from search_engine_framework_ray.stages.ann import brute_force_topk

    path = os.path.join(sf_dir, "embeddings.parquet")
    q = np.asarray(
        pq.read_table(path).to_pandas().set_index("vec_id").loc[0, "embedding"],
        dtype=np.float32,
    )
    ds = ray.data.read_parquet(path)
    out = brute_force_topk(ds, q, k=10)
    out["cosine_micros"] = _micros(out["score"])
    return out[["rank", "vec_id", "cosine_micros"]].reset_index(drop=True)


def q_ann_filtered(sf_dir: str):
    """Metadata-filtered vector search (the production ANN pattern: a
    predicate narrows the candidate set BEFORE any scoring): brute-force
    cosine top-10 among label=3 vectors only, the filter applied per batch
    upstream of the matmul so non-matching vectors never reach the scoring
    kernel. SQL twin adds the same WHERE."""
    import pyarrow.parquet as pq
    import ray.data

    from search_engine_framework_ray.stages.ann import brute_force_topk

    path = os.path.join(sf_dir, "embeddings.parquet")
    q = np.asarray(
        pq.read_table(path).to_pandas().set_index("vec_id").loc[0, "embedding"],
        dtype=np.float32,
    )
    ds = ray.data.read_parquet(path).map_batches(
        lambda b: b[b["label"] == 3], batch_format="pandas"
    )
    out = brute_force_topk(ds, q, k=10)
    out["cosine_micros"] = _micros(out["score"])
    return out[["rank", "vec_id", "cosine_micros"]].reset_index(drop=True)


def q_ann_sq_topk(sf_dir: str):
    """Scalar-quantized (SQ8) ANN: per-dim (lo,hi) minmax pass → uint8
    codes (4× less scan bandwidth than f32 — the memory-bound scale
    knob) → asymmetric search (raw f64 query vs reconstructed codes),
    micros-rounded rank key (stages/ann.py sq_minmax/sq_encode/sq_topk).
    The SQL twin quantizes, reconstructs and scores with the identical
    f64 expressions, so the hash certifies codes AND ranking."""
    import pyarrow.parquet as pq
    import ray.data

    from search_engine_framework_ray.stages.ann import (
        sq_encode,
        sq_minmax,
        sq_topk,
    )

    path = os.path.join(sf_dir, "embeddings.parquet")
    q = np.asarray(
        pq.read_table(path).to_pandas().set_index("vec_id").loc[0, "embedding"],
        dtype=np.float64,
    )
    ds = ray.data.read_parquet(path)
    lo, hi = sq_minmax(ds)
    codes = sq_encode(ds, lo, hi)
    out = sq_topk(codes, lo, hi, q, k=10)
    for c in ("rank", "vec_id", "cosine_micros"):
        out[c] = out[c].astype("int64")
    return out[["rank", "vec_id", "cosine_micros"]].reset_index(drop=True)


def q_ann_pq_topk(sf_dir: str):
    """Product-quantized (PQ) ANN: 4 subspaces × 8 centroids trained with
    the repo's deterministic Lloyd (2 iters, md5 seed sample, 1e-6
    centroid quantization), codes = per-subspace argmin, then asymmetric
    (ADC) top-10 for the vec_id=0 query — the per-sub query→centroid
    distances are micros-floored to int64 so the per-vector total is an
    INTEGER sum on both engines (stages/ann.py pq_fit/pq_encode/pq_topk).
    The SQL twin replays training, encoding and ranking with `sub` added
    to every group key of the k-means replay."""
    import pyarrow.parquet as pq
    import ray.data

    from search_engine_framework_ray.stages.ann import pq_encode, pq_fit, pq_topk

    path = os.path.join(sf_dir, "embeddings.parquet")
    q = np.asarray(
        pq.read_table(path).to_pandas().set_index("vec_id").loc[0, "embedding"],
        dtype=np.float64,
    )
    ds = ray.data.read_parquet(path)
    books = pq_fit(ds, m=4, ksub=8, iters=2)
    codes = pq_encode(ds, books)
    out = pq_topk(codes, books, q, k=10)
    for c in ("rank", "vec_id", "adc_micros"):
        out[c] = out[c].astype("int64")
    return out[["rank", "vec_id", "adc_micros"]].reset_index(drop=True)


def q_ann_ivfpq_topk(sf_dir: str):
    """IVF-PQ (IVFADC) search: 10-cell coarse quantizer prunes to the
    query's 3 nearest cells, PQ codes (4×8) compress the scan, integer
    ADC ranks — the prune+compress composition a billion-vector
    deployment runs (stages/ann.py ivf_pq_topk). The SQL twin chains the
    coarse k-means replay, the sub-keyed PQ replay (sharing one seed
    ordering and one dims CTE), the probe row_number and the integer ADC
    join."""
    import pyarrow.parquet as pq
    import ray.data

    from search_engine_framework_ray.stages.ann import ivf_pq_topk

    path = os.path.join(sf_dir, "embeddings.parquet")
    q = np.asarray(
        pq.read_table(path).to_pandas().set_index("vec_id").loc[0, "embedding"],
        dtype=np.float64,
    )
    ds = ray.data.read_parquet(path)
    out = ivf_pq_topk(ds, q, nlist=10, nprobe=3, m=4, ksub=8, iters=2, k=10)
    for c in ("rank", "vec_id", "coarse", "adc_micros"):
        out[c] = out[c].astype("int64")
    return out[["rank", "vec_id", "coarse", "adc_micros"]].reset_index(drop=True)


def q_knn_join(sf_dir: str):
    """k-NN join: every query-table row (vec_id % 50 == 3) gets its 5
    nearest corpus neighbours by cosine, self-matches excluded — the
    retrieval side of semantic dedup/augmentation. The bounded query block
    is broadcast once; each corpus batch computes one matmul against it
    and keeps LOCAL top-k per query, so k·n_batches rows per query reach
    the final re-rank (stages/ann.py brute_force_topk)."""
    import pyarrow.parquet as pq
    import ray.data

    from search_engine_framework_ray.stages.ann import brute_force_topk

    path = os.path.join(sf_dir, "embeddings.parquet")
    qdf = pq.read_table(path).to_pandas()
    qdf = qdf[qdf["vec_id"] % 50 == 3].sort_values("vec_id")
    qids = qdf["vec_id"].to_numpy()
    qmat = np.stack([np.asarray(e, dtype=np.float64) for e in qdf["embedding"]])
    ds = ray.data.read_parquet(path)
    res = brute_force_topk(ds, qmat, k=6)  # k+1: room to drop the self hit
    res["qid"] = res["query_id"].map({i: int(v) for i, v in enumerate(qids)})
    res = res[res["vec_id"] != res["qid"]]
    out = []
    for qid, g in res.groupby("qid", sort=True):
        g = g.sort_values(
            ["score", "vec_id"], ascending=[False, True], kind="mergesort"
        ).head(5).copy()
        g["rnk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        out.append(g)
    res = pd.concat(out, ignore_index=True)
    res["cosine_micros"] = _micros(res["score"])
    for c in ("qid", "rnk", "vec_id"):
        res[c] = res[c].astype("int64")
    return (
        res[["qid", "rnk", "vec_id", "cosine_micros"]]
        .sort_values(["qid", "rnk"])
        .reset_index(drop=True)
    )


def q_source_centroids(sf_dir: str):
    """Per-source mean embedding (domain profile vectors): the domain key
    is attached by a tagged-union co-partition (Ray's hash join rejects
    list payloads; broadcasting the id→key map would be corpus-sized),
    then vector aggregation WITHOUT a second vector shuffle — each batch
    emits |sources|·dim narrow (key, dim, psum, n) partials, one tiny
    groupby finishes (stages/ann.py attach_key_copartition +
    grouped_centroids)."""
    import ray.data

    from search_engine_framework_ray.stages.ann import (
        centroids_from_partials,
        keyed_centroid_partials,
    )

    emb = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "source"]
    )
    partials = keyed_centroid_partials(emb, docs)
    out = centroids_from_partials(partials, key_col="source").to_pandas()
    out["centroid_micros"] = _micros(out["centroid"])
    for c in ("dim", "n"):
        out[c] = out[c].astype("int64")
    return (
        out[["source", "dim", "n", "centroid_micros"]]
        .sort_values(["source", "dim"])
        .reset_index(drop=True)
    )


def q_ann_ivf_topk(sf_dir: str):
    """IVF approximate top-10 (nlist=8, nprobe=8 == exhaustive probing, so
    results equal brute force and the SQL oracle)."""
    import pyarrow.parquet as pq
    import ray.data

    from search_engine_framework_ray.stages.ann import IvfIndexedSearch

    path = os.path.join(sf_dir, "embeddings.parquet")
    q = np.asarray(
        pq.read_table(path).to_pandas().set_index("vec_id").loc[0, "embedding"],
        dtype=np.float32,
    )
    ds = ray.data.read_parquet(path)
    ivf = IvfIndexedSearch(ds, nlist=8)
    out = ivf.search(q, k=10, nprobe=8)
    out["cosine_micros"] = _micros(out["score"])
    return out[["rank", "vec_id", "cosine_micros"]].reset_index(drop=True)


def q_embedding_neardup(sf_dir: str):
    """Multi-band SRP LSH + exact-cosine verify → all pairs with cosine ≥
    0.46 (the fixture's embeddings are near-orthogonal, so the threshold
    sits in a wide gap of the pair-cosine distribution; 32 bands × 2 planes
    → ~2e-8 miss, letting the all-pairs SQL oracle verify the output)."""
    import ray.data

    from search_engine_framework_ray.stages.ann import embedding_neardup_pairs

    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    pairs = embedding_neardup_pairs(ds, threshold=0.46, planes_per_band=2, bands=32)
    pairs["cosine_micros"] = _micros(pairs["cosine"])
    return pairs[["a", "b", "cosine_micros"]]


def q_token_count(sf_dir: str):
    import ray.data

    from search_engine_framework_ray.stages.textstats import token_count

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    out = ds.map_batches(token_count, batch_format="pandas").to_pandas()
    return (
        out[["doc_id", "n_ws_tokens", "n_bpe_tokens"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_quality(sf_dir: str):
    import ray.data

    from search_engine_framework_ray.stages.textstats import quality_score

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    out = ds.map_batches(quality_score, batch_format="pandas").to_pandas()
    out["stopword_ratio_micros"] = _micros(out["stopword_ratio"])
    return (
        out[["doc_id", "n_chars_q", "n_words", "stopword_ratio_micros"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_langid(sf_dir: str):
    import ray.data

    from search_engine_framework_ray.stages.textstats import LangIdStage

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    out = ds.map_batches(LangIdStage(), batch_format="pandas").to_pandas()
    return out[["doc_id", "lang_pred"]].sort_values("doc_id").reset_index(drop=True)


def q_fingerprint(sf_dir: str):
    """Whitespace-normalized md5-low64 document fingerprint (signed int64)
    — SQL oracle via DuckDB's md5_number_lower. (The rolling Rabin variant
    remains a library kernel with unit goldens.)"""
    import ray.data

    from search_engine_framework_ray.stages.textstats import fingerprint_md5

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = ds.map_batches(fingerprint_md5, batch_format="pandas").to_pandas()
    return out[["doc_id", "fp_md5"]].sort_values("doc_id").reset_index(drop=True)


def q_decontam(sf_dir: str):
    """Benchmark decontamination (train/test n-gram overlap): docs with
    doc_id % 50 == 7 play the held-out eval set; every OTHER doc is flagged
    with its count of distinct 3-word shingles shared with the eval set.
    Broadcast eval shingle-hash set + one streaming corpus pass
    (stages/decontam.py) — the oracle is the exact trigram join in SQL."""
    import ray.data

    from search_engine_framework_ray.stages.decontam import decontaminate

    src = os.path.join(sf_dir, "documents.parquet")
    eval_texts = (
        ray.data.read_parquet(src, columns=["doc_id", "text"])
        .map_batches(
            lambda b: b[b["doc_id"] % 50 == 7], batch_format="pandas"
        )
        .to_pandas()["text"]
        .tolist()
    )
    corpus = ray.data.read_parquet(src, columns=["doc_id", "text"]).map_batches(
        lambda b: b[b["doc_id"] % 50 != 7], batch_format="pandas"
    )
    out = decontaminate(corpus, eval_texts, k=3).to_pandas()
    out = out[["doc_id", "contam_ngrams"]].copy()
    out["contaminated"] = (out["contam_ngrams"] > 0).astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_lm_bigram_ppl(sf_dir: str):
    """Corpus-trained Laplace-smoothed bigram LM, per-doc log-perplexity
    (nats, mean over bigram positions) — the CCNet-style fluency signal.
    Count → join → score → aggregate, all distributed (stages/lm.py); the
    SQL twin rebuilds the identical counts and ln() arithmetic."""
    import ray.data

    from search_engine_framework_ray.stages.lm import bigram_ppl

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = bigram_ppl(ds).to_pandas()
    out["logppl_micros"] = _micros(out["logppl"])
    return (
        out[["doc_id", "n_bigrams", "logppl_micros"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_repetition(sf_dir: str):
    """Within-doc repetition quality signals (Gopher-style filters): modal
    bigram fraction + duplicated-5-gram fraction. One streaming pass, no
    shuffle (stages/repetition.py)."""
    import ray.data

    from search_engine_framework_ray.stages.repetition import repetition_stats

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = ds.map_batches(repetition_stats, batch_format="pandas").to_pandas()
    out["top_2gram_micros"] = _micros(out["top_2gram_frac"])
    out["dup_5gram_micros"] = _micros(out["dup_5gram_frac"])
    return (
        out[["doc_id", "top_2gram_micros", "dup_5gram_micros"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_cross_dup(sf_dir: str):
    """Corpus-wide duplicated-trigram fraction per doc: share of a doc's
    trigram positions whose trigram also appears in another doc — one
    gram-bucket shuffle + narrow per-doc sum (stages/repetition.py)."""
    import ray.data

    from search_engine_framework_ray.stages.repetition import cross_dup_fraction

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = cross_dup_fraction(ds, k=3).to_pandas()
    out["dup_frac_micros"] = _micros(out["dup_frac"])
    return (
        out[["doc_id", "n_grams", "dup_frac_micros"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_source_boilerplate(sf_dir: str):
    """Per-source (host) boilerplate fraction: share of each source's
    trigram positions whose trigram recurs in ≥2 distinct docs of the
    same source — the site-templating signal that decides which hosts
    need boilerplate removal (stages/repetition.py
    ``source_boilerplate``; one gram-bucket shuffle, ≤|sources| rows
    leave each bucket)."""
    import ray.data

    from search_engine_framework_ray.stages.repetition import source_boilerplate

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "text"],
    )
    out = source_boilerplate(ds, k=3).to_pandas()
    out["dup_frac_micros"] = _micros(out["dup_frac"])
    return (
        out[["source", "n_grams", "dup_frac_micros"]]
        .sort_values("source")
        .reset_index(drop=True)
    )


def q_source_stats(sf_dir: str):
    """Per-origin corpus census (docs / tokens / chars per crawl source) —
    per-batch combiner, one tiny groupby (stages/corpus.py)."""
    import ray.data

    from search_engine_framework_ray.stages.corpus import source_stats

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["source", "text"]
    )
    out = source_stats(ds).to_pandas()
    for c in ("n_docs", "n_tokens", "n_chars_total"):
        out[c] = out[c].astype("int64")
    return (
        out[["source", "n_docs", "n_tokens", "n_chars_total"]]
        .sort_values("source")
        .reset_index(drop=True)
    )


def q_facet_counts(sf_dir: str):
    """Faceted search: per-(source, lang) doc counts over the
    #AND(spark join) boolean match set — the retrieved ids (bounded by the
    query's top-k) broadcast into one metadata pass with per-batch
    combiners, then a tiny groupby (stages/corpus.py facet_counts)."""
    import ray.data

    from search_engine_framework_ray.stages.corpus import facet_counts

    df = _run(
        sf_dir, f"#AND({_BM25_TERMS[0]} {_BM25_TERMS[1]})",
        "UnrankedBoolean", k=10_000,
    )
    ids = {int(x) for x in df["doc_id"]}
    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "lang"],
    )
    return facet_counts(docs, ids, ["source", "lang"])


def q_triangles(sf_dir: str):
    """Per-node triangle counts over a deterministic ring-with-chords graph
    derived from doc ids (i → i+1, i → i+2 mod N): degree-ordered-
    orientation triangle enumeration (wedges bounded by Σ outdeg²,
    outdeg = O(√m) under the orientation), three narrow tagged-union
    bucket shuffles (stages/graph.py triangle_counts)."""
    import ray.data

    import pyarrow.parquet as papq

    from search_engine_framework_ray.stages.graph import triangle_counts

    path = os.path.join(sf_dir, "documents.parquet")
    n_docs = papq.read_metadata(path).num_rows

    def mk_edges(b: pd.DataFrame) -> pd.DataFrame:
        i = b["doc_id"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "src": np.concatenate([i, i]),
                "dst": np.concatenate([(i + 1) % n_docs, (i + 2) % n_docs]),
            }
        )

    edges = ray.data.read_parquet(path, columns=["doc_id"]).map_batches(
        mk_edges, batch_format="pandas"
    )
    out = triangle_counts(edges).to_pandas()
    for c in ("node", "n_triangles"):
        out[c] = out[c].astype("int64")
    return out.sort_values("node").reset_index(drop=True)


def q_kmv_distinct(sf_dir: str):
    """Per-source distinct-vocabulary estimate via mergeable KMV (bottom-k)
    sketches: one streaming partial pass (≤ k narrow rows per source per
    batch) + one tiny groupby merge; the integer bottom-k estimator
    ``((k-1)·2⁶⁴) // h_k`` is evaluated exactly on both sides
    (stages/sketch.py)."""
    import ray.data

    from search_engine_framework_ray.stages.sketch import kmv_distinct

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["source", "text"]
    )
    out = kmv_distinct(ds, key_col="source", text_col="text", k=16)
    return out.sort_values("source").reset_index(drop=True)


def q_kmv_jaccard(sf_dir: str):
    """Pairwise source-vocabulary Jaccard from the same KMV sketches:
    bottom-k of the merged sketch, share present in both — reported as the
    exact integer ratio ``(n_both·10⁶) // k_eff`` (stages/sketch.py)."""
    import ray.data

    from search_engine_framework_ray.stages.sketch import kmv_jaccard_pairs

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["source", "text"]
    )
    out = kmv_jaccard_pairs(ds, key_col="source", text_col="text", k=16)
    return out.sort_values(["key_a", "key_b"]).reset_index(drop=True)


_CMS_PROBE_TERMS = [
    "join", "hash", "row", "batch", "scan",
    "customer", "column", "filter", "merge", "zzz-absent",
]


def q_cms_counts(sf_dir: str):
    """Count-min point-frequency estimates for a fixed probe-term list,
    next to the exact counts (stages/sketch.py cms_point_counts): 4×1024
    integer counters built from per-batch partials — the batch vocabulary
    never crosses the shuffle, and the sketch stays 4 KiB of counters at
    any corpus size. The one-sided guarantee est ≥ exact is visible in the
    two columns; the absent probe term pins the zero path."""
    import ray.data

    from search_engine_framework_ray.stages.sketch import cms_point_counts

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )
    out = cms_point_counts(ds, _CMS_PROBE_TERMS, d=4, w=1024)
    return out.sort_values("term").reset_index(drop=True)


def q_hll_distinct(sf_dir: str):
    """Per-source distinct-vocabulary estimates via 256-register
    HyperLogLog (stages/sketch.py hll_distinct): register maxes are
    associative per-batch partials (≤256 narrow rows per source per
    batch), the raw harmonic-mean estimator is evaluated in exact integer
    arithmetic (Σ2^(56-M) as a big-int), and the small-range linear-
    counting correction's single ln() is platform-parity-verified for all
    256 possible zero-register counts. The fixed-size sibling of
    kmv_distinct — 256 registers per key at any corpus size."""
    import ray.data

    from search_engine_framework_ray.stages.sketch import hll_distinct

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["source", "text"]
    )
    out = hll_distinct(ds, key_col="source", text_col="text")
    return out.sort_values("source").reset_index(drop=True)


def q_ngram_topk(sf_dir: str):
    """Corpus-wide top-20 bigrams — per-batch partial counts, md5-bucket
    reduce owning each gram fully, k·B-row driver merge (stages/corpus.py)."""
    import ray.data

    from search_engine_framework_ray.stages.corpus import ngram_topk

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )
    out = ngram_topk(ds, n=2, k=20)
    out["cnt"] = out["cnt"].astype("int64")
    return out.reset_index(drop=True)


def _bloom_join(sf_dir: str, anti: bool):
    import ray.data

    from search_engine_framework_ray.stages.join import bloom_semi_join

    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderpriority"],
    )
    build = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_quantity"],
    ).map_batches(
        lambda b: b[b["l_quantity"] >= 45][["l_orderkey"]],
        batch_format="pandas",
    )
    # bits=16384 (NOT the production 2^20) so ~25% of non-matching keys
    # are Bloom false positives at sf0.01 — the exact-verify co-partition
    # has to kill them under the driver hash, and the anti path's
    # no-shuffle definite stream still carries the other ~75%
    out = bloom_semi_join(
        orders,
        build,
        probe_key="o_orderkey",
        build_key="l_orderkey",
        anti=anti,
        bits=16384,
        k_hashes=2,
    ).to_pandas()
    for c in ("o_orderkey", "o_custkey"):
        out[c] = out[c].astype("int64")
    return (
        out[["o_orderkey", "o_custkey", "o_orderpriority"]]
        .sort_values("o_orderkey")
        .reset_index(drop=True)
    )


def q_semi_join_bloom(sf_dir: str):
    """EXACT semi join with a broadcast Bloom runtime filter
    (stages/join.py bloom_semi_join): the probe side is pruned before the
    shuffle (the runtime-filter pattern for selective star joins), then
    one tagged-union key co-partition verifies candidates exactly —
    false positives die there, so the result is exact and SQL-EXISTS
    checkable."""
    return _bloom_join(sf_dir, anti=False)


def q_anti_join_bloom(sf_dir: str):
    """EXACT anti join, Bloom-accelerated: rows failing the filter are
    DEFINITE non-matches and stream through with no shuffle at all; only
    the false-positive sliver rides the verify co-partition
    (stages/join.py bloom_semi_join anti=True)."""
    return _bloom_join(sf_dir, anti=True)


def q_global_quantiles(sf_dir: str):
    """EXACT global p50/p90/p99 of events.value with NO task ever holding
    the column: iterative histogram-refine selection (stages/aggregate.py
    exact_quantiles) — one minmax pass, then per-round streaming
    histograms whose brackets snap to the chosen bin's value range, then
    an exact pick over the ≤ final_bound bracket survivors. n_bins=32 /
    final_bound=512 are sized BELOW the sf0.01 row count so the refine
    rounds actually run under the driver hash (the rank-k definition
    floor(q·(n−1)) matches the SQL OFFSET twin)."""
    import ray.data

    from search_engine_framework_ray.stages.aggregate import exact_quantiles

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["value"]
    )
    out = exact_quantiles(
        ds, "value", [0.5, 0.9, 0.99], n_bins=32, final_bound=512, max_refine=8
    )
    out["q_pct"] = (out["q"] * 100).round().astype("int64")
    out["value_micros"] = _micros(out["value"])
    out["n"] = out["n"].astype("int64")
    return (
        out[["q_pct", "value_micros", "n"]]
        .sort_values("q_pct")
        .reset_index(drop=True)
    )


def q_line_dedup(sf_dir: str):
    """Cross-document line-level dedup (stages/dedup.py line_dedup — the
    CCNet/RefinedWeb paragraph dedup: every line whose exact text appeared
    earlier in the corpus is dropped, first occurrence = minimal
    (doc_id, line_no)). The fixture text is single-line, so "lines" are
    the fixed 8-token windows (same derivation in the SQL twin); the twin
    groups by the literal line string, so a green hash also certifies the
    engine's 64-bit line hashing collision-free on this corpus."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import line_dedup

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = line_dedup(ds, tokens_per_line=8).to_pandas()
    for c in ("doc_id", "n_kept", "n_dropped"):
        out[c] = out[c].astype("int64")
    return (
        out[["doc_id", "n_kept", "n_dropped", "clean_text"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_heavy_hitters(sf_dir: str):
    """EXACT top-5 tokens via Misra-Gries mergeable summaries + a
    candidate-only exact verify pass (stages/sketch.py heavy_hitters) —
    the bounded-memory sibling of ngram_topk: ≤ m+1 narrow rows leave
    each batch instead of its vocabulary. m=30 < the fixture's 31-token
    vocab, so the decrement/merge-error branch is exercised at sf0.01
    while the guarantee (k-th lower bound > total decrement) still holds;
    the output is exact, hence SQL-hash-checkable."""
    import ray.data

    from search_engine_framework_ray.stages.sketch import heavy_hitters

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )
    out = heavy_hitters(ds, m=30, k=5)
    out["cnt"] = out["cnt"].astype("int64")
    return out[["term", "cnt"]].reset_index(drop=True)


def q_tfidf_topk(sf_dir: str):
    """Top-3 terms per doc by tf·ln(N/df) — bucket-reduced df table
    broadcast once, one streaming scoring pass; ranked on the
    micros-rounded score so the SQL twin orders identically
    (stages/corpus.py)."""
    import ray.data

    from search_engine_framework_ray.stages.corpus import tfidf_topk

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = tfidf_topk(ds, k=3).to_pandas()
    for c in ("doc_id", "tf", "tfidf_micros", "rank"):
        out[c] = out[c].astype("int64")
    return (
        out[["doc_id", "term", "tf", "tfidf_micros", "rank"]]
        .sort_values(["doc_id", "rank"])
        .reset_index(drop=True)
    )


def q_docs_shuffle(sf_dir: str):
    """Deterministic (seeded) global training-order shuffle: order by
    md5-low64(doc_id), global positions via the packing-style two-level
    prefix sum — no full sort, nothing wide on the driver
    (stages/corpus.py)."""
    import ray.data

    from search_engine_framework_ray.stages.corpus import deterministic_shuffle

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    out = deterministic_shuffle(ds).to_pandas()
    for c in ("pos", "doc_id"):
        out[c] = out[c].astype("int64")
    return out[["pos", "doc_id"]].sort_values("pos").reset_index(drop=True)


def q_embedding_clusters(sf_dir: str):
    """Deterministic distributed Lloyd k-means (k=10, 2 iterations,
    hash-sampled seeds, micros-quantized centroids) → (vec_id, cluster);
    the SQL twin replays the identical iterations (stages/ann.py
    kmeans_clusters)."""
    import ray.data

    from search_engine_framework_ray.stages.ann import kmeans_clusters

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    out = kmeans_clusters(ds, k=10, iters=2).to_pandas()
    for c in ("vec_id", "cluster"):
        out[c] = out[c].astype("int64")
    return out[["vec_id", "cluster"]].sort_values("vec_id").reset_index(drop=True)


def q_pca_top_component(sf_dir: str):
    """Top principal component of the embedding table by EXACT-integer
    power iteration (6 steps over the centered scatter C = n·G − S·Sᵀ,
    HITS-style sign/abs truncating rescale) → every vector's projection
    onto the component, bit-reproducible in any 128-bit-integer SQL
    engine. One streaming pass for the d×d sufficient statistics, one for
    the projection (stages/ann.py pca_power)."""
    import ray.data

    from search_engine_framework_ray.stages.ann import pca_power

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    out = pca_power(ds, iters=6)
    for c in ("vec_id", "proj"):
        out[c] = out[c].astype("int64")
    return out[["vec_id", "proj"]].reset_index(drop=True)


def q_semantic_dedup(sf_dir: str):
    """SemDeDup composition (stages/ann.py ``semantic_dedup``): the
    deterministic k-means fit buckets the embeddings, then one
    cluster-co-partitioned Gram-matrix pass marks every vector with a
    lower-id clustermate at cosine >= 0.46 (the fixture's pair-cosine gap —
    see ``embedding_neardup``) as a drop. SQL twin = the kmeans replay CTEs
    + a within-cluster list_cosine_similarity self-join. A hostile all-zero
    vector (vec_id = max + 1) is planted on BOTH sides to pin the zero-norm
    cosine convention under the hash: cosine(0⃗, ·) ≡ 0, never a dup."""
    import pyarrow.parquet as papq
    import ray.data

    from search_engine_framework_ray.stages.ann import semantic_dedup

    p = os.path.join(sf_dir, "embeddings.parquet")
    pf = papq.ParquetFile(p)
    first = next(pf.iter_batches(batch_size=1, columns=["embedding"]))
    dim = len(first["embedding"][0])
    zid = int(papq.read_table(p, columns=["vec_id"]).column("vec_id").to_pandas().max()) + 1
    ds = ray.data.read_parquet(p, columns=["vec_id", "embedding"]).union(
        ray.data.from_items([{"vec_id": zid, "embedding": [0.0] * dim}])
    )
    out = semantic_dedup(ds, k=10, iters=2, threshold_micros=460_000).to_pandas()
    for c in ("vec_id", "cluster", "keep"):
        out[c] = out[c].astype("int64")
    return (
        out[["vec_id", "cluster", "keep"]]
        .sort_values("vec_id")
        .reset_index(drop=True)
    )


def _extended_index(sf_dir: str) -> str:
    """Build (cached) the incrementally-built index: documents split 60/40
    into a base `build_index` + a delta `extend_index` append (new shards,
    docids continue, global df/ctf and collection stats re-reduced from
    per-shard combiner files). Returns the index path; the cache root also
    hosts the compacted copy (`q_compact_bm25`)."""
    import pyarrow.parquet as pq_

    from search_engine_framework_ray.functions.analysis import PLAIN_ANALYZER
    from search_engine_framework_ray.pipelines.build_index import (
        PlainSource,
        build_index,
        extend_index,
    )

    import json
    import shutil

    from search_engine_framework_ray.state import index_layout as lay

    root = f"/tmp/sefr_indices/ext_{_sf_key(sf_dir)}"
    src = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(src)
    marker = json.dumps({"size": st.st_size, "mtime": st.st_mtime})
    marker_p = os.path.join(root, "source.json")
    if not (os.path.exists(marker_p) and open(marker_p).read() == marker):
        shutil.rmtree(root, ignore_errors=True)  # stale cache → full redo
        os.makedirs(root, exist_ok=True)
        with open(marker_p, "w") as f:
            f.write(marker)
    base_p, delta_p = os.path.join(root, "base.parquet"), os.path.join(root, "delta.parquet")
    if not (os.path.exists(base_p) and os.path.exists(delta_p)):
        docs = pq_.read_table(src)
        docs = docs.take(
            pd.Series(docs["doc_id"].to_pandas()).sort_values().index.to_numpy()
        )
        cut = int(docs.num_rows * 0.6)
        pq_.write_table(docs.slice(0, cut), base_p + ".tmp")
        os.replace(base_p + ".tmp", base_p)
        pq_.write_table(docs.slice(cut), delta_p + ".tmp")
        os.replace(delta_p + ".tmp", delta_p)
    idx = os.path.join(root, "index")
    already_extended = os.path.exists(lay.stats_path(idx)) and lay.read_stats(idx).get(
        "extended_meta"
    )
    if not already_extended:
        build_index(
            base_p, idx, analyzer=PLAIN_ANALYZER, plain_source=PlainSource(), num_shards=3
        )
    extend_index(delta_p, idx, analyzer=PLAIN_ANALYZER, plain_source=PlainSource(), num_shards=2)
    return idx


def q_delta_bm25(sf_dir: str):
    """Incremental indexing, oracle-verified: the flagship BM25 query over
    the EXTENDED index (see `_extended_index`). The oracle is the same
    full-corpus SQL as `bm25_topk` — scores depend on global stats and
    postings, not shard boundaries, so an exact hash match proves the delta
    path rebuilt nothing and missed nothing."""
    return _flagship_bm25_over(_extended_index(sf_dir))


def q_compact_bm25(sf_dir: str):
    """Index compaction, oracle-verified: the base+delta extended index
    (5 shards) is compacted into 2 consolidated shards in a NEW directory
    (`pipelines/compact.py` — one Ray task per output shard, single-source
    posting lists byte-copied, multi-source lists concatenated and
    re-encoded with fresh skip blocks), then the flagship BM25 query runs
    over the COMPACTED index. Same full-corpus SQL oracle as `bm25_topk`:
    a hash match proves compaction changed nothing logical."""
    from search_engine_framework_ray.pipelines.compact import compact_index

    idx = _extended_index(sf_dir)
    out = os.path.join(os.path.dirname(idx), "compacted")
    compact_index(idx, out, num_shards=2)
    return _flagship_bm25_over(out)


def _doc_link_graph(sf_dir: str):
    """The deterministic link graph shared by the pagerank / ppr / blend
    entries: each doc links to (id*7+1) % N, docs with id%3>=1 also to
    (id*13+5) % N, and docs with id%3>=2 to (id*31+11) % N (dense 0-based
    ids keep every target in-domain). Returns (edges_ds, nodes_ds, n)."""
    import pyarrow as pa
    import ray.data

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    n = docs.count()  # metadata-only on an untransformed read

    def edges_of(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy().astype(np.int64)
        d1, d2 = d[d % 3 >= 1], d[d % 3 >= 2]
        src = np.concatenate([d, d1, d2])
        dst = np.concatenate(
            [(d * 7 + 1) % n, (d1 * 13 + 5) % n, (d2 * 31 + 11) % n]
        )
        return pa.table({"src": src, "dst": dst})

    edges = docs.map_batches(edges_of, batch_format="pyarrow")
    nodes = docs.map_batches(
        lambda t: t.rename_columns(["node"]), batch_format="pyarrow"
    )
    return edges, nodes, n


def q_pagerank_ppr(sf_dir: str):
    """Personalized PageRank (random walk with restart to the seed set
    doc_id % 10 == 0) over the same link graph as `pagerank`: non-seeds
    get no teleport mass, so scores rank proximity to the seeds — the
    related-pages / recommendation scorer (stages/graph.py pagerank with
    seed_pred). Same exact int64 arithmetic; the twin swaps the uniform
    teleport constant for the seed CASE."""
    from search_engine_framework_ray.stages.graph import pagerank

    edges, nodes, n = _doc_link_graph(sf_dir)
    out = pagerank(
        edges,
        nodes=nodes,
        iters=3,
        seed_pred=lambda k: np.asarray(k, dtype=np.int64) % 10 == 0,
    ).to_pandas()
    out["doc_id"] = out["node"].astype("int64")
    out["rank_micros"] = out["rank_micros"].astype("int64")
    return (
        out[["doc_id", "rank_micros"]].sort_values("doc_id").reset_index(drop=True)
    )


def q_pagerank(sf_dir: str):
    """Distributed PageRank (stages/graph.py) over a deterministic link
    graph derived from the documents table: each doc links to
    ``(id*7+1) % N``, docs with ``id%3>=1`` also to ``(id*13+5) % N``, and
    docs with ``id%3>=2`` to ``(id*31+11) % N`` (dense 0-based ids keep
    every target in-domain). Three power iterations in exact int64
    micro-unit arithmetic — bit-reproducible across partitionings, so the
    DuckDB twin hash-matches. Produces the per-document score table the
    reference's LeToR consumes from a file (LearnToRank.java pagerank
    feature; `pipelines/letor.py:read_score_file`)."""
    from search_engine_framework_ray.stages.graph import pagerank

    edges, nodes, n = _doc_link_graph(sf_dir)
    # n_buckets ≈ cluster cores at scale; at fixture scale per-task
    # scheduling dominates (~10 rank rows per bucket), so size buckets down
    out = pagerank(
        edges, nodes=nodes, iters=3, n_buckets=8 if n <= 100_000 else 64
    ).to_pandas()
    out = out.rename(columns={"node": "doc_id"})
    for c in ("doc_id", "rank_micros"):
        out[c] = out[c].astype("int64")
    return out[["doc_id", "rank_micros"]].sort_values("doc_id").reset_index(drop=True)


def q_static_blend(sf_dir: str):
    """Static-rank blending — fold a query-independent PageRank prior into
    the BM25 ranking (the classic web-search evidence combination;
    Richardson, Prakash & Brill WWW 2006 'Beyond PageRank' family, score +
    w·ln(static_rank)). Stage 1: depth-100 BM25 pool in the shared
    (score_micros DESC, doc_id ASC) order. Stage 2: the distributed
    exact-integer PageRank (same link graph as `pagerank`), FILTERED to the
    bounded pool ids before anything reaches the driver — at production
    scale the rank table is a materialized column and this is a pruned
    read. Prior micros-rounded per row, blended in exact int64."""
    from search_engine_framework_ray.stages.graph import pagerank

    pool = _flagship_bm25_over(_docs_index(sf_dir), n=100, k=_full_k(sf_dir))

    edges, nodes, n = _doc_link_graph(sf_dir)
    pr_ds = pagerank(edges, nodes=nodes, iters=3, n_buckets=8 if n <= 100_000 else 64)
    ids = {int(x) for x in pool["doc_id"]}
    pr = (
        pr_ds.map_batches(
            lambda b: b[b["node"].isin(ids)], batch_format="pandas"
        )
        .to_pandas()
        .rename(columns={"node": "doc_id"})
    )
    m = pool.merge(pr, on="doc_id", how="inner")
    m["prior_micros"] = _round_away(
        500000 * np.log(m["rank_micros"].to_numpy(np.float64) / 1000000.0)
    ).astype("int64")
    m["blended_micros"] = m["score_micros"] + m["prior_micros"]
    out = (
        m.sort_values(
            ["blended_micros", "doc_id"], ascending=[False, True], kind="mergesort"
        )
        .head(20)[["doc_id", "score_micros", "prior_micros", "blended_micros"]]
        .reset_index(drop=True)
    )
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out


def q_hits(sf_dir: str):
    """HITS hubs & authorities (stages/graph.py ``hits``; Kleinberg JACM
    1999) over the same deterministic link graph the pagerank entries use —
    the mutual-reinforcement companion ranking (a page is a good authority
    when good hubs link to it, a good hub when it links to good
    authorities). Two iterations in exact int64 fixed-point with
    max-normalization after every half-step — bit-reproducible across
    partitionings, so the DuckDB twin (unrolled auth/hub updates + max
    rescales) hash-matches."""
    from search_engine_framework_ray.stages.graph import hits

    edges, nodes, n = _doc_link_graph(sf_dir)
    out = (
        hits(edges, nodes=nodes, iters=2, n_buckets=4 if n <= 100_000 else 64)
        .to_pandas()
        .rename(columns={"node": "doc_id", "hub": "hub_micros", "auth": "auth_micros"})
    )
    for c in ("doc_id", "hub_micros", "auth_micros"):
        out[c] = out[c].astype("int64")
    return (
        out[["doc_id", "hub_micros", "auth_micros"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_link_components(sf_dir: str):
    """Distributed connected components (stages/graph.py
    ``connected_components``: hash-min label propagation + pointer doubling,
    O(log diameter) rounds of three narrow bucket shuffles) over a
    deterministic link graph: every doc links to ``(id+4) % N`` (four rings
    when 4 | N) and docs with ``id % 16 == 0`` also to ``(id*9+2) % N``
    (cross-links that merge two of the rings). Exact min-id labels ⇒
    bit-identical at any partitioning; the DuckDB twin is a recursive-CTE
    reachability closure."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from search_engine_framework_ray.stages.graph import connected_components

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    n = docs.count()  # metadata-only on an untransformed read

    def edges_of(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy().astype(np.int64)
        d2 = d[d % 16 == 0]
        src = np.concatenate([d, d2])
        dst = np.concatenate([(d + 4) % n, (d2 * 9 + 2) % n])
        return pa.table({"src": src, "dst": dst})

    edges = docs.map_batches(edges_of, batch_format="pyarrow")
    nodes = docs.map_batches(
        lambda t: t.rename_columns(["node"]), batch_format="pyarrow"
    )
    # n_buckets ≈ cluster cores at scale; at fixture scale the dominant cost
    # is per-task scheduling (~10 label rows/bucket), so size buckets down
    out = connected_components(
        edges, nodes=nodes, n_buckets=8 if n <= 100_000 else 64
    ).to_pandas()
    out = out.rename(columns={"node": "doc_id"})
    for c in ("doc_id", "comp"):
        out[c] = out[c].astype("int64")
    return out[["doc_id", "comp"]].sort_values("doc_id").reset_index(drop=True)


def q_collocations(sf_dir: str):
    """Top-20 bigram collocations by exact integer LIFT (= exp(PMI) · 10⁶,
    `stages/corpus.py collocations`): cnt·N·10⁶ // (cx·cy) — log-free
    ranking any SQL engine reproduces bit-for-bit. Four vocab-scale
    shuffles, corpus read twice, driver sees k·B rows."""
    import ray.data

    from search_engine_framework_ray.stages.corpus import collocations

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )
    out = collocations(ds, k=20, min_count=5)
    for c in ("cnt", "lift_micros"):
        out[c] = out[c].astype("int64")
    return out[["gram", "cnt", "lift_micros"]].reset_index(drop=True)


def q_substring_dedup(sf_dir: str):
    """Exact duplicate-substring removal (stages/dedup.py substring_dedup —
    the Lee et al. 2022 suffix-array dedup re-expressed on hashed token
    8-grams): every non-first occurrence of an 8-token span is cut out,
    overlapping spans merged. Output is (doc_id, n_removed, clean_text)
    with clean_text rebuilt canonical-whitespace; the DuckDB twin groups by
    the literal gram string, so a hash match also certifies the engine's
    64-bit gram hashing collision-free on this corpus."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import substring_dedup

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = substring_dedup(ds, min_len=8).to_pandas()
    for c in ("doc_id", "n_removed"):
        out[c] = out[c].astype("int64")
    return (
        out[["doc_id", "n_removed", "clean_text"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_curation(sf_dir: str):
    """Flagship composed curation chain (quality gate → language-id →
    exact-dedup canonical) in one streaming pass + one narrow shuffle;
    reason = first failing gate (stages/corpus.py curate)."""
    import ray.data

    from search_engine_framework_ray.stages.corpus import curate

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = curate(ds, min_words=40, keep_lang="en").to_pandas()
    for c in ("doc_id", "n_words", "cluster_id", "keep"):
        out[c] = out[c].astype("int64")
    return (
        out[["doc_id", "n_words", "lang_pred", "cluster_id", "reason", "keep"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_url_canonical(sf_dir: str):
    """URL canonicalization + canonical-URL dedup: four messy spellings per
    logical page (trailing slash + unsorted params / uppercase + explicit
    :443 / tracking params / fragment) are synthesized deterministically
    from doc_id (the fixture has no url column), then the vectorized
    canonicalizer (stages/web.py) reduces each to one canonical form and a
    bucketed min-id dedup picks the keeper. The SQL twin replays the same
    synthesis and every canonicalization rule with DuckDB string/list
    functions. Curation step the reference's ClueWeb corpus received
    upstream of Lucene (SURVEY.md §0)."""
    import ray.data

    from search_engine_framework_ray.stages.web import url_canonical_dedup

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )

    def add_url(b):
        d = b["doc_id"].astype("int64")
        page = (d // 4).astype(str)
        hostn = ((d // 4) % 50).astype(str)
        base = "www.example" + hostn + ".com"
        u0 = "https://" + base + "/a/" + page + "/?b=2&a=1"
        u1 = "HTTPS://" + base.str.upper() + ":443/a/" + page + "?a=1&b=2"
        u2 = "https://" + base + "/a/" + page + "?utm_source=feed&b=2&a=1&ref=rss"
        u3 = "https://" + base + "/a/" + page + "?b=2&a=1#sec-2"
        v = (d % 4).to_numpy()
        b = b.copy()
        b["url"] = np.select([v == 0, v == 1, v == 2], [u0, u1, u2], default=u3)
        return b

    out = url_canonical_dedup(
        ds.map_batches(add_url, batch_format="pandas")
    ).to_pandas()
    for c in ("doc_id", "canon_id", "keep"):
        out[c] = out[c].astype("int64")
    return (
        out[["doc_id", "url", "canon_url", "canon_id", "keep"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_host_cap(sf_dir: str):
    """Per-host document cap (top-10 per source by n_chars desc, doc_id
    asc): per-batch partial top-N combiner → one bucketed groupby ranks and
    cuts (stages/web.py host_cap). SQL twin is a row_number() window."""
    import ray.data

    from search_engine_framework_ray.stages.web import host_cap

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "n_chars"],
    )
    out = host_cap(ds, 10).to_pandas()
    for c in ("doc_id", "n_chars", "host_rank"):
        out[c] = out[c].astype("int64")
    return (
        out[["doc_id", "source", "n_chars", "host_rank"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_build_manifest(sf_dir: str):
    """Per-partition lineage + metrics record, driver-verified: reads every
    shard's manifest.json (the checkpoint record `build_index` resume and
    collection stats run on — north_rule's "per-partition lineage +
    metrics") and returns the recorded per-shard metrics. The SQL twin
    recomputes each metric from the corpus with the shard-boundary rule the
    build used (url-rank quartiles; PlainSource urls are zero-padded ids so
    url rank == doc_id), so a manifest that drifted from its shard's true
    content hash-fails here."""
    from search_engine_framework_ray.state import index_layout as lay

    idx = _docs_index(sf_dir)
    rows = []
    for s in lay.list_shards(idx):
        man = lay.read_manifest(idx, s)
        f = man["fields"]
        rows.append(
            {
                "shard": s,
                "docid_base": man["docid_base"],
                "n_docs": man["n_docs"],
                "body_sum_doclen": f["body"]["sum_doclen"],
                "body_doccount": f["body"]["doccount"],
                "url_sum_doclen": f["url"]["sum_doclen"],
            }
        )
    out = pd.DataFrame(rows)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("shard").reset_index(drop=True)


def q_html_extract(sf_dir: str):
    """The input_hint per-row invariant ("byte-identical extracted text per
    url") driver-verified: deterministic HTML is synthesized around each
    doc's text (comment + title with entity + keywords meta + script block
    with a raw '<' + anchor with entity), the REAL extractor
    (functions/extract.py extract_fields — the build's ExtractStage kernel)
    runs over it, and the SQL twin states the template-predicted output
    directly, so every extraction rule (comment/script drop, entity decode,
    tag→space, whitespace collapse, title/keywords/anchor capture) is under
    the value hash. Fixture text is ASCII with no markup chars — the same
    recorded assumption as the RE2-aligned token oracles."""
    import ray.data

    from search_engine_framework_ray.functions.extract import extract_fields

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def synth(b):
        d = b["doc_id"].astype("int64").astype(str)
        nxt = (b["doc_id"].astype("int64") + 1).astype(str)
        b = b.copy()
        b["html"] = (
            "<html><!-- note --><head><title>Doc " + d
            + " &amp; more</title>"
            + '<meta name="keywords" content="alpha, beta"></head>'
            + "<body><script>var x = 1 < 2;</script><p>"
            + b["text"].fillna("")
            + '</p><a href="https://ex.com/p/' + nxt
            + '">next &gt; page</a></body></html>'
        )
        return b[["doc_id", "html"]]

    def extract(b):
        recs = []
        for i, h in zip(b["doc_id"], b["html"]):
            f = extract_fields(h.encode("utf-8"))
            href, anchor = f["links"][0]
            recs.append(
                {
                    "doc_id": int(i),
                    "title": f["title"],
                    "keywords": f["keywords"],
                    "body": f["body"],
                    "n_links": len(f["links"]),
                    "href": href,
                    "anchor": anchor,
                }
            )
        return pd.DataFrame(recs)

    out = (
        ds.map_batches(synth, batch_format="pandas")
        .map_batches(extract, batch_format="pandas")
        .to_pandas()
    )
    for c in ("doc_id", "n_links"):
        out[c] = out[c].astype("int64")
    return (
        out[["doc_id", "title", "keywords", "body", "n_links", "href", "anchor"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_warc_ingest(sf_dir: str):
    """WARC segment ingestion (sources/warc.py) driver-verified — the
    Common-Crawl container the input_hint corpus actually ships in. Each
    doc becomes a WARC/1.0 ``response`` record (HTTP-wrapped payload built
    from the doc text by a closed-form template), batches write real
    segment files (alternating plain / gzip to exercise both inflate
    paths), the distributed ``read_warc`` parses them back, and the SQL
    twin states the template-predicted ``(url, ts_epoch, n_bytes, md5)``
    directly — record walk, Content-Length skips, WARC-Date parse, type
    filter, HTTP header strip, and the gzip path all sit under the value
    hash."""
    import shutil

    import ray.data

    from search_engine_framework_ray.sources.warc import read_warc, write_warc_file

    out_dir = f"/tmp/sefr_warc/{_sf_key(sf_dir)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def write_segment(b: pd.DataFrame) -> pd.DataFrame:
        recs = [
            (
                f"https://warc.example/{int(i)}",
                1_236_000_000 + int(i),
                (
                    "<html><body><p>" + (t if isinstance(t, str) else "")
                    + "</p></body></html>"
                ).encode("utf-8"),
            )
            for i, t in zip(b["doc_id"], b["text"])
        ]
        name = hashlib.md5(
            ",".join(str(int(i)) for i in b["doc_id"]).encode()
        ).hexdigest()[:16]
        ext = ".warc" if int(b["doc_id"].iloc[0]) % 2 else ".warc.gz"
        write_warc_file(os.path.join(out_dir, name + ext), recs)
        return pd.DataFrame({"n": [len(recs)]})

    n_written = int(
        docs.map_batches(write_segment, batch_format="pandas").sum("n") or 0
    )
    assert n_written == docs.count()

    def digest(t):
        import pyarrow as pa

        htmls = t["html"].to_pylist()
        return pa.table(
            {
                "url": t["url"],
                "ts_epoch": t["ts_epoch"],
                "n_bytes": pa.array([len(h) for h in htmls], pa.int64()),
                "html_md5": pa.array(
                    [hashlib.md5(h).hexdigest() for h in htmls], pa.string()
                ),
            }
        )

    out = (
        read_warc(out_dir)
        .map_batches(digest, batch_format="pyarrow")
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    for c in ("ts_epoch", "n_bytes"):
        out[c] = out[c].astype("int64")
    return out[["url", "ts_epoch", "n_bytes", "html_md5"]]


def q_ef_docsets(sf_dir: str):
    """Elias-Fano docid-set compression (functions/ef.py; Vigna WSDM 2013
    quasi-succinct indices) driver-verified: each source's sorted docid
    set is EF-encoded and immediately decoded inside its group task, and
    the entry reports the CLOSED-FORM facts of the format — low-bit width
    ``l = bit_length(U//n) - 1``, exact encoded byte count, and the
    decoded-id sum (losslessness) — all of which the SQL twin recomputes
    in integer arithmetic. This is the repo's codec for pure docid sets
    (tombstone delete lists, semi-join filters, membership snapshots);
    posting lists keep the blocked varbyte layout (tf/positions ride
    there)."""
    import ray.data

    from search_engine_framework_ray.functions.ef import ef_decode, ef_encode

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "source"]
    )
    universe = docs.count()  # metadata-only; doc ids are dense 0..N-1

    def enc(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(g["doc_id"].to_numpy(np.int64)).astype(np.uint64)
        buf = ef_encode(ids, universe)
        dec, u2 = ef_decode(buf)
        assert u2 == universe and (dec == ids).all()
        from search_engine_framework_ray.functions.ef import ef_low_bits

        return pd.DataFrame(
            {
                "source": [g["source"].iloc[0]],
                "n_docs": [len(ids)],
                "universe": [universe],
                "l_bits": [ef_low_bits(len(ids), universe)],
                "ef_bytes": [len(buf)],
                "id_sum": [int(dec.astype(np.int64).sum())],
            }
        )

    out = (
        docs.groupby("source")
        .map_groups(enc, batch_format="pandas")
        .to_pandas()
        .sort_values("source")
        .reset_index(drop=True)
    )
    for c in ("n_docs", "universe", "l_bits", "ef_bytes", "id_sum"):
        out[c] = out[c].astype("int64")
    return out[["source", "n_docs", "universe", "l_bits", "ef_bytes", "id_sum"]]


def q_resumable_sink(sf_dir: str):
    """Resumable partitioned sink driver-verified (task-brief requirement:
    partitioned output a failed run resumes, never one giant file): the
    documents table is written one atomic Parquet partition per source
    (fingerprint manifests), one partition is deleted to simulate a
    mid-job crash, the rerun must SKIP every surviving partition and
    rewrite only the victim (asserted engine-side), and the read-back
    rows must hash-match the plain corpus SQL."""
    import shutil

    import ray.data

    from search_engine_framework_ray.stages.sink import (
        read_partitioned,
        write_partitioned,
    )

    out = f"/tmp/sefr_sink/{_sf_key(sf_dir)}"
    shutil.rmtree(out, ignore_errors=True)

    def load():
        return ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "source", "n_chars"],
        )

    rep1 = write_partitioned(load(), out, "source", sort_within_by=["doc_id"])
    assert not rep1["skipped"].any(), "fresh write must write every partition"
    victim = sorted(rep1["partition"].astype(str))[0]
    shutil.rmtree(os.path.join(out, f"part={victim}"))
    rep2 = write_partitioned(load(), out, "source", sort_within_by=["doc_id"])
    st = rep2.assign(partition=rep2["partition"].astype(str)).set_index("partition")["skipped"]
    assert bool(st.drop(victim).all()), "resume must skip finished partitions"
    assert not bool(st.loc[victim]), "resume must rewrite the crashed partition"

    back = read_partitioned(out).to_pandas()
    for c in ("doc_id", "n_chars"):
        back[c] = back[c].astype("int64")
    return (
        back[["doc_id", "source", "n_chars"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_split_assign(sf_dir: str):
    """Deterministic train/val/test split (md5low64(id) % 100 buckets,
    10/10/80) — stable under re-runs and corpus growth; SQL twin is the
    same md5_number_lower arithmetic (stages/selection.py)."""
    import ray.data

    from search_engine_framework_ray.stages.selection import split_assign

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    out = split_assign(ds).to_pandas()
    for c in ("doc_id", "bucket"):
        out[c] = out[c].astype("int64")
    return (
        out[["doc_id", "bucket", "split"]].sort_values("doc_id").reset_index(drop=True)
    )


def q_chunking(sf_dir: str):
    """Sliding-window document chunking (size 64 / stride 48 whitespace
    tokens) for embedding pipelines; every chunk's exact text is certified
    by an md5-low64 fingerprint the SQL twin recomputes with list slicing
    over the same RE2 tokens (stages/packing.py chunk_documents)."""
    import ray.data

    from search_engine_framework_ray.stages.packing import chunk_documents

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = chunk_documents(ds).to_pandas()
    return (
        out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)[
            ["doc_id", "chunk_id", "start_tok", "n_tokens", "chunk_fp"]
        ]
    )


def q_text_norm(sf_dir: str):
    """Unicode normalization pass: a decomposed-accent + control-char +
    multi-space tail is appended to every doc (the ASCII fixture has none),
    then NFC → control strip → whitespace collapse runs distributed and
    the SQL twin replays the chain with nfc_normalize / regexp_replace /
    md5_number_lower (stages/textstats.py normalize_text)."""
    import ray.data

    from search_engine_framework_ray.stages.textstats import normalize_text

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    # decomposed combining sequences (e + U+0301, i + U+0308) so NFC
    # has real composition work, a C0 control char, whitespace runs
    tail = "  cafe\u0301  nai\u0308ve\x07end  "

    def add_tail(b):
        b = b.copy()
        b["text"] = b["text"].fillna("") + tail
        return b

    out = normalize_text(ds.map_batches(add_tail, batch_format="pandas")).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return (
        out[["doc_id", "norm_text", "norm_fp"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_mm_resize(sf_dir: str):
    """Image-resize plumbing under the driver hash: an 8×8 pixel grid is
    synthesized per doc from a pure integer formula (px[i] =
    (doc_id·31 + i) % 251 — SQL-replayable, no fake RNG), the REAL
    ResizeImageStage area-pools it to 4×4 (exact 2×2 block
    means — integer sums ≤ 1004, so f32 arithmetic is exact), and the
    exploded (doc_id, r, c, v_micros) rows must match the closed-form SQL
    (stages/multimodal.py)."""
    import ray.data

    from search_engine_framework_ray.stages.multimodal import ResizeImageStage

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )

    def synth_px(b):
        ids = b["doc_id"].astype("int64").to_numpy()
        px = ((ids[:, None] * 31 + np.arange(64)[None, :]) % 251).astype(np.float32)
        return pd.DataFrame(
            {
                "doc_id": ids,
                "pixels": [row.tolist() for row in px],
                "px_h": np.int32(8),
                "px_w": np.int32(8),
            }
        )

    small = ds.map_batches(synth_px, batch_format="pandas").map_batches(
        ResizeImageStage(out_size=(4, 4)), batch_format="pyarrow", batch_size=64
    )

    def explode(b):
        rows = {"doc_id": [], "r": [], "c": [], "v_micros": []}
        for i, p in zip(b["doc_id"], b["pixels"]):
            v = np.asarray(p.as_py(), dtype=np.float64).reshape(4, 4)
            for r in range(4):
                for c in range(4):
                    rows["doc_id"].append(int(i.as_py()))
                    rows["r"].append(r)
                    rows["c"].append(c)
                    rows["v_micros"].append(
                        int(np.floor(v[r, c] * 1e6 + 0.5))
                    )
        return pd.DataFrame(
            {k: pd.Series(vals, dtype="int64") for k, vals in rows.items()}
        )

    out = small.map_batches(explode, batch_format="pyarrow").to_pandas()
    return out.sort_values(["doc_id", "r", "c"]).reset_index(drop=True)


def q_mm_audio(sf_dir: str):
    """Audio frame-sampling plumbing under the driver hash: a 64-byte
    payload per doc from a pure byte formula ((doc_id + j) % 256), the
    REAL AudioFrameSampleStage computes 16 frame energies
    (4-byte window means — exact in f32), exploded and hash-checked
    against the closed-form SQL (stages/multimodal.py)."""
    import pyarrow as pa

    import ray.data

    from search_engine_framework_ray.stages.multimodal import AudioFrameSampleStage

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )

    def synth_payload(b):
        ids = b["doc_id"].astype("int64").to_numpy()
        payloads = [
            bytes(int((i + j) % 256) for j in range(64)) for i in ids
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    framed = ds.map_batches(synth_payload, batch_format="pandas").map_batches(
        AudioFrameSampleStage(), batch_format="pyarrow", batch_size=64
    )

    def explode(b):
        rows = {"doc_id": [], "frame": [], "energy_micros": []}
        for i, e in zip(b["doc_id"], b["frame_energy"]):
            for f, v in enumerate(e.as_py()):
                rows["doc_id"].append(int(i.as_py()))
                rows["frame"].append(f)
                rows["energy_micros"].append(int(np.floor(float(v) * 1e6 + 0.5)))
        return pd.DataFrame(
            {k: pd.Series(vals, dtype="int64") for k, vals in rows.items()}
        )

    out = framed.map_batches(explode, batch_format="pyarrow").to_pandas()
    return out.sort_values(["doc_id", "frame"]).reset_index(drop=True)


def q_mm_video(sf_dir: str):
    """Video frame-sampling plumbing under the driver hash: 128-byte
    payloads from the (doc_id + j) % 256 formula through the REAL
    VideoFrameSampleStage (4 uniform-stride frame stripes ×
    16 two-byte window means, exact in f32), exploded to
    (doc_id, frame_idx, dim, v_micros) and hash-checked against the
    closed-form SQL (stages/multimodal.py)."""
    import pyarrow as pa

    import ray.data

    from search_engine_framework_ray.stages.multimodal import VideoFrameSampleStage

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )

    def synth_payload(b):
        ids = b["doc_id"].astype("int64").to_numpy()
        payloads = [bytes(int((i + j) % 256) for j in range(128)) for i in ids]
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    framed = ds.map_batches(synth_payload, batch_format="pandas").map_batches(
        VideoFrameSampleStage(n_frames=4, feat_dim=16),
        batch_format="pyarrow",
        batch_size=64,
    )

    def explode(b):
        rows = {"doc_id": [], "frame_idx": [], "dim": [], "v_micros": []}
        for i, f, feat in zip(b["doc_id"], b["frame_idx"], b["feature"]):
            for k, v in enumerate(feat.as_py()):
                rows["doc_id"].append(int(i.as_py()))
                rows["frame_idx"].append(int(f.as_py()))
                rows["dim"].append(k)
                rows["v_micros"].append(int(np.floor(float(v) * 1e6 + 0.5)))
        return pd.DataFrame(
            {k: pd.Series(vals, dtype="int64") for k, vals in rows.items()}
        )

    out = framed.map_batches(explode, batch_format="pyarrow").to_pandas()
    return out.sort_values(["doc_id", "frame_idx", "dim"]).reset_index(drop=True)


def q_mmr_rerank(sf_dir: str):
    """MMR result diversification (λ=½ maximal marginal relevance) over the
    BM25 top-20: greedy pick of argmax(snorm − max token-Jaccard to the
    already-selected), all in exact integer micros so the SQL twin — ten
    UNROLLED greedy steps, the PageRank-oracle precedent — reproduces
    every pick bit-for-bit (query/diversify.py)."""
    from search_engine_framework_ray.query.diversify import mmr_rerank
    from search_engine_framework_ray.query.expansion import (
        _fetch_term_vectors,
        _shard_of,
    )

    import ray

    idx = _docs_index(sf_dir)
    top = _flagship_bm25_over(idx)
    cand = [(int(d), int(s)) for d, s in zip(top["doc_id"], top["score_micros"])]

    ranges = _shard_of(idx)
    by_shard: dict[int, list[int]] = {}
    for d, _ in cand:
        for s, lo, hi in ranges:
            if lo <= d < hi:
                by_shard.setdefault(s, []).append(d)
                break
    futs = [
        _fetch_term_vectors.remote(idx, s, sorted(ds_))
        for s, ds_ in sorted(by_shard.items())
    ]
    tv = pd.concat(ray.get(futs), ignore_index=True)
    token_sets = {
        int(d): frozenset(g["stem"]) for d, g in tv.groupby("docid")
    }
    return mmr_rerank(cand, token_sets, k=10)


def _mmr_sql() -> str:
    """Unrolled greedy MMR twin: candidates + pairwise token-Jaccard in
    integer micros, then ten chained argmax steps (pI = picks so far)."""
    steps = []
    for i in range(1, 11):
        prev = f"p{i - 1}"
        if i == 1:
            steps.append(
                "g1 AS MATERIALIZED (SELECT doc_id, snorm, CAST(0 AS BIGINT) AS ms FROM c "
                "ORDER BY snorm DESC, doc_id LIMIT 1),\n"
                "p1 AS MATERIALIZED (SELECT doc_id FROM g1)"
            )
            continue
        steps.append(
            f"g{i} AS MATERIALIZED (SELECT * FROM (\n"
            f"    SELECT c.doc_id, c.snorm,\n"
            f"        COALESCE((SELECT max(sim) FROM s\n"
            f"                  WHERE s.a = c.doc_id AND s.b IN "
            f"(SELECT doc_id FROM {prev})), 0) AS ms\n"
            f"    FROM c WHERE c.doc_id NOT IN (SELECT doc_id FROM {prev})) t\n"
            f"  ORDER BY snorm - ms DESC, doc_id LIMIT 1),\n"
            f"p{i} AS MATERIALIZED (SELECT doc_id FROM {prev} "
            f"UNION ALL SELECT doc_id FROM g{i})"
        )
    finals = " UNION ALL ".join(
        f"SELECT CAST({i} AS BIGINT) AS rank, doc_id, "
        f"snorm AS snorm_micros, ms AS maxsim_micros FROM g{i}"
        for i in range(1, 11)
    )
    return f"""
    WITH cand AS MATERIALIZED (SELECT * FROM ({_BM25_SQL}) b),
    mm AS MATERIALIZED (
        SELECT max(score_micros) AS hi, min(score_micros) AS lo FROM cand),
    c AS MATERIALIZED (
        SELECT doc_id,
            CASE WHEN mm.hi = mm.lo THEN 1000000
                 ELSE (score_micros - mm.lo) * 1000000 // (mm.hi - mm.lo)
            END AS snorm
        FROM cand, mm),
    dt AS MATERIALIZED (
        SELECT DISTINCT doc_id, tok FROM (
            SELECT doc_id, lower(tok) AS tok
            FROM (SELECT doc_id,
                         unnest(regexp_extract_all(text,
                             '[^ \t\n\f\r]+')) AS tok
                  FROM documents)) raw
        WHERE doc_id IN (SELECT doc_id FROM cand)),
    sz AS MATERIALIZED (SELECT doc_id, count(*) AS n FROM dt GROUP BY doc_id),
    ov AS MATERIALIZED (
        SELECT da.doc_id AS a, db.doc_id AS b, count(*) AS i
        FROM dt da JOIN dt db ON da.tok = db.tok AND da.doc_id <> db.doc_id
        GROUP BY da.doc_id, db.doc_id),
    s AS MATERIALIZED (
        SELECT sa.doc_id AS a, sb.doc_id AS b,
            COALESCE(ov.i, 0) * 1000000
                // (sa.n + sb.n - COALESCE(ov.i, 0)) AS sim
        FROM sz sa CROSS JOIN sz sb
        LEFT JOIN ov ON ov.a = sa.doc_id AND ov.b = sb.doc_id
        WHERE sa.doc_id <> sb.doc_id),
    {",".join(steps)}
    SELECT * FROM ({finals}) ORDER BY rank
    """


def q_spell_correct(sf_dir: str):
    """Query spelling correction ("did you mean"): SymSpell deletes-variant
    prefilter over ONE streaming pass of the index termstats store (the
    vocabulary never leaves the cluster; sharing a 1-delete variant is
    necessary for distance ≤ 1, so the prefilter only over-selects), exact
    Levenshtein verify + (distance, ctf desc, term) ranking on the small
    candidate set. SQL twin is DuckDB's levenshtein over the corpus
    vocabulary (query/spell.py)."""
    import ray.data

    from search_engine_framework_ray.query.spell import spell_suggest

    idx = _docs_index(sf_dir)
    ts = ray.data.read_parquet(os.path.join(idx, "termstats"))
    out = spell_suggest(ts, ["spork", "joib", "join"], k=3)
    for c in ("rank", "distance", "ctf"):
        out[c] = out[c].astype("int64")
    return (
        out[["qtoken", "rank", "suggestion", "distance", "ctf"]]
        .sort_values(["qtoken", "rank"])
        .reset_index(drop=True)
    )


def q_prefix_suggest(sf_dir: str):
    """Search-box autocomplete: top-5 vocabulary completions per prefix by
    (ctf desc, term asc), one streaming termstats pass with per-batch
    local top-k combiners (query/spell.py prefix_suggest). SQL twin is a
    LIKE + row_number window over the corpus vocabulary."""
    import ray.data

    from search_engine_framework_ray.query.spell import prefix_suggest

    idx = _docs_index(sf_dir)
    ts = ray.data.read_parquet(os.path.join(idx, "termstats"))
    out = prefix_suggest(ts, ["s", "jo", "win"], k=5)
    for c in ("rank", "ctf"):
        out[c] = out[c].astype("int64")
    return (
        out[["prefix", "rank", "suggestion", "ctf"]]
        .sort_values(["prefix", "rank"])
        .reset_index(drop=True)
    )


def q_robots_filter(sf_dir: str):
    """Robots.txt allow/deny pass: per-host robots text is synthesized
    (comments, an other-agent group that must be ignored, two Disallow
    rules), parsed by the REAL parser, broadcast (hosts ≪ pages), and
    applied as a vectorized path-prefix check. Host list is gathered with
    a distributed ``Dataset.unique`` — at web scale the robots corpus is
    the small side by construction. SQL twin states the closed-form deny
    condition (stages/web.py parse_robots / robots_filter)."""
    import ray.data

    from search_engine_framework_ray.stages.web import robots_filter

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "source"]
    )
    hosts = ds.unique("source")
    robots_by_host = {
        f"{s}.example.com": (
            "# crawl rules\n"
            "User-agent: badbot\n"
            "Disallow: /\n"
            "\n"
            "User-agent: *\n"
            f"Disallow: /p/{int(s[3:]) % 7}\n"
            "Disallow: /q/\n"
        )
        for s in hosts
    }

    def add_url(b):
        d = b["doc_id"].astype("int64")
        return pd.DataFrame(
            {
                "doc_id": d.to_numpy(),
                "host": (b["source"] + ".example.com").to_numpy(object),
                "path": ("/p/" + (d % 10).astype(str) + "/x" + d.astype(str)).to_numpy(
                    object
                ),
            }
        )

    out = robots_filter(
        ds.map_batches(add_url, batch_format="pandas"), robots_by_host
    ).to_pandas()
    for c in ("doc_id", "allowed"):
        out[c] = out[c].astype("int64")
    return (
        out[["doc_id", "host", "path", "allowed"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_crawl_delta(sf_dir: str):
    """Dump-over-dump crawl diff: two crawls are synthesized from the
    documents table (old drops doc_id%10==0, new drops %10==1 and rewrites
    %10==2 with a ' v2' suffix), each fingerprinted with the md5-low64
    document fingerprint, then stages/web.py crawl_delta co-partitions the
    tagged union on the url hash and classifies added / removed / changed /
    unchanged per url. The SQL twin is a FULL OUTER JOIN over the same
    synthesis + md5_number_lower."""
    import ray.data

    from search_engine_framework_ray.stages.textstats import fingerprint_md5
    from search_engine_framework_ray.stages.web import crawl_delta

    def crawl(drop_mod: int, suffix_mod: int | None):
        def prep(b):
            d = b["doc_id"].astype("int64")
            b = b[d % 10 != drop_mod].copy()
            d = b["doc_id"].astype("int64")
            if suffix_mod is not None:
                mod = (d % 10 == suffix_mod).to_numpy()
                t = b["text"].fillna("").to_numpy(object)
                t[mod] = t[mod] + " v2"
                b["text"] = t
            b["url"] = "https://ex.com/p/" + d.astype(str)
            return b

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        ).map_batches(prep, batch_format="pandas")
        return ds.map_batches(
            lambda b: fingerprint_md5(b)[["url", "fp_md5"]],
            batch_format="pandas",
        )

    out = crawl_delta(
        crawl(0, None), crawl(1, 2), key_col="url", fp_col="fp_md5"
    ).to_pandas()
    for c in ("old_fp", "new_fp"):
        out[c] = out[c].astype("int64")
    return (
        out[["url", "status", "old_fp", "new_fp"]]
        .sort_values("url")
        .reset_index(drop=True)
    )


def q_weighted_sample(sf_dir: str):
    """Deterministic weighted sample (P ∝ n_chars) without replacement —
    A-ES keys from md5-derived uniforms, pico-quantized ordering, local
    top-m per batch + m·n_batches driver merge (stages/corpus.py)."""
    import ray.data

    from search_engine_framework_ray.stages.corpus import weighted_sample

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "n_chars"]
    )
    out = weighted_sample(ds, 50)
    for c in ("doc_id", "weight", "key_picos"):
        out[c] = out[c].astype("int64")
    return out[["doc_id", "weight", "key_picos"]].reset_index(drop=True)


def q_dsir(sf_dir: str):
    """DSIR importance weights (hashed-unigram log-likelihood-ratio data
    selection, arXiv 2302.03169): target = lang='en' docs, raw = whole
    corpus, vocabulary hashed into 512 md5-low64 buckets so the weight
    model is fixed-size at any corpus scale. Per-bucket micro-weight is
    rounded BEFORE the per-doc integer sum — exact engine/SQL agreement
    (stages/selection.py)."""
    import ray.data

    from search_engine_framework_ray.stages.selection import dsir_weights

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang"],
    )
    out = dsir_weights(ds, target_value="en", n_buckets=512).to_pandas()
    for c in ("doc_id", "dsir_micros"):
        out[c] = out[c].astype("int64")
    return (
        out[["doc_id", "dsir_micros"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


_CANARY_PATTERNS = ["spark join", "window agg", "customer query scan"]


def q_canary_scan(sf_dir: str):
    """Canary / secret literal sweep: every document scanned for a broadcast
    list of literal strings (eval canaries, planted markers, known secrets —
    the literal-string sibling of pii_scrub), long-format hits only, so a
    clean corpus streams through with nothing leaving the scan
    (stages/textstats.py pattern_scan)."""
    import ray.data

    from search_engine_framework_ray.stages.textstats import pattern_scan

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = pattern_scan(ds, _CANARY_PATTERNS).to_pandas()
    if out.columns.empty:  # Ray to_pandas drops schema on zero-row datasets
        out = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "pattern": pd.Series([], dtype="object"),
                "n": pd.Series([], dtype="int64"),
            }
        )
    return out.sort_values(
        ["doc_id", "pattern"], kind="mergesort"
    ).reset_index(drop=True)


def q_pii_scrub(sf_dir: str):
    """PII redaction pass: PII-bearing text is synthesized deterministically
    from doc_id (the word-salad fixture has none), then emails / IPv4s /
    phone numbers are scrubbed with vectorized RE2-subset regexes; the SQL
    twin replays the same synthesis + regexp_replace chain and the md5
    fingerprint covers every byte of the rewrite (stages/selection.py)."""
    import ray.data

    from search_engine_framework_ray.stages.selection import pii_scrub

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )

    def add_pii(b):
        d = b["doc_id"].astype("int64")
        b = b.copy()
        b["text"] = (
            b["text"].fillna("")
            + " contact user" + d.astype(str) + "@example.com from 10."
            + (d % 256).astype(str) + "." + ((d // 256) % 256).astype(str)
            + "." + (d % 100).astype(str) + " call 415-555-"
            + (1000 + d % 9000).astype(str)
        )
        return b

    out = pii_scrub(ds.map_batches(add_pii, batch_format="pandas")).to_pandas()
    for c in ("doc_id", "n_email", "n_ip", "n_phone"):
        out[c] = out[c].astype("int64")
    return (
        out[["doc_id", "n_email", "n_ip", "n_phone", "scrub_md5"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_gopher_gate(sf_dir: str):
    """Gopher document-quality gate (Rae et al. 2021 Table A1): word-count
    bounds, mean-word-length bounds, symbol-to-word ratio, alpha-word
    fraction and stopword presence, with first-failing-rule reasons — every
    threshold in EXACT integer arithmetic (3·n ≤ chars ≤ 10·n etc.), so no
    float knife edge exists between engine and twin. One streaming pass
    (stages/selection.py gopher_gate). The presence list here swaps two of
    the paper's English function words for this corpus's ('a' for 'have',
    keeping the rule live — presence IS language/corpus-specific, which is
    why it's a parameter); thresholds are the paper's."""
    import ray.data

    from search_engine_framework_ray.stages.selection import gopher_gate

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = (
        gopher_gate(
            ds, stops={"a", "the", "be", "to", "of", "and", "that", "with"}
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for c in ("doc_id", "n_words", "word_chars", "n_sym", "n_alpha", "n_stops", "keep"):
        out[c] = out[c].astype("int64")
    return out


def q_mm_dedup(sf_dir: str):
    """Exact multimodal (binary-payload) dedup: the media blobs' CONTENT
    bytes (dimension header stripped — headers differ per doc, content is
    what dedups) are md5'd inside the batch pass, then the
    standard exact-dedup coarse-bucket min-id clustering runs over the
    narrow (id, md5) table. Docs with doc_id % 10 < 2 carry a SHARED asset
    (the common-logo-reused-across-pages pattern that makes binary dedup
    worth running on web data), so real multi-member clusters form. Proves
    the binary-column dedup path end to end: a header-stripping or hashing
    bug would change the clusters under the driver hash."""
    import pyarrow as pa
    import ray.data

    from search_engine_framework_ray.stages.dedup import exact_dedup
    from search_engine_framework_ray.stages.multimodal import synthesize_media

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    media = synthesize_media(ds)

    def content_md5(t: pa.Table) -> pd.DataFrame:
        import hashlib as hl

        ids = t["doc_id"].to_numpy()
        return pd.DataFrame(
            {
                "doc_id": ids,
                "payload_md5": [
                    hl.md5(
                        b"SHARED-LOGO" if int(d) % 10 < 2 else bytes(b)[2:]
                    ).hexdigest()
                    for d, b in zip(ids, t["payload"].to_pylist())
                ],
            }
        )

    rows = media.map_batches(content_md5, batch_format="pyarrow", batch_size=64)
    out = exact_dedup(rows, text_col="payload_md5").to_pandas()
    out["is_dup"] = out["is_dup"].astype("int64")
    out["doc_id"] = out["doc_id"].astype("int64")
    out["cluster_id"] = out["cluster_id"].astype("int64")
    return (
        out[["doc_id", "cluster_id", "is_dup"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_blocklist(sf_dir: str):
    """Token-blocklist gate (the C4 bad-words filter, generalized to the
    Gopher ratio form): flag docs whose blocklisted-token share exceeds 5%;
    the SQL twin recounts with an explode + IN-list over the same RE2
    tokens (stages/selection.py blocklist_filter)."""
    import ray.data

    from search_engine_framework_ray.stages.selection import blocklist_filter

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = blocklist_filter(
        ds, {"spark", "dup", "gpu"}, max_ratio=0.05
    ).to_pandas()
    for c in ("doc_id", "n_words", "n_flagged", "keep"):
        out[c] = out[c].astype("int64")
    return (
        out[["doc_id", "n_words", "n_flagged", "keep"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_mm_meta(sf_dir: str):
    """Multimodal plumbing, driver-checked end-to-end: documents →
    deterministic binary payload column (2-byte dimension header + text
    bytes) → MediaMetaStage parses the header FROM THE BYTES and
    fingerprints the whole blob. Real Arrow binary columns through the
    object store with small batches; only the codec is the sanctioned
    deterministic stand-in (stages/multimodal.py)."""
    import ray.data

    from search_engine_framework_ray.stages.multimodal import (
        MediaMetaStage,
        synthesize_media,
    )

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    media = synthesize_media(ds)
    out = media.map_batches(
        MediaMetaStage(), batch_format="pyarrow", batch_size=64
    ).to_pandas()
    for c in ("doc_id", "width", "height", "n_bytes"):
        out[c] = out[c].astype("int64")
    return (
        out[["doc_id", "width", "height", "n_bytes", "payload_md5"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_domain_mix(sf_dir: str):
    """Temperature-scaled corpus mixing (GPT-3/Llama-style multi-domain
    sampling, τ=0.5 upweighting small domains): per-lang token counts →
    largest-remainder apportionment of a 200-doc budget → each quota filled
    with the smallest-md5(doc_id) docs. Deterministic end-to-end; the SQL
    twin replays pow/floor/remainder seating and the hash order exactly
    (stages/selection.py)."""
    import ray.data

    from search_engine_framework_ray.stages.selection import domain_mix

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang"],
    )
    out = domain_mix(ds, group_col="lang", budget=200, temperature=0.5)
    for c in ("doc_id", "n_alloc"):
        out[c] = out[c].astype("int64")
    return out[["lang", "doc_id", "n_alloc"]].reset_index(drop=True)


def q_feature_corr(sf_dir: str):
    """One-pass distributed Pearson correlation over three integer text
    features (n_chars, n_tokens, n_alpha) via exact int64 sufficient
    statistics — the aggregation pattern a quality-classifier fit needs at
    corpus scale; only |pairs| rows ever shuffle (stages/selection.py)."""
    import ray.data

    from search_engine_framework_ray.stages.selection import feature_corr
    from search_engine_framework_ray.stages.textstats import RE2_TOKEN_RE

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "n_chars"],
    )

    def feats(b):
        t = b["text"].fillna("")
        return pd.DataFrame(
            {
                "n_chars": b["n_chars"].astype("int64"),
                "n_tokens": t.str.count(RE2_TOKEN_RE).astype("int64"),
                "n_alpha": t.str.count(r"[A-Za-z]").astype("int64"),
            }
        )

    out = feature_corr(
        ds.map_batches(feats, batch_format="pandas"),
        ["n_alpha", "n_chars", "n_tokens"],
    )
    for c in ("n", "sum_x", "sum_y", "sum_xy", "corr_micros"):
        out[c] = out[c].astype("int64")
    return out.reset_index(drop=True)


def q_events_tumbling(sf_dir: str):
    import ray.data

    from search_engine_framework_ray.stages.window import tumbling_window

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"))
    out = tumbling_window(ds, 3600, keys=["event_type"]).to_pandas()
    out["value_sum_micros"] = _micros(out["value_sum"])
    out["n"] = out["n"].astype("int64")
    # epoch seconds (typed-timestamp hashing differs across engines)
    out["window_start_s"] = (
        out["window_start"].astype("datetime64[us]").astype("int64") // 1_000_000
    )
    return (
        out[["window_start_s", "event_type", "n", "value_sum_micros"]]
        .sort_values(["window_start_s", "event_type"])
        .reset_index(drop=True)
    )


def _events_sessions(sf_dir: str, **salt: int) -> pd.DataFrame:
    """events_sessions' pipeline; ``salt`` passes session_windows' hot-key
    salting."""
    import ray.data

    from search_engine_framework_ray.stages.window import session_windows

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"))
    out = session_windows(ds, gap_s=1800, **salt).to_pandas()
    out["n"] = out["n"].astype("int64")
    out["value_sum_micros"] = _micros(out["value_sum"])
    for c in ("session_start", "session_end"):
        out[c + "_us"] = out[c].astype("datetime64[us]").astype("int64")
    return (
        out[["user_id", "session_start_us", "session_end_us", "n", "value_sum_micros"]]
        .sort_values(["user_id", "session_start_us"])
        .reset_index(drop=True)
    )


def q_events_sessions(sf_dir: str):
    return _events_sessions(sf_dir)


def q_events_sessions_salted(sf_dir: str):
    """HOT-KEY sessionization path (stages/window.py salt_slice_s): events
    sessionized per (user, 2-hour time slice) — any one group bounded to a
    slice's events — then the per-slice session INTERVALS merged per user
    with the same gap rule. Associative across slices ⇒ bit-identical to
    the single-group scan, so this entry shares `events_sessions`' SQL
    oracle verbatim: the driver hash proves the salted path exact."""
    return _events_sessions(sf_dir, salt_slice_s=7200)


def q_lineitem_agg(sf_dir: str):
    """TPC-H-Q1-ish pre-aggregated groupby (general columnar-agg path)."""
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def revenue(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return t.append_column("rev", rev)

    out = (
        ds.map_batches(revenue, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("rev", alias_name="sum_rev"),
            Count(alias_name="n_rows"),
        )
        .to_pandas()
    )
    out["sum_qty"] = out["sum_qty"].astype("int64")
    out["sum_rev_cents"] = pd.Series(_round_away(out["sum_rev"].to_numpy() * 100)).astype("int64")
    out["n_rows"] = out["n_rows"].astype("int64")
    return (
        out[["l_returnflag", "l_linestatus", "sum_qty", "sum_rev_cents", "n_rows"]]
        .sort_values(["l_returnflag", "l_linestatus"])
        .reset_index(drop=True)
    )


def q_orders_by_nation(sf_dir: str):
    """Broadcast-small-side join: orders ⋈ customer ⋈ nation without a
    shuffle join (ray.put lookup inside map_batches, then a tiny groupby)."""
    import pyarrow.parquet as pq
    import ray
    import ray.data
    from ray.data.aggregate import Count, Sum

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    ).to_pandas()
    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    ).to_pandas()
    c2n = dict(zip(cust["c_custkey"], cust["c_nationkey"]))
    n2name = dict(zip(nation["n_nationkey"], nation["n_name"]))
    lookup_ref = ray.put((c2n, n2name))

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        c2n_, n2name_ = ray.get(lookup_ref)
        b = b.copy()
        # two vectorized dict probes (Series.map(dict) runs in C), not a
        # per-row Python lambda
        b["n_name"] = b["o_custkey"].map(c2n_).map(n2name_)
        return b[["n_name", "o_totalprice"]]

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_totalprice"]
    )
    out = (
        ds.map_batches(tag, batch_format="pandas")
        .groupby("n_name")
        .aggregate(Count(alias_name="n_orders"), Sum("o_totalprice", alias_name="total"))
        .to_pandas()
    )
    out["n_orders"] = out["n_orders"].astype("int64")
    out["total_cents"] = pd.Series(_round_away(out["total"].to_numpy() * 100)).astype("int64")
    return out[["n_name", "n_orders", "total_cents"]].sort_values("n_name").reset_index(drop=True)


def q_revenue_by_nation(sf_dir: str):
    """Star-schema join (the TPC-H Q5 family): ONE big-big hash shuffle
    (lineitem ⋈ orders — both fact-sized) composed with broadcast
    dimension probes (customer→nation, nation→name via ``ray.put`` +
    vectorized ``Series.map``) and a per-batch combiner BEFORE the final
    tiny groupby — the exchange after the join moves ≤ 25 rows per batch,
    never the joined fact table."""
    import pyarrow.parquet as pq
    import ray
    import ray.data
    from ray.data.aggregate import Count, Sum

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    ).to_pandas()
    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    ).to_pandas()
    lookup_ref = ray.put(
        (
            dict(zip(cust["c_custkey"], cust["c_nationkey"])),
            dict(zip(nation["n_nationkey"], nation["n_name"])),
        )
    )

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )
    od = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_custkey"]
    )
    joined = li.join(
        od,
        join_type="inner",
        num_partitions=8,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def rev_partial(b: pd.DataFrame) -> pd.DataFrame:
        c2n_, n2name_ = ray.get(lookup_ref)
        t = pd.DataFrame(
            {
                "n_name": b["o_custkey"].map(c2n_).map(n2name_),
                # exact integer cents per item BEFORE the sum — float
                # accumulation order would differ between engine and SQL
                "rev_cents": _round_away(
                    b["l_extendedprice"].to_numpy(np.float64)
                    * (1.0 - b["l_discount"].to_numpy(np.float64))
                    * 100
                ).astype("int64"),
                "n_items": np.int64(1),
            }
        )
        return t.groupby("n_name", as_index=False, sort=False).sum()

    out = (
        joined.map_batches(rev_partial, batch_format="pandas")
        .groupby("n_name")
        .aggregate(Sum("rev_cents", alias_name="rev_cents"), Sum("n_items", alias_name="n_items"))
        .to_pandas()
    )
    out["rev_cents"] = out["rev_cents"].astype("int64")
    out["n_items"] = out["n_items"].astype("int64")
    return (
        out[["n_name", "n_items", "rev_cents"]]
        .sort_values("n_name")
        .reset_index(drop=True)
    )


def q_revenue_by_priority(sf_dir: str):
    """Big-big equi-join: lineitem ⋈ orders on orderkey via Ray Data's hash
    shuffle join (both sides large → no broadcast; column-pruned reads), then
    a grouped revenue aggregate."""
    import pyarrow as pa
    import ray.data
    from ray.data.aggregate import Count, Sum

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )
    od = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderpriority"],
    )
    # num_partitions sizes each hash partition to fit an aggregator's heap;
    # scale ≈ total_rows/10M at cluster scale. Over-partitioning is costly:
    # measured 8 parts = 2.9 s vs 32 parts = 43 s on 600k rows (per-actor
    # fixed overhead dominates small partitions).
    joined = li.join(
        od,
        join_type="inner",
        num_partitions=8,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def revenue(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return t.append_column("rev", rev)

    out = (
        joined.map_batches(revenue, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("rev", alias_name="rev"), Count(alias_name="n_items"))
        .to_pandas()
    )
    out["rev_cents"] = pd.Series(_round_away(out["rev"].to_numpy() * 100)).astype("int64")
    out["n_items"] = out["n_items"].astype("int64")
    return (
        out[["o_orderpriority", "n_items", "rev_cents"]]
        .sort_values("o_orderpriority")
        .reset_index(drop=True)
    )


def q_top_orders(sf_dir: str):
    """Distributed sort + limit: top-15 orders by totalprice (Dataset.sort
    is a range-partitioned all-to-all; the limit streams from the head)."""
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_totalprice"],
    )
    out = (
        ds.sort([("o_totalprice"), ("o_orderkey")], descending=[True, False])
        .limit(15)
        .to_pandas()
    )
    out["price_cents"] = pd.Series(_round_away(out["o_totalprice"].to_numpy() * 100)).astype("int64")
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    return out[["o_orderkey", "price_cents"]].reset_index(drop=True)


def q_docs_sample(sf_dir: str):
    """Deterministic hash sample (hash(doc_id) % 10 == 0) — the reproducible
    subset selector a training pipeline uses instead of random_shuffle."""
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "n_chars"]
    )

    def pick(b: pd.DataFrame) -> pd.DataFrame:
        # mod sampling is a vectorized per-batch filter — no all-to-all,
        # deterministic at any parallelism
        return b[b["doc_id"] % 10 == 0]

    out = ds.map_batches(pick, batch_format="pandas").to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    out["n_chars"] = out["n_chars"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_docs_stratified(sf_dir: str):
    """Deterministic stratified sample: per language, the 20 docs with the
    smallest md5-low64(doc_id) — a reproducible per-stratum subset selector
    (no random_shuffle, identical at any parallelism). Top-k inside each
    group after a per-batch pre-filter; SQL oracle via row_number over
    md5_number_lower."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import _md5_hash64

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang"]
    )

    # the uint64 hash is carried as two int64 halves so ordering is exact
    # (float64 would round above 2^53); each batch pre-filters to its local
    # per-stratum top-20 (combiner) so only ≤ 20·n_batches rows per stratum
    # cross the shuffle — global top-20 ⊆ union of per-batch top-20s
    def hashed2(b: pd.DataFrame) -> pd.DataFrame:
        hs = [(_md5_hash64(str(int(i)))) for i in b["doc_id"]]
        out = pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "lang": b["lang"],
                "h_hi": pd.Series([h >> 32 for h in hs], dtype="int64"),
                "h_lo": pd.Series([h & 0xFFFFFFFF for h in hs], dtype="int64"),
            }
        )
        return (
            out.sort_values(["h_hi", "h_lo", "doc_id"], kind="mergesort")
            .groupby("lang", sort=False)
            .head(20)
        )

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h_hi", "h_lo", "doc_id"], kind="mergesort").head(20)
        return g[["lang", "doc_id"]]

    out = (
        ds.map_batches(hashed2, batch_format="pandas")
        .groupby("lang")
        .map_groups(topk, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["lang", "doc_id"]).reset_index(drop=True)


def q_events_quantiles(sf_dir: str):
    """Rank-based per-group quantiles (p50/p90/p99 of value per event_type):
    the k-th smallest with k = floor(q·(n−1)) — an exact, engine-agnostic
    definition a SQL row_number oracle reproduces. Distributed as one
    groupby + vectorized in-group sort."""
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "value"]
    )

    def qs(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["value"].to_numpy(dtype=np.float64), kind="stable")
        n = len(v)
        row = {"event_type": [g["event_type"].iloc[0]], "n": [n]}
        for q, name in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
            row[name + "_micros"] = [int(_round_away(v[int(q * (n - 1))] * 1e6))]
        return pd.DataFrame(row)

    out = ds.groupby("event_type").map_groups(qs, batch_format="pandas").to_pandas()
    for c in ("n", "p50_micros", "p90_micros", "p99_micros"):
        out[c] = out[c].astype("int64")
    return (
        out[["event_type", "n", "p50_micros", "p90_micros", "p99_micros"]]
        .sort_values("event_type")
        .reset_index(drop=True)
    )


def q_event_types(sf_dir: str):
    """Distinct values of a column (Dataset.unique → small shuffle)."""
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type"]
    )
    vals = sorted(ds.unique("event_type"))
    return pd.DataFrame({"event_type": vals})


def q_left_join(sf_dir: str):
    """LEFT OUTER join via Ray Data's native hash shuffle join
    (``Dataset.join(join_type="left_outer")``): sampled customers against
    their high-value orders — unmatched customers survive with null fills
    (surfaced as -1 sentinels so the int columns stay exact-hashable).
    Column-pruned reads; both filters run per-batch BEFORE the shuffle so
    the exchange moves only qualifying rows."""
    import ray.data

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    ).map_batches(
        lambda b: b[b["c_custkey"] % 100 == 0], batch_format="pandas"
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderkey", "o_totalprice"],
    ).map_batches(
        lambda b: b[b["o_totalprice"] >= 400_000.0], batch_format="pandas"
    )
    out = cust.join(
        orders,
        join_type="left_outer",
        num_partitions=4,
        on=("c_custkey",),
        right_on=("o_custkey",),
    ).to_pandas()
    ok = out["o_orderkey"].to_numpy(dtype=np.float64, na_value=np.nan)
    tp = out["o_totalprice"].to_numpy(dtype=np.float64, na_value=np.nan)
    out["o_orderkey"] = np.where(np.isnan(ok), -1, ok).astype("int64")
    out["price_cents"] = np.where(
        np.isnan(tp), -1, _round_away(tp * 100)
    ).astype("int64")
    out["c_custkey"] = out["c_custkey"].astype("int64")
    return (
        out[["c_custkey", "o_orderkey", "price_cents"]]
        .sort_values(["c_custkey", "o_orderkey"])
        .reset_index(drop=True)
    )


def q_full_join(sf_dir: str):
    """FULL OUTER join via Ray Data's native hash shuffle join
    (``Dataset.join(join_type="full_outer")``): sampled customers against
    a qualifying-orders slice chosen so BOTH sides have unmatched rows
    (customers with no qualifying order survive left-only; orders whose
    custkey falls outside the sample survive right-only). Null fills
    surface as -1 sentinels so the int columns stay exact-hashable;
    ``custkey`` is the coalesced join key. Column-pruned reads, per-batch
    pre-shuffle filters."""
    import ray.data

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    ).map_batches(
        lambda b: b[b["c_custkey"] % 100 == 0], batch_format="pandas"
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderkey", "o_totalprice"],
    ).map_batches(
        lambda b: b[
            (b["o_totalprice"] >= 400_000.0) & (b["o_custkey"] % 100 <= 1)
        ],
        batch_format="pandas",
    )
    out = cust.join(
        orders,
        join_type="full_outer",
        num_partitions=4,
        on=("c_custkey",),
        right_on=("o_custkey",),
    ).to_pandas()
    # Ray's full_outer coalesces the join key into the left key column
    # (right-only rows carry their right key there) — already the COALESCE
    ok = out["o_orderkey"].to_numpy(dtype=np.float64, na_value=np.nan)
    tp = out["o_totalprice"].to_numpy(dtype=np.float64, na_value=np.nan)
    res = pd.DataFrame(
        {
            "custkey": out["c_custkey"].astype("int64"),
            "o_orderkey": np.where(np.isnan(ok), -1, ok).astype("int64"),
            "price_cents": np.where(
                np.isnan(tp), -1, _round_away(tp * 100)
            ).astype("int64"),
        }
    )
    return (
        res.sort_values(["custkey", "o_orderkey"]).reset_index(drop=True)
    )


def q_events_running(sf_dir: str):
    """Row-level running sum per key (the SUM() OVER (PARTITION BY …
    ORDER BY … ROWS UNBOUNDED PRECEDING) window function): cumulative
    spend per user over event time. Values quantized to exact integer
    micros BEFORE the scan — float prefix sums are order-dependent, int
    sums are exact at any parallelism."""
    import ray.data

    from search_engine_framework_ray.stages.window import running_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id", "value"],
    )

    def quantize(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["value_micros"] = _round_away(
            b["value"].to_numpy(np.float64) * 1_000_000
        ).astype("int64")
        return b.drop(columns=["value"])

    out = running_sum(
        ds.map_batches(quantize, batch_format="pandas"),
        key="user_id",
        ts_col="ts",
        id_col="event_id",
        value_col="value_micros",
    ).to_pandas()
    out["ts_us"] = out["ts"].astype("datetime64[us]").astype("int64")
    out = out.drop(columns=["ts"]).rename(columns={"running": "running_micros"})
    for c in ("user_id", "event_id", "value_micros", "running_micros"):
        out[c] = out[c].astype("int64")
    return (
        out[["user_id", "ts_us", "event_id", "value_micros", "running_micros"]]
        .sort_values(["user_id", "ts_us", "event_id"])
        .reset_index(drop=True)
    )


def q_events_pivot(sf_dir: str):
    """Long→wide pivot: per-user conditional counts of each event type
    (``count(*) FILTER``). Per-batch crosstab combiners collapse each
    batch to one row per user before the one narrow shuffle."""
    import ray.data

    from search_engine_framework_ray.stages.aggregate import pivot_counts

    cats = ["click", "error", "purchase", "signup", "view"]
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "event_type"]
    )
    out = pivot_counts(
        ds, key="user_id", cat_col="event_type", categories=cats
    ).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def q_events_latest(sf_dir: str):
    """Keep-latest compaction (CDC upsert): each user's most recent event
    — the "latest crawl snapshot per url" pattern on the events table.
    Winner-per-key is associative, so per-batch combiners bound the
    shuffle at one row per user per batch."""
    import ray.data

    from search_engine_framework_ray.stages.aggregate import latest_by_key

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id", "event_type", "value"],
    )
    out = latest_by_key(
        ds, key="user_id", order_cols=[("ts", False), ("event_id", False)]
    ).to_pandas()
    out["ts_us"] = out["ts"].astype("datetime64[us]").astype("int64")
    out["value_micros"] = _round_away(
        out["value"].to_numpy(np.float64) * 1_000_000
    ).astype("int64")
    out = out.drop(columns=["ts", "value"])
    for c in ("user_id", "event_id"):
        out[c] = out[c].astype("int64")
    return (
        out[["user_id", "ts_us", "event_id", "event_type", "value_micros"]]
        .sort_values("user_id")
        .reset_index(drop=True)
    )


def q_events_paths(sf_dir: str):
    """Ordered per-key string aggregation (``string_agg(… ORDER BY …)``):
    each user's event-type path in time order — the clickstream-path
    feature a funnel/recommendation pipeline derives."""
    import ray.data

    from search_engine_framework_ray.stages.aggregate import grouped_concat

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    out = grouped_concat(
        ds,
        key="user_id",
        order_cols=["ts", "event_id"],
        val_col="event_type",
    ).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


def q_docs_rollup(sf_dir: str):
    """Hierarchical ROLLUP census: char volume and doc counts per
    (source, lang), per source, and the grand total, in ONE corpus pass
    (additive aggregates roll up exactly from the finest level)."""
    import ray.data

    from search_engine_framework_ray.stages.aggregate import rollup_counts

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["source", "lang", "n_chars"],
    )
    out = rollup_counts(ds, keys=["source", "lang"], micros_col="n_chars")
    out = out.rename(columns={"n_chars": "chars_sum"})
    return (
        out[["source", "lang", "chars_sum", "n"]]
        .sort_values(["source", "lang"])
        .reset_index(drop=True)
    )


def q_events_winsorized(sf_dir: str):
    """Percentile winsorization: clip the value column at the EXACT
    global p01/p99 order statistics (computed by the bounded-memory
    histogram-refine selection — no task ever holds the column), then a
    per-type combiner aggregate of the clipped column. The two stages
    compose: quantile selection feeds a broadcast clip."""
    import ray.data

    from search_engine_framework_ray.stages.aggregate import exact_quantiles

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "value"]
    )
    qdf = exact_quantiles(
        ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["value"]),
        "value",
        [0.01, 0.99],
    )
    lo, hi = float(qdf["value"].iloc[0]), float(qdf["value"].iloc[1])

    def clip_agg(b: pd.DataFrame) -> pd.DataFrame:
        v = b["value"].to_numpy(np.float64)
        cl = np.clip(v, lo, hi)
        t = pd.DataFrame(
            {
                "event_type": b["event_type"],
                "n": np.int64(1),
                "n_lo": (v < lo).astype(np.int64),
                "n_hi": (v > hi).astype(np.int64),
                "clipped_sum_micros": _round_away(cl * 1_000_000).astype(np.int64),
            }
        )
        return t.groupby("event_type", as_index=False, sort=False).sum()

    out = (
        ds.map_batches(clip_agg, batch_format="pandas")
        .groupby("event_type")
        .map_groups(
            lambda g: g.groupby("event_type", as_index=False, sort=False).sum(),
            batch_format="pandas",
        )
        .to_pandas()
    )
    for c in ("n", "n_lo", "n_hi", "clipped_sum_micros"):
        out[c] = out[c].astype("int64")
    return (
        out[["event_type", "n", "n_lo", "n_hi", "clipped_sum_micros"]]
        .sort_values("event_type")
        .reset_index(drop=True)
    )


def q_events_props(sf_dir: str):
    """Semi-structured column parsing: extract the integer field ``k``
    from the JSON ``props`` column and aggregate it per event type. The
    extraction is a VECTORIZED regex fast path over the known one-field
    schema (pandas ``str.extract`` runs in C; per-row ``json.loads`` is
    the Python-loop anti-pattern) — the oracle parses with a real JSON
    reader (``json_extract``), so the hash proves the fast path agrees
    with full JSON semantics on this data. Per-batch combiners collapse
    each batch to ≤ |types| rows before the tiny groupby."""
    import ray.data
    from ray.data.aggregate import Max, Sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "props"]
    )

    def extract(b: pd.DataFrame) -> pd.DataFrame:
        k = (
            b["props"]
            .str.extract(r'"k"\s*:\s*(-?[0-9]+)', expand=False)
            .astype("float64")
        )
        t = pd.DataFrame(
            {
                "event_type": b["event_type"],
                "n": np.int64(1),
                "k_sum": k.fillna(0).astype("int64"),
                "k_max": k.fillna(-(2**62)).astype("int64"),
            }
        )
        return t.groupby("event_type", as_index=False, sort=False).agg(
            n=("n", "sum"), k_sum=("k_sum", "sum"), k_max=("k_max", "max")
        )

    out = (
        ds.map_batches(extract, batch_format="pandas")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("k_sum", alias_name="k_sum"),
            Max("k_max", alias_name="k_max"),
        )
        .to_pandas()
    )
    for c in ("n", "k_sum", "k_max"):
        out[c] = out[c].astype("int64")
    return (
        out[["event_type", "n", "k_sum", "k_max"]]
        .sort_values("event_type")
        .reset_index(drop=True)
    )


def q_docs_mode_lang(sf_dir: str):
    """Grouped mode (argmax aggregate): each source's most frequent
    language, ties to the lexicographically smallest. Per-batch
    (source, lang) count combiners collapse the corpus to a tiny pair
    table before one narrow groupby; the argmax runs over ≤ |sources|
    × |langs| rows."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["source", "lang"]
    )

    def pair_counts(b: pd.DataFrame) -> pd.DataFrame:
        t = b.assign(cnt=np.int64(1))
        return t.groupby(["source", "lang"], as_index=False, sort=False)["cnt"].sum()

    pairs = (
        ds.map_batches(pair_counts, batch_format="pandas")
        .groupby(["source", "lang"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )
    pairs = pairs.sort_values(
        ["source", "cnt", "lang"], ascending=[True, False, True], kind="mergesort"
    )
    out = pairs.drop_duplicates("source", keep="first").copy()
    out["cnt"] = out["cnt"].astype("int64")
    return (
        out[["source", "lang", "cnt"]]
        .rename(columns={"lang": "mode_lang", "cnt": "n_docs"})
        .sort_values("source")
        .reset_index(drop=True)
    )


def q_char_entropy(sf_dir: str):
    """Character-entropy quality signal (gibberish / encoding-junk / spam
    detector): Shannon bits-per-char over code points, micros-rounded;
    the SQL twin explodes chars and evaluates the same float64 formula
    (stages/textstats.py char_entropy)."""
    import ray.data

    from search_engine_framework_ray.stages.textstats import char_entropy

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = char_entropy(ds).to_pandas()
    for c in ("doc_id", "n_chars", "entropy_micros"):
        out[c] = out[c].astype("int64")
    return (
        out[["doc_id", "n_chars", "entropy_micros"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_rag_chunks(sf_dir: str):
    """RAG token-window chunking (retrieval-augmented-generation prep):
    every document splits into overlapping 24-token windows advancing by
    16 tokens under the full-coverage rule (last window reaches the doc
    end; no degenerate tail chunks), one provenance row per chunk. Pure
    per-batch flat-map — no shuffle, streams into embed/index/write
    (stages/corpus.py chunk_documents)."""
    import ray.data

    from search_engine_framework_ray.stages.corpus import chunk_documents

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = chunk_documents(ds, window=24, stride=16).to_pandas()
    for c in ("doc_id", "chunk_id", "start_tok", "n_tokens"):
        out[c] = out[c].astype("int64")
    return (
        out[["doc_id", "chunk_id", "start_tok", "n_tokens", "chunk_text"]]
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )


def q_jsonl_export(sf_dir: str):
    """JSONL training-data export roundtrip (the handoff format LLM stacks
    ingest): documents written as one atomic newline-delimited-JSON
    partition per source with fingerprint manifests (same crash-resume
    contract as the Parquet sink), read back with ray.data.read_json, rows
    under the corpus identity hash (stages/sink.py
    write_jsonl_partitioned)."""
    import shutil

    import ray.data

    from search_engine_framework_ray.stages.sink import (
        read_jsonl_partitioned,
        write_jsonl_partitioned,
    )

    out = f"/tmp/sefr_jsonl/{_sf_key(sf_dir)}"
    shutil.rmtree(out, ignore_errors=True)
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "source"],
    )
    rep = write_jsonl_partitioned(ds, out, "source", sort_within_by=["doc_id"])
    assert not rep["skipped"].any()
    rep2 = write_jsonl_partitioned(
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text", "source"],
        ),
        out,
        "source",
        sort_within_by=["doc_id"],
    )
    assert rep2["skipped"].all(), "identical rerun must skip every partition"
    back = read_jsonl_partitioned(out).to_pandas()
    back["doc_id"] = back["doc_id"].astype("int64")
    return (
        back[["doc_id", "text", "source"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_percolate(sf_dir: str):
    """Percolation (reverse search / alerting): four registered structured
    queries — TERM, #SYN, #NEAR/1, #WINDOW/3 — matched against the
    streaming corpus with the REAL Evaluator over a batch-local index
    view (stages/percolate.py), no prebuilt index anywhere. Output is the
    (qid, doc_id) membership set; the SQL twin replays each operator with
    the proven positional self-joins."""
    import ray.data

    from search_engine_framework_ray.functions.analysis import PLAIN_ANALYZER
    from search_engine_framework_ray.stages.percolate import percolate

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    queries = [
        ("near", "#NEAR/1(spark join)"),
        ("syn", "#SYN(spark join)"),
        ("term", "spark"),
        ("win", "#WINDOW/3(spark join)"),
    ]
    out = percolate(ds, queries, analyzer=PLAIN_ANALYZER).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return (
        out[["qid", "doc_id"]]
        .sort_values(["qid", "doc_id"])
        .reset_index(drop=True)
    )


def q_cohort_retention(sf_dir: str):
    """Cohort retention triangle over events: users cohorted by first
    active epoch-day, distinct-user counts per (cohort, age) — distinct
    (user, period) pairs are the only rows that shuffle
    (stages/window.py cohort_retention)."""
    import ray.data

    from search_engine_framework_ray.stages.window import cohort_retention

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )
    out = cohort_retention(ds, period_s=86_400).to_pandas()
    for c in ("cohort", "age", "n"):
        out[c] = out[c].astype("int64")
    return (
        out[["cohort", "age", "n"]]
        .sort_values(["cohort", "age"])
        .reset_index(drop=True)
    )


def q_random_walks(sf_dir: str):
    """Deterministic random-walk generation (DeepWalk/node2vec data prep)
    over the link_components graph (undirected): one 4-hop walk per node,
    next hop = argmin md5("{s}|{cur}|{t}|{m}") over out-neighbors — a
    keyed PRF both engines rank identically (stages/graph.py
    random_walks). The SQL twin unrolls the 4 hops as row_number picks."""
    import pyarrow as pa
    import ray.data

    from search_engine_framework_ray.stages.graph import random_walks

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    n = docs.count()

    def edges_of(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy().astype(np.int64)
        d2 = d[d % 16 == 0]
        src = np.concatenate([d, d2])
        dst = np.concatenate([(d + 4) % n, (d2 * 9 + 2) % n])
        # undirected expansion so every walk runs full length
        return pa.table(
            {
                "src": np.concatenate([src, dst]),
                "dst": np.concatenate([dst, src]),
            }
        )

    edges = docs.map_batches(edges_of, batch_format="pyarrow")
    nodes = docs.map_batches(
        lambda t: t.rename_columns(["node"]), batch_format="pyarrow"
    )
    # n_buckets ≈ cluster cores at scale; at fixture scale per-task
    # scheduling dominates the per-hop shuffles, so size buckets down
    out = random_walks(
        edges, nodes, steps=4, n_buckets=8 if n <= 100_000 else 64
    ).to_pandas()
    for c in ("s", "step", "cur"):
        out[c] = out[c].astype("int64")
    return (
        out[["s", "step", "cur"]]
        .sort_values(["s", "step"])
        .reset_index(drop=True)
    )


def q_walk_pairs(sf_dir: str):
    """Skip-gram (center, context) training pairs from the deterministic
    walks — the step between random_walks and a word2vec-style embedding
    fit: window-2 co-visits counted corpus-wide, top 50
    (stages/graph.py walk_pairs). The twin self-joins the replayed walks."""
    import pyarrow as pa
    import ray.data

    from search_engine_framework_ray.stages.graph import random_walks, walk_pairs

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )
    n = docs.count()

    def edges_of(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy().astype(np.int64)
        d2 = d[d % 16 == 0]
        src = np.concatenate([d, d2])
        dst = np.concatenate([(d + 4) % n, (d2 * 9 + 2) % n])
        return pa.table(
            {
                "src": np.concatenate([src, dst]),
                "dst": np.concatenate([dst, src]),
            }
        )

    edges = docs.map_batches(edges_of, batch_format="pyarrow")
    nodes = docs.map_batches(
        lambda t: t.rename_columns(["node"]), batch_format="pyarrow"
    )
    nb = 8 if n <= 100_000 else 64  # fixture scale: scheduling dominates
    walks = random_walks(edges, nodes, steps=4, n_buckets=nb)
    out = walk_pairs(walks, window=2, top_n=50, n_buckets=nb)
    return out.reset_index(drop=True)


# click-model fixture shape (shared by q_click_model and its SQL twin)
_CLICK_SESSIONS = 500
_CLICK_RANKS = 10
_CLICK_QUERIES = 3
# α → graded-relevance thresholds for letor_from_clicks (micros; chosen to
# split the fixture's click-query-0 α spread 2/4/4 across grades 2/1/0)
_CLICK_GRADE2 = 500_000
_CLICK_GRADE1 = 350_000


def _click_impressions(sf_dir: str):
    """The deterministic synthetic click log over sf_dir's doc ids (lazy
    Dataset) every click entry fits."""
    import pyarrow.parquet as papq

    from search_engine_framework_ray.stages.clicks import synth_impressions

    n = papq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    return synth_impressions(
        n, sessions=_CLICK_SESSIONS, ranks=_CLICK_RANKS, n_queries=_CLICK_QUERIES
    )


def q_click_model(sf_dir: str):
    """Position-based click model fitted with EM (stages/clicks.py; Craswell
    et al. WSDM 2008 position bias, Chuklin-Markov-de-Rijke PBM): a
    deterministic synthetic click log — two interleaved rankings per query,
    hash-threshold Bernoulli clicks — streams twice through bounded
    partial-sum passes that recover examination-per-rank θ and debiased
    per-(query, doc) attractiveness α in exact integer micros. The SQL twin
    regenerates the identical log via md5_number_lower and unrolls both EM
    iterations, so the whole fit is under the driver hash. The α table is
    the implicit-feedback relevance label a production LeToR would train on
    in place of editorial qrels. Round 5: the fit is the CO-PARTITIONED
    engine — α lives in hash(qid, doc)-buckets and comes back as a lazy
    Dataset (only θ, one int per rank, ever reduces on the driver); this
    entry pulls the α Dataset only because the fixture-scale RESULT is the
    deliverable."""
    from search_engine_framework_ray.stages.clicks import pbm_fit

    theta, alpha_ds = pbm_fit(_click_impressions(sf_dir), iters=2)
    al = alpha_ds.to_pandas().sort_values(["qid", "doc_id"])
    rows = [
        ("alpha", int(q), int(d), int(v))
        for q, d, v in zip(al["qid"], al["doc_id"], al["alpha_micros"])
    ]
    rows += [("theta", r, -1, v) for r, v in sorted(theta.items())]
    return pd.DataFrame(
        {
            "kind": pd.Series([k for k, _, _, _ in rows], dtype="object"),
            "k1": pd.Series([a for _, a, _, _ in rows], dtype="int64"),
            "k2": pd.Series([b for _, _, b, _ in rows], dtype="int64"),
            "value_micros": pd.Series([v for _, _, _, v in rows], dtype="int64"),
        }
    )


def q_texttiling(sf_dir: str):
    """TextTiling-style semantic chunk boundaries (stages/corpus.py
    ``texttiling_boundaries``; Hearst CL 1997 lexical-cohesion valleys —
    the semantic alternative to this repo's fixed/sliding RAG chunkers):
    per doc, adjacent 10-token blocks score a term-count cosine (pinned
    micros kernel); weak local minima below 0.5 mark topic shifts. ZERO
    shuffles at any corpus size; SQL twin = block counts → self-join dot →
    LAG/LEAD local-minimum test."""
    import ray.data

    from search_engine_framework_ray.stages.corpus import texttiling_boundaries

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = texttiling_boundaries(ds).to_pandas()
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values(["doc_id", "gap"]).reset_index(drop=True)


def q_embedding_decontam(sf_dir: str):
    """Semantic benchmark decontamination (stages/decontam.py
    ``embedding_decontaminate``): the n-gram overlap check misses
    paraphrased leakage, so the eval set's EMBEDDINGS (here the
    deterministic ``vec_id % 19 == 0`` slice) broadcast once and every
    other corpus vector is flagged when its best cosine against any eval
    vector reaches 0.46 (the fixture's pair-cosine gap). Zero shuffles,
    one streaming matmul pass; cosine in the repo's pinned micros kernel
    with zero-norm ≡ 0, so the list_cosine_similarity twin hash-matches."""
    import pyarrow as pa
    import ray.data

    from search_engine_framework_ray.stages.decontam import embedding_decontaminate

    p = os.path.join(sf_dir, "embeddings.parquet")

    def side(keep_eval: bool):
        def f(t: pa.Table) -> pa.Table:
            ids = t["vec_id"].to_numpy()
            mask = (ids % 19 == 0) == keep_eval
            return t.filter(pa.array(mask))

        return f

    # eval slice extracted DISTRIBUTED, pulled once (benchmark-sized)
    ev = (
        ray.data.read_parquet(p, columns=["vec_id", "embedding"])
        .map_batches(side(True), batch_format="pyarrow")
        .to_pandas()
        .sort_values("vec_id")
    )
    E = np.stack([np.asarray(v, dtype=np.float64) for v in ev["embedding"]])
    ds = ray.data.read_parquet(p, columns=["vec_id", "embedding"]).map_batches(
        side(False), batch_format="pyarrow"
    )
    out = embedding_decontaminate(ds, E, threshold_micros=460_000).to_pandas()
    for c in ("vec_id", "max_cos_micros", "contaminated"):
        out[c] = out[c].astype("int64")
    return out.sort_values("vec_id").reset_index(drop=True)


def q_fasttext_score(sf_dir: str):
    """fastText-architecture quality filter (stages/selection.py
    ``hashed_linear_score``; Joulin et al. 2016 — hashed word
    unigram+bigram linear model, the filter family behind the GPT-3 /
    CCNet / DCLM web-quality gates): streaming zero-shuffle scoring pass
    with a broadcast weight vector; centered integer-micros score + keep
    gate per doc, hash-checked against a SQL twin replaying the md5 bucket
    hashing and weight PRF. Drop in trained weights for the production
    filter — the Ray plumbing is identical."""
    import ray.data

    from search_engine_framework_ray.stages.selection import hashed_linear_score

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    out = hashed_linear_score(ds).to_pandas()
    for c in ("doc_id", "score_micros", "keep"):
        out[c] = out[c].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


def q_ips_ctr(sf_dir: str):
    """Counterfactual CTR estimation (stages/clicks.py ``ips_ctr``;
    Joachims-Swaminathan-Schnabel WSDM 2017): the PBM-fitted examination
    propensities debias the raw click log — per (query, doc) the naive CTR,
    the inverse-propensity estimate (weight = M²//θ_rank) and the clipped
    variant, all exact-integer means under the driver hash (the SQL twin
    reuses the click-EM CTE prefix). This is how position-biased logs turn
    into unbiased training labels. Round 5: the per-(qid, doc) estimates
    are reduced in co-partitioned buckets off the driver (lazy Dataset);
    only θ is broadcast."""
    from search_engine_framework_ray.stages.clicks import ips_ctr, pbm_fit

    imps = _click_impressions(sf_dir).materialize()
    theta, _alpha_ds = pbm_fit(imps, iters=2)
    return (
        ips_ctr(imps, theta)
        .to_pandas()
        .sort_values(["qid", "doc_id"])
        .reset_index(drop=True)
    )


def q_incremental_agg(sf_dir: str):
    """Incremental view maintenance: a materialized per-event-type
    (cnt, cents) aggregate built from 80% of events is refreshed with the
    other 20% by merging STATE + delta partials — O(|state|+|delta|), the
    base events never rescanned (stages/aggregate.py merge_agg_state).
    The oracle is the from-scratch aggregate over ALL events, so the hash
    proves the merged state exact."""
    import ray.data

    from search_engine_framework_ray.stages.aggregate import merge_agg_state

    def load(pred):
        def prep(b):
            b = b[pred(b["event_id"])].copy()
            b["cnt"] = np.int64(1)
            b["cents"] = np.floor(b["value"].to_numpy(np.float64) * 100 + 0.5).astype(
                "int64"
            )
            return b[["event_type", "cnt", "cents"]]

        return ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "event_type", "value"],
        ).map_batches(prep, batch_format="pandas")

    from ray.data.aggregate import Sum

    from search_engine_framework_ray.stages.aggregate import pre_aggregate_sum

    # state construction pre-combines per batch (one row per key per
    # batch) so the groupby shuffles partials, not raw rows
    base_state = (
        pre_aggregate_sum(load(lambda e: e % 5 != 4), ["event_type"], ["cnt", "cents"])
        .groupby("event_type")
        .aggregate(Sum("cnt", alias_name="cnt"), Sum("cents", alias_name="cents"))
    )
    merged = merge_agg_state(
        base_state, load(lambda e: e % 5 == 4), ["event_type"], ["cnt", "cents"]
    ).to_pandas()
    for c in ("cnt", "cents"):
        merged[c] = merged[c].astype("int64")
    return (
        merged[["event_type", "cnt", "cents"]]
        .sort_values("event_type")
        .reset_index(drop=True)
    )


def q_profile(sf_dir: str):
    """ANALYZE-style table profile of events (n / nulls / exact ndv /
    typed min-max per column) — one streaming stats pass + one bucketed
    distinct-value reduce; the value sets never reach the driver
    (stages/aggregate.py profile_table)."""
    import ray.data

    from search_engine_framework_ray.stages.aggregate import profile_table

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "event_type"],
    )
    out = profile_table(ds, ["event_id", "user_id", "event_type"])
    for c in ("n", "n_null", "ndv"):
        out[c] = out[c].astype("int64")
    return out[["col", "n", "n_null", "ndv", "min_v", "max_v"]].reset_index(
        drop=True
    )


def q_skew_report(sf_dir: str):
    """Shuffle-key skew diagnostics for events.user_id: exact n_keys /
    total / max / p50 / p99 / Gini from a count-of-counts histogram — the
    pre-flight check before picking a groupby key (stages/aggregate.py
    skew_report); the SQL twin ranks the counts directly with a window."""
    import ray.data

    from search_engine_framework_ray.stages.aggregate import skew_report

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id"]
    )
    out = skew_report(ds, "user_id")
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.reset_index(drop=True)


def q_zorder_prune(sf_dir: str):
    """The Z-order payoff under the driver hash: per-file min/max stats of
    BOTH interleaved columns plus survives-predicate flags for a user-id
    range and a time range — the file-skipping decision a reader makes
    from footer stats alone. With 16 Z-ordered files, each single-column
    predicate prunes most files; a single-column sort could only prune
    one of the two."""
    import ray.data

    from search_engine_framework_ray.stages.sink import zorder_layout

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts"],
    )

    def with_us(b):
        b = b.copy()
        b["ts_us"] = b["ts"].astype("datetime64[us]").astype("int64")
        return b[["event_id", "user_id", "ts_us"]]

    narrow = ds.map_batches(with_us, batch_format="pandas")
    # data columns ride the layout pass (keep_cols) so footer stats come
    # from per-batch partials — nothing joins on the driver
    z = zorder_layout(
        narrow,
        ("user_id", "ts_us"),
        bits=16,
        n_files=16,
        keep_cols=("user_id", "ts_us"),
    )

    def stats(b):
        return b.groupby("file_id", as_index=False).agg(
            n_rows=("event_id", "size"),
            min_user=("user_id", "min"),
            max_user=("user_id", "max"),
            min_ts=("ts_us", "min"),
            max_ts=("ts_us", "max"),
        )

    parts = z.map_batches(stats, batch_format="pandas").to_pandas()
    out = parts.groupby("file_id", as_index=False).agg(
        n_rows=("n_rows", "sum"),
        min_user=("min_user", "min"),
        max_user=("max_user", "max"),
        min_ts=("min_ts", "min"),
        max_ts=("max_ts", "max"),
    )
    # footer-stats pruning decisions (overlap tests, pure integers)
    u_lo, u_hi = 10, 40
    t0 = int(pd.Timestamp("2024-01-08").value // 1000)
    t1 = int(pd.Timestamp("2024-01-15").value // 1000)
    out["scan_user_range"] = (
        (out["min_user"] <= u_hi) & (out["max_user"] >= u_lo)
    ).astype("int64")
    out["scan_ts_range"] = (
        (out["min_ts"] <= t1) & (out["max_ts"] >= t0)
    ).astype("int64")
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("file_id").reset_index(drop=True)


def q_hybrid_rrf(sf_dir: str):
    """Hybrid search via reciprocal-rank fusion (Cormack et al. 2009):
    BM25 top-20 from the inverted index + cosine top-20 from the
    embedding column (vec_id aligns with doc_id in the fixture), fused as
    Σ 1/(60+rank), micros-rounded, top-15 — the standard sparse+dense
    hybrid ranking (query/fusion.py rrf_fuse). The SQL twin re-ranks both
    lists with the proven BM25/cosine CTEs and replays the fusion
    arithmetic."""
    import pyarrow.parquet as pq
    import ray.data

    from search_engine_framework_ray.query.fusion import rrf_fuse
    from search_engine_framework_ray.stages.ann import brute_force_topk

    sparse = _flagship_bm25_over(_docs_index(sf_dir))  # rank order = (score_micros desc, id)
    path = os.path.join(sf_dir, "embeddings.parquet")
    qv = np.asarray(
        pq.read_table(path).to_pandas().set_index("vec_id").loc[0, "embedding"],
        dtype=np.float32,
    )
    dense = brute_force_topk(ray.data.read_parquet(path), qv, k=20).rename(
        columns={"vec_id": "doc_id"}
    )
    out = rrf_fuse([sparse, dense], k0=60, k=15)
    for c in ("rank", "doc_id", "rrf_micros"):
        out[c] = out[c].astype("int64")
    return out.reset_index(drop=True)


def q_hybrid_mnz(sf_dir: str):
    """Hybrid search via CombMNZ (Fox & Shaw TREC-2 1994): the same sparse
    (BM25 top-20) and dense (cosine top-20) lists as ``hybrid_rrf``, fused
    by per-list min-max score normalization × list-membership count — the
    score-aware combiner next to RRF's rank-only one. Lists carry
    micros-quantized scores so both engines normalize identical integers
    (query/fusion.py comb_mnz)."""
    import pyarrow.parquet as pq
    import ray.data

    from search_engine_framework_ray.query.fusion import comb_mnz
    from search_engine_framework_ray.stages.ann import brute_force_topk

    sparse = _flagship_bm25_over(_docs_index(sf_dir))  # (doc_id, score_micros), 20 rows
    path = os.path.join(sf_dir, "embeddings.parquet")
    qv = np.asarray(
        pq.read_table(path).to_pandas().set_index("vec_id").loc[0, "embedding"],
        dtype=np.float32,
    )
    dense = brute_force_topk(ray.data.read_parquet(path), qv, k=20).rename(
        columns={"vec_id": "doc_id"}
    )
    dense["score_micros"] = _micros(dense["score"])
    out = comb_mnz([sparse, dense], k=15)
    for c in ("rank", "doc_id", "mnz_micros", "n_lists"):
        out[c] = out[c].astype("int64")
    return out.reset_index(drop=True)


def _sparse_dense_ids(sf_dir: str, k: int = 10):
    """The shared two-ranker fixture for the comparison operators: ranker
    A = BM25 top-k (inverted index), ranker B = cosine top-k (embedding
    column, vec_id ≡ doc_id) — the same two proven chains the hybrid
    fusion entries use."""
    import pyarrow.parquet as pq
    import ray.data

    from search_engine_framework_ray.stages.ann import brute_force_topk

    sparse = _flagship_bm25_over(_docs_index(sf_dir)).head(k)["doc_id"].astype("int64").tolist()
    path = os.path.join(sf_dir, "embeddings.parquet")
    qv = np.asarray(
        pq.read_table(path).to_pandas().set_index("vec_id").loc[0, "embedding"],
        dtype=np.float32,
    )
    dense = (
        brute_force_topk(ray.data.read_parquet(path), qv, k=k)["vec_id"]
        .astype("int64")
        .tolist()
    )
    return sparse, dense


def q_rbo(sf_dir: str):
    """Rank-biased overlap (Webber, Moffat & Zobel TOIS 2010) between the
    BM25 top-10 and the cosine top-10 — the offline before/after diff
    metric for ranker rollouts (query/abtest.py rbo_table). Per-depth
    terms are EXACT integers (rational p = 9/10 powers in unbounded ints,
    round-half-away micros), so the cumulative RBO is bit-identical to
    the SQL twin's BIGINT replay."""
    from search_engine_framework_ray.query.abtest import rbo_table

    a, b = _sparse_dense_ids(sf_dir, k=10)
    return rbo_table(a, b, k=10)


def q_interleave(sf_dir: str):
    """Team-draft interleaving (Radlinski, Kurup & Joachims CIKM 2008) of
    the BM25 and cosine top-10 lists — the online A/B primitive: the team
    with fewer picks drafts its best unpicked doc, ties flip the
    deterministic md5 coin, clicks credit the contributing team
    (query/abtest.py team_draft_interleave). Deterministic draft ⇒ the
    SQL twin replays all ten steps with unrolled state CTEs; the clicked
    column is the fixture's synthetic click model (doc_id % 3 == 0)."""
    from search_engine_framework_ray.query.abtest import team_draft_interleave

    a, b = _sparse_dense_ids(sf_dir, k=10)
    out = team_draft_interleave(a, b, k=10, salt="td")
    out["clicked"] = (out["doc_id"] % 3 == 0).astype("int64")
    for c in ("pos", "doc_id"):
        out[c] = out[c].astype("int64")
    return out[["pos", "doc_id", "team", "clicked"]].reset_index(drop=True)


# BM25F field weights — accumulation order body→title→url→inlink is part of
# the spec (query/bm25f.py FIELD_ORDER); values are exact binary floats
_BM25F_W = {"body": 1.0, "title": 2.0, "url": 0.5, "inlink": 1.5}


def q_bm25f(sf_dir: str):
    """BM25F field-weighted top-15 (Zaragoza et al. CIKM 2004) over the
    derived four-field index: per-field length-normalized tfs fold into ONE
    saturation (vs the reference's per-field BM25 features,
    LearnToRank.java:358-445), idf from the cross-field UNION df. Engine:
    per-shard union-df pre-pass + vectorized per-shard top-k + k·S driver
    merge (query/bm25f.py). The SQL twin rebuilds each field from the same
    deterministic token slices the index build uses."""
    from search_engine_framework_ray.query.bm25f import bm25f_topk

    idx = _letor_index(sf_dir)
    # overselect (k=50) so the micros-rounded cut can't disagree with the
    # float cut at rank 15, then re-rank on the integer key
    df = bm25f_topk(idx, list(_BM25_TERMS), _BM25F_W, k=50)
    df["doc_id"] = df["url"].str[3:].astype("int64")
    df = _micros_top(df, 15)
    df["rank"] = np.arange(1, len(df) + 1, dtype=np.int64)
    return df[["rank", "doc_id", "score_micros"]].reset_index(drop=True)


def q_site_collapse(sf_dir: str):
    """Site-collapsed ranking (classic web-search host crowding): the BM25
    top-50 re-ranked so no ``source`` contributes more than 2 results,
    final top-10. Engine: the distributed BM25 ranking + a PRUNED filtered
    read of (doc_id, source) for just the candidate ids (at 100 TB the
    top-k is still 50 rows — the corpus never re-scans), then the
    row_number-per-key collapse (query/diversify.py collapse_top_k)."""
    import pyarrow.dataset as pads
    import ray.data

    from search_engine_framework_ray.query.diversify import collapse_top_k

    df = _micros_top(_run(sf_dir, " ".join(_BM25_TERMS), "BM25"), 50)
    src = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source"],
        filter=pads.field("doc_id").isin(df["doc_id"].tolist()),
    ).to_pandas()
    merged = _micros_top(df.merge(src, on="doc_id"), None)
    out = collapse_top_k(merged, "source", max_per_key=2, k=10)
    return out[["rank", "doc_id", "source", "score_micros"]]


def q_pruned_bm25(sf_dir: str):
    """BM25 top-20 over a STATICALLY PRUNED index (Carmel et al. SIGIR
    2001): each term keeps only its 25 highest-tf postings (ties
    docid-ascending); scoring uses the FULL index's global stats so every
    surviving posting scores exactly what it scored un-pruned. Engine:
    per-shard local top-P combiner → one term-bucket shuffle → global cut,
    then a docid-range co-partition so each scoring group loads only its
    own shard's doclen column (pipelines/prune.py)."""
    from search_engine_framework_ray.pipelines.prune import pruned_bm25_topk

    idx = _docs_index(sf_dir)
    df = pruned_bm25_topk(idx, list(_BM25_TERMS), keep_top=25, k=60)
    return _micros_top(df.rename(columns={"docid": "doc_id"}), 20)[["doc_id", "score_micros"]]


def q_rocchio(sf_dir: str):
    """Rocchio (1971) vector-space feedback terms — the classic expansion
    family next to the reference's Indri-style PRF (`fb_expansion`): top-10
    BM25 docs as the binary relevant set, candidate weights
    β·mean(tf·idf) + α·idf for original terms, top-10 by weight. Engine:
    per-shard fwd.parquet term-vector tasks + bucketed termstats df
    (query/expansion.py rocchio_terms)."""
    from search_engine_framework_ray.query.expansion import rocchio_terms

    idx = _docs_index(sf_dir)
    top = _micros_top(_run(sf_dir, " ".join(_BM25_TERMS), "BM25"), 10)
    out = rocchio_terms(
        idx,
        list(_BM25_TERMS),
        list(zip(top["doc_id"], top["score"])),
        alpha=1.0,
        beta=0.75,
        n_terms=30,  # overselect; the micros-rounded cut decides rank 10
    )
    out["weight_micros"] = _micros(out["weight"])
    out = out.sort_values(
        ["weight_micros", "term"], ascending=[False, True], kind="mergesort"
    ).head(10)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out[["rank", "term", "weight_micros"]].reset_index(drop=True)


def q_explain_bm25(sf_dir: str):
    """Score explanation (the Lucene explain() surface): per-term BM25
    decomposition — tf, df, doclen, contribution — for the top-5 'spark
    join' docs. Requested docs route to their shards; each shard task
    decodes ONLY the query terms' postings and probes the ids with one
    searchsorted pass — no full evaluation. Contributions sum exactly to
    the ranking scores (query/explain.py)."""
    from search_engine_framework_ray.query.explain import explain_bm25

    idx = _docs_index(sf_dir)
    ids = _flagship_bm25_over(idx, n=5)["doc_id"].tolist()
    out = explain_bm25(idx, list(_BM25_TERMS), ids)
    return out.reset_index(drop=True)


def q_cached_bm25(sf_dir: str):
    """Query-result cache (production broker front): the BM25 run executes
    once, a second identical run serves from the cache (asserted: 2 hits,
    0 extra misses, zero cluster work), and the RETURNED rows are the
    cached ones — the oracle hash passing proves cache hits bit-identical
    to evaluation. Keys contain the index fingerprint (shard manifests +
    stats + tombstones), so any extend/compact/delete invalidates
    automatically (query/cache.py)."""
    import shutil

    from search_engine_framework_ray.query.cache import QueryResultCache
    from search_engine_framework_ray.query.models import ModelParams

    idx = _docs_index(sf_dir)
    cdir = f"/tmp/sefr_qcache/{_sf_key(sf_dir)}"
    shutil.rmtree(cdir, ignore_errors=True)
    cache = QueryResultCache(idx, cdir)
    q = [("q", " ".join(_BM25_TERMS))]
    params = ModelParams(model="BM25")
    cache.run(q, params, k=100)
    res = cache.run(q, params, k=100)["q"]
    assert (cache.hits, cache.misses) == (1, 1), "second run must be a pure hit"
    return _micros_top(_hits_frame(res), 20)[["doc_id", "score_micros"]]


def q_filtered_bm25(sf_dir: str):
    """Attribute-filtered retrieval (Lucene filter-query semantics): BM25
    over 'spark join' restricted at QUERY TIME to documents with
    source ∈ {src3, src7}; scores keep GLOBAL collection stats — the
    filter changes who ranks, not how anyone scores. Allowed-docid set
    from one pruned predicate-pushed metadata read, shipped as per-shard
    Elias-Fano bytes, one searchsorted membership probe before each
    shard's top-k cut (query/filtered.py)."""
    from search_engine_framework_ray.query.filtered import filtered_topk
    from search_engine_framework_ray.query.models import ModelParams

    idx = _docs_index(sf_dir)
    res = filtered_topk(
        idx,
        os.path.join(sf_dir, "documents.parquet"),
        [("q", " ".join(_BM25_TERMS))],
        ModelParams(model="BM25"),
        "source",
        ["src3", "src7"],
        k=10,
    )["q"]
    df = _hits_frame(res)
    df.insert(0, "rank", np.arange(1, len(df) + 1, dtype=np.int64))
    df["score_micros"] = _micros(df.pop("score"))
    return df


def q_more_like_this(sf_dir: str):
    """Lucene-style MoreLikeThis (related-documents search): seed doc 7's
    term vector scored by tf·ln(N/df) (the MLT interest measure,
    micros-quantized, ties term-asc), top-8 terms rewritten as a #SUM BM25
    query through the ordinary distributed path, seed excluded from the
    top-10. One pruned fwd.parquet task + metadata df — the corpus is
    never scanned for term selection (query/expansion.py
    more_like_this)."""
    from search_engine_framework_ray.query.expansion import more_like_this

    idx = _docs_index(sf_dir)
    out = more_like_this(idx, 7, n_terms=8, k=10)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out[["rank", "doc_id", "score_micros"]].reset_index(drop=True)


def q_lang_routed_bm25(sf_dir: str):
    """BM25 over a LANGUAGE-PARTITIONED index: the corpus splits by
    ``lang`` in one resumable sink pass, each language builds its own
    independent sharded index (per-language df/avgdl — cross-language
    stats poison BM25), and the query routes to the 'en' partition ONLY
    (partition pruning: the other languages' bytes are never opened) —
    pipelines/partitioned.py. The SQL twin restricts every stat to the
    lang='en' subset, which is what proves the partition stats isolated."""
    from search_engine_framework_ray.functions.analysis import PLAIN_ANALYZER
    from search_engine_framework_ray.pipelines.partitioned import (
        build_partitioned_indexes,
    )

    base = f"/tmp/sefr_langidx/{_sf_key(sf_dir)}"
    idxs = build_partitioned_indexes(
        os.path.join(sf_dir, "documents.parquet"), base, analyzer=PLAIN_ANALYZER
    )
    return _flagship_bm25_over(idxs["en"], n=10)


def _shard_indexes(sf_dir: str) -> dict[str, str]:
    """Four doc_id%4 hash-sharded partition indexes over documents —
    the shard fleet the selective-search entries route across. In
    production the partition key would be topical (k-means over doc
    embeddings) or source-based; doc_id%4 keeps the twin SQL-exact.
    Cached per sf_dir (build_partitioned_indexes is fingerprint-resumable,
    so repeat calls are metadata no-ops)."""
    import ray.data

    from search_engine_framework_ray.functions.analysis import PLAIN_ANALYZER
    from search_engine_framework_ray.pipelines.partitioned import (
        build_partitioned_indexes,
    )

    base = f"/tmp/sefr_shardidx/{_sf_key(sf_dir)}"
    corpus = os.path.join(base, "corpus.parquet")
    if not os.path.exists(os.path.join(base, "_corpus_done")):
        shutil.rmtree(corpus, ignore_errors=True)
        os.makedirs(base, exist_ok=True)
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )

        def add_shard(b: pd.DataFrame) -> pd.DataFrame:
            b["shard"] = (b["doc_id"].astype("int64") % 4).astype("int64")
            return b

        ds.map_batches(add_shard, batch_format="pandas").write_parquet(corpus)
        with open(os.path.join(base, "_corpus_done"), "w") as f:
            f.write("ok")
    return build_partitioned_indexes(
        corpus,
        base,
        partition_col="shard",
        analyzer=PLAIN_ANALYZER,
        num_shards=2,
    )


def q_shard_ranking(sf_dir: str):
    """CORI resource ranking (Callan/Lu/Croft SIGIR'95) over the 4-shard
    partitioned fleet: per-shard belief for the fixture query computed from
    metadata only (bucketed termstats df + stats.json word counts — no
    posting list opened). pipelines/selective.py; the routing half of
    selective search, THE way a 10^12-doc deployment avoids full query
    fan-out."""
    from search_engine_framework_ray.pipelines.selective import cori_shard_ranking

    idxs = _shard_indexes(sf_dir)
    rk = cori_shard_ranking(idxs, list(_BM25_TERMS))
    return pd.DataFrame(
        {
            "shard": rk["shard"].astype("int64"),
            "belief_micros": _micros(rk["belief"]),
            "cw": rk["cw"].astype("int64"),
        }
    ).reset_index(drop=True)


def q_bloom_route(sf_dir: str):
    """Per-shard term-membership Bloom routing (pipelines/selective.py
    ``build_term_bloom``/``bloom_route``) — the O(1)-memory, zero-I/O
    complement to CORI belief ranking: a broker holding 512 B per shard
    skips every shard that provably lacks the query's terms (no false
    negatives ⇒ routed ≡ full fan-out). Hashing is the SQL-replayable md5
    PRF pair with power-of-two bits, so the DuckDB twin replays the whole
    routing matrix — INCLUDING any false positives — from the shard
    vocabularies. Probes: the two fixture terms (present in every shard)
    plus a nonsense term whose row certifies the negative path."""
    from search_engine_framework_ray.pipelines.selective import (
        bloom_probe,
        build_term_bloom,
    )

    idxs = _shard_indexes(sf_dir)
    blooms = {name: build_term_bloom(d) for name, d in idxs.items()}
    probes = list(_BM25_TERMS) + ["qzx7nope"]
    rows = [
        {
            "shard": int(name),
            "term": t,
            "might_contain": int(bloom_probe(blooms[name], t)),
        }
        for name in sorted(blooms)
        for t in probes
    ]
    out = pd.DataFrame(rows).sort_values(["shard", "term"]).reset_index(drop=True)
    for c in ("shard", "might_contain"):
        out[c] = out[c].astype("int64")
    return out[["shard", "term", "might_contain"]]


def q_selective_bm25(sf_dir: str):
    """Selective search end-to-end: CORI-rank the 4 shards, route the BM25
    query to the top-2 ONLY (their own per-partition collection stats), and
    raw-score-merge the two top-10 lists. The twin replays the belief
    ranking, the per-shard BM25 (per-shard n_docs/avgdl/df) and the merge,
    so the hash proves both the routing decision and the pruned evaluation."""
    from search_engine_framework_ray.pipelines.selective import selective_bm25

    idxs = _shard_indexes(sf_dir)
    _, res = selective_bm25(idxs, list(_BM25_TERMS), select=2, k=10)
    return pd.DataFrame(
        {
            "doc_id": res["extid"].str[3:].astype("int64"),
            "score_micros": _micros(res["score"]),
            "shard": res["shard"].astype("int64"),
        }
    ).reset_index(drop=True)


def q_qpp(sf_dir: str):
    """Pre-retrieval query performance prediction (He & Ounis 2004; Zhao,
    Scholer & Tsegay 2008): per query, term-statistics-only difficulty
    predictors — avg/max RSJ idf and summed SCQ = (1+ln ctf)·ln(1+N/df) —
    straight from the bucketed termstats store + stats.json, NO posting
    list opened. The triage signal a 10^12-doc deployment uses to budget
    per-query work (deep vs shallow k, whether to run the expensive
    cascade stage) before touching the index proper."""
    from search_engine_framework_ray.query.executor import (
        load_term_stats,
        read_stats,
    )

    idx = _docs_index(sf_dir)
    n_docs = float(read_stats(idx)["n_docs"])
    all_terms = {t for _, terms in _TREC_QSET for t in terms}
    stats = load_term_stats(idx, {("body", t) for t in all_terms})
    rows = []
    for qid, terms in _TREC_QSET:
        idfs, scqs = [], []
        for t in terms:
            df, ctf = stats.get(("body", t), (0, 0))
            if df > 0:
                idfs.append(np.log((n_docs - df + 0.5) / (df + 0.5)))
                scqs.append((1.0 + np.log(ctf)) * np.log(1.0 + n_docs / df))
        rows.append(
            {
                "qid": qid,
                "n_terms": np.int64(len(terms)),
                "n_matched": np.int64(len(idfs)),
                "avg_idf_micros": _micros([np.mean(idfs) if idfs else 0.0])[0],
                "max_idf_micros": _micros([max(idfs) if idfs else 0.0])[0],
                "scq_micros": _micros([sum(scqs)])[0],
            }
        )
    out = pd.DataFrame(rows)
    for c in out.columns:
        if c != "qid":
            out[c] = out[c].astype("int64")
    return out.sort_values("qid").reset_index(drop=True)


def q_cori_merge(sf_dir: str):
    """Selective search with CORI result MERGING (the half raw-score merge
    leaves open): each routed shard's top-10 list min-max normalized within
    itself, shard beliefs min-max normalized across the fleet, merged as
    (s' + 0.4·s'·b')/1.4 — a high-belief shard's docs outrank
    equal-normalized-score docs from low-belief shards
    (pipelines/selective.py cori_merge; Callan SIGIR'95 §merging)."""
    from search_engine_framework_ray.pipelines.selective import cori_merge

    idxs = _shard_indexes(sf_dir)
    res = cori_merge(idxs, list(_BM25_TERMS), select=2, k=10)
    return pd.DataFrame(
        {
            "doc_id": res["extid"].str[3:].astype("int64"),
            "merged_micros": _micros(res["merged"]),
            "shard": res["shard"].astype("int64"),
        }
    ).reset_index(drop=True)


def q_shard_balance(sf_dir: str):
    """LPT shard→node placement (Graham 1969): the fleet's 4 shards packed
    onto 3 nodes, heaviest first, each to the currently-lightest node —
    the rebalancing plan a grown/skewed cluster computes before moving any
    bytes. Exact integer word-count weights from stats.json (metadata
    only), so the SQL twin replays the greedy walk bit-for-bit
    (pipelines/selective.py lpt_assign)."""
    from search_engine_framework_ray.pipelines.selective import lpt_assign
    from search_engine_framework_ray.query.executor import read_stats

    idxs = _shard_indexes(sf_dir)
    cw = {
        name: int(read_stats(p)["fields"]["body"]["sum_doclen"])
        for name, p in idxs.items()
    }
    out = lpt_assign(cw, 3)
    for c in out.columns:
        out[c] = out[c].astype("int64")
    return out.sort_values("shard").reset_index(drop=True)


def _frontier_corpus(sf_dir: str) -> str:
    """HTML corpus whose pages carry one in-corpus link plus deterministic
    OUT-of-corpus links (the frontier): every page links
    ``https://ext{d%37}.example.com/`` and even pages also link
    ``https://ext{(3d+1)%53}.example.com/b`` — closed-form indegrees a SQL
    twin replays. Cached per sf_dir with the partial-write guard."""
    import pyarrow.parquet as _pq
    import ray.data

    corpus = f"/tmp/sefr_frontier/{_sf_key(sf_dir)}/corpus"
    docs_path = os.path.join(sf_dir, "documents.parquet")
    n = _pq.read_metadata(docs_path).num_rows
    if not os.path.exists(os.path.join(corpus, "_done")):
        import shutil

        shutil.rmtree(corpus, ignore_errors=True)
        ds = ray.data.read_parquet(docs_path, columns=["doc_id", "text"])

        def synth(b, n=n):
            d = b["doc_id"].astype("int64")
            internal = ((d * 7 + 3) % n).map("doc{:010d}".format)
            extA = "https://ext" + (d % 37).astype(str) + ".example.com/"
            extB = "https://ext" + ((d * 3 + 1) % 53).astype(str) + ".example.com/b"
            html = (
                "<html><body><p>"
                + b["text"].fillna("")
                + '</p><a href="' + internal + '">internal link</a>'
                + '<a href="' + extA + '">frontier one</a>'
                + np.where(
                    d % 2 == 0,
                    '<a href="' + extB + '">frontier two</a>',
                    "",
                )
                + "</body></html>"
            )
            return pd.DataFrame(
                {
                    "url": d.map("doc{:010d}".format),
                    "html": [h.encode() for h in html],
                }
            )

        ds.map_batches(synth, batch_format="pandas").write_parquet(corpus)
        with open(os.path.join(corpus, "_done"), "w") as f:
            f.write("ok")
    return corpus


def q_crawl_frontier(sf_dir: str):
    """Crawl-frontier prioritization: anchor targets not yet fetched,
    ranked by distinct-source indegree. Engine: REAL ExtractStage anchors,
    broadcast-Bloom seen-set with exact verify (anti semi-join — frontier
    rows stream with NO shuffle), one target-bucket indegree reduce with
    local top-k combiners (stages/web.py crawl_frontier). The in-corpus
    link every page also carries must be filtered by the seen-set — the
    SQL twin only ever counts the ext targets, so the hash proves it."""
    import ray.data

    from search_engine_framework_ray.stages.web import crawl_frontier

    pages = ray.data.read_parquet(
        _frontier_corpus(sf_dir), columns=["url", "html"]
    )
    return crawl_frontier(pages, top_k=20)


def q_bpe_merges(sf_dir: str):
    """Distributed BPE vocabulary learning (Sennrich et al. 2016): the
    corpus collapses once to (word, cnt), then 6 merge steps each run ONE
    word-bucket co-partition that applies the previous winner and emits
    pre-combined pair partials for the next (stages/bpe.py). Canonical
    leftmost-greedy application — same-symbol runs merge at even in-run
    offsets, a closed form both numpy and the unrolled SQL twin express
    without sequential scans."""
    import ray.data

    from search_engine_framework_ray.stages.bpe import bpe_train

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )
    return bpe_train(ds, 6)


def q_bpe_vocab(sf_dir: str):
    """Subword vocabulary frequencies after APPLYING all 6 learned merges
    (the encode side of `bpe_merges`): every word re-tokenizes batch-locally
    with the broadcast merge table, token counts reduce through per-group
    combiners — only distinct symbols cross (stages/bpe.py bpe_vocab)."""
    import ray.data

    from search_engine_framework_ray.stages.bpe import bpe_vocab

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )
    return bpe_vocab(ds, 6, top_k=20)


def q_late_events(sf_dir: str):
    """Streaming watermark / late-event detection (Flink-style bounded
    out-of-orderness): arrival order is a deterministic permutation of the
    (ts-ordered) fixture — arrival = event_id·7919 mod n — so genuine
    out-of-order pressure exists; watermark before arrival i =
    max(event-time of earlier arrivals) − 1 h; late ⇔ ts < watermark.
    Engine: distributed two-level prefix MAX (per-batch bucket partials,
    tiny driver carry-in list, co-partitioned finish —
    stages/window.py late_events)."""
    import pyarrow.parquet as _pq
    import ray.data

    from search_engine_framework_ray.stages.window import late_events

    path = os.path.join(sf_dir, "events.parquet")
    n = _pq.read_metadata(path).num_rows
    ds = ray.data.read_parquet(path, columns=["event_id", "ts"])

    def prep(b: pd.DataFrame, n=n) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "arrival": (b["event_id"].to_numpy() * 7919) % n,
                "ts_us": b["ts"].astype("datetime64[us]").astype("int64"),
            }
        )

    out = late_events(
        ds.map_batches(prep, batch_format="pandas"),
        arrival_col="arrival",
        ts_col="ts_us",
        lateness_us=3_600_000_000,
    ).to_pandas()
    out["arrival"] = out["arrival"].astype("int64")
    out["ts_us"] = out["ts_us"].astype("int64")
    return out.sort_values("arrival").reset_index(drop=True)


_RELAX_MIN_HITS = 400


def q_query_relax(sf_dir: str):
    """Adaptive query relaxation (the serving-side recall guard): run the
    strict #AND conjunction first; if it matches fewer than
    _RELAX_MIN_HITS docs, fall back to the #OR union. Both rounds are the
    ordinary distributed query path; the driver inspects only the strict
    HIT COUNT. The SQL twin gates the same two sets on the same count, so
    the hash proves which branch ran AND its scores."""
    strict = _run(
        sf_dir, f"#AND({_BM25_TERMS[0]} {_BM25_TERMS[1]})", "RankedBoolean", k=10_000
    )
    relaxed = len(strict) < _RELAX_MIN_HITS
    if relaxed:
        out = _run(
            sf_dir, f"#OR({_BM25_TERMS[0]} {_BM25_TERMS[1]})", "RankedBoolean", k=10_000
        )
    else:
        out = strict
    out = out.copy()
    out["tf"] = out["score"].astype("int64")
    out["relaxed"] = bool(relaxed)
    return (
        out[["doc_id", "tf", "relaxed"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def q_snapshot_dedup(sf_dir: str):
    """Incremental snapshot dedup (CCNet-style: each new crawl dedups
    against the PRIOR corpus, not just itself): a synthesized delta —
    doc_id % 3 == 0, even thirds byte-identical to their base doc, odd
    thirds genuinely new — anti-joins the base corpus on the exact content
    hash through the broadcast-Bloom runtime filter (definite-new rows
    stream with NO shuffle; bloom-passing rows verify exactly). Survivors
    are the genuinely-new docs. The SQL twin replays the synthesis and
    keeps delta rows whose text is absent from the base."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import _text_hash64
    from search_engine_framework_ray.stages.join import bloom_semi_join

    path = os.path.join(sf_dir, "documents.parquet")
    base = ray.data.read_parquet(path, columns=["doc_id", "text"])

    def hash_base(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"hkey": _text_hash64(b["text"].astype(str).tolist())})

    def make_delta(b: pd.DataFrame) -> pd.DataFrame:
        d = b[b["doc_id"] % 3 == 0].copy()
        third = d["doc_id"] // 3
        d["text"] = np.where(
            third % 2 == 0, d["text"], d["text"] + " v2"
        )
        d["delta_id"] = d["doc_id"] + 1_000_000
        d["hkey"] = _text_hash64(d["text"].astype(str).tolist())
        return d[["delta_id", "text", "hkey"]]

    delta = base.map_batches(make_delta, batch_format="pandas")
    fresh = bloom_semi_join(
        delta,
        base.map_batches(hash_base, batch_format="pandas"),
        probe_key="hkey",
        build_key="hkey",
        anti=True,
    ).to_pandas()
    fresh["delta_id"] = fresh["delta_id"].astype("int64")
    return (
        fresh[["delta_id", "text"]]
        .sort_values("delta_id")
        .reset_index(drop=True)
    )


def q_zorder(sf_dir: str):
    """Z-order (Morton) layout pass over events: (user_id, epoch-µs ts)
    bucket to 2^16 cells by integer min-max arithmetic, bit-interleave to
    zkey, file_id = top 4 zkey bits — the lakehouse OPTIMIZE ZORDER
    clustering that lets per-file min/max stats prune range predicates on
    BOTH columns (stages/sink.py zorder_layout). Integer-only math: the
    SQL twin rebuilds every key with the same shifts exactly."""
    import ray.data

    from search_engine_framework_ray.stages.sink import zorder_layout

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts"],
    )

    def with_us(b):
        b = b.copy()
        b["ts_us"] = b["ts"].astype("datetime64[us]").astype("int64")
        return b[["event_id", "user_id", "ts_us"]]

    out = zorder_layout(
        ds.map_batches(with_us, batch_format="pandas"),
        ("user_id", "ts_us"),
        bits=16,
        n_files=16,
    ).to_pandas()
    for c in ("event_id", "zkey", "file_id"):
        out[c] = out[c].astype("int64")
    return (
        out[["event_id", "zkey", "file_id"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


# DuckDB bit-interleave expression for the zorder twin (A on even bits,
# B on odd) — generated, fully parenthesized
_Z_INTERLEAVE = " | ".join(
    f"(((ba >> {i}) & 1) << {2 * i}) | (((bb >> {i}) & 1) << {2 * i + 1})"
    for i in range(16)
)


# ----------------------------------------------------------------------------
# driver contract
# ----------------------------------------------------------------------------


def entry() -> Any:
    """Flagship: build the inverted index over sf0.001 documents and run a
    BM25 batch; returns the ranked results table."""
    sf = "/root/testdata/sf0.001"
    from search_engine_framework_ray.query.executor import run_queries
    from search_engine_framework_ray.query.models import ModelParams

    idx = _docs_index(sf)
    res = run_queries(
        idx,
        [("q1", "spark join"), ("q2", "#NEAR/1(spark join)"), ("q3", "window sort merge")],
        ModelParams(model="BM25"),
    )
    rows = []
    for qid in ("q1", "q2", "q3"):
        for rank, (url, score, docid) in enumerate(res[qid], 1):
            rows.append({"qid": qid, "rank": rank, "doc_id": int(url[3:]), "score": score})
    return pd.DataFrame(rows)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        **{name: _ranked_entry(*row) for name, *row in _RANKED_ENTRIES},
        "clarity": q_clarity,
        "phrase_accel": q_phrase_accel,
        "static_blend": q_static_blend,
        "hybrid_mnz": q_hybrid_mnz,
        "impact_topk": q_impact_topk,
        "delete_bm25": q_delete_bm25,
        "compact_reclaim_bm25": q_compact_reclaim_bm25,
        "passage_bm25": q_passage_bm25,
        "cascade_rerank": q_cascade_rerank,
        "search_after": q_search_after,
        "term_stats": q_term_stats,
        "kstem_term_stats": q_kstem_term_stats,
        "click_model": q_click_model,
        "param_sweep": q_param_sweep,
        "ips_ctr": q_ips_ctr,
        "texttiling": q_texttiling,
        "embedding_decontam": q_embedding_decontam,
        "fasttext_score": q_fasttext_score,
        "postings_export": q_postings_export,
        "doclen_stats": q_doclen_stats,
        "fb_expansion": q_fb_expansion,
        "trec_roundtrip": q_trec_roundtrip,
        "fb_from_file": q_fb_from_file,
        "cli_query": q_cli_query,
        "resumable_sink": q_resumable_sink,
        "warc_ingest": q_warc_ingest,
        "ef_docsets": q_ef_docsets,
        "split_assign": q_split_assign,
        "chunking": q_chunking,
        "text_norm": q_text_norm,
        "inlink_join": q_inlink_join,
        "svmlight_roundtrip": q_svmlight_roundtrip,
        "syn_root_tf": q_syn_root_tf,
        "letor_features": q_letor_features,
        "letor_core": q_letor_core,
        "letor_rerank": q_letor_rerank,
        "letor_from_clicks": q_letor_from_clicks,
        "letor_rerank_svmrank": q_letor_rerank_svmrank,
        "trec_eval": q_trec_eval,
        "sig_test": q_sig_test,
        "bpref": q_bpref,
        "err_metric": q_err_metric,
        "kendall_tau": q_kendall_tau,
        "mrr": q_mrr,
        "judgment_pool": q_judgment_pool,
        "hard_negatives": q_hard_negatives,
        "qpp": q_qpp,
        "bm25_snippets": q_bm25_snippets,
        "dedup_exact": q_dedup_exact,
        "dedup_minhash": q_dedup_minhash,
        "dedup_minhash_clusters": q_dedup_minhash_clusters,
        "mm_pnm_decode": q_mm_pnm_decode,
        "mm_wav_decode": q_mm_wav_decode,
        "mm_bmp_decode": q_mm_bmp_decode,
        "mm_qoi_decode": q_mm_qoi_decode,
        "incremental_neardup": q_incremental_neardup,
        "incremental_neardup_warm": q_incremental_neardup_warm,
        "crawl_cycle": q_crawl_cycle,
        "leakage_safe_split": q_leakage_safe_split,
        "cluster_weights": q_cluster_weights,
        "simhash_values": q_simhash_values,
        "dedup_simhash": q_dedup_simhash,
        "jaccard_pairs": q_jaccard_pairs,
        "setsim_pairs": q_setsim_pairs,
        "setsim_containment": q_setsim_containment,
        "edit_pairs": q_edit_pairs,
        "setsim_cross": q_setsim_cross,
        "setsim_clusters": q_setsim_clusters,
        "vocab_growth": q_vocab_growth,
        "ann_cosine_topk": q_ann_cosine_topk,
        "ann_filtered": q_ann_filtered,
        "knn_join": q_knn_join,
        "source_centroids": q_source_centroids,
        "ann_ivf_topk": q_ann_ivf_topk,
        "ann_sq_topk": q_ann_sq_topk,
        "ann_pq_topk": q_ann_pq_topk,
        "ann_ivfpq_topk": q_ann_ivfpq_topk,
        "embedding_neardup": q_embedding_neardup,
        "token_count": q_token_count,
        "doc_packing": q_doc_packing,
        "quality": q_quality,
        "langid": q_langid,
        "fingerprint": q_fingerprint,
        "decontam": q_decontam,
        "lm_bigram_ppl": q_lm_bigram_ppl,
        "repetition": q_repetition,
        "cross_dup": q_cross_dup,
        "source_boilerplate": q_source_boilerplate,
        "source_stats": q_source_stats,
        "facet_counts": q_facet_counts,
        "triangles": q_triangles,
        "kmv_distinct": q_kmv_distinct,
        "kmv_jaccard": q_kmv_jaccard,
        "cms_counts": q_cms_counts,
        "hll_distinct": q_hll_distinct,
        "pagerank": q_pagerank,
        "hits": q_hits,
        "pagerank_ppr": q_pagerank_ppr,
        "link_components": q_link_components,
        "substring_dedup": q_substring_dedup,
        "line_dedup": q_line_dedup,
        "heavy_hitters": q_heavy_hitters,
        "collocations": q_collocations,
        "ngram_topk": q_ngram_topk,
        "tfidf_topk": q_tfidf_topk,
        "docs_shuffle": q_docs_shuffle,
        "embedding_clusters": q_embedding_clusters,
        "pca_top_component": q_pca_top_component,
        "semantic_dedup": q_semantic_dedup,
        "curation": q_curation,
        "url_canonical": q_url_canonical,
        "host_cap": q_host_cap,
        "crawl_delta": q_crawl_delta,
        "robots_filter": q_robots_filter,
        "spell_correct": q_spell_correct,
        "mmr_rerank": q_mmr_rerank,
        "prefix_suggest": q_prefix_suggest,
        "build_manifest": q_build_manifest,
        "html_extract": q_html_extract,
        "weighted_sample": q_weighted_sample,
        "dsir_weights": q_dsir,
        "pii_scrub": q_pii_scrub,
        "canary_scan": q_canary_scan,
        "blocklist": q_blocklist,
        "gopher_gate": q_gopher_gate,
        "mm_dedup": q_mm_dedup,
        "zorder": q_zorder,
        "hybrid_rrf": q_hybrid_rrf,
        "rbo": q_rbo,
        "interleave": q_interleave,
        "bm25f": q_bm25f,
        "site_collapse": q_site_collapse,
        "pruned_bm25": q_pruned_bm25,
        "rocchio": q_rocchio,
        "more_like_this": q_more_like_this,
        "filtered_bm25": q_filtered_bm25,
        "cached_bm25": q_cached_bm25,
        "explain_bm25": q_explain_bm25,
        "lang_routed_bm25": q_lang_routed_bm25,
        "shard_ranking": q_shard_ranking,
        "selective_bm25": q_selective_bm25,
        "bloom_route": q_bloom_route,
        "cori_merge": q_cori_merge,
        "shard_balance": q_shard_balance,
        "crawl_frontier": q_crawl_frontier,
        "bpe_merges": q_bpe_merges,
        "bpe_vocab": q_bpe_vocab,
        "late_events": q_late_events,
        "query_relax": q_query_relax,
        "snapshot_dedup": q_snapshot_dedup,
        "zorder_prune": q_zorder_prune,
        "skew_report": q_skew_report,
        "profile": q_profile,
        "incremental_agg": q_incremental_agg,
        "random_walks": q_random_walks,
        "walk_pairs": q_walk_pairs,
        "cohort_retention": q_cohort_retention,
        "percolate": q_percolate,
        "jsonl_export": q_jsonl_export,
        "char_entropy": q_char_entropy,
        "rag_chunks": q_rag_chunks,
        "mm_meta": q_mm_meta,
        "mm_resize": q_mm_resize,
        "mm_audio": q_mm_audio,
        "mm_video": q_mm_video,
        "domain_mix": q_domain_mix,
        "feature_corr": q_feature_corr,
        "delta_bm25": q_delta_bm25,
        "compact_bm25": q_compact_bm25,
        "events_tumbling": q_events_tumbling,
        "events_window_topk": q_events_window_topk,
        "events_decayed": q_events_decayed,
        "events_funnel": q_events_funnel,
        "events_sliding": q_events_sliding,
        "events_sessions": q_events_sessions,
        "events_sessions_salted": q_events_sessions_salted,
        "events_asof": q_events_asof,
        "events_asof_salted": q_events_asof_salted,
        "events_in_sessions": q_events_in_sessions,
        "events_in_sessions_salted": q_events_in_sessions_salted,
        "lineitem_agg": q_lineitem_agg,
        "orders_by_nation": q_orders_by_nation,
        "revenue_by_priority": q_revenue_by_priority,
        "top_orders": q_top_orders,
        "docs_sample": q_docs_sample,
        "docs_stratified": q_docs_stratified,
        "events_quantiles": q_events_quantiles,
        "global_quantiles": q_global_quantiles,
        "semi_join_bloom": q_semi_join_bloom,
        "anti_join_bloom": q_anti_join_bloom,
        "event_types": q_event_types,
        "left_join": q_left_join,
        "full_join": q_full_join,
        "events_running": q_events_running,
        "events_pivot": q_events_pivot,
        "events_latest": q_events_latest,
        "events_paths": q_events_paths,
        "docs_rollup": q_docs_rollup,
        "events_winsorized": q_events_winsorized,
        "revenue_by_nation": q_revenue_by_nation,
        "events_props": q_events_props,
        "docs_mode_lang": q_docs_mode_lang,
    }


# Tokenization parity note: the engine's PLAIN analyzer emits lowercased
# alphanumeric word runs; on the fixture corpora (alnum words, whitespace
# separators, no punctuation) those coincide with RE2 \S+ tokens. The
# explicit ASCII class below IS RE2's \S (DuckDB), so any run of spaces /
# tabs / newlines in a future fixture tokenizes identically on both sides
# (Python .split(' ') would not).
_TOKS = r"""
WITH toks AS (
    SELECT doc_id, lower(tok) AS tok
    FROM (SELECT doc_id, unnest(regexp_extract_all(text, '[^ \t\n\f\r]+')) AS tok
          FROM documents)
)
"""

_POS_TOKS = r"""
WITH lists AS (
    SELECT doc_id, regexp_extract_all(text, '[^ \t\n\f\r]+') AS l FROM documents
),
toks AS (
    SELECT doc_id, lower(l[i]) AS tok, i AS pos
    FROM lists, unnest(range(1, len(l) + 1)) AS t(i)
)
"""

# Corpus-restricted twin of _TOKS: every statistic of a chain built on it
# (n_docs included) sees only the docs matching the predicate.
_SUBSET_TOKS = r"""
WITH docs AS (SELECT doc_id, text FROM documents WHERE {}),
toks AS (
    SELECT doc_id, lower(tok) AS tok
    FROM (SELECT doc_id, unnest(regexp_extract_all(text, '[^ \t\n\f\r]+')) AS tok
          FROM docs)
)
"""


def _bm25_w(k1: float = _K1, b: float = _B, *, tf: str = "tf.tf", df: str = "df.df",
            dl: str = "doclen.dl", avgdl: str = "stats.sum_dl * 1.0 / stats.doccount",
            n: str = "stats.n_docs") -> str:
    """One BM25 addend idf·tf/(tf + k1·(1 − b + b·dl/avgdl)) in the float
    shape every twin shares with the engine kernel; the arguments only
    rename the columns it reads."""
    return (
        f"ln(({n} - {df} + 0.5) / ({df} + 0.5))\n"
        f"                * ({tf} / ({tf} + {k1} * ((1 - {b}) + {b} * ({dl} / ({avgdl})))))"
    )


def _bm25_chain(*, subset: str = "", toks: str = _TOKS, terms: str = f"'{_T0}', '{_T1}'",
                pre_tf: str = "", pre_scores: str = "", scored: str = "tf", where: str = "",
                scores: bool = True) -> str:
    """The BM25 CTE chain ``toks → doclen → stats → tf → df → scores`` every
    BM25 twin starts from. ``subset`` restricts the corpus (all stats) to a
    predicate; ``toks`` swaps the tokenization CTEs; ``terms`` is the tf
    IN-list; ``pre_tf``/``pre_scores`` splice extra CTEs (each ending in a
    comma) ahead of tf/scores; ``scored`` names the tf-shaped CTE the scores
    read; ``where`` filters the scored rows; ``scores=False`` stops at df."""
    head = _SUBSET_TOKS.format(subset) if subset else toks
    chain = f"""{head},
doclen AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
    SELECT (SELECT count(*) FROM {"docs" if subset else "documents"}) AS n_docs,
           (SELECT count(*) FROM doclen) AS doccount,
           (SELECT sum(dl) FROM doclen) AS sum_dl
),
{pre_tf}tf AS (
    SELECT doc_id, tok, count(*) AS tf FROM toks
    WHERE tok IN ({terms}) GROUP BY doc_id, tok
),
df AS (SELECT tok, count(*) AS df FROM tf GROUP BY tok)"""
    if not scores:
        return chain
    return chain + f""",
{pre_scores}scores AS (
    SELECT tf.doc_id,
           sum( {_bm25_w()} ) AS score
    FROM {scored if scored == "tf" else f"{scored} tf"}
    JOIN df USING (tok)
    JOIN doclen USING (doc_id)
    CROSS JOIN stats{f" WHERE {where}" if where else ""}
    GROUP BY tf.doc_id
)"""


def _bm25_top_sql(n: int, *, keep: str = "", rank: bool = False, **chain: Any) -> str:
    """BM25 chain → top-n (doc_id, score_micros) in the shared (micros desc,
    doc_id) order; ``keep`` filters the ranking only (stats untouched),
    ``rank`` adds the 1-based rank column."""
    cut = f"""SELECT doc_id, CAST(round(score * 1000000) AS BIGINT) AS score_micros
FROM scores{f" WHERE {keep}" if keep else ""}
ORDER BY score_micros DESC, doc_id
LIMIT {n}"""
    if not rank:
        return f"{_bm25_chain(**chain)}\n{cut}\n"
    return f"""{_bm25_chain(**chain)},
ranked AS ({cut})
SELECT row_number() OVER (ORDER BY score_micros DESC, doc_id) AS rank,
       doc_id, score_micros
FROM ranked
ORDER BY rank
"""


_BM25_SQL = _bm25_top_sql(20)


# Explain twin: the BM25 chain's per-term addends EXPOSED instead of
# summed, restricted to the micros-ranked top-5 docs.
_EXPLAIN_BM25_SQL = f"""
{_bm25_chain()},
top5 AS (
    SELECT doc_id FROM scores
    ORDER BY CAST(round(score * 1000000) AS BIGINT) DESC, doc_id
    LIMIT 5
)
SELECT tf.doc_id, tf.tok AS term, tf.tf, df.df, doclen.dl,
       CAST(round( {_bm25_w()}
                   * 1000000 ) AS BIGINT) AS contribution_micros
FROM tf
JOIN df USING (tok)
JOIN doclen USING (doc_id)
CROSS JOIN stats
WHERE tf.doc_id IN (SELECT doc_id FROM top5)
ORDER BY tf.doc_id, term
"""


# Filtered-retrieval twin: the _BM25_SQL chain with GLOBAL df/stats (the
# filter changes who ranks, not how anyone scores) and the source
# predicate applied only to the final ranking membership.
_FILTERED_BM25_SQL = _bm25_top_sql(
    10, rank=True,
    where="tf.doc_id IN (SELECT doc_id FROM documents WHERE source IN ('src3', 'src7'))",
)


# MoreLikeThis twin: seed doc 7's tf·ln(N/df) interest measure replayed
# micros-exact (ties term-asc), the winning 8 terms fed through the SAME
# BM25 chain as _BM25_SQL (df over ALL docs — global stats don't change
# with the exclusion), seed dropped only from the final ranking.
_MLT_SQL = _bm25_top_sql(10, rank=True, terms="SELECT tok FROM sel", where="tf.doc_id != 7",
                         pre_tf="""seed AS (SELECT tok, count(*) AS tf FROM toks WHERE doc_id = 7 GROUP BY tok),
dfall AS (SELECT tok, count(DISTINCT doc_id) AS df FROM toks GROUP BY tok),
sel AS (
    SELECT seed.tok
    FROM seed JOIN dfall USING (tok) CROSS JOIN stats
    ORDER BY CAST(round(seed.tf * ln(stats.n_docs * 1.0 / dfall.df)
                        * 1000000) AS BIGINT) DESC, seed.tok
    LIMIT 8
),
""")


# PL2 twin: identical float shapes in the engine's evaluation order —
# lam = ctf/N one division, avgdl = sum_dl/doccount one division, tfn's
# 1.0*avgdl multiply is exact, the four addends left-associate, and
# log2(e) is inlined as the engine's math.log2(math.e) literal so both
# sides multiply by the identical double. Micros rounding absorbs any
# residual libm log2 ulp.
_PL2_SQL = f"""
{_bm25_chain(scores=False)},
ctf AS (
    SELECT tok, count(*) AS ctf FROM toks
    WHERE tok IN ('spark', 'join') GROUP BY tok
),
scored AS (
    SELECT tf.doc_id,
           tf.tf * log2(1.0 + (1.0 * (stats.sum_dl / CAST(stats.doccount AS DOUBLE)))
                              / doclen.dl) AS tfn,
           CAST(ctf.ctf AS DOUBLE) / stats.n_docs AS lam
    FROM tf
    JOIN ctf USING (tok)
    JOIN doclen USING (doc_id)
    CROSS JOIN stats
),
scores AS (
    SELECT doc_id,
           sum( (1.0 / (tfn + 1.0)) *
                ( tfn * log2(1.0 / lam)
                  + lam * 1.4426950408889634
                  + 0.5 * log2(2.0 * pi() * tfn)
                  + tfn * (log2(tfn) - 1.4426950408889634) ) ) AS score
    FROM scored
    GROUP BY doc_id
)
SELECT doc_id, CAST(round(score * 1000000) AS BIGINT) AS score_micros
FROM scores
ORDER BY score_micros DESC, doc_id
LIMIT 20
"""


def _bm25f_sql() -> str:
    """SQL twin of ``q_bm25f``: each index field rebuilt from the same
    deterministic token slices ``_letor_corpus`` feeds the four-field build
    (body = all tokens; title/url/inlink = the _LETOR_* slices), per-field
    stats over the whole corpus (== the engine's global stats.json), idf
    from the cross-field union df, and the tf~ chain written in the
    engine's body→title→url→inlink accumulation order (float addition is
    commutative but not associative — order is part of the spec)."""
    t0, t1 = _BM25_TERMS
    w = _BM25F_W
    # (cte prefix, weight, slice) — body has no slice (all tokens)
    fields = [
        ("fb", w["body"], None),
        ("fti", w["title"], _LETOR_TITLE),
        ("fuf", w["url"], _LETOR_URLF),
        ("fil", w["inlink"], _LETOR_INLINK),
    ]
    blocks, terms_chain, joins = [], [], []
    for px, wt, sl in fields:
        if sl is None:
            toks = f"""{px}_toks AS (
    SELECT doc_id, lower(l[i]) AS tok
    FROM lists, unnest(range(1, len(l) + 1)) AS t(i)
)"""
        else:
            lo, hi = sl
            toks = f"""{px}_toks AS (
    SELECT doc_id, lower(l[i]) AS tok
    FROM lists, unnest(range({lo + 1}, {hi + 1})) AS t(i)
    WHERE i <= len(l)
)"""
        blocks.append(
            f"""{toks},
{px}_dl AS (SELECT doc_id, count(*) AS dl FROM {px}_toks GROUP BY doc_id),
{px}_st AS (
    SELECT CAST(count(*) AS DOUBLE) AS doccount, CAST(sum(dl) AS DOUBLE) AS sum_dl
    FROM {px}_dl
),
{px}_tf AS (
    SELECT doc_id, tok, count(*) AS tf FROM {px}_toks
    WHERE tok IN ('{t0}', '{t1}') GROUP BY doc_id, tok
)"""
        )
        terms_chain.append(
            f"coalesce(({wt} * {px}_tf.tf) / ((1 - {_B}) + {_B} * "
            f"({px}_dl.dl / ({px}_st.sum_dl / {px}_st.doccount))), 0)"
        )
        joins.append(
            f"""    LEFT JOIN {px}_tf ON {px}_tf.doc_id = g.doc_id AND {px}_tf.tok = g.tok
    LEFT JOIN {px}_dl ON {px}_dl.doc_id = g.doc_id
    CROSS JOIN {px}_st"""
        )
    union = " UNION ALL ".join(
        f"SELECT doc_id, tok FROM {px}_tf" for px, _, _ in fields
    )
    chain = "\n         + ".join(terms_chain)
    jblock = "\n".join(joins)
    return f"""
WITH lists AS (
    SELECT doc_id, regexp_extract_all(text, '[^ \t\n\f\r]+') AS l FROM documents
),
{",".join(blocks)},
stats AS (SELECT (SELECT count(*) FROM documents) AS n_docs),
udf AS (
    SELECT tok, count(DISTINCT doc_id) AS df FROM ({union}) GROUP BY tok
),
grid AS (SELECT DISTINCT doc_id, tok FROM ({union})),
tft AS (
    SELECT g.doc_id, g.tok,
           {chain} AS tft
    FROM grid g
{jblock}
),
scores AS (
    SELECT t.doc_id,
           sum( ln((stats.n_docs - u.df + 0.5) / (u.df + 0.5))
                * (t.tft / ({_K1} + t.tft)) ) AS score
    FROM tft t JOIN udf u ON u.tok = t.tok CROSS JOIN stats
    WHERE t.tft > 0
    GROUP BY t.doc_id
)
SELECT CAST(row_number() OVER (ORDER BY score_micros DESC, doc_id) AS BIGINT)
           AS rank,
       doc_id, score_micros
FROM (SELECT doc_id, CAST(round(score * 1000000) AS BIGINT) AS score_micros
      FROM scores)
ORDER BY score_micros DESC, doc_id
LIMIT 15
"""


# pruned-BM25 twin: the tf table cut to each term's top-25 by the
# row_number impact order, then the proven BM25 arithmetic with the FULL
# df/doclen/avgdl stats
_PRUNED_BM25_SQL = _bm25_top_sql(20, scored="pruned", pre_scores="""pruned AS (
    SELECT doc_id, tok, tf FROM (
        SELECT tf.*, row_number() OVER (
            PARTITION BY tok ORDER BY tf DESC, doc_id) AS pr
        FROM tf
    ) WHERE pr <= 25
),
""")


# lang-routed twin: the BM25 chain with EVERY stat (n_docs, doclen, df,
# avgdl) restricted to the lang='en' subset — per-partition collection
# stats are the point of the partitioned build
_LANG_ROUTED_SQL = _bm25_top_sql(10, subset="lang = 'en'")


def _bpe_sql(n_merges: int, vocab_top_k: int | None = None) -> str:
    """SQL twin of ``q_bpe_merges``: the (word, cnt) table from the shared
    tokenization, then ``n_merges`` UNROLLED steps. Each step counts
    overlapping adjacent pairs (lead window), picks (count desc, left,
    right), and applies the merge with the engine's canonical
    leftmost-greedy semantics — same-symbol runs merge at even offsets
    within each maximal run (running-max-of-run-starts window), consumed
    followers drop via lag(m)."""
    steps = []
    for k in range(n_merges):
        steps.append(
            f"""p{k} AS (
    SELECT sym AS x, nxt AS y, sum(cnt) AS c
    FROM (SELECT sym, cnt,
                 lead(sym) OVER (PARTITION BY word ORDER BY pos) AS nxt
          FROM s{k})
    WHERE nxt IS NOT NULL GROUP BY sym, nxt
),
b{k} AS (SELECT x, y, c FROM p{k} ORDER BY c DESC, x, y LIMIT 1),
e{k} AS (
    SELECT word, cnt, pos, sym, b.x, b.y,
           lead(sym) OVER (PARTITION BY word ORDER BY pos) AS nxt,
           CASE WHEN sym = b.x
                     AND lag(sym) OVER (PARTITION BY word ORDER BY pos)
                         IS DISTINCT FROM b.x
                THEN pos END AS startpos
    FROM s{k}, b{k} b
),
f{k} AS (
    SELECT *, max(startpos) OVER (PARTITION BY word ORDER BY pos) AS run_start
    FROM e{k}
),
g{k} AS (
    SELECT *, (sym = x AND nxt IS NOT DISTINCT FROM y
               AND (x <> y OR (pos - run_start) % 2 = 0)) AS m
    FROM f{k}
),
h{k} AS (
    SELECT *, coalesce(lag(m) OVER (PARTITION BY word ORDER BY pos), FALSE)
                  AS dropped
    FROM g{k}
),
s{k + 1} AS (
    SELECT word, cnt,
           row_number() OVER (PARTITION BY word ORDER BY pos) - 1 AS pos,
           CASE WHEN m THEN sym || nxt ELSE sym END AS sym
    FROM h{k} WHERE NOT dropped
)"""
        )
    rows = "\nUNION ALL ".join(
        f'SELECT {k + 1} AS step, x, y, c FROM b{k}' for k in range(n_merges)
    )
    final = (
        f"""SELECT CAST(step AS BIGINT) AS step, x AS "left", y AS "right",
       x || y AS merged, CAST(c AS BIGINT) AS "count"
FROM ({rows}) ORDER BY step"""
        if vocab_top_k is None
        # the vocab twin aggregates the state AFTER the last merge applies
        else f"""SELECT sym AS token, CAST(sum(cnt) AS BIGINT) AS cnt
FROM s{n_merges} GROUP BY sym ORDER BY cnt DESC, token LIMIT {vocab_top_k}"""
    )
    return f"""
{_TOKS},
w AS (SELECT tok AS word, CAST(count(*) AS BIGINT) AS cnt FROM toks GROUP BY tok),
s0 AS (
    SELECT word, cnt, i - 1 AS pos, substring(word, i, 1) AS sym
    FROM w, unnest(range(1, length(word) + 1)) AS t(i)
),
{",".join(steps)}
{final}
"""


# snapshot-dedup twin: replay the delta synthesis, keep rows whose text
# is absent from the base corpus
_SNAPSHOT_DEDUP_SQL = """
WITH delta AS (
    SELECT doc_id + 1000000 AS delta_id,
           CASE WHEN (doc_id // 3) % 2 = 0 THEN text
                ELSE text || ' v2' END AS text
    FROM documents WHERE doc_id % 3 = 0
)
SELECT delta_id, text FROM delta
WHERE text NOT IN (SELECT text FROM documents)
ORDER BY delta_id
"""


# query-relaxation twin: both sets computed, the count gate picks one
_QUERY_RELAX_SQL = f"""
{_TOKS},
tf AS (
    SELECT doc_id, tok, count(*) AS tf FROM toks
    WHERE tok IN ('spark', 'join') GROUP BY doc_id, tok
),
andset AS (
    SELECT doc_id, CAST(min(tf) AS BIGINT) AS tf FROM tf
    GROUP BY doc_id HAVING count(DISTINCT tok) = 2
),
orset AS (
    SELECT doc_id, CAST(max(tf) AS BIGINT) AS tf FROM tf GROUP BY doc_id
),
n AS (SELECT count(*) AS c FROM andset)
SELECT doc_id, tf, FALSE AS relaxed FROM andset
WHERE (SELECT c FROM n) >= {_RELAX_MIN_HITS}
UNION ALL
SELECT doc_id, tf, TRUE AS relaxed FROM orset
WHERE (SELECT c FROM n) < {_RELAX_MIN_HITS}
ORDER BY doc_id
"""


# late-events twin: the permuted arrival order + an exclusive running-max
# window (UNBOUNDED PRECEDING .. 1 PRECEDING) minus the lateness bound
_LATE_EVENTS_SQL = """
WITH e AS (
    SELECT (event_id * 7919) % (SELECT count(*) FROM events) AS arrival,
           epoch_us(ts) AS ts_us
    FROM events
),
w AS (
    SELECT arrival, ts_us,
           max(ts_us) OVER (
               ORDER BY arrival
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
           ) - 3600000000 AS watermark_us
    FROM e
)
SELECT CAST(arrival AS BIGINT) AS arrival,
       CAST(ts_us AS BIGINT) AS ts_us,
       CAST(watermark_us AS BIGINT) AS watermark_us,
       coalesce(ts_us < watermark_us, FALSE) AS late
FROM w ORDER BY arrival
"""


# crawl-frontier twin: closed-form replay of the synthesized ext links
# (the in-corpus links never appear — that's the seen-set filter under
# the hash)
_CRAWL_FRONTIER_SQL = """
WITH d AS (SELECT doc_id AS d FROM documents),
links AS (
    SELECT 'https://ext' || CAST(d % 37 AS VARCHAR) || '.example.com/' AS url,
           d AS src
    FROM d
    UNION ALL
    SELECT 'https://ext' || CAST((d * 3 + 1) % 53 AS VARCHAR)
               || '.example.com/b' AS url,
           d AS src
    FROM d WHERE d % 2 = 0
),
deg AS (
    SELECT url, CAST(count(DISTINCT src) AS BIGINT) AS indegree
    FROM links GROUP BY url
)
SELECT CAST(row_number() OVER (ORDER BY indegree DESC, url) AS BIGINT) AS rank,
       url, indegree
FROM deg ORDER BY indegree DESC, url LIMIT 20
"""


# Rocchio twin: BM25 micros-cut top-10 as the relevant set, tf·idf doc
# vectors over those docs, full-corpus df, the β-mean + α-query chain in
# the engine's add order
_ROCCHIO_SQL = f"""
{_bm25_chain()},
cand AS (
    SELECT doc_id FROM scores
    ORDER BY CAST(round(score * 1000000) AS BIGINT) DESC, doc_id LIMIT 10
),
dtf AS (
    SELECT doc_id, tok, count(*) AS tf FROM toks
    WHERE doc_id IN (SELECT doc_id FROM cand) GROUP BY doc_id, tok
),
cdf AS (SELECT tok, count(DISTINCT doc_id) AS df FROM toks GROUP BY tok),
allstems AS (
    SELECT DISTINCT tok FROM dtf
    UNION SELECT unnest(['spark', 'join']) AS tok
),
sums AS (
    SELECT d.tok, sum(d.tf * ln(stats.n_docs / c.df)) AS s
    FROM dtf d JOIN cdf c USING (tok) CROSS JOIN stats GROUP BY d.tok
),
w AS (
    SELECT a.tok AS term,
           coalesce(0.75 * (s.s / 10), 0)
           + CASE WHEN a.tok IN ('spark', 'join')
                  THEN 1.0 * ln(stats.n_docs / c.df) ELSE 0 END AS weight
    FROM allstems a
    LEFT JOIN sums s ON s.tok = a.tok
    JOIN cdf c ON c.tok = a.tok
    CROSS JOIN stats
)
SELECT CAST(row_number() OVER (ORDER BY weight_micros DESC, term) AS BIGINT)
           AS rank,
       term, weight_micros
FROM (SELECT term, CAST(round(weight * 1000000) AS BIGINT) AS weight_micros
      FROM w)
ORDER BY weight_micros DESC, term
LIMIT 10
"""


# site-collapse twin: the proven BM25 chain cut at 50 by the micros key,
# then the row_number-per-source quota filter and a final dense rank
_SITE_COLLAPSE_SQL = f"""
{_bm25_chain()},
ranked AS (
    SELECT doc_id, CAST(round(score * 1000000) AS BIGINT) AS score_micros,
           row_number() OVER (
               ORDER BY CAST(round(score * 1000000) AS BIGINT) DESC, doc_id
           ) AS r
    FROM scores QUALIFY r <= 50
),
collapsed AS (
    SELECT ranked.doc_id, d.source, ranked.score_micros, ranked.r,
           row_number() OVER (PARTITION BY d.source ORDER BY ranked.r) AS nr
    FROM ranked JOIN documents d USING (doc_id)
),
top AS (
    SELECT doc_id, source, score_micros, r FROM collapsed
    WHERE nr <= 2 ORDER BY r LIMIT 10
)
SELECT CAST(row_number() OVER (ORDER BY r) AS BIGINT) AS rank,
       doc_id, source, score_micros
FROM top ORDER BY rank
"""


# hybrid RRF twin: the proven BM25 CTE chain ranked by the same micros key,
# the proven cosine ranking, fused as coalesce(1/(60+r)) sums (two-term IEEE
# addition is commutative — no accumulation-order risk), micros-rounded
_HYBRID_RRF_SQL = f"""
{_bm25_chain()},
sparse AS (
    SELECT doc_id, row_number() OVER (
        ORDER BY CAST(round(score * 1000000) AS BIGINT) DESC, doc_id) AS r
    FROM scores QUALIFY r <= 20
),
dense0 AS (
    SELECT vec_id AS doc_id,
           list_cosine_similarity(CAST(embedding AS DOUBLE[]),
               (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings
                WHERE vec_id = 0)) AS cos
    FROM embeddings
),
dense AS (
    SELECT doc_id, row_number() OVER (ORDER BY cos DESC, doc_id) AS r
    FROM dense0 QUALIFY r <= 20
),
fused AS (
    SELECT coalesce(s.doc_id, d.doc_id) AS doc_id,
           coalesce(1.0 / (60 + s.r), 0) + coalesce(1.0 / (60 + d.r), 0)
               AS sc
    FROM sparse s FULL OUTER JOIN dense d ON s.doc_id = d.doc_id
),
ranked AS (
    SELECT doc_id, CAST(round(sc * 1000000) AS BIGINT) AS rrf_micros
    FROM fused
)
SELECT CAST(row_number() OVER (ORDER BY rrf_micros DESC, doc_id) AS BIGINT)
           AS rank,
       doc_id, rrf_micros
FROM ranked
ORDER BY rrf_micros DESC, doc_id
LIMIT 15
"""


# Shared two-ranker fixture for the comparison operators: a = the proven
# BM25 chain, b = the proven cosine chain, both cut at depth 10
_AB_LISTS_CTES = f"""
{_bm25_chain()},
a AS (
    SELECT doc_id, row_number() OVER (
        ORDER BY CAST(round(score * 1000000) AS BIGINT) DESC, doc_id) AS r
    FROM scores QUALIFY r <= 10
),
dense0 AS (
    SELECT vec_id AS doc_id,
           list_cosine_similarity(CAST(embedding AS DOUBLE[]),
               (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings
                WHERE vec_id = 0)) AS cos
    FROM embeddings
),
b AS (
    SELECT doc_id, row_number() OVER (ORDER BY cos DESC, doc_id) AS r
    FROM dense0 QUALIFY r <= 10
)"""

# RBO twin: per-depth overlap counts + the exact-integer term arithmetic
# (9^(d-1) and 10^d are < 2^53 at depth ≤ 10, so round(power(...)) is
# exact; everything after is BIGINT) and an integer window cumsum
_RBO_SQL = f"""
{_AB_LISTS_CTES},
d AS (SELECT unnest(generate_series(1, 10)) AS depth),
ov AS (
    SELECT depth,
           (SELECT count(*) FROM a JOIN b USING (doc_id)
            WHERE a.r <= depth AND b.r <= depth) AS overlap
    FROM d
),
terms AS (
    SELECT depth, overlap,
           (2 * (overlap * CAST(round(power(9, depth - 1)) AS BIGINT) * 1000000)
                // (CAST(round(power(10, depth)) AS BIGINT) * depth) + 1) // 2
               AS term_micros
    FROM ov
)
SELECT CAST(depth AS BIGINT) AS depth, CAST(overlap AS BIGINT) AS overlap,
       CAST(term_micros AS BIGINT) AS term_micros,
       CAST(sum(term_micros) OVER (ORDER BY depth) AS BIGINT) AS rbo_cum_micros
FROM terms ORDER BY depth
"""


def _param_sweep_sql() -> str:
    """SQL twin of ``q_param_sweep``: the shared TREC CTE prefix + one
    ``_sig_ap_sql`` fragment per (k1, b) grid point, each reduced to
    (MAP, mean P@10) with the qid universe rebuilt by LEFT JOIN (degenerate
    qids count as zero, matching the engine's mean over all queries)."""
    frags = []
    selects = []
    for gi, (k1, b) in enumerate(_SWEEP_GRID):
        tag = f"g{gi}"
        frags.append(_sig_ap_sql(tag, k1, b))
        selects.append(
            f"""
    SELECT CAST({int(round(k1 * 1e6))} AS BIGINT) AS k1_micros,
           CAST({int(round(b * 1e6))} AS BIGINT) AS b_micros,
           (SELECT CAST(round(avg(coalesce(a.ap, 0))) AS BIGINT)
            FROM qi LEFT JOIN ap_{tag} a USING (qid)) AS map_micros,
           (SELECT CAST(round(sum(CASE WHEN rnk <= 10 THEN rel ELSE 0 END)
                    / 10.0 / (SELECT count(*) FROM qi) * 1000000) AS BIGINT)
            FROM cum_{tag}) AS p10_micros"""
        )
    body = "\n    UNION ALL\n".join(selects)
    return f"""
{_TREC_CHAIN},
qi AS (SELECT DISTINCT qid, i FROM q),
rcnt AS (
    SELECT qi.qid, count(*) AS r FROM qi
    JOIN documents d ON (d.doc_id + 37 * qi.i) % {_TREC_REL_MOD} = 0
    GROUP BY qi.qid
),
{",".join(frags)}
SELECT * FROM (
{body}
)
ORDER BY map_micros DESC, k1_micros, b_micros
"""


def _click_em_ctes() -> str:
    """Shared WITH-body for the click-family twins: regenerate the
    deterministic click log (md5_number_lower == the engine's
    md5-low64-little PRF) and unroll both integer-micros EM iterations —
    iteration 1 with the 500000/500000 initial parameters, iteration 2
    joined to the iteration-1 aggregates. Every product/division is written
    in the engine's exact order, so downstream selects hash-match bit for
    bit. Ends at t2 (θ per rank) / a2 (α per (q, d))."""
    M = 1_000_000

    def estep(th: str, al: str, c: str = "c") -> tuple[str, str]:
        denom = f"greatest({M} - {th} * {al} // {M}, 1)"
        ee = (
            f"CASE WHEN {c} = 1 THEN {M} ELSE "
            f"(({th} * ({M} - {al}) // {M}) * {M}) // {denom} END"
        )
        ea = (
            f"CASE WHEN {c} = 1 THEN {M} ELSE "
            f"(({al} * ({M} - {th}) // {M}) * {M}) // {denom} END"
        )
        return ee, ea

    ee1, ea1 = estep("CAST(500000 AS BIGINT)", "CAST(500000 AS BIGINT)")
    ee2, ea2 = estep("t1.th", "a1.al", "c.c")
    return f"""
WITH imps AS (
    SELECT s, r,
           s % {_CLICK_QUERIES} AS q,
           (31 * (s % {_CLICK_QUERIES}) + 7 * ((r + s % 2) % {_CLICK_RANKS}) + 1)
               % (SELECT count(*) FROM documents) AS d
    FROM range(0, {_CLICK_SESSIONS}) t(s), range(0, {_CLICK_RANKS}) t2(r)
),
clicks AS (
    SELECT s, r, q, d,
           CASE WHEN md5_number_lower('ck|' || s || '|' || r) % {M}
                     < (900000 // (r + 1)) * (1 + (d + q) % 5) // 5
                THEN 1 ELSE 0 END AS c
    FROM imps
),
e1 AS (SELECT *, {ee1} AS ee, {ea1} AS ea FROM clicks),
t1 AS (SELECT r, CAST(sum(ee) // count(*) AS BIGINT) AS th FROM e1 GROUP BY r),
a1 AS (SELECT q, d, CAST(sum(ea) // count(*) AS BIGINT) AS al FROM e1 GROUP BY q, d),
e2 AS (
    SELECT c.c, c.r, c.q, c.d, {ee2} AS ee, {ea2} AS ea
    FROM clicks c JOIN t1 USING (r) JOIN a1 USING (q, d)
),
t2 AS (SELECT r, CAST(sum(ee) // count(*) AS BIGINT) AS th FROM e2 GROUP BY r),
a2 AS (SELECT q, d, CAST(sum(ea) // count(*) AS BIGINT) AS al FROM e2 GROUP BY q, d)
"""


def _click_model_sql() -> str:
    return _click_em_ctes() + """
SELECT 'alpha' AS kind, CAST(q AS BIGINT) AS k1, CAST(d AS BIGINT) AS k2,
       al AS value_micros
FROM a2
UNION ALL
SELECT 'theta', CAST(r AS BIGINT), CAST(-1 AS BIGINT), th FROM t2
ORDER BY kind, k1, k2
"""


def _ips_ctr_sql() -> str:
    """SQL twin of ``q_ips_ctr``: the click-EM prefix supplies the fitted
    examination propensities θ; per (query, doc) the naive CTR, the
    inverse-propensity-weighted estimate (weight = M² // θ_rank in micros)
    and the standard clipped-IPS variant (weight capped at 10×) are integer
    means in the engine's exact operation order."""
    return _click_em_ctes() + """
SELECT CAST(q AS BIGINT) AS qid, CAST(d AS BIGINT) AS doc_id,
       CAST(sum(c) * 1000000 // count(*) AS BIGINT) AS naive_micros,
       CAST(sum(c * (1000000 * CAST(1000000 AS BIGINT) // greatest(th, 1))) // count(*) AS BIGINT)
           AS ips_micros,
       CAST(sum(c * least(1000000 * CAST(1000000 AS BIGINT) // greatest(th, 1), 10000000))
            // count(*) AS BIGINT) AS ips_clip_micros
FROM clicks JOIN t2 USING (r)
GROUP BY q, d ORDER BY qid, doc_id
"""


def _kstem_sql() -> str:
    """DuckDB re-implementation of the dictionary-guided Krovetz stemmer
    (functions/kstem.py — plural → past-tense → aspect, first rule that
    fires wins, every candidate validated against the head-word lexicon).
    The lexicon and irregular-exception table are configuration DATA shared
    with the engine (a public word list); the rule LOGIC here is written
    independently in SQL so the twin certifies the engine's algorithm, not
    its output. ASCII-only corpus assumed (isalpha ⇔ ^[a-z]+$ on the
    lowercased token — true for the fixture and the probe suffix)."""
    from search_engine_framework_ray.functions.kstem import _DICT, _EXCEPTIONS

    dict_vals = ", ".join(f"'{w}'" for w in sorted(_DICT))
    exc_vals = ", ".join(f"('{k}', '{v}')" for k, v in sorted(_EXCEPTIONS.items()))
    # double-final-consonant test on a base b (KStem undoubling guard:
    # last two chars equal and not a vowel, y counted as a vowel)
    def dbl(b: str) -> str:
        return (
            f"substr({b}, length({b}), 1) = substr({b}, length({b}) - 1, 1) "
            f"AND substr({b}, length({b}), 1) NOT IN ('a','e','i','o','u','y')"
        )

    return f"""
    WITH kdict(w) AS (SELECT unnest([{dict_vals}])),
    kexc(w, s) AS (SELECT * FROM (VALUES {exc_vals}) AS t(w, s)),
    docs AS (SELECT doc_id, text || ' ' || '{_KSTEM_PROBE}' AS text FROM documents),
    toks AS (
        SELECT doc_id, lower(tok) AS tok
        FROM (SELECT doc_id, unnest(regexp_extract_all(text, '[^ \t\n\f\r]+')) AS tok
              FROM docs)
    ),
    v AS (SELECT DISTINCT tok FROM toks),
    vb AS (
        SELECT v.tok, exc.s AS exc_s,
               v.tok IN (SELECT w FROM kdict) AS in_dict,
               substr(v.tok, 1, length(v.tok) - 1) AS b1,
               substr(v.tok, 1, length(v.tok) - 2) AS b2,
               substr(v.tok, 1, length(v.tok) - 3) AS b3,
               length(v.tok) AS n
        FROM v LEFT JOIN kexc exc ON exc.w = v.tok
    ),
    st AS (
        SELECT tok,
            CASE
                WHEN n < 3 OR NOT regexp_matches(tok, '^[a-z]+$') THEN tok
                WHEN exc_s IS NOT NULL THEN exc_s
                WHEN in_dict THEN tok
                -- plural: -ies (y-form if in lexicon, else revert to -ie)
                WHEN tok LIKE '%ies' AND n > 3 THEN
                    CASE WHEN (b3 || 'y') IN (SELECT w FROM kdict)
                         THEN b3 || 'y' ELSE b3 || 'ie' END
                -- plural: -es (e-restoration before the bare stem)
                WHEN tok LIKE '%es' AND n > 3 THEN
                    CASE WHEN (b2 || 'e') IN (SELECT w FROM kdict)
                         THEN b2 || 'e' ELSE b2 END
                -- plural: bare -s (not -ss/-us/-is)
                WHEN tok LIKE '%s' AND tok NOT LIKE '%ss' AND tok NOT LIKE '%us'
                     AND tok NOT LIKE '%is' AND n > 3 THEN b1
                -- past tense: -ied → -y
                WHEN tok LIKE '%ied' AND n > 4 THEN b3 || 'y'
                -- past tense: -ed (e-restore, then undouble, then bare)
                WHEN tok LIKE '%ed' AND n > 4 THEN
                    CASE WHEN (b2 || 'e') IN (SELECT w FROM kdict) THEN b2 || 'e'
                         WHEN {dbl('b2')}
                              AND substr(b2, 1, length(b2) - 1) IN (SELECT w FROM kdict)
                              THEN substr(b2, 1, length(b2) - 1)
                         ELSE b2 END
                -- aspect: -ing (e-restore, then undouble, then bare)
                WHEN tok LIKE '%ing' AND n > 5 THEN
                    CASE WHEN (b3 || 'e') IN (SELECT w FROM kdict) THEN b3 || 'e'
                         WHEN {dbl('b3')}
                              AND substr(b3, 1, length(b3) - 1) IN (SELECT w FROM kdict)
                              THEN substr(b3, 1, length(b3) - 1)
                         ELSE b3 END
                ELSE tok
            END AS stem
        FROM vb
    )
    SELECT s.stem AS term,
           CAST(count(DISTINCT t.doc_id) AS BIGINT) AS df,
           CAST(count(*) AS BIGINT) AS ctf
    FROM toks t JOIN st s USING (tok)
    GROUP BY s.stem ORDER BY term
    """


def _interleave_sql() -> str:
    """Team-draft twin: ten unrolled draft steps, each three state CTEs —
    candidates (first unpicked per list via NOT list_contains), team
    resolution (fewer-picks rule, md5 coin on ties, exhausted list cedes),
    state append. The MMR oracle's unrolled-greedy pattern."""
    steps = []
    for i in range(1, 11):
        steps.append(f"""
p{i} AS MATERIALIZED (
    SELECT s.picked, s.na, s.nb,
           (SELECT a.doc_id FROM a
            WHERE NOT list_contains(s.picked, a.doc_id)
            ORDER BY a.r LIMIT 1) AS ca,
           (SELECT b.doc_id FROM b
            WHERE NOT list_contains(s.picked, b.doc_id)
            ORDER BY b.r LIMIT 1) AS cb,
           CASE WHEN s.na < s.nb THEN 'A' WHEN s.nb < s.na THEN 'B'
                WHEN md5_number_lower('td:{i - 1}') % 2 = 0 THEN 'A' ELSE 'B'
           END AS turn0
    FROM s{i - 1} s
),
t{i} AS MATERIALIZED (
    SELECT *, CASE WHEN turn0 = 'A' AND ca IS NOT NULL THEN 'A'
                   WHEN turn0 = 'B' AND cb IS NOT NULL THEN 'B'
                   WHEN ca IS NOT NULL THEN 'A' ELSE 'B' END AS team
    FROM p{i}
),
s{i} AS MATERIALIZED (
    SELECT list_append(picked, CASE WHEN team = 'A' THEN ca ELSE cb END)
               AS picked,
           na + CASE WHEN team = 'A' THEN 1 ELSE 0 END AS na,
           nb + CASE WHEN team = 'B' THEN 1 ELSE 0 END AS nb,
           CASE WHEN team = 'A' THEN ca ELSE cb END AS doc,
           team
    FROM t{i}
)""")
    finals = " UNION ALL ".join(
        f"SELECT {i} AS pos, doc, team FROM s{i}" for i in range(1, 11)
    )
    return f"""
{_AB_LISTS_CTES},
s0 AS (SELECT CAST([] AS BIGINT[]) AS picked, 0 AS na, 0 AS nb),
{",".join(steps)}
SELECT CAST(pos AS BIGINT) AS pos, CAST(doc AS BIGINT) AS doc_id, team,
       CAST(CASE WHEN doc % 3 = 0 THEN 1 ELSE 0 END AS BIGINT) AS clicked
FROM ({finals}) ORDER BY pos
"""


# Tombstone twin: FULL-corpus stats (deleted docs still count in df/ctf/
# avg_doclen — Lucene docFreq semantics), deletes dropped only from the
# ranking. Any stats drift or post-top-k filtering would break the hash.
_DELETE_BM25_SQL = _bm25_top_sql(20, keep="doc_id % 7 <> 0")


# Reclaim twin: the whole BM25 chain over the SURVIVING corpus — every
# statistic recomputed post-delete (vs _DELETE_BM25_SQL's pre-delete stats)
_RECLAIM_BM25_SQL = _bm25_top_sql(20, subset="doc_id % 7 <> 0")


# Impact-index twin: the WHOLE-VOCABULARY impact table (quantization bounds
# are global, so the twin computes every (term, doc) impact), the engine's
# float shapes for idf·tf_w, order-free min/max bounds, then the identical
# floor-quantize expression; everything after quantization is exact int64.
_IMPACT_SQL = f"""
{_TOKS},
doclen AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
    SELECT (SELECT count(*) FROM documents) AS n_docs,
           (SELECT count(*) FROM doclen) AS doccount,
           (SELECT sum(dl) FROM doclen) AS sum_dl
),
tf_all AS (SELECT doc_id, tok, count(*) AS tf FROM toks GROUP BY doc_id, tok),
df_all AS (SELECT tok, count(*) AS df FROM tf_all GROUP BY tok),
imp AS (
    SELECT tf_all.doc_id, tf_all.tok,
           {_bm25_w(tf="tf_all.tf", df="df_all.df")} AS x
    FROM tf_all
    JOIN df_all USING (tok)
    JOIN doclen USING (doc_id)
    CROSS JOIN stats
),
g AS (SELECT min(x) AS lo, max(x) AS hi FROM imp),
qn AS (
    SELECT doc_id, tok,
           CAST(least(floor((x - g.lo) / (g.hi - g.lo) * 255), 255) AS BIGINT) AS qi
    FROM imp, g
)
SELECT doc_id, CAST(sum(qi) AS BIGINT) AS impact_sum
FROM qn WHERE tok IN ('spark', 'join')
GROUP BY doc_id ORDER BY impact_sum DESC, doc_id LIMIT 20
"""


# CombMNZ twin: same sparse/dense selection as the RRF twin, but each list
# keeps its MICROS score; min/max computed over the retained top-20 rows in
# a second CTE level (a window inside the QUALIFY CTE would see pre-cut
# rows); normalization divides identical integers on both sides.
_HYBRID_MNZ_SQL = f"""
{_bm25_chain()},
sparse0 AS (
    SELECT doc_id, CAST(round(score * 1000000) AS BIGINT) AS sm,
           row_number() OVER (
        ORDER BY CAST(round(score * 1000000) AS BIGINT) DESC, doc_id) AS r
    FROM scores QUALIFY r <= 20
),
sparse AS (
    SELECT doc_id, sm,
           min(sm) OVER () AS smn, max(sm) OVER () AS smx
    FROM sparse0
),
dense0 AS (
    SELECT vec_id AS doc_id,
           list_cosine_similarity(CAST(embedding AS DOUBLE[]),
               (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings
                WHERE vec_id = 0)) AS cos
    FROM embeddings
),
dense1 AS (
    SELECT doc_id, CAST(round(cos * 1000000) AS BIGINT) AS dm,
           row_number() OVER (ORDER BY cos DESC, doc_id) AS r
    FROM dense0 QUALIFY r <= 20
),
dense AS (
    SELECT doc_id, dm,
           min(dm) OVER () AS dmn, max(dm) OVER () AS dmx
    FROM dense1
),
fused AS (
    SELECT coalesce(s.doc_id, d.doc_id) AS doc_id,
           coalesce(CASE WHEN s.smx > s.smn
                         THEN (s.sm - s.smn) * 1.0 / (s.smx - s.smn)
                         ELSE 0.0 END, 0)
           + coalesce(CASE WHEN d.dmx > d.dmn
                           THEN (d.dm - d.dmn) * 1.0 / (d.dmx - d.dmn)
                           ELSE 0.0 END, 0) AS sc,
           (CASE WHEN s.doc_id IS NULL THEN 0 ELSE 1 END
            + CASE WHEN d.doc_id IS NULL THEN 0 ELSE 1 END) AS nl
    FROM sparse s FULL OUTER JOIN dense d ON s.doc_id = d.doc_id
),
ranked AS (
    SELECT doc_id, CAST(round(nl * sc * 1000000) AS BIGINT) AS mnz_micros,
           CAST(nl AS BIGINT) AS n_lists
    FROM fused
)
SELECT CAST(row_number() OVER (ORDER BY mnz_micros DESC, doc_id) AS BIGINT)
           AS rank,
       doc_id, mnz_micros, n_lists
FROM ranked
ORDER BY mnz_micros DESC, doc_id
LIMIT 15
"""


# trec_eval twin: the same 4-query BM25 run (micros-tie-break ranking cut at
# depth 100), arithmetic qrels rule, and trec_eval P@k / AP / 'all'-mean
# definitions (sources/evalmetrics.py) as window-function SQL.
_TREC_Q_VALUES = ", ".join(
    f"('{qid}', {int(qid[1:])}, '{tok}')"
    for qid, terms in _TREC_QSET
    for tok in terms
)
# The TREC query set's BM25 chain up to df: q(qid, i, tok) rows, tf over
# every query term.
_TREC_CHAIN = _bm25_chain(
    pre_tf=f"q(qid, i, tok) AS (VALUES {_TREC_Q_VALUES}),\n",
    terms="SELECT DISTINCT tok FROM q",
    scores=False,
)


def _trec_ranked(tag: str, k1: float, b: float) -> str:
    """``scores{tag}`` (per-qid BM25 at (k1, b) over _TREC_CHAIN) and
    ``ranked{tag}`` (its per-qid rank in (micros DESC, doc_id) order)."""
    return f"""scores{tag} AS (
    SELECT q.qid, tf.doc_id,
           sum( {_bm25_w(k1, b)} ) AS score
    FROM q
    JOIN tf ON tf.tok = q.tok
    JOIN df ON df.tok = q.tok
    JOIN doclen ON doclen.doc_id = tf.doc_id
    CROSS JOIN stats
    GROUP BY q.qid, tf.doc_id
),
ranked{tag} AS (
    SELECT qid, doc_id,
           row_number() OVER (
               PARTITION BY qid
               ORDER BY CAST(round(score * 1000000) AS BIGINT) DESC, doc_id
           ) AS rnk
    FROM scores{tag}
)"""


# Shared by trec_eval and hard_negatives: the 4-query BM25 run in the
# (score_micros DESC, doc_id ASC) order both engines rank by.
_TREC_RANKED_PRE = f"""
{_TREC_CHAIN},
{_trec_ranked("", _K1, _B)},
qi AS (SELECT DISTINCT qid, i FROM q)
"""

# Judgment-pool twin: the BM25 chain instantiated at the three (k1, b)
# settings, each micros-ranked top-10, unioned with run provenance.
def _pool_run_sql(rid: int, k1: float, b: float) -> str:
    return f"""
    SELECT {rid} AS run, doc_id,
           row_number() OVER (
               ORDER BY CAST(round(score * 1000000) AS BIGINT) DESC, doc_id
           ) AS rnk
    FROM (
        SELECT tf.doc_id,
               sum( {_bm25_w(k1, b)} ) AS score
        FROM tf
        JOIN df USING (tok)
        JOIN doclen USING (doc_id)
        CROSS JOIN stats
        GROUP BY tf.doc_id
    )
    QUALIFY rnk <= 10
    """


_POOL_SQL = f"""
{_bm25_chain(scores=False)},
pool AS (
    {_pool_run_sql(1, 1.2, 0.75)}
    UNION ALL
    {_pool_run_sql(2, 2.0, 0.3)}
    UNION ALL
    {_pool_run_sql(3, 1.2, 0.0)}
)
SELECT doc_id,
       count(DISTINCT run) AS n_runs,
       min(rnk) AS min_rank,
       max(CASE WHEN run = 1 THEN 1 ELSE 0 END) AS in_r1,
       max(CASE WHEN run = 2 THEN 1 ELSE 0 END) AS in_r2,
       max(CASE WHEN run = 3 THEN 1 ELSE 0 END) AS in_r3
FROM pool
GROUP BY doc_id
ORDER BY doc_id
"""


# MRR twin: first relevant rank per query from the shared ranked chain,
# 1e6/rank micros-rounded, plus the float64 mean 'all' row.
_MRR_SQL = f"""
{_TREC_RANKED_PRE},
firstrel AS (
    SELECT r.qid, min(r.rnk) AS fr
    FROM ranked r JOIN qi ON qi.qid = r.qid
    WHERE r.rnk <= 100 AND (r.doc_id + 37 * qi.i) % 9 = 0
    GROUP BY r.qid
),
perq AS (
    SELECT qi.qid,
           coalesce(CAST(round(1000000.0 / firstrel.fr) AS BIGINT), 0)
               AS rr_micros
    FROM qi LEFT JOIN firstrel ON firstrel.qid = qi.qid
)
SELECT qid, rr_micros FROM perq
UNION ALL
SELECT 'all' AS qid, CAST(round(avg(rr_micros * 1.0)) AS BIGINT) FROM perq
ORDER BY qid
"""


_QPP_SQL = f"""
{_TOKS},
q(qid, tok) AS (VALUES {", ".join(f"('{qid}', '{t}')" for qid, terms in _TREC_QSET for t in terms)}),
stats AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
tstat AS (
    SELECT tok, count(DISTINCT doc_id) AS df, count(*) AS ctf FROM toks
    WHERE tok IN (SELECT DISTINCT tok FROM q) GROUP BY tok
),
per AS (
    SELECT q.qid,
           ln((s.n - t.df + 0.5) / (t.df + 0.5)) AS idf,
           (1 + ln(t.ctf)) * ln(1 + s.n / t.df) AS scq
    FROM q LEFT JOIN tstat t USING (tok) CROSS JOIN stats s
)
SELECT qid,
       CAST(count(*) AS BIGINT) AS n_terms,
       CAST(count(idf) AS BIGINT) AS n_matched,
       CAST(round(coalesce(avg(idf), 0) * 1000000) AS BIGINT) AS avg_idf_micros,
       CAST(round(coalesce(max(idf), 0) * 1000000) AS BIGINT) AS max_idf_micros,
       CAST(round(coalesce(sum(scq), 0) * 1000000) AS BIGINT) AS scq_micros
FROM per GROUP BY qid ORDER BY qid
"""

_NEAR1_SQL = f"""
            {_POS_TOKS}
            SELECT a.doc_id, CAST(count(*) AS BIGINT) AS tf
            FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
            WHERE a.tok = 'spark' AND b.tok = 'join'
            GROUP BY a.doc_id ORDER BY a.doc_id
        """

# Clarity twin: the shared ranked chain cut at 10, vocabulary = distinct
# tokens of the retrieved docs, Dirichlet P(w|d) over the (doc x vocab)
# grid (LEFT JOIN supplies tf=0 cells), P(w|q) = sum/10.0 in the engine's
# division order, per-term contribution micros-rounded BEFORE the exact
# integer sum — identical quantization on both sides makes the ~|V|-term
# reduction order-free.
_CLARITY_SQL = f"""
{_TREC_RANKED_PRE},
top AS (SELECT qid, doc_id FROM ranked WHERE rnk <= 10),
vocab AS (
    SELECT DISTINCT top.qid, toks.tok
    FROM top JOIN toks ON toks.doc_id = top.doc_id
),
ctfs AS (
    SELECT tok, count(*) AS ctf FROM toks
    WHERE tok IN (SELECT DISTINCT tok FROM vocab) GROUP BY tok
),
ctot AS (SELECT CAST(count(*) AS DOUBLE) AS c FROM toks),
tfdoc AS (
    SELECT doc_id, tok, count(*) AS tf FROM toks
    WHERE doc_id IN (SELECT DISTINCT doc_id FROM top) GROUP BY doc_id, tok
),
grid AS (
    SELECT v.qid, t.doc_id, v.tok,
           CAST(coalesce(tf.tf, 0) AS DOUBLE) AS tf,
           CAST(dl.dl AS DOUBLE) AS dl
    FROM vocab v
    JOIN top t ON t.qid = v.qid
    JOIN doclen dl ON dl.doc_id = t.doc_id
    LEFT JOIN tfdoc tf ON tf.doc_id = t.doc_id AND tf.tok = v.tok
),
pq AS (
    SELECT g.qid, g.tok,
           sum((g.tf + 2500.0 * (ct.ctf / ctot.c)) / (g.dl + 2500.0))
               / CAST(count(*) AS DOUBLE) AS pq,
           any_value(ct.ctf / ctot.c) AS pc
    FROM grid g JOIN ctfs ct USING (tok) CROSS JOIN ctot
    GROUP BY g.qid, g.tok
),
contrib AS (
    SELECT qid, CAST(round(pq * log2(pq / pc) * 1000000) AS BIGINT) AS cm
    FROM pq
)
SELECT qid,
       CAST(count(*) AS BIGINT) AS n_vocab,
       CAST(sum(cm) AS BIGINT) AS clarity_micros
FROM contrib GROUP BY qid ORDER BY qid
"""

_HARD_NEG_SQL = f"""
{_TREC_RANKED_PRE},
pool AS (
    SELECT r.qid, r.doc_id, r.rnk,
           CASE WHEN (r.doc_id + 37 * qi.i) % {_TREC_REL_MOD} = 0
                THEN 1 ELSE 0 END AS rel
    FROM ranked r JOIN qi USING (qid) WHERE r.rnk <= {_TREC_DEPTH}
),
pos AS (
    SELECT qid, doc_id, rnk FROM (
        SELECT qid, doc_id, rnk,
               row_number() OVER (PARTITION BY qid ORDER BY rnk) AS pr
        FROM pool WHERE rel = 1) WHERE pr <= 10
),
neg AS (
    SELECT qid, doc_id, rnk FROM (
        SELECT qid, doc_id, rnk,
               row_number() OVER (PARTITION BY qid ORDER BY rnk) AS nr
        FROM pool WHERE rel = 0) WHERE nr <= 5
)
SELECT p.qid,
       p.doc_id AS pos_doc, CAST(p.rnk AS BIGINT) AS pos_rank,
       n.doc_id AS neg_doc, CAST(n.rnk AS BIGINT) AS neg_rank
FROM pos p JOIN neg n USING (qid)
ORDER BY p.qid, p.rnk, n.rnk
"""

_TREC_EVAL_SQL = f"""
{_TREC_RANKED_PRE},
rcnt AS (
    SELECT qi.qid, count(*) AS r FROM qi
    JOIN documents d ON (d.doc_id + 37 * qi.i) % {_TREC_REL_MOD} = 0
    GROUP BY qi.qid
),
hits AS (
    SELECT t.qid, t.rnk,
           CASE WHEN (t.doc_id + 37 * qi.i) % {_TREC_REL_MOD} = 0
                THEN 1 ELSE 0 END AS rel,
           CASE WHEN (t.doc_id + 37 * qi.i) % {_TREC_REL_MOD} = 0
                THEN (CASE WHEN t.doc_id % 3 = 0 THEN 2 ELSE 1 END)
                ELSE 0 END AS grade
    FROM ranked t JOIN qi USING (qid) WHERE t.rnk <= {_TREC_DEPTH}
),
cum AS (
    SELECT qid, rnk, rel, grade,
           sum(rel) OVER (PARTITION BY qid ORDER BY rnk) AS c
    FROM hits
),
gcnt AS (
    SELECT qi.qid,
           sum(CASE WHEN d.doc_id % 3 = 0 THEN 1 ELSE 0 END) AS n2,
           sum(CASE WHEN d.doc_id % 3 = 0 THEN 0 ELSE 1 END) AS n1
    FROM qi JOIN documents d ON (d.doc_id + 37 * qi.i) % {_TREC_REL_MOD} = 0
    GROUP BY qi.qid
),
rk AS (SELECT unnest(range(1, 21)) AS r),
idcg AS (
    SELECT g.qid,
           sum(CASE WHEN rk.r <= 10
                    THEN (CASE WHEN rk.r <= g.n2 THEN 2
                               WHEN rk.r <= g.n2 + g.n1 THEN 1
                               ELSE 0 END) / ln(rk.r + 1)
                    ELSE 0 END) AS i10,
           sum((CASE WHEN rk.r <= g.n2 THEN 2
                     WHEN rk.r <= g.n2 + g.n1 THEN 1
                     ELSE 0 END) / ln(rk.r + 1)) AS i20
    FROM gcnt g CROSS JOIN rk GROUP BY g.qid
),
perq0 AS (
    SELECT cum.qid,
           CAST(round(sum(CASE WHEN rnk <= 10 THEN rel ELSE 0 END) / 10.0 * 1000000) AS BIGINT) AS p10_micros,
           CAST(round(sum(CASE WHEN rnk <= 20 THEN rel ELSE 0 END) / 20.0 * 1000000) AS BIGINT) AS p20_micros,
           CAST(round(sum(CASE WHEN rnk <= 30 THEN rel ELSE 0 END) / 30.0 * 1000000) AS BIGINT) AS p30_micros,
           CAST(round(sum(CASE WHEN rel = 1 THEN c * 1.0 / rnk ELSE 0 END) / max(rcnt.r) * 1000000) AS BIGINT) AS ap_micros,
           CAST(round(CASE WHEN max(idcg.i10) > 0
                           THEN sum(CASE WHEN rnk <= 10 THEN grade / ln(rnk + 1.0) ELSE 0 END) / max(idcg.i10)
                           ELSE 0 END * 1000000) AS BIGINT) AS ndcg10_micros,
           CAST(round(CASE WHEN max(idcg.i20) > 0
                           THEN sum(CASE WHEN rnk <= 20 THEN grade / ln(rnk + 1.0) ELSE 0 END) / max(idcg.i20)
                           ELSE 0 END * 1000000) AS BIGINT) AS ndcg20_micros
    FROM cum
    JOIN rcnt ON rcnt.qid = cum.qid
    JOIN idcg ON idcg.qid = cum.qid
    GROUP BY cum.qid
),
-- a qid with zero relevant docs (no rcnt row) or zero retrieved docs
-- falls out of the inner chain; the engine emits a zero row for it and
-- counts it in the 'all' mean (round-5 degenerate-qid closure, same
-- LEFT-JOIN shape as the bpref/ERR twins)
perq AS (
    SELECT qi.qid,
           coalesce(p.p10_micros, 0) AS p10_micros,
           coalesce(p.p20_micros, 0) AS p20_micros,
           coalesce(p.p30_micros, 0) AS p30_micros,
           coalesce(p.ap_micros, 0) AS ap_micros,
           coalesce(p.ndcg10_micros, 0) AS ndcg10_micros,
           coalesce(p.ndcg20_micros, 0) AS ndcg20_micros
    FROM qi LEFT JOIN perq0 p USING (qid)
)
SELECT qid, p10_micros, p20_micros, p30_micros, ap_micros,
       ndcg10_micros, ndcg20_micros
FROM perq
UNION ALL
SELECT 'all',
       CAST(round(avg(p10_micros)) AS BIGINT),
       CAST(round(avg(p20_micros)) AS BIGINT),
       CAST(round(avg(p30_micros)) AS BIGINT),
       CAST(round(avg(ap_micros)) AS BIGINT),
       CAST(round(avg(ndcg10_micros)) AS BIGINT),
       CAST(round(avg(ndcg20_micros)) AS BIGINT)
FROM perq
ORDER BY qid
"""


# Sig-test twin: per-query AP at two (k1, b) settings via the shared CTE
# chain, micros-quantized, then the exact 2^4 sign-flip enumeration as a
# range(16) cross join with bit arithmetic — integer-exact end to end.
def _sig_ap_sql(tag: str, k1: float, b: float) -> str:
    return f"""
{_trec_ranked(f"_{tag}", k1, b)},
cum_{tag} AS (
    SELECT t.qid, t.rnk,
           CASE WHEN (t.doc_id + 37 * qi.i) % {_TREC_REL_MOD} = 0
                THEN 1 ELSE 0 END AS rel,
           sum(CASE WHEN (t.doc_id + 37 * qi.i) % {_TREC_REL_MOD} = 0
                    THEN 1 ELSE 0 END)
               OVER (PARTITION BY t.qid ORDER BY t.rnk) AS c
    FROM ranked_{tag} t JOIN qi USING (qid) WHERE t.rnk <= {_TREC_DEPTH}
),
ap_{tag} AS (
    SELECT cum_{tag}.qid,
           CAST(round(sum(CASE WHEN rel = 1 THEN c * 1.0 / rnk ELSE 0 END)
                      / max(rcnt.r) * 1000000) AS BIGINT) AS ap
    FROM cum_{tag} JOIN rcnt ON rcnt.qid = cum_{tag}.qid
    GROUP BY cum_{tag}.qid
)"""


_SIG_TEST_SQL = f"""
{_TREC_CHAIN},
qi AS (SELECT DISTINCT qid, i FROM q),
rcnt AS (
    SELECT qi.qid, count(*) AS r FROM qi
    JOIN documents d ON (d.doc_id + 37 * qi.i) % {_TREC_REL_MOD} = 0
    GROUP BY qi.qid
),
{_sig_ap_sql("a", 1.2, 0.75)},
{_sig_ap_sql("b", 2.0, 0.3)},
d AS (
    -- LEFT JOIN + coalesce keeps a zero-relevant qid in the permutation
    -- universe with AP = 0 on both arms, exactly as the engine's
    -- _trec_ap_micros does (round-5 degenerate-qid closure)
    SELECT qi.qid,
           coalesce(ap_a.ap, 0) AS a,
           coalesce(ap_b.ap, 0) AS b,
           coalesce(ap_a.ap, 0) - coalesce(ap_b.ap, 0) AS diff,
           row_number() OVER (ORDER BY qi.qid) - 1 AS rn
    FROM qi LEFT JOIN ap_a USING (qid) LEFT JOIN ap_b USING (qid)
),
obs AS (SELECT abs(sum(diff)) AS t FROM d),
perms AS (
    SELECT m.m,
           abs(sum(CASE WHEN (m.m >> d.rn) & 1 = 1
                        THEN -d.diff ELSE d.diff END)) AS t
    FROM d CROSS JOIN (SELECT unnest(range(0, {1 << len(_TREC_QSET)})) AS m) m
    GROUP BY m.m
),
p AS (SELECT count(*) AS p_num FROM perms, obs WHERE perms.t >= obs.t)
SELECT d.qid,
       d.a AS ap_a_micros,
       d.b AS ap_b_micros,
       d.diff AS diff_micros,
       p.p_num AS p_num,
       CAST({1 << len(_TREC_QSET)} AS BIGINT) AS p_den
FROM d CROSS JOIN p
ORDER BY d.qid
"""


# bpref twin: same ranked chain as the trec_eval twin; nonrel-above at a
# relevant hit of rank rnk with running rel count c is rnk - c.
_BPREF_SQL = f"""
{_TREC_RANKED_PRE},
rcnt AS (
    SELECT qi.qid, count(*) AS r FROM qi
    JOIN documents d ON (d.doc_id + 37 * qi.i) % {_TREC_REL_MOD} = 0
    GROUP BY qi.qid
),
hits AS (
    SELECT t.qid, t.rnk,
           CASE WHEN (t.doc_id + 37 * qi.i) % {_TREC_REL_MOD} = 0
                THEN 1 ELSE 0 END AS rel
    FROM ranked t JOIN qi USING (qid) WHERE t.rnk <= {_TREC_DEPTH}
),
cum AS (
    SELECT qid, rnk, rel, sum(rel) OVER (PARTITION BY qid ORDER BY rnk) AS c
    FROM hits
),
perq0 AS (
    SELECT cum.qid,
           CAST(round(sum(CASE WHEN rel = 1
                               THEN 1 - least(rnk - c, rcnt.r) * 1.0 / rcnt.r
                               ELSE 0 END) / max(rcnt.r) * 1000000) AS BIGINT)
               AS bpref_micros,
           CAST(round(sum(CASE WHEN rel = 1 AND rnk <= least(rcnt.r, {_TREC_DEPTH})
                               THEN 1 ELSE 0 END) * 1.0 / max(rcnt.r) * 1000000) AS BIGINT)
               AS rprec_micros,
           CAST(max(CASE WHEN rel = 1 AND rnk <= 1 THEN 1000000 ELSE 0 END) AS BIGINT) AS s1_micros,
           CAST(max(CASE WHEN rel = 1 AND rnk <= 5 THEN 1000000 ELSE 0 END) AS BIGINT) AS s5_micros,
           CAST(max(CASE WHEN rel = 1 AND rnk <= 10 THEN 1000000 ELSE 0 END) AS BIGINT) AS s10_micros
    FROM cum JOIN rcnt ON rcnt.qid = cum.qid
    GROUP BY cum.qid
),
-- a qid with zero relevant docs or zero retrieved hits falls out of the
-- inner chain; the engine emits a zero row for it and counts it in the
-- 'all' mean, so rebuild the full qid universe here (ADVICE r3)
perq AS (
    SELECT qi.qid,
           coalesce(p.bpref_micros, 0) AS bpref_micros,
           coalesce(p.rprec_micros, 0) AS rprec_micros,
           coalesce(p.s1_micros, 0) AS s1_micros,
           coalesce(p.s5_micros, 0) AS s5_micros,
           coalesce(p.s10_micros, 0) AS s10_micros
    FROM qi LEFT JOIN perq0 p USING (qid)
)
SELECT qid, bpref_micros, rprec_micros, s1_micros, s5_micros, s10_micros
FROM perq
UNION ALL
SELECT 'all',
       CAST(round(avg(bpref_micros)) AS BIGINT),
       CAST(round(avg(rprec_micros)) AS BIGINT),
       CAST(round(avg(s1_micros)) AS BIGINT),
       CAST(round(avg(s5_micros)) AS BIGINT),
       CAST(round(avg(s10_micros)) AS BIGINT)
FROM perq
ORDER BY qid
"""


# ERR twin: the shared ranked chain, then the quantized cascade as a
# recursive CTE stepping rank-by-rank per qid in the SAME micros integer
# state (floor division) as the engine loop — no pow() anywhere.
_ERR_SQL = _TREC_RANKED_PRE.replace("WITH ", "WITH RECURSIVE ", 1) + f""",
hits AS (
    SELECT t.qid, t.rnk,
           CASE WHEN (t.doc_id + 37 * qi.i) % {_TREC_REL_MOD} = 0
                THEN (CASE WHEN t.doc_id % 3 = 0 THEN 3 ELSE 1 END)
                ELSE 0 END AS rnum
    FROM ranked t JOIN qi USING (qid) WHERE t.rnk <= {_TREC_DEPTH}
),
walk(qid, rnk, prob, acc) AS (
    SELECT qid, rnk,
           (1000000 * (4 - rnum)) // 4,
           (1000000 * rnum) // 4
    FROM hits WHERE rnk = 1
    UNION ALL
    SELECT h.qid, h.rnk,
           (w.prob * (4 - h.rnum)) // 4,
           w.acc + (w.prob * h.rnum) // (4 * h.rnk)
    FROM walk w JOIN hits h ON h.qid = w.qid AND h.rnk = w.rnk + 1
),
final0 AS (SELECT qid, max_by(acc, rnk) AS err_micros FROM walk GROUP BY qid),
-- zero-hit qids never enter the rnk=1 recursive base; the engine emits a
-- zero row and includes it in the 'all' mean (ADVICE r3)
final AS (
    SELECT qi.qid, coalesce(f.err_micros, 0) AS err_micros
    FROM qi LEFT JOIN final0 f USING (qid)
)
SELECT qid, CAST(err_micros AS BIGINT) AS err_micros FROM final
UNION ALL
SELECT 'all', CAST(round(avg(err_micros * 1.0)) AS BIGINT) FROM final
ORDER BY qid
"""


# Kendall twin: the sig-test run pair (the ap_* CTEs ride along unused —
# CTEs are lazy), tau-a by counting concordant doc pairs in a self-join.
_KENDALL_SQL = f"""
{_TREC_CHAIN},
qi AS (SELECT DISTINCT qid, i FROM q),
rcnt AS (
    SELECT qi.qid, count(*) AS r FROM qi
    JOIN documents d ON (d.doc_id + 37 * qi.i) % {_TREC_REL_MOD} = 0
    GROUP BY qi.qid
),
{_sig_ap_sql("a", 1.2, 0.75)},
{_sig_ap_sql("b", 2.0, 0.3)},
common AS (
    SELECT a.qid, a.doc_id, a.rnk AS ra, b.rnk AS rb
    FROM ranked_a a JOIN ranked_b b USING (qid, doc_id)
    WHERE a.rnk <= {_TREC_DEPTH} AND b.rnk <= {_TREC_DEPTH}
),
agg AS (
    SELECT x.qid,
           count(*) AS n_pairs,
           sum(CASE WHEN (x.ra - y.ra) * (x.rb - y.rb) > 0
                    THEN 1 ELSE 0 END) AS concordant
    FROM common x JOIN common y ON x.qid = y.qid AND x.doc_id < y.doc_id
    GROUP BY x.qid
),
ncom AS (SELECT qid, count(*) AS n_common FROM common GROUP BY qid)
SELECT qi.qid,
       CAST(coalesce(ncom.n_common, 0) AS BIGINT) AS n_common,
       CAST(coalesce(agg.n_pairs, 0) AS BIGINT) AS n_pairs,
       CAST(coalesce(agg.concordant, 0) AS BIGINT) AS concordant,
       CAST(coalesce(agg.n_pairs - agg.concordant, 0) AS BIGINT) AS discordant,
       CAST(coalesce(round((2.0 * agg.concordant - agg.n_pairs)
                           / agg.n_pairs * 1000000), 0) AS BIGINT) AS tau_micros
FROM qi
LEFT JOIN agg ON agg.qid = qi.qid
LEFT JOIN ncom ON ncom.qid = qi.qid
ORDER BY qi.qid
"""


# Snippet twin: BM25-rank q1 exactly like the trec_eval twin, then scan
# every 10-token window start of each top-10 doc and rebuild the snippet
_BM25_SNIPPETS_SQL = f"""
{_bm25_chain(toks=_POS_TOKS)},
topd AS (
    SELECT doc_id, rnk FROM (
        SELECT doc_id,
               row_number() OVER (
                   ORDER BY CAST(round(score * 1000000) AS BIGINT) DESC, doc_id
               ) AS rnk
        FROM scores
    ) WHERE rnk <= 10
),
dt AS (
    SELECT t.doc_id, t.pos,
           t.tok,
           CASE WHEN t.tok IN ('spark', 'join') THEN 1 ELSE 0 END AS hit
    FROM toks t JOIN topd USING (doc_id)
),
dl2 AS (SELECT doc_id, max(pos) AS n FROM dt GROUP BY doc_id),
starts AS (
    SELECT d.doc_id, i AS p
    FROM dl2 d, unnest(range(1, greatest(d.n - 10 + 1, 1) + 1)) AS t(i)
),
wscore AS (
    SELECT s.doc_id, s.p, sum(dt.hit) AS score
    FROM starts s
    JOIN dt ON dt.doc_id = s.doc_id AND dt.pos >= s.p AND dt.pos < s.p + 10
    GROUP BY s.doc_id, s.p
),
best AS (
    SELECT doc_id, p, score FROM (
        SELECT *, row_number() OVER (
            PARTITION BY doc_id ORDER BY score DESC, p
        ) AS rn FROM wscore
    ) WHERE rn = 1
),
snip AS (
    SELECT b.doc_id, string_agg(dt.tok, ' ' ORDER BY dt.pos) AS snippet
    FROM best b
    JOIN dt ON dt.doc_id = b.doc_id AND dt.pos >= b.p AND dt.pos < b.p + 10
    GROUP BY b.doc_id
)
SELECT 'q1' AS qid, topd.rnk, b.doc_id,
       CAST(b.p AS BIGINT) AS win_start,
       CAST(b.score AS BIGINT) AS win_score,
       s.snippet
FROM best b
JOIN topd USING (doc_id)
JOIN snip s USING (doc_id)
ORDER BY topd.rnk
"""


# PCA power-iteration twin: exact-integer replay of pca_power — micros
# quantization, HUGEINT sums/Gram, centered scatter n·G − S·Sᵀ, 6 unrolled
# w = C·v / sign-abs-truncating-rescale steps, then the int64 projection.
# (DuckDB `//` truncates toward zero; the sign/abs form matches the
# engine's Python construction exactly, including negative components.)
_PCA_ITERS = "".join(
    f"""
w{t} AS (SELECT c.i, sum(c.c * v{t - 1}.v) AS w
         FROM c JOIN v{t - 1} ON v{t - 1}.i = c.j GROUP BY c.i),
m{t} AS (SELECT max(abs(w)) AS m FROM w{t}),
v{t} AS (SELECT i, CASE WHEN w >= 0 THEN (abs(w) * 1000000) // m
                        ELSE -((abs(w) * 1000000) // m) END AS v
         FROM w{t}, m{t}),"""
    for t in range(1, 7)
)

_PCA_SQL = f"""
WITH e AS (
    SELECT vec_id, generate_subscripts(embedding, 1) - 1 AS i,
           CAST(round(CAST(unnest(embedding) AS DOUBLE) * 1000000)
                AS BIGINT) AS xq
    FROM embeddings
),
nn AS (SELECT count(*) AS n FROM embeddings),
s AS (SELECT i, CAST(sum(xq) AS HUGEINT) AS s FROM e GROUP BY i),
g AS (
    SELECT a.i AS i, b.i AS j, sum(CAST(a.xq AS HUGEINT) * b.xq) AS g
    FROM e a JOIN e b USING (vec_id) GROUP BY a.i, b.i
),
c AS (
    SELECT g.i, g.j, nn.n * g.g - si.s * sj.s AS c
    FROM g CROSS JOIN nn
    JOIN s si ON si.i = g.i
    JOIN s sj ON sj.i = g.j
),
v0 AS (SELECT i, CAST(1000000 AS HUGEINT) AS v FROM s),{_PCA_ITERS}
proj AS (
    SELECT e.vec_id, CAST(sum(CAST(e.xq AS HUGEINT) * v6.v) AS BIGINT) AS proj
    FROM e JOIN v6 ON v6.i = e.i GROUP BY e.vec_id
)
SELECT vec_id, proj FROM proj ORDER BY vec_id
"""


# kmeans replay CTEs (seeds -> 2 unrolled Lloyd iterations -> final
# assignment a3) shared by the embedding_clusters and semantic_dedup twins
_KMEANS_REPLAY_CTES = r"""
            WITH seeds AS (
                SELECT vec_id, embedding,
                       (row_number() OVER (
                            ORDER BY md5_number_lower(CAST(vec_id AS VARCHAR)), vec_id
                        ) - 1) AS cid
                FROM embeddings QUALIFY cid < 10
            ),
            pts AS (
                SELECT vec_id, i - 1 AS dim, CAST(embedding[i] AS DOUBLE) AS x
                FROM embeddings, unnest(range(1, len(embedding) + 1)) AS t(i)
            ),
            c0 AS (
                SELECT cid, i - 1 AS dim,
                       round(CAST(embedding[i] AS DOUBLE) * 1000000) / 1000000 AS v
                FROM seeds, unnest(range(1, len(embedding) + 1)) AS t(i)
            ),
            d1 AS (SELECT p.vec_id, c.cid,
                          CAST(floor(sum((p.x - c.v) * (p.x - c.v)) * 1000000 + 0.5) AS BIGINT) AS dm
                   FROM pts p JOIN c0 c USING (dim) GROUP BY 1, 2),
            a1 AS (SELECT vec_id, cid FROM (
                       SELECT vec_id, cid, row_number() OVER (
                           PARTITION BY vec_id ORDER BY dm, cid) AS rn FROM d1) WHERE rn = 1),
            c1 AS (SELECT a.cid, p.dim, round(avg(p.x) * 1000000) / 1000000 AS v
                   FROM a1 a JOIN pts p USING (vec_id) GROUP BY 1, 2),
            d2 AS (SELECT p.vec_id, c.cid,
                          CAST(floor(sum((p.x - c.v) * (p.x - c.v)) * 1000000 + 0.5) AS BIGINT) AS dm
                   FROM pts p JOIN c1 c USING (dim) GROUP BY 1, 2),
            a2 AS (SELECT vec_id, cid FROM (
                       SELECT vec_id, cid, row_number() OVER (
                           PARTITION BY vec_id ORDER BY dm, cid) AS rn FROM d2) WHERE rn = 1),
            c2 AS (SELECT a.cid, p.dim, round(avg(p.x) * 1000000) / 1000000 AS v
                   FROM a2 a JOIN pts p USING (vec_id) GROUP BY 1, 2),
            d3 AS (SELECT p.vec_id, c.cid,
                          CAST(floor(sum((p.x - c.v) * (p.x - c.v)) * 1000000 + 0.5) AS BIGINT) AS dm
                   FROM pts p JOIN c2 c USING (dim) GROUP BY 1, 2),
            a3 AS (SELECT vec_id, cid FROM (
                       SELECT vec_id, cid, row_number() OVER (
                           PARTITION BY vec_id ORDER BY dm, cid) AS rn FROM d3) WHERE rn = 1)
"""


def _indri_sql(weighted: tuple[float, float] | None, product: bool) -> str:
    """Indri smoothing grid over the two fixture terms: per (candidate doc,
    term), p = λ(tf+μ·Pmle)/(dl+μ) + (1−λ)Pmle with μ=2500, λ=0.4 (the
    engine's ModelParams defaults == Sample.param:8-9). Combine as
    ∏p^(w/Σw) (AND/WAND) or Σ(w/Σw)p (WSUM)."""
    t0, t1 = _BM25_TERMS
    if weighted is None:
        w0 = w1 = 0.5
    else:
        s = weighted[0] + weighted[1]
        w0, w1 = weighted[0] / s, weighted[1] / s
    wexpr = f"CASE WHEN tok = '{t0}' THEN {w0!r} ELSE {w1!r} END"
    comb = (
        f"exp(sum(ln(p) * ({wexpr})))" if product else f"sum(({wexpr}) * p)"
    )
    return f"""
        {_TOKS},
        doclen AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
        coll AS (SELECT CAST(sum(dl) AS DOUBLE) AS c FROM doclen),
        ctf AS (SELECT tok, count(*) AS ctf FROM toks
                WHERE tok IN ('{t0}','{t1}') GROUP BY tok),
        tf AS (SELECT doc_id, tok, count(*) AS tf FROM toks
               WHERE tok IN ('{t0}','{t1}') GROUP BY doc_id, tok),
        cand AS (SELECT DISTINCT doc_id FROM tf),
        grid AS (SELECT cand.doc_id, t.tok, t.ctf FROM cand CROSS JOIN ctf t),
        p AS (
            SELECT g.doc_id, g.tok,
                   0.4 * (coalesce(tf.tf, 0) + 2500 * (g.ctf / coll.c)) / (dl.dl + 2500)
                   + 0.6 * (g.ctf / coll.c) AS p
            FROM grid g
            LEFT JOIN tf ON tf.doc_id = g.doc_id AND tf.tok = g.tok
            JOIN doclen dl ON dl.doc_id = g.doc_id
            CROSS JOIN coll
        )
        SELECT doc_id, CAST(round({comb} * 1000000) AS BIGINT) AS score_micros
        FROM p GROUP BY doc_id ORDER BY doc_id
    """


_CANARY_SQL = """
WITH p(pattern) AS (VALUES ('"""
_CANARY_SQL += "'), ('".join(_CANARY_PATTERNS)
_CANARY_SQL += """'))
SELECT d.doc_id, p.pattern,
       CAST((length(coalesce(d.text, '')) -
             length(replace(coalesce(d.text, ''), p.pattern, '')))
            / length(p.pattern) AS BIGINT) AS n
FROM documents d CROSS JOIN p
WHERE length(coalesce(d.text, '')) -
      length(replace(coalesce(d.text, ''), p.pattern, '')) > 0
ORDER BY d.doc_id, p.pattern
"""

_SEARCH_AFTER_SQL = f"""
{_bm25_chain()},
micros AS (SELECT doc_id, CAST(round(score * 1000000) AS BIGINT) AS score_micros FROM scores),
ranked AS (
    SELECT doc_id, score_micros,
           row_number() OVER (ORDER BY score_micros DESC, doc_id) AS rn
    FROM micros
),
cursor AS (SELECT score_micros AS cs, doc_id AS cd FROM ranked WHERE rn = 10)
SELECT CAST(r.rn AS BIGINT) AS rnk, r.doc_id, r.score_micros
FROM ranked r CROSS JOIN cursor c
WHERE r.score_micros < c.cs OR (r.score_micros = c.cs AND r.doc_id > c.cd)
ORDER BY rnk LIMIT 10
"""


# Selective-search twins: shard = doc_id % 4 replays the partition key, the
# CORI belief (SIGIR'95 constants: T = df/(df+50+150·cw/avg_cw), I =
# ln((P+.5)/cf)/ln(P+1), belief = .4+.6·T·I, absent term → floor .4) replays
# pipelines/selective.cori_shard_ranking from per-shard df/word counts, and
# the routed evaluation replays per-shard BM25 with per-shard stats + the
# raw-score top-10 merge of the two chosen shards.
def _cori_pre() -> str:
    t0, t1 = _BM25_TERMS
    return f"""
WITH toks AS (
    SELECT doc_id, doc_id % 4 AS shard, lower(tok) AS tok
    FROM (SELECT doc_id, unnest(regexp_extract_all(text, '[^ \t\n\f\r]+')) AS tok
          FROM documents)
),
shards AS (SELECT DISTINCT doc_id % 4 AS shard FROM documents),
cw AS (
    SELECT s.shard, CAST(count(t.tok) AS BIGINT) AS cw
    FROM shards s LEFT JOIN toks t ON t.shard = s.shard GROUP BY s.shard
),
avgcw AS (SELECT avg(cw) AS a FROM cw),
nsh AS (SELECT CAST(count(*) AS DOUBLE) AS p FROM shards),
sdf AS (
    SELECT shard, tok, count(DISTINCT doc_id) AS df FROM toks
    WHERE tok IN ('{t0}','{t1}') GROUP BY shard, tok
),
cf AS (SELECT tok, count(*) AS cf FROM sdf WHERE df > 0 GROUP BY tok),
qterms AS (SELECT unnest(['{t0}','{t1}']) AS tok),
belief AS (
    SELECT s.shard,
           sum(CASE WHEN coalesce(d.df, 0) > 0
                THEN 0.4 + 0.6
                     * (d.df / (d.df + 50.0 + 150.0 * cw.cw / avgcw.a))
                     * (ln((nsh.p + 0.5) / cf.cf) / ln(nsh.p + 1.0))
                ELSE 0.4 END) AS belief
    FROM shards s CROSS JOIN qterms q
    LEFT JOIN sdf d ON d.shard = s.shard AND d.tok = q.tok
    LEFT JOIN cf ON cf.tok = q.tok
    JOIN cw ON cw.shard = s.shard
    CROSS JOIN avgcw CROSS JOIN nsh
    GROUP BY s.shard
)
"""


def _cori_rank_sql() -> str:
    return _cori_pre() + """
SELECT CAST(b.shard AS BIGINT) AS shard,
       CAST(round(b.belief * 1000000) AS BIGINT) AS belief_micros,
       cw.cw AS cw
FROM belief b JOIN cw ON cw.shard = b.shard
ORDER BY b.belief DESC, b.shard
"""


def _selective_chain() -> str:
    """The routed-evaluation CTE chain through ``pershard`` (shard, doc_id,
    float score, per-shard rank) — shared by the raw-merge twin and the
    CORI-merge twin."""
    t0, t1 = _BM25_TERMS
    return _cori_pre() + f""",
chosen AS (SELECT shard FROM belief ORDER BY belief DESC, shard LIMIT 2),
doclen AS (SELECT doc_id, shard, count(*) AS dl FROM toks GROUP BY doc_id, shard),
sstats AS (
    SELECT s.shard,
           (SELECT count(*) FROM documents d WHERE d.doc_id % 4 = s.shard) AS n_docs,
           count(dl.doc_id) AS doccount,
           sum(dl.dl) AS sum_dl
    FROM shards s LEFT JOIN doclen dl ON dl.shard = s.shard GROUP BY s.shard
),
tf AS (
    SELECT shard, doc_id, tok, count(*) AS tf FROM toks
    WHERE tok IN ('{t0}','{t1}') AND shard IN (SELECT shard FROM chosen)
    GROUP BY shard, doc_id, tok
),
qdf AS (SELECT shard, tok, count(*) AS df FROM tf GROUP BY shard, tok),
scores AS (
    SELECT tf.shard, tf.doc_id,
           sum( {_bm25_w(df="qdf.df", dl="dl.dl", avgdl="st.sum_dl * 1.0 / st.doccount", n="st.n_docs")} ) AS score
    FROM tf
    JOIN qdf ON qdf.shard = tf.shard AND qdf.tok = tf.tok
    JOIN doclen dl ON dl.doc_id = tf.doc_id
    JOIN sstats st ON st.shard = tf.shard
    GROUP BY tf.shard, tf.doc_id
),
pershard AS (
    SELECT shard, doc_id, score,
           row_number() OVER (PARTITION BY shard ORDER BY score DESC, doc_id) AS rn
    FROM scores
)
"""


def _selective_bm25_sql() -> str:
    return _selective_chain() + """
SELECT doc_id,
       CAST(round(score * 1000000) AS BIGINT) AS score_micros,
       CAST(shard AS BIGINT) AS shard
FROM pershard WHERE rn <= 10
ORDER BY score_micros DESC, doc_id, shard
LIMIT 10
"""


def _cori_merge_sql() -> str:
    """CORI merge twin: per-shard min-max over each routed shard's FULL
    top-10 list, belief min-max over ALL fleet shards, merged
    (s' + 0.4·s'·b')/1.4 — the same float expression shapes the engine
    evaluates, micros-rounded at the end only."""
    return _selective_chain() + """,
cut AS (SELECT shard, doc_id, score FROM pershard WHERE rn <= 10),
norm AS (
    SELECT shard, doc_id,
           CASE WHEN max(score) OVER (PARTITION BY shard)
                     > min(score) OVER (PARTITION BY shard)
                THEN (score - min(score) OVER (PARTITION BY shard))
                     / (max(score) OVER (PARTITION BY shard)
                        - min(score) OVER (PARTITION BY shard))
                ELSE 0.0 END AS sp
    FROM cut
),
bnorm AS (
    SELECT shard,
           CASE WHEN (SELECT max(belief) FROM belief)
                     > (SELECT min(belief) FROM belief)
                THEN (belief - (SELECT min(belief) FROM belief))
                     / ((SELECT max(belief) FROM belief)
                        - (SELECT min(belief) FROM belief))
                ELSE 0.0 END AS bp
    FROM belief
),
merged AS (
    SELECT n.doc_id, n.shard, (n.sp + 0.4 * n.sp * b.bp) / 1.4 AS m
    FROM norm n JOIN bnorm b ON b.shard = n.shard
)
SELECT doc_id,
       CAST(round(m * 1000000) AS BIGINT) AS merged_micros,
       CAST(shard AS BIGINT) AS shard
FROM merged
ORDER BY m DESC, doc_id, shard
LIMIT 10
"""


# LPT twin: integer weights (per-shard token counts == stats.json body
# sum_doclen), weight-desc/shard-asc order, recursive greedy carrying the
# three node loads; ties go to the lowest node id (the engine's
# min((load, i)) order). All-integer arithmetic — bit-exact replay.
_SHARD_BALANCE_SQL = """
WITH RECURSIVE toks AS (
    SELECT doc_id % 4 AS shard, lower(tok) AS tok
    FROM (SELECT doc_id, unnest(regexp_extract_all(text, '[^ \t\n\f\r]+')) AS tok
          FROM documents)
),
cw AS (
    SELECT s.shard, CAST(count(t.tok) AS BIGINT) AS w
    FROM (SELECT DISTINCT doc_id % 4 AS shard FROM documents) s
    LEFT JOIN toks t ON t.shard = s.shard GROUP BY s.shard
),
ord AS (
    SELECT shard, w, row_number() OVER (ORDER BY w DESC, shard) AS step FROM cw
),
walk(step, shard, node, l0, l1, l2) AS (
    SELECT 0, CAST(NULL AS BIGINT), CAST(NULL AS BIGINT),
           CAST(0 AS BIGINT), CAST(0 AS BIGINT), CAST(0 AS BIGINT)
    UNION ALL
    SELECT o.step, o.shard,
           CASE WHEN w.l0 <= w.l1 AND w.l0 <= w.l2 THEN 0
                WHEN w.l1 <= w.l2 THEN 1 ELSE 2 END,
           w.l0 + CASE WHEN w.l0 <= w.l1 AND w.l0 <= w.l2 THEN o.w ELSE 0 END,
           w.l1 + CASE WHEN NOT (w.l0 <= w.l1 AND w.l0 <= w.l2)
                            AND w.l1 <= w.l2 THEN o.w ELSE 0 END,
           w.l2 + CASE WHEN NOT (w.l0 <= w.l1 AND w.l0 <= w.l2)
                            AND NOT (w.l1 <= w.l2) THEN o.w ELSE 0 END
    FROM walk w JOIN ord o ON o.step = w.step + 1
)
SELECT shard, node,
       CASE node WHEN 0 THEN l0 WHEN 1 THEN l1 ELSE l2 END AS node_load_after
FROM walk WHERE step >= 1 ORDER BY shard
"""


# SDM twin: the #WSUM(0.8 #AND 0.1 #NEAR/1 0.1 #WINDOW/8) Indri score
# rebuilt in SQL. The #NEAR/1 leaf's greedy cursor count equals the plain
# adjacent-pair count for two distinct terms (each match consumes its own
# positions; b = a+1 is unique per a). The #WINDOW/8 leaf's greedy walk
# (span = max-min+1 <= 8 -> match + advance all cursors, else advance the
# min cursor; QryopIlWindow semantics, kernels._window_match) is NOT a
# pair count — the recursive CTE replays the walk per doc exactly. Every
# leaf (terms AND composites) smoothes with its own collection ctf, the
# engine's composite-leaf stats pre-pass.
def _sdm_chain() -> str:
    """The SDM CTE chain through ``scored`` (doc_id, float score) — shared
    by the sdm_topk twin and the cascade twin (which appends the BM25 pool
    CTEs and joins)."""
    t0, t1 = _BM25_TERMS
    smooth = "0.4 * (coalesce({tf}, 0) + 2500 * ({ctf} / coll.c)) / (dl.dl + 2500) + 0.6 * ({ctf} / coll.c)"
    return f"""
WITH RECURSIVE lists AS (
    SELECT doc_id, regexp_extract_all(text, '[^ \t\n\f\r]+') AS l FROM documents
),
toks AS (
    SELECT doc_id, lower(l[i]) AS tok, CAST(i AS BIGINT) AS pos
    FROM lists, unnest(range(1, len(l) + 1)) AS t(i)
),
doclen AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
coll AS (SELECT CAST(sum(dl) AS DOUBLE) AS c FROM doclen),
ctf AS (SELECT tok, count(*) AS ctf FROM toks
        WHERE tok IN ('{t0}','{t1}') GROUP BY tok),
tf AS (SELECT doc_id, tok, count(*) AS tf FROM toks
       WHERE tok IN ('{t0}','{t1}') GROUP BY doc_id, tok),
cand AS (SELECT DISTINCT doc_id FROM tf),
near_tf AS (
    SELECT a.doc_id, count(*) AS tf
    FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
    WHERE a.tok = '{t0}' AND b.tok = '{t1}' GROUP BY a.doc_id
),
near_ctf AS (SELECT CAST(coalesce(sum(tf), 0) AS BIGINT) AS ctf FROM near_tf),
arrs AS (
    SELECT doc_id,
           list(pos ORDER BY pos) FILTER (WHERE tok = '{t0}') AS pa,
           list(pos ORDER BY pos) FILTER (WHERE tok = '{t1}') AS pb
    FROM toks WHERE tok IN ('{t0}','{t1}') GROUP BY doc_id
    HAVING count(*) FILTER (WHERE tok = '{t0}') > 0
       AND count(*) FILTER (WHERE tok = '{t1}') > 0
),
walk(doc_id, ia, ib, cnt) AS (
    SELECT doc_id, 1, 1, 0 FROM arrs
    UNION ALL
    SELECT w.doc_id,
           CASE WHEN abs(a.pa[w.ia] - a.pb[w.ib]) + 1 <= 8 OR a.pa[w.ia] <= a.pb[w.ib]
                THEN w.ia + 1 ELSE w.ia END,
           CASE WHEN abs(a.pa[w.ia] - a.pb[w.ib]) + 1 <= 8 OR a.pb[w.ib] < a.pa[w.ia]
                THEN w.ib + 1 ELSE w.ib END,
           w.cnt + CASE WHEN abs(a.pa[w.ia] - a.pb[w.ib]) + 1 <= 8 THEN 1 ELSE 0 END
    FROM walk w JOIN arrs a USING (doc_id)
    WHERE w.ia <= len(a.pa) AND w.ib <= len(a.pb)
),
win_tf AS (SELECT doc_id, max(cnt) AS tf FROM walk GROUP BY doc_id HAVING max(cnt) > 0),
win_ctf AS (SELECT CAST(coalesce(sum(tf), 0) AS BIGINT) AS ctf FROM win_tf),
p_terms AS (
    SELECT cand.doc_id,
           exp(0.5 * sum(ln({smooth.format(tf='tf.tf', ctf='t.ctf')}))) AS s_and
    FROM cand CROSS JOIN ctf t
    LEFT JOIN tf ON tf.doc_id = cand.doc_id AND tf.tok = t.tok
    JOIN doclen dl ON dl.doc_id = cand.doc_id
    CROSS JOIN coll
    GROUP BY cand.doc_id
),
scored AS (
    SELECT c.doc_id,
           0.8 * pt.s_and
           + 0.1 * ({smooth.format(tf='n.tf', ctf='nc.ctf')})
           + 0.1 * ({smooth.format(tf='wn.tf', ctf='wc.ctf')}) AS score
    FROM cand c
    JOIN p_terms pt ON pt.doc_id = c.doc_id
    LEFT JOIN near_tf n ON n.doc_id = c.doc_id
    LEFT JOIN win_tf wn ON wn.doc_id = c.doc_id
    JOIN doclen dl ON dl.doc_id = c.doc_id
    CROSS JOIN near_ctf nc CROSS JOIN win_ctf wc CROSS JOIN coll
)
"""


def _sdm_sql() -> str:
    return _sdm_chain() + """
SELECT doc_id, CAST(round(score * 1000000) AS BIGINT) AS score_micros
FROM scored ORDER BY doc_id
"""


def _cascade_sql() -> str:
    """Cascade twin: the SDM chain's shared toks/doclen/tf CTEs also feed
    the stage-1 BM25 pool (same two terms), top-100 in the shared
    (micros DESC, doc_id) order; the final rerank joins pool ∩ SDM scores
    (pool ⊆ SDM candidates since every pool doc holds a query term)."""
    return _sdm_chain() + f""",
bstats AS (
    SELECT (SELECT count(*) FROM documents) AS n_docs,
           (SELECT count(*) FROM doclen) AS doccount,
           (SELECT sum(dl) FROM doclen) AS sum_dl
),
bdf AS (SELECT tok, count(*) AS df FROM tf GROUP BY tok),
bscore AS (
    SELECT tf.doc_id,
           sum( {_bm25_w(df="bdf.df", dl="dl.dl", avgdl="bstats.sum_dl * 1.0 / bstats.doccount", n="bstats.n_docs")} ) AS score
    FROM tf
    JOIN bdf USING (tok)
    JOIN doclen dl ON dl.doc_id = tf.doc_id
    CROSS JOIN bstats
    GROUP BY tf.doc_id
),
pool AS (
    SELECT doc_id, rn AS bm25_rank FROM (
        SELECT doc_id,
               row_number() OVER (
                   ORDER BY CAST(round(score * 1000000) AS BIGINT) DESC, doc_id
               ) AS rn
        FROM bscore) WHERE rn <= 100
)
SELECT CAST(row_number() OVER (
           ORDER BY CAST(round(s.score * 1000000) AS BIGINT) DESC, s.doc_id
       ) AS BIGINT) AS rnk,
       s.doc_id,
       CAST(round(s.score * 1000000) AS BIGINT) AS sdm_micros,
       CAST(p.bm25_rank AS BIGINT) AS bm25_rank
FROM scored s JOIN pool p USING (doc_id)
ORDER BY rnk LIMIT 20
"""


# Shared sketch CTE: per-doc weighted 64-bit SimHash rebuilt in SQL —
# md5_number_lower(token) is byte-identical to the engine's md5-low64 hash.
_SIMHASH_SQL_U = r"""
WITH toks AS (
    SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS tok FROM documents
),
tf AS (
    SELECT doc_id, tok, count(*) AS cnt, md5_number_lower(tok) AS h
    FROM toks GROUP BY doc_id, tok
),
bits AS (
    SELECT doc_id, b,
           sum(CASE WHEN (h >> b) & 1 = 1 THEN cnt ELSE -cnt END) AS acc
    FROM tf, (SELECT unnest(range(0, 64)) AS b)
    GROUP BY doc_id, b
),
sh AS (
    SELECT doc_id,
           sum(CASE WHEN acc > 0 THEN (1::HUGEINT << b) ELSE 0::HUGEINT END) AS v
    FROM bits GROUP BY doc_id
),
u AS (
    SELECT d.doc_id, coalesce(s.v, 0::HUGEINT) AS v
    FROM documents d LEFT JOIN sh s USING (doc_id)
)
"""

_FB_EXPANSION_SQL = f"""
{_TOKS},
doclen AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
coll AS (SELECT CAST(sum(dl) AS DOUBLE) AS c FROM doclen),
qctf AS (SELECT tok, count(*) AS ctf FROM toks
         WHERE tok IN ('{_BM25_TERMS[0]}','{_BM25_TERMS[1]}') GROUP BY tok),
qtf AS (SELECT doc_id, tok, count(*) AS tf FROM toks
        WHERE tok IN ('{_BM25_TERMS[0]}','{_BM25_TERMS[1]}') GROUP BY doc_id, tok),
cand AS (SELECT DISTINCT doc_id FROM qtf),
grid AS (SELECT cand.doc_id, t.tok, t.ctf FROM cand CROSS JOIN qctf t),
p AS (
    SELECT g.doc_id,
           0.4 * (coalesce(qtf.tf, 0) + 2500 * (g.ctf / coll.c)) / (dl.dl + 2500)
           + 0.6 * (g.ctf / coll.c) AS p
    FROM grid g
    LEFT JOIN qtf ON qtf.doc_id = g.doc_id AND qtf.tok = g.tok
    JOIN doclen dl ON dl.doc_id = g.doc_id
    CROSS JOIN coll
),
docscore AS (SELECT doc_id, exp(sum(ln(p) * 0.5)) AS score FROM p GROUP BY doc_id),
top10 AS (SELECT doc_id, score FROM docscore ORDER BY score DESC, doc_id LIMIT 10),
ctf_all AS (SELECT tok, count(*) AS ctf FROM toks GROUP BY tok),
tf_top AS (
    SELECT doc_id, tok, count(*) AS tf FROM toks
    WHERE doc_id IN (SELECT doc_id FROM top10) GROUP BY doc_id, tok
),
term_scores AS (
    SELECT tf_top.tok AS term,
           sum((tf_top.tf * 1.0 / dl.dl) * t.score * ln(coll.c / ctf_all.ctf)) AS w
    FROM top10 t
    JOIN tf_top ON tf_top.doc_id = t.doc_id
    JOIN doclen dl ON dl.doc_id = t.doc_id
    JOIN ctf_all ON ctf_all.tok = tf_top.tok
    CROSS JOIN coll
    GROUP BY tf_top.tok
),
ranked AS (
    SELECT term, w, row_number() OVER (ORDER BY w DESC, term) AS rank
    FROM term_scores
)
SELECT CAST(rank AS BIGINT) AS rank, term,
       CAST(round(w * 1000000) AS BIGINT) AS weight_micros
FROM ranked WHERE rank <= 10 ORDER BY rank
"""

_LETOR_CORE_SQL = f"""
{_POS_TOKS},
doclen AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
    SELECT (SELECT count(*) FROM documents) AS n_docs,
           (SELECT count(*) FROM doclen) AS doccount,
           (SELECT CAST(sum(dl) AS DOUBLE) FROM doclen) AS sum_dl
),
qtf AS (SELECT doc_id, tok, count(*) AS tf FROM toks
        WHERE tok IN ('{_BM25_TERMS[0]}','{_BM25_TERMS[1]}') GROUP BY doc_id, tok),
qdf AS (SELECT tok, count(*) AS df FROM qtf GROUP BY tok),
bm25 AS (
    SELECT qtf.doc_id,
           sum( {_bm25_w(tf="qtf.tf", df="qdf.df", avgdl="stats.sum_dl / stats.doccount")} ) AS f5
    FROM qtf JOIN qdf USING (tok) JOIN doclen USING (doc_id) CROSS JOIN stats
    GROUP BY qtf.doc_id
),
top20 AS (SELECT doc_id, f5 FROM bm25 ORDER BY f5 DESC, doc_id LIMIT 20),
qctf AS (SELECT tok, count(*) AS ctf FROM toks
         WHERE tok IN ('{_BM25_TERMS[0]}','{_BM25_TERMS[1]}') GROUP BY tok),
grid AS (SELECT t.doc_id, q.tok, q.ctf FROM top20 t CROSS JOIN qctf q),
p AS (
    SELECT g.doc_id,
           0.4 * (coalesce(qtf.tf, 0) + 2500 * (g.ctf / stats.sum_dl)) / (dl.dl + 2500)
           + 0.6 * (g.ctf / stats.sum_dl) AS p
    FROM grid g
    LEFT JOIN qtf ON qtf.doc_id = g.doc_id AND qtf.tok = g.tok
    JOIN doclen dl ON dl.doc_id = g.doc_id
    CROSS JOIN stats
),
indri AS (SELECT doc_id, exp(sum(ln(p) * 0.5)) AS f6 FROM p GROUP BY doc_id),
overlap AS (
    SELECT doc_id, count(DISTINCT tok) / 2.0 AS f7 FROM qtf
    WHERE doc_id IN (SELECT doc_id FROM top20) GROUP BY doc_id
),
near AS (
    SELECT a.doc_id, count(*) AS tf
    FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
    WHERE a.tok = '{_BM25_TERMS[0]}' AND b.tok = '{_BM25_TERMS[1]}'
    GROUP BY a.doc_id
),
nctf AS (SELECT CAST(coalesce(sum(tf), 0) AS DOUBLE) AS ctf FROM near),
feats AS (
    SELECT t.doc_id, t.f5, i.f6, o.f7,
           CASE WHEN n.tf IS NULL THEN 0.0
                ELSE 0.4 * (n.tf + 2500 * (nctf.ctf / stats.sum_dl)) / (dl.dl + 2500)
                     + 0.6 * (nctf.ctf / stats.sum_dl) END AS f17
    FROM top20 t
    JOIN indri i USING (doc_id)
    JOIN overlap o USING (doc_id)
    JOIN doclen dl USING (doc_id)
    LEFT JOIN near n USING (doc_id)
    CROSS JOIN nctf CROSS JOIN stats
),
norm AS (
    SELECT doc_id, f5, f6, f7, f17,
           CASE WHEN max(f5) OVER () = min(f5) OVER () THEN 0.0
                ELSE (f5 - min(f5) OVER ()) / (max(f5) OVER () - min(f5) OVER ()) END AS f5n,
           CASE WHEN max(f6) OVER () = min(f6) OVER () THEN 0.0
                ELSE (f6 - min(f6) OVER ()) / (max(f6) OVER () - min(f6) OVER ()) END AS f6n,
           CASE WHEN max(f7) OVER () = min(f7) OVER () THEN 0.0
                ELSE (f7 - min(f7) OVER ()) / (max(f7) OVER () - min(f7) OVER ()) END AS f7n,
           CASE WHEN max(f17) OVER () = min(f17) OVER () THEN 0.0
                ELSE (f17 - min(f17) OVER ()) / (max(f17) OVER () - min(f17) OVER ()) END AS f17n
    FROM feats
)
SELECT doc_id,
       CAST(round(f5 * 1000000) AS BIGINT) AS f5_micros,
       CAST(round(f6 * 1000000) AS BIGINT) AS f6_micros,
       CAST(round(f7 * 1000000) AS BIGINT) AS f7_micros,
       CAST(round(f17 * 1000000) AS BIGINT) AS f17_micros,
       CAST(round(f5n * 1000000) AS BIGINT) AS f5n_micros,
       CAST(round(f6n * 1000000) AS BIGINT) AS f6n_micros,
       CAST(round(f7n * 1000000) AS BIGINT) AS f7n_micros,
       CAST(round(f17n * 1000000) AS BIGINT) AS f17n_micros
FROM norm ORDER BY doc_id
"""


_LETOR_GLOBAL_CTES = r"""lists AS (
    SELECT doc_id, regexp_extract_all(text, '[^ \t\n\f\r]+') AS l FROM documents
),
toks AS (
    SELECT doc_id, lower(l[i]) AS tok, i AS pos
    FROM lists, unnest(range(1, len(l) + 1)) AS t(i)
),
doclen AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (
    SELECT (SELECT count(*) FROM documents) AS n_docs,
           (SELECT count(*) FROM doclen) AS doccount,
           (SELECT CAST(sum(dl) AS DOUBLE) FROM doclen) AS sum_dl
)"""


def _letor_field_cte(px: str, f: str, lo: int, hi: int, t0: str, t1: str) -> str:
    """CTE block for one derived index field (title/url/inlink) of one query:
    tokens are the 1-based list slice [lo+1 .. hi] of the document's RE2
    tokens — exactly what ``_letor_corpus`` feeds the four-field index
    build. Scoring mirrors the engine kernels: BM25 uses GLOBAL n_docs +
    field avg-doclen; Indri smooths with field ctf/collection-length; a zero
    p contributes nothing (kernels.py _indri_combine 'skip'); docs without
    the field are handled NULL-side in rawf. Candidate-restricted CTEs join
    against {px}cand."""
    c = f"(SELECT doc_id FROM {px}cand)"
    f = px + f
    return f"""
{f}_toks AS (
    SELECT doc_id, lower(l[i]) AS tok
    FROM lists, unnest(range({lo + 1}, {hi + 1})) AS t(i)
    WHERE i <= len(l)
),
{f}_dl AS (SELECT doc_id, count(*) AS dl FROM {f}_toks GROUP BY doc_id),
{f}_st AS (
    SELECT CAST(count(*) AS DOUBLE) AS doccount, CAST(sum(dl) AS DOUBLE) AS sum_dl
    FROM {f}_dl
),
{f}_tf AS (
    SELECT doc_id, tok, count(*) AS tf FROM {f}_toks
    WHERE tok IN ('{t0}', '{t1}') GROUP BY doc_id, tok
),
{f}_df AS (SELECT tok, count(*) AS df FROM {f}_tf GROUP BY tok),
{f}_ctf AS (SELECT tok, CAST(sum(tf) AS DOUBLE) AS ctf FROM {f}_tf GROUP BY tok),
{f}_bm25 AS (
    SELECT tf.doc_id,
           sum( {_bm25_w(dl="dl.dl", avgdl="st.sum_dl / st.doccount")} ) AS v
    FROM {f}_tf tf
    JOIN {f}_df df USING (tok)
    JOIN {f}_dl dl USING (doc_id)
    CROSS JOIN stats CROSS JOIN {f}_st st
    WHERE tf.doc_id IN {c}
    GROUP BY tf.doc_id
),
{f}_grid AS (
    SELECT t.doc_id, q.tok
    FROM (SELECT DISTINCT doc_id FROM {f}_tf WHERE doc_id IN {c}) t
    CROSS JOIN (SELECT unnest(['{t0}', '{t1}']) AS tok) q
),
{f}_p AS (
    SELECT g.doc_id,
           0.4 * (coalesce(tf.tf, 0) + 2500 * (coalesce(c.ctf, 0) / st.sum_dl)) / (dl.dl + 2500)
           + 0.6 * (coalesce(c.ctf, 0) / st.sum_dl) AS p
    FROM {f}_grid g
    LEFT JOIN {f}_tf tf ON tf.doc_id = g.doc_id AND tf.tok = g.tok
    LEFT JOIN {f}_ctf c ON c.tok = g.tok
    JOIN {f}_dl dl ON dl.doc_id = g.doc_id
    CROSS JOIN {f}_st st
),
{f}_indri AS (
    SELECT doc_id, exp(sum(CASE WHEN p > 0 THEN 0.5 * ln(p) ELSE 0 END)) AS v
    FROM {f}_p GROUP BY doc_id
),
{f}_ov AS (
    SELECT doc_id, count(DISTINCT tok) / 2.0 AS v FROM {f}_tf
    WHERE doc_id IN {c} GROUP BY doc_id
)"""


def _letor_query_ctes(px: str, t0: str, t1: str, cand_body: str) -> str:
    """All per-query feature CTEs under prefix ``px``, ending in
    ``{px}normf(doc_id, f1..f18)`` — raw 18-feature extraction (reference
    LearnToRank.java:326-596 semantics) + NULL-aware per-query min-max
    normalization (:279-314). ``cand_body`` selects the candidate doc_ids
    and may reference ``{px}bm25`` (e.g. a top-k of the body ranking).
    Body f5/f6/f7/f17 follow the letor_core recipe; f8-f16 come from the
    field CTE blocks; f18 is VSM lnc.ltc on title with the engine's IEEE
    edge semantics (any query term with title-df 0 → inf query norm → 0);
    f1-f4 reproduce the deterministic fixtures the engine feeds through the
    reference's file readers."""
    fields = {"ti": _LETOR_TITLE, "uf": _LETOR_URLF, "il": _LETOR_INLINK}
    field_blocks = ",".join(
        _letor_field_cte(px, f, lo, hi, t0, t1) for f, (lo, hi) in fields.items()
    )

    def fld_feats(f: str, base: int) -> str:
        # field missing (no tokens) → NULL triple; present-but-no-match → 0.0
        f = px + f
        return f"""
           CASE WHEN {f}_dl.dl IS NULL THEN NULL ELSE coalesce({f}_bm25.v, 0.0) END AS f{base},
           CASE WHEN {f}_dl.dl IS NULL THEN NULL ELSE coalesce({f}_indri.v, 0.0) END AS f{base + 1},
           CASE WHEN {f}_dl.dl IS NULL THEN NULL ELSE coalesce({f}_ov.v, 0.0) END AS f{base + 2},"""

    fld_joins = "\n".join(
        f"""    LEFT JOIN {px}{f}_dl ON {px}{f}_dl.doc_id = t.doc_id
    LEFT JOIN {px}{f}_bm25 ON {px}{f}_bm25.doc_id = t.doc_id
    LEFT JOIN {px}{f}_indri ON {px}{f}_indri.doc_id = t.doc_id
    LEFT JOIN {px}{f}_ov ON {px}{f}_ov.doc_id = t.doc_id"""
        for f in fields
    )

    def norm_expr(j: int) -> str:
        c = f"f{j}"
        return (
            f"CASE WHEN {c} IS NULL THEN NULL "
            f"WHEN max({c}) OVER () = min({c}) OVER () THEN 0.0 "
            f"ELSE ({c} - min({c}) OVER ()) / (max({c}) OVER () - min({c}) OVER ()) END AS {c}"
        )

    norm_cols = ",\n           ".join(norm_expr(j) for j in range(1, 19))
    return f"""{px}qtf AS (SELECT doc_id, tok, count(*) AS tf FROM toks
        WHERE tok IN ('{t0}','{t1}') GROUP BY doc_id, tok),
{px}qdf AS (SELECT tok, count(*) AS df FROM {px}qtf GROUP BY tok),
{px}bm25 AS (
    SELECT q.doc_id,
           sum( {_bm25_w(tf="q.tf", df="d.df", avgdl="stats.sum_dl / stats.doccount")} ) AS v
    FROM {px}qtf q JOIN {px}qdf d USING (tok) JOIN doclen USING (doc_id) CROSS JOIN stats
    GROUP BY q.doc_id
),
{px}cand AS ({cand_body}),
{px}qctf AS (SELECT tok, count(*) AS ctf FROM toks
         WHERE tok IN ('{t0}','{t1}') GROUP BY tok),
{px}igrid AS (
    SELECT c.doc_id, q.tok, q.ctf
    FROM (SELECT DISTINCT doc_id FROM {px}qtf
          WHERE doc_id IN (SELECT doc_id FROM {px}cand)) c
    CROSS JOIN {px}qctf q
),
{px}ip AS (
    SELECT g.doc_id,
           0.4 * (coalesce(q.tf, 0) + 2500 * (g.ctf / stats.sum_dl)) / (dl.dl + 2500)
           + 0.6 * (g.ctf / stats.sum_dl) AS p
    FROM {px}igrid g
    LEFT JOIN {px}qtf q ON q.doc_id = g.doc_id AND q.tok = g.tok
    JOIN doclen dl ON dl.doc_id = g.doc_id
    CROSS JOIN stats
),
{px}indri AS (SELECT doc_id, exp(sum(ln(p) * 0.5)) AS v FROM {px}ip GROUP BY doc_id),
{px}ov AS (
    SELECT doc_id, count(DISTINCT tok) / 2.0 AS v FROM {px}qtf
    WHERE doc_id IN (SELECT doc_id FROM {px}cand) GROUP BY doc_id
),
{px}near AS (
    SELECT a.doc_id, count(*) AS tf
    FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
    WHERE a.tok = '{t0}' AND b.tok = '{t1}'
    GROUP BY a.doc_id
),
{px}nctf AS (SELECT CAST(coalesce(sum(tf), 0) AS DOUBLE) AS ctf FROM {px}near),
{field_blocks},
{px}t18_dlen AS (
    SELECT doc_id, sum(pow(ln(tf) + 1, 2)) AS dlen2
    FROM (SELECT doc_id, tok, count(*) AS tf FROM {px}ti_toks GROUP BY doc_id, tok)
    GROUP BY doc_id
),
{px}t18_terms AS (
    SELECT q.tok, coalesce(d.df, 0) AS df
    FROM (SELECT unnest(['{t0}', '{t1}']) AS tok) q
    LEFT JOIN {px}ti_df d ON d.tok = q.tok
),
{px}t18_qs AS (
    SELECT min(t.df) AS min_df,
           sum(pow(ln(stats.n_docs / t.df), 2)) FILTER (WHERE t.df > 0) AS qry_len2
    FROM {px}t18_terms t CROSS JOIN stats
),
{px}t18_dot AS (
    SELECT tf.doc_id, sum((ln(tf.tf) + 1) * ln(stats.n_docs / t.df)) AS dot
    FROM {px}ti_tf tf JOIN {px}t18_terms t USING (tok) CROSS JOIN stats
    WHERE t.df > 0 AND tf.doc_id IN (SELECT doc_id FROM {px}cand)
    GROUP BY tf.doc_id
),
{px}url AS (
    SELECT doc_id,
           'http://' || CASE WHEN doc_id % 7 = 0 THEN 'www.wikipedia.org'
                             ELSE 'www.example.com' END
           || repeat('/p', CAST(doc_id % 5 AS INT))
           || '/doc' || CAST(doc_id AS VARCHAR) AS s
    FROM {px}cand
),
{px}rawf AS (
    SELECT t.doc_id,
           CAST((t.doc_id * 37) % 101 AS DOUBLE) AS f1,
           CAST(length(u.s) - length(replace(u.s, '/', '')) AS DOUBLE) AS f2,
           CASE WHEN t.doc_id % 7 = 0 THEN 1.0 ELSE 0.0 END AS f3,
           1.0 / (1 + (t.doc_id % 17)) AS f4,
           coalesce(bm.v, 0.0) AS f5,
           coalesce(i.v, 0.0) AS f6,
           coalesce(o.v, 0.0) AS f7,{fld_feats("ti", 8)}{fld_feats("uf", 11)}{fld_feats("il", 14)}
           CASE WHEN n.tf IS NULL THEN 0.0
                ELSE 0.4 * (n.tf + 2500 * ({px}nctf.ctf / stats.sum_dl)) / (dl.dl + 2500)
                     + 0.6 * ({px}nctf.ctf / stats.sum_dl) END AS f17,
           CASE WHEN {px}ti_dl.dl IS NULL THEN NULL
                WHEN qs.min_df = 0 THEN 0.0
                ELSE coalesce(dt.dot, 0.0) / sqrt(dn.dlen2 * qs.qry_len2) END AS f18
    FROM {px}cand t
    JOIN {px}url u USING (doc_id)
    JOIN doclen dl ON dl.doc_id = t.doc_id
    LEFT JOIN {px}bm25 bm ON bm.doc_id = t.doc_id
    LEFT JOIN {px}indri i ON i.doc_id = t.doc_id
    LEFT JOIN {px}ov o ON o.doc_id = t.doc_id
    LEFT JOIN {px}near n ON n.doc_id = t.doc_id
{fld_joins}
    LEFT JOIN {px}t18_dlen dn ON dn.doc_id = t.doc_id
    LEFT JOIN {px}t18_dot dt ON dt.doc_id = t.doc_id
    CROSS JOIN {px}t18_qs qs CROSS JOIN {px}nctf CROSS JOIN stats
),
{px}normf AS (
    SELECT doc_id,
           {norm_cols}
    FROM {px}rawf
)"""


# letor_rerank fixtures: judged docs = doc_id % 11 == 0 with graded
# relevance doc_id % 3 (0/1/2); test query is a different term pair so the
# reranker is exercised out-of-sample. RankSVM hyperparameters mirror the
# engine defaults (LetorParams.svm_c / train_ranksvm epochs).
_LETOR_TEST_TERMS = ("window", "sort")
_LETOR_QREL_MOD = 11
_LETOR_SVM_C = 0.001
_LETOR_SVM_EPOCHS = 300


def _letor_rerank_sql_core(extra_prefix: str, tr_cand_body: str, pairs_from: str) -> str:
    """Shared twin body for the letor train→rerank flows: train features
    on ``tr_cand_body``'s docs, preference pairs from ``pairs_from``
    (aliases a/b over tr_normf), the engine's deterministic pairwise
    RankSVM (pipelines/letor.py train_ranksvm — full-batch subgradient,
    harmonic step) as a RECURSIVE weight iteration, then score + rerank
    the test query's BM25-body top-20. ``extra_prefix`` prepends CTEs
    (e.g. the click-EM chain) before the letor globals."""
    tr0, tr1 = _BM25_TERMS
    te0, te1 = _LETOR_TEST_TERMS
    tr = _letor_query_ctes("tr_", tr0, tr1, tr_cand_body)
    te = _letor_query_ctes(
        "te_", te0, te1, "SELECT doc_id FROM te_bm25 ORDER BY v DESC, doc_id LIMIT 20"
    )
    dcols = ",\n           ".join(
        f"coalesce(a.f{j}, 0) - coalesce(b.f{j}, 0) AS d{j}" for j in range(1, 19)
    )
    viol = " + ".join(f"d{j} * w.w{j}" for j in range(1, 19))
    winit = ", ".join(f"CAST(0 AS DOUBLE) AS w{j}" for j in range(1, 19))
    vsums = ", ".join(f"coalesce(sum(d{j}), 0) AS s{j}" for j in range(1, 19))
    wstep = ",\n            ".join(
        f"w{j} - (1.0 / (1 + t)) * (w{j} - {_LETOR_SVM_C} * v.s{j})"
        for j in range(1, 19)
    )
    score = " + ".join(f"wf.w{j} * coalesce(n.f{j}, 0)" for j in range(1, 19))
    # MATERIALIZED is load-bearing: the recursion scans `pairs` every epoch,
    # and an inlined CTE would re-run the whole feature pipeline per scan.
    # ONE LATERAL aggregate per epoch (not 18 correlated subqueries) keeps
    # the 300-epoch loop in seconds.
    return f"""
WITH RECURSIVE {extra_prefix}{_LETOR_GLOBAL_CTES},
{tr.replace("tr_normf AS (", "tr_normf AS MATERIALIZED (")},
{te.replace("te_normf AS (", "te_normf AS MATERIALIZED (")},
pairs AS MATERIALIZED (
    SELECT {dcols}
    FROM {pairs_from}
),
w AS (
    -- the seed term scans `pairs` so the MATERIALIZED CTE is populated
    -- BEFORE iteration 1 (otherwise DuckDB's first recursive step sees it
    -- empty and the t=0 gradient silently becomes zero)
    SELECT 0 AS t, {winit}
    FROM (SELECT 1) WHERE (SELECT count(*) FROM pairs) >= 0
    UNION ALL
    SELECT t + 1,
            {wstep}
    FROM w, LATERAL (
        SELECT {vsums} FROM pairs WHERE {viol} < 1
    ) v
    WHERE t < {_LETOR_SVM_EPOCHS}
),
wf AS (SELECT * FROM w ORDER BY t DESC LIMIT 1),
scored AS (
    SELECT n.doc_id, ({score}) AS s
    FROM te_normf n CROSS JOIN wf
)
SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
       doc_id,
       CAST(round(s * 1000000) AS BIGINT) AS score_micros
FROM scored ORDER BY rank
"""


def _letor_rerank_sql() -> str:
    """SQL twin of ``q_letor_rerank`` — the reference's full letor flow
    (QryEval.java:239-258) in one statement; editorial-qrels fixture
    (judged = doc_id % 11 == 0, grade = doc_id % 3). DuckDB's recursion
    reproduces the numpy RankSVM loop bit-for-bit (verified: max-abs-diff
    0.0 over 300 epochs on random pairs)."""
    return _letor_rerank_sql_core(
        "",
        f"SELECT doc_id FROM documents WHERE doc_id % {_LETOR_QREL_MOD} = 0",
        "tr_normf a JOIN tr_normf b ON (a.doc_id % 3) > (b.doc_id % 3)",
    )


def _letor_from_clicks_sql() -> str:
    """SQL twin of ``q_letor_from_clicks``: the click-EM CTE chain feeds
    the letor twin — fitted per-(query, doc) attractiveness α for click
    query 0 thresholds into graded labels (cgrades), which replace the
    editorial-qrels fixture as BOTH the training candidate set and the
    preference-pair order. One statement: synthetic log → EM → labels →
    feature extraction → recursive RankSVM → rerank."""
    click = _click_em_ctes().strip()
    assert click.startswith("WITH ")
    prefix = click[len("WITH "):] + f""",
cgrades AS (
    SELECT CAST(d AS BIGINT) AS doc_id,
           CASE WHEN al >= {_CLICK_GRADE2} THEN 2
                WHEN al >= {_CLICK_GRADE1} THEN 1
                ELSE 0 END AS g
    FROM a2 WHERE q = 0
),
"""
    return _letor_rerank_sql_core(
        prefix,
        "SELECT doc_id FROM cgrades",
        "tr_normf a JOIN cgrades ga ON ga.doc_id = a.doc_id "
        "JOIN tr_normf b ON TRUE "
        "JOIN cgrades gb ON gb.doc_id = b.doc_id AND ga.g > gb.g",
    )


def _letor_rerank_svmrank_sql() -> str:
    """SQL twin of ``q_letor_rerank_svmrank``: the fake svm_rank classify
    scores each test row with Σ j·f_j over the SVMlight-written features
    (NaN features omitted from the file ⇔ coalesce(f, 0) here; the %.17g
    print round-trips every double exactly, and both sides accumulate the
    18 terms left-to-right, so the sums are bit-identical)."""
    te0, te1 = _LETOR_TEST_TERMS
    te = _letor_query_ctes(
        "te_", te0, te1, "SELECT doc_id FROM te_bm25 ORDER BY v DESC, doc_id LIMIT 20"
    )
    score = " + ".join(f"{j} * coalesce(n.f{j}, 0)" for j in range(1, 19))
    return f"""
WITH {_LETOR_GLOBAL_CTES},
{te},
scored AS (
    SELECT n.doc_id, ({score}) AS s FROM te_normf n
)
SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
       doc_id,
       CAST(round(s * 1000000) AS BIGINT) AS score_micros
FROM scored ORDER BY rank
"""


def _letor_features_sql() -> str:
    """SQL twin of ``q_letor_features``: all 18 features over the derived
    four-field index for the BM25-body top-20, NaN → -1_000_000 sentinel."""
    t0, t1 = _BM25_TERMS
    out_cols = ",\n       ".join(
        f"coalesce(CAST(round(f{j} * 1000000) AS BIGINT), -1000000) AS f{j}"
        for j in range(1, 19)
    )
    q = _letor_query_ctes(
        "", t0, t1, "SELECT doc_id FROM bm25 ORDER BY v DESC, doc_id LIMIT 20"
    )
    return f"""
WITH {_LETOR_GLOBAL_CTES},
{q}
SELECT doc_id,
       {out_cols}
FROM normf ORDER BY doc_id
"""


def _token_count_sql() -> str:
    """Token-count oracle generated from the engine's OWN regex constants
    (single source of truth): the explicit ASCII whitespace class means the
    Python and RE2 patterns match identically on any input."""
    from search_engine_framework_ray.stages.textstats import BPE_PATTERN

    bpe_sql = BPE_PATTERN.replace("'", "''")
    return f"""
        SELECT doc_id,
               CAST(len(regexp_extract_all(text, '[^ \\t\\n\\f\\r]+')) AS BIGINT) AS n_ws_tokens,
               CAST(len(regexp_extract_all(text, '{bpe_sql}')) AS BIGINT) AS n_bpe_tokens
        FROM documents ORDER BY doc_id
    """


def _langid_sql() -> str:
    """Language-id oracle generated from the engine's OWN function-word
    profiles (single source of truth): per-language hit rate over
    ``[a-zA-Z]+`` words, strict-> argmax with alphabetical-first ties and
    the > 0.02 confidence floor — exactly LangIdStage's loop."""
    from search_engine_framework_ray.stages.textstats import _LANG_PROFILES

    langs = sorted(k for k, v in _LANG_PROFILES.items() if v)

    def inlist(lang: str) -> str:
        return ", ".join(f"'{w}'" for w in sorted(_LANG_PROFILES[lang]))

    hit_cols = ",\n    ".join(
        f"sum(CASE WHEN w IN ({inlist(lg)}) THEN 1 ELSE 0 END) * 1.0 / count(*) AS s_{lg}"
        for lg in langs
    )
    all_scores = ", ".join(f"s_{lg}" for lg in langs)
    # strict '>' argmax scanning langs alphabetically == first-max wins:
    # lang lg wins iff s_lg >= every LATER language's score and > every
    # EARLIER one's — equivalently s_lg >= max(later) after earlier CASE
    # arms (which already handled earlier maxima) fell through.
    arms = []
    for i, lg in enumerate(langs[:-1]):
        later = ", ".join(f"s_{x}" for x in langs[i + 1 :])
        arms.append(f"WHEN s_{lg} >= greatest({later}) THEN '{lg}'")
    case = "\n        ".join(arms)
    return f"""
    WITH words AS (
        SELECT doc_id, lower(unnest(regexp_extract_all(text, '[a-zA-Z]+'))) AS w
        FROM documents
    ),
    cnt AS (
        SELECT doc_id,
        {hit_cols}
        FROM words GROUP BY doc_id
    )
    SELECT d.doc_id,
        CASE WHEN c.doc_id IS NULL OR greatest({all_scores}) <= 0.02 THEN 'und'
        {case}
        ELSE '{langs[-1]}' END AS lang_pred
    FROM documents d LEFT JOIN cnt c USING (doc_id) ORDER BY d.doc_id
    """


def _curation_sql() -> str:
    """Composed twin of stages/corpus.curate: the langid oracle as a
    subquery + the quality word count + the dedup_exact canonical, folded
    into the same first-failing-gate CASE the engine vectorizes."""
    return f"""
    WITH lang AS (
        SELECT * FROM ({_langid_sql()})
    ),
    nw AS (
        SELECT doc_id,
               len(regexp_extract_all(text, '[^ \t\n\f\r]+'))::BIGINT AS n_words
        FROM documents
    ),
    dup AS (
        SELECT doc_id, min(doc_id) OVER (PARTITION BY text)::BIGINT AS cluster_id
        FROM documents
    ),
    j AS (
        SELECT d.doc_id, nw.n_words, lang.lang_pred, dup.cluster_id
        FROM documents d
        JOIN nw USING (doc_id) JOIN lang USING (doc_id) JOIN dup USING (doc_id)
    )
    SELECT doc_id, n_words, lang_pred, cluster_id,
           CASE WHEN n_words < 40 THEN 'short'
                WHEN lang_pred <> 'en' THEN 'lang'
                WHEN doc_id <> cluster_id THEN 'dup'
                ELSE 'ok' END AS reason,
           CAST(CASE WHEN n_words >= 40 AND lang_pred = 'en' AND doc_id = cluster_id
                THEN 1 ELSE 0 END AS BIGINT) AS keep
    FROM j ORDER BY doc_id
    """


# PageRank twin: same deterministic link graph, same exact int64 micro-unit
# arithmetic (floor division per edge, damped integer update), 3 unrolled
# power iterations. SUM(BIGINT) is HUGEINT in DuckDB — every intermediate is
# integral, so the comparison is bit-exact, not tolerance-based.
# CTE body shared by the pagerank twin and the static-rank blend twin
_PAGERANK_CTES = """nn AS (SELECT count(*) AS n FROM documents),
e AS (
    SELECT doc_id AS src, (doc_id * 7 + 1) % n AS dst FROM documents, nn
    UNION ALL
    SELECT doc_id, (doc_id * 13 + 5) % n FROM documents, nn WHERE doc_id % 3 >= 1
    UNION ALL
    SELECT doc_id, (doc_id * 31 + 11) % n FROM documents, nn WHERE doc_id % 3 >= 2
),
deg AS (SELECT src, count(*) AS d FROM e GROUP BY src),
nd AS (SELECT doc_id AS node FROM documents),
r0 AS (SELECT node, CAST(1000000 AS BIGINT) AS r FROM nd),
c1 AS (SELECT e.dst AS node, sum(r.r // deg.d) AS s
       FROM e JOIN deg USING (src) JOIN r0 r ON r.node = e.src GROUP BY e.dst),
r1 AS (SELECT nd.node, CAST(150000 + 85 * COALESCE(c1.s, 0) // 100 AS BIGINT) AS r
       FROM nd LEFT JOIN c1 USING (node)),
c2 AS (SELECT e.dst AS node, sum(r.r // deg.d) AS s
       FROM e JOIN deg USING (src) JOIN r1 r ON r.node = e.src GROUP BY e.dst),
r2 AS (SELECT nd.node, CAST(150000 + 85 * COALESCE(c2.s, 0) // 100 AS BIGINT) AS r
       FROM nd LEFT JOIN c2 USING (node)),
c3 AS (SELECT e.dst AS node, sum(r.r // deg.d) AS s
       FROM e JOIN deg USING (src) JOIN r2 r ON r.node = e.src GROUP BY e.dst),
r3 AS (SELECT nd.node, CAST(150000 + 85 * COALESCE(c3.s, 0) // 100 AS BIGINT) AS r
       FROM nd LEFT JOIN c3 USING (node))"""

_PAGERANK_SQL = f"""
WITH {_PAGERANK_CTES}
SELECT node AS doc_id, r AS rank_micros FROM r3 ORDER BY doc_id
"""

# HITS twin: the engine's two iterations unrolled — auth ← Σ hub(src) over
# in-edges, hub ← Σ auth(dst) over out-edges, each max-normalized
# (v·10^6 // max) in exact integer arithmetic (DuckDB sums are HUGEINT, so
# the v·10^6 products never overflow before the CAST back to BIGINT).
_HITS_SQL = """
WITH nn AS (SELECT count(*) AS n FROM documents),
e AS (
    SELECT doc_id AS src, (doc_id * 7 + 1) % n AS dst FROM documents, nn
    UNION ALL
    SELECT doc_id, (doc_id * 13 + 5) % n FROM documents, nn WHERE doc_id % 3 >= 1
    UNION ALL
    SELECT doc_id, (doc_id * 31 + 11) % n FROM documents, nn WHERE doc_id % 3 >= 2
),
nd AS (SELECT doc_id AS node FROM documents),
a1r AS (SELECT dst AS node, 1000000 * count(*) AS s FROM e GROUP BY dst),
ma1 AS (SELECT max(s) AS m FROM a1r),
a1 AS (SELECT nd.node, CAST(COALESCE(a1r.s, 0) * 1000000 // ma1.m AS BIGINT) AS s
       FROM nd LEFT JOIN a1r USING (node), ma1),
h1r AS (SELECT e.src AS node, sum(a.s) AS s
        FROM e JOIN a1 a ON a.node = e.dst GROUP BY e.src),
mh1 AS (SELECT max(s) AS m FROM h1r),
h1 AS (SELECT nd.node, CAST(COALESCE(h1r.s, 0) * 1000000 // mh1.m AS BIGINT) AS s
       FROM nd LEFT JOIN h1r USING (node), mh1),
a2r AS (SELECT e.dst AS node, sum(h.s) AS s
        FROM e JOIN h1 h ON h.node = e.src GROUP BY e.dst),
ma2 AS (SELECT max(s) AS m FROM a2r),
a2 AS (SELECT nd.node, CAST(COALESCE(a2r.s, 0) * 1000000 // ma2.m AS BIGINT) AS s
       FROM nd LEFT JOIN a2r USING (node), ma2),
h2r AS (SELECT e.src AS node, sum(a.s) AS s
        FROM e JOIN a2 a ON a.node = e.dst GROUP BY e.src),
mh2 AS (SELECT max(s) AS m FROM h2r),
h2 AS (SELECT nd.node, CAST(COALESCE(h2r.s, 0) * 1000000 // mh2.m AS BIGINT) AS s
       FROM nd LEFT JOIN h2r USING (node), mh2)
SELECT h2.node AS doc_id, h2.s AS hub_micros, a2.s AS auth_micros
FROM h2 JOIN a2 ON a2.node = h2.node
ORDER BY doc_id
"""

# Static-rank blend twin: the BM25 chain's depth-100 pool joined with the
# exact-integer r3 rank table; the prior fold is micros-rounded per row
# (ln of the SAME integer on both sides), then added in exact int64.
_STATIC_BLEND_SQL = f"""
{_bm25_chain()},
pool AS (
    SELECT doc_id, CAST(round(score * 1000000) AS BIGINT) AS score_micros
    FROM scores ORDER BY score_micros DESC, doc_id LIMIT 100
),
{_PAGERANK_CTES},
blend AS (
    SELECT p.doc_id, p.score_micros,
           CAST(round(500000 * ln(r3.r / 1000000.0)) AS BIGINT) AS prior_micros
    FROM pool p JOIN r3 ON r3.node = p.doc_id
)
SELECT doc_id, score_micros, prior_micros,
       score_micros + prior_micros AS blended_micros
FROM blend
ORDER BY blended_micros DESC, doc_id LIMIT 20
"""

# shared walk-replay CTEs (random_walks + walk_pairs oracles): 4 unrolled
# PRF-hash hops over the undirected link graph, snapshots unioned as `walks`
_WALKS_CTES = r"""
WITH nn AS (SELECT count(*) AS n FROM documents),
e0 AS (
    SELECT doc_id AS src, (doc_id + 4) % nn.n AS dst
    FROM documents, nn
    UNION ALL
    SELECT doc_id, (doc_id * 9 + 2) % nn.n
    FROM documents, nn WHERE doc_id % 16 = 0
),
e AS (SELECT src, dst FROM e0 UNION SELECT dst, src FROM e0),
w0 AS (SELECT doc_id AS s, doc_id AS cur FROM documents),
s1 AS (SELECT s, dst AS cur FROM (
    SELECT w.s, e.dst, row_number() OVER (PARTITION BY w.s
        ORDER BY md5_number_lower(CAST(w.s AS VARCHAR) || '|'
            || CAST(w.cur AS VARCHAR) || '|1|'
            || CAST(e.dst AS VARCHAR)), e.dst) AS rn
    FROM w0 w JOIN e ON e.src = w.cur) WHERE rn = 1),
s2 AS (SELECT s, dst AS cur FROM (
    SELECT w.s, e.dst, row_number() OVER (PARTITION BY w.s
        ORDER BY md5_number_lower(CAST(w.s AS VARCHAR) || '|'
            || CAST(w.cur AS VARCHAR) || '|2|'
            || CAST(e.dst AS VARCHAR)), e.dst) AS rn
    FROM s1 w JOIN e ON e.src = w.cur) WHERE rn = 1),
s3 AS (SELECT s, dst AS cur FROM (
    SELECT w.s, e.dst, row_number() OVER (PARTITION BY w.s
        ORDER BY md5_number_lower(CAST(w.s AS VARCHAR) || '|'
            || CAST(w.cur AS VARCHAR) || '|3|'
            || CAST(e.dst AS VARCHAR)), e.dst) AS rn
    FROM s2 w JOIN e ON e.src = w.cur) WHERE rn = 1),
s4 AS (SELECT s, dst AS cur FROM (
    SELECT w.s, e.dst, row_number() OVER (PARTITION BY w.s
        ORDER BY md5_number_lower(CAST(w.s AS VARCHAR) || '|'
            || CAST(w.cur AS VARCHAR) || '|4|'
            || CAST(e.dst AS VARCHAR)), e.dst) AS rn
    FROM s3 w JOIN e ON e.src = w.cur) WHERE rn = 1),
walks AS (
    SELECT s, 0 AS st, cur FROM w0
    UNION ALL SELECT s, 1, cur FROM s1
    UNION ALL SELECT s, 2, cur FROM s2
    UNION ALL SELECT s, 3, cur FROM s3
    UNION ALL SELECT s, 4, cur FROM s4
)
"""

# Personalized variant: teleport mass only on the seed set (doc_id % 10
# == 0); otherwise the identical integer update
_PPR_SQL = """
WITH nn AS (SELECT count(*) AS n FROM documents),
e AS (
    SELECT doc_id AS src, (doc_id * 7 + 1) % n AS dst FROM documents, nn
    UNION ALL
    SELECT doc_id, (doc_id * 13 + 5) % n FROM documents, nn WHERE doc_id % 3 >= 1
    UNION ALL
    SELECT doc_id, (doc_id * 31 + 11) % n FROM documents, nn WHERE doc_id % 3 >= 2
),
deg AS (SELECT src, count(*) AS d FROM e GROUP BY src),
nd AS (SELECT doc_id AS node FROM documents),
r0 AS (SELECT node, CAST(1000000 AS BIGINT) AS r FROM nd),
c1 AS (SELECT e.dst AS node, sum(r.r // deg.d) AS s
       FROM e JOIN deg USING (src) JOIN r0 r ON r.node = e.src GROUP BY e.dst),
r1 AS (SELECT nd.node,
              CAST((CASE WHEN nd.node % 10 = 0 THEN 150000 ELSE 0 END)
                   + 85 * COALESCE(c1.s, 0) // 100 AS BIGINT) AS r
       FROM nd LEFT JOIN c1 USING (node)),
c2 AS (SELECT e.dst AS node, sum(r.r // deg.d) AS s
       FROM e JOIN deg USING (src) JOIN r1 r ON r.node = e.src GROUP BY e.dst),
r2 AS (SELECT nd.node,
              CAST((CASE WHEN nd.node % 10 = 0 THEN 150000 ELSE 0 END)
                   + 85 * COALESCE(c2.s, 0) // 100 AS BIGINT) AS r
       FROM nd LEFT JOIN c2 USING (node)),
c3 AS (SELECT e.dst AS node, sum(r.r // deg.d) AS s
       FROM e JOIN deg USING (src) JOIN r2 r ON r.node = e.src GROUP BY e.dst),
r3 AS (SELECT nd.node,
              CAST((CASE WHEN nd.node % 10 = 0 THEN 150000 ELSE 0 END)
                   + 85 * COALESCE(c3.s, 0) // 100 AS BIGINT) AS r
       FROM nd LEFT JOIN c3 USING (node))
SELECT node AS doc_id, r AS rank_micros FROM r3 ORDER BY doc_id
"""


def _cosine_top10_sql(where: str = "") -> str:
    """Exact cosine top-10 of the embeddings (``where``-filtered) against
    vec 0, ties vec_id-ascending: the ground truth of the ANN twins."""
    return f"""
WITH q AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0),
scored AS (
    SELECT vec_id,
           list_cosine_similarity(CAST(embedding AS DOUBLE[]),
               (SELECT CAST(qe AS DOUBLE[]) FROM q)) AS cos
    FROM embeddings {where}
),
ranked AS (
    SELECT vec_id, cos,
           row_number() OVER (ORDER BY cos DESC, vec_id) AS rank
    FROM scored
)
SELECT rank, vec_id, CAST(round(cos * 1000000) AS BIGINT) AS cosine_micros
FROM ranked WHERE rank <= 10 ORDER BY rank
"""


# Per-doc distinct token sets (tok), their sizes (cnt) and the shared-token
# count of every doc pair a < b (inter): the set-similarity join twins.
_TOKEN_SET_PAIRS = r"""
WITH tok AS (
    SELECT DISTINCT doc_id,
           unnest(regexp_extract_all(text, '[^ \t\n\f\r]+')) AS t
    FROM documents
),
cnt AS (SELECT doc_id, count(*) AS n FROM tok GROUP BY doc_id),
inter AS (
    SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
    FROM tok x JOIN tok y ON x.t = y.t AND y.doc_id > x.doc_id
    GROUP BY 1, 2
)"""


# Per-doc distinct word-3-shingle sets (sh) and their sizes (cnt): the
# exact ground truth of the MinHash / near-dup / containment twins.
_SHINGLES = r"""
WITH l AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS w FROM documents),
sh AS (
    SELECT DISTINCT doc_id, concat(w[i], ' ', w[i+1], ' ', w[i+2]) AS g
    FROM l, unnest(range(1, len(w) - 1)) AS t(i)
),
cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id)"""


def _jaccard_sql(pair: str) -> str:
    """_SHINGLES + the shared-shingle count ``inter`` of every (a, b) doc
    pair the ``pair`` join condition admits, and its exact Jaccard ``j``."""
    return _SHINGLES + f""",
inter AS (
    SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
    FROM sh x JOIN sh y ON x.g = y.g {pair}
    GROUP BY x.doc_id, y.doc_id
),
j AS (
    SELECT i.a, i.b, i.i * 1.0 / (ca.n + cb.n - i.i) AS j
    FROM inter i
    JOIN cnt ca ON ca.doc_id = i.a
    JOIN cnt cb ON cb.doc_id = i.b
)"""


_JACCARD_08 = """
SELECT a, b, CAST(round(j * 1000000) AS BIGINT) AS jaccard_micros
FROM j WHERE j >= 0.8 ORDER BY a, b
"""

# archive (doc_id % 10 < 7) × delta (≥ 7) pairs only: the incremental probe
_INCREMENTAL_NEARDUP_SQL = (
    _jaccard_sql("WHERE x.doc_id % 10 < 7 AND y.doc_id % 10 >= 7") + _JACCARD_08
)

# The verified (Jaccard ≥ 0.8) near-dup pair graph, undirected, and its
# reachability closure → connected components; cluster id = min reachable
# doc id.
_NEAR_DUP_REACH = _jaccard_sql("AND y.doc_id > x.doc_id") + """,
p AS (SELECT a, b FROM j WHERE j >= 0.8),
edges AS (SELECT a, b FROM p UNION SELECT b, a FROM p),
reach AS (
    WITH RECURSIVE r(src, dst) AS (
        SELECT doc_id, doc_id FROM documents
        UNION
        SELECT r.src, e.b FROM r JOIN edges e ON e.a = r.dst
    )
    SELECT src, dst FROM r
)"""


# 30-minute-gap sessionization of the event stream: new_s flags a
# session's first event, s.sid numbers each user's sessions.
_SESSIONS_CTES = """
WITH o AS (
    SELECT event_id, user_id, ts, value,
           CASE WHEN lag(ts) OVER w IS NULL
                     OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                THEN 1 ELSE 0 END AS new_s
    FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s AS MATERIALIZED (
    SELECT *, sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                               ROWS UNBOUNDED PRECEDING) AS sid
    FROM o
)"""


def oracle_sql() -> dict[str, str]:
    sql = {
        "bm25_topk": _BM25_SQL,
        "pl2_topk": _PL2_SQL,
        "clarity": _CLARITY_SQL,
        "static_blend": _STATIC_BLEND_SQL,
        "hybrid_rrf": _HYBRID_RRF_SQL,
        "rbo": _RBO_SQL,
        "interleave": _interleave_sql(),
        "hybrid_mnz": _HYBRID_MNZ_SQL,
        "impact_topk": _IMPACT_SQL,
        "delete_bm25": _DELETE_BM25_SQL,
        "compact_reclaim_bm25": _RECLAIM_BM25_SQL,
        "bm25f": _bm25f_sql(),
        "site_collapse": _SITE_COLLAPSE_SQL,
        "pruned_bm25": _PRUNED_BM25_SQL,
        "rocchio": _ROCCHIO_SQL,
        "more_like_this": _MLT_SQL,
        "filtered_bm25": _FILTERED_BM25_SQL,
        "cached_bm25": _BM25_SQL,
        "explain_bm25": _EXPLAIN_BM25_SQL,
        "lang_routed_bm25": _LANG_ROUTED_SQL,
        "crawl_frontier": _CRAWL_FRONTIER_SQL,
        "bpe_merges": _bpe_sql(6),
        "bpe_vocab": _bpe_sql(6, vocab_top_k=20),
        "late_events": _LATE_EVENTS_SQL,
        "query_relax": _QUERY_RELAX_SQL,
        "snapshot_dedup": _SNAPSHOT_DEDUP_SQL,
        "pagerank": _PAGERANK_SQL,
        "hits": _HITS_SQL,
        "pagerank_ppr": _PPR_SQL,
        "trec_eval": _TREC_EVAL_SQL,
        "sig_test": _SIG_TEST_SQL,
        "bpref": _BPREF_SQL,
        "err_metric": _ERR_SQL,
        "kendall_tau": _KENDALL_SQL,
        "mrr": _MRR_SQL,
        "judgment_pool": _POOL_SQL,
        "hard_negatives": _HARD_NEG_SQL,
        "qpp": _QPP_SQL,
        "bm25_snippets": _BM25_SNIPPETS_SQL,
        # recursive-CTE reachability closure over the same deterministic
        # undirected graph; comp = min reachable doc_id
        "link_components": r"""
            WITH RECURSIVE nn AS (SELECT count(*) AS n FROM documents),
            e0 AS (
                SELECT doc_id AS src, (doc_id + 4) % nn.n AS dst
                FROM documents, nn
                UNION ALL
                SELECT doc_id, (doc_id * 9 + 2) % nn.n
                FROM documents, nn WHERE doc_id % 16 = 0
            ),
            e AS (SELECT src, dst FROM e0 UNION SELECT dst, src FROM e0),
            reach(node, lbl) AS (
                SELECT doc_id, doc_id FROM documents
                UNION
                SELECT e.dst, r.lbl FROM reach r JOIN e ON e.src = r.node
            )
            SELECT CAST(node AS BIGINT) AS doc_id,
                   CAST(min(lbl) AS BIGINT) AS comp
            FROM reach GROUP BY node ORDER BY doc_id
        """,
        # top-20 bigram collocations by exact integer lift (= exp(PMI)·1e6):
        # cnt·N·1e6 // (cx·cy) — both engines rank on the same integers
        "collocations": f"""
            {_POS_TOKS},
            uni AS (SELECT tok, count(*) AS c FROM toks GROUP BY tok),
            nn AS (SELECT count(*) AS n FROM toks),
            bi AS (
                SELECT t1.tok AS x, t2.tok AS y, count(*) AS cnt
                FROM toks t1 JOIN toks t2
                  ON t1.doc_id = t2.doc_id AND t2.pos = t1.pos + 1
                GROUP BY t1.tok, t2.tok HAVING count(*) >= 5
            )
            SELECT bi.x || ' ' || bi.y AS gram,
                   CAST(bi.cnt AS BIGINT) AS cnt,
                   CAST(bi.cnt * nn.n * 1000000 // (ux.c * uy.c) AS BIGINT)
                       AS lift_micros
            FROM bi, nn
            JOIN uni ux ON ux.tok = bi.x
            JOIN uni uy ON uy.tok = bi.y
            ORDER BY lift_micros DESC, gram ASC LIMIT 20
        """,
        # duplicate-substring removal: positional 8-gram first-occurrence
        # semantics over the literal gram strings (engine side uses 64-bit
        # gram hashes; a hash match certifies them collision-free here).
        # ORIGINAL-case tokens — span surgery must not alter kept text.
        "substring_dedup": r"""
WITH lists AS (
    SELECT doc_id, regexp_extract_all(text, '[^ \t\n\f\r]+') AS l FROM documents
),
toks AS (
    SELECT doc_id, l[i] AS tok, i AS pos
    FROM lists, unnest(range(1, len(l) + 1)) AS t(i)
),
grams AS (
    SELECT doc_id, pos,
           string_agg(tok, ' ') OVER w AS g,
           count(*) OVER w AS w_n
    FROM toks
    WINDOW w AS (PARTITION BY doc_id ORDER BY pos
                 ROWS BETWEEN CURRENT ROW AND 7 FOLLOWING)
),
g8 AS (SELECT doc_id, pos, g FROM grams WHERE w_n = 8),
ranked AS (
    SELECT doc_id, pos,
           row_number() OVER (PARTITION BY g ORDER BY doc_id, pos) AS rn
    FROM g8
),
dups AS (SELECT doc_id, pos FROM ranked WHERE rn > 1),
removed AS (
    SELECT DISTINCT t.doc_id, t.pos
    FROM toks t JOIN dups d
      ON t.doc_id = d.doc_id AND t.pos BETWEEN d.pos AND d.pos + 7
),
kept AS (
    SELECT t.doc_id, t.pos, t.tok
    FROM toks t LEFT JOIN removed r USING (doc_id, pos)
    WHERE r.pos IS NULL
),
agg AS (
    SELECT doc_id, string_agg(tok, ' ' ORDER BY pos) AS clean_text
    FROM kept GROUP BY doc_id
),
rem_n AS (SELECT doc_id, count(*) AS n_removed FROM removed GROUP BY doc_id)
SELECT d.doc_id,
       CAST(COALESCE(r.n_removed, 0) AS BIGINT) AS n_removed,
       COALESCE(a.clean_text, '') AS clean_text
FROM documents d
LEFT JOIN rem_n r USING (doc_id)
LEFT JOIN agg a USING (doc_id)
ORDER BY d.doc_id
""",
        # lines = fixed 8-token windows (the fixture is single-line text);
        # the twin groups by the literal line string — a hash match also
        # certifies the engine's 64-bit line hashing collision-free here
        "line_dedup": r"""
WITH lists AS (
    SELECT doc_id, regexp_extract_all(text, '[^ \t\n\f\r]+') AS l FROM documents
),
toks AS (
    SELECT doc_id, l[i] AS tok, i AS pos
    FROM lists, unnest(range(1, len(l) + 1)) AS t(i)
),
lines AS (
    SELECT doc_id, (pos - 1) // 8 AS line_no,
           string_agg(tok, ' ' ORDER BY pos) AS line
    FROM toks GROUP BY doc_id, (pos - 1) // 8
),
flag AS (
    SELECT doc_id, line_no, line,
           row_number() OVER (PARTITION BY line ORDER BY doc_id, line_no) AS rn
    FROM lines
),
agg AS (
    SELECT doc_id,
           count(*) FILTER (WHERE rn = 1) AS n_kept,
           count(*) FILTER (WHERE rn > 1) AS n_dropped,
           COALESCE(string_agg(line, ' ' ORDER BY line_no)
                    FILTER (WHERE rn = 1), '') AS clean_text
    FROM flag GROUP BY doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(a.n_kept, 0) AS BIGINT) AS n_kept,
       CAST(COALESCE(a.n_dropped, 0) AS BIGINT) AS n_dropped,
       COALESCE(a.clean_text, '') AS clean_text
FROM documents d LEFT JOIN agg a USING (doc_id) ORDER BY d.doc_id
""",
        # the engine side computed this through Misra-Gries summaries +
        # exact candidate verify — the result is exact, so the twin is the
        # plain full-corpus top-5 count
        "heavy_hitters": f"""
            {_TOKS}
            SELECT tok AS term, CAST(count(*) AS BIGINT) AS cnt FROM toks
            GROUP BY tok ORDER BY cnt DESC, term LIMIT 5
        """,
        # same full-corpus truth — the engine side answered from an index
        # built incrementally (base build + extend_index delta append)
        "delta_bm25": _BM25_SQL,
        # same again — the engine side answered from the COMPACTED copy of
        # the extended index (shard merge must change nothing logical)
        "compact_bm25": _BM25_SQL,
        "ranked_and": f"""
            {_TOKS}, tf AS (
                SELECT doc_id, tok, count(*) AS tf FROM toks
                WHERE tok IN ('spark','join') GROUP BY doc_id, tok)
            SELECT doc_id, CAST(min(tf) AS BIGINT) AS tf_min FROM tf
            GROUP BY doc_id HAVING count(DISTINCT tok) = 2 ORDER BY doc_id
        """,
        "ranked_or": f"""
            {_TOKS}, tf AS (
                SELECT doc_id, tok, count(*) AS tf FROM toks
                WHERE tok IN ('spark','join') GROUP BY doc_id, tok)
            SELECT doc_id, CAST(max(tf) AS BIGINT) AS tf_max FROM tf
            GROUP BY doc_id ORDER BY doc_id
        """,
        "unranked_and": f"""
            {_TOKS}, tf AS (
                SELECT doc_id, tok FROM toks
                WHERE tok IN ('spark','join') GROUP BY doc_id, tok)
            SELECT doc_id FROM tf GROUP BY doc_id
            HAVING count(*) = 2 ORDER BY doc_id
        """,
        # #ANDNOT twin: the ranked_or aggregate minus any doc containing
        # the excluded term
        "ranked_andnot": f"""
            {_TOKS}, tf AS (
                SELECT doc_id, tok, count(*) AS tf FROM toks
                WHERE tok IN ('spark','join') GROUP BY doc_id, tok)
            SELECT doc_id, CAST(max(tf) AS BIGINT) AS tf_max FROM tf
            WHERE doc_id NOT IN (SELECT doc_id FROM toks WHERE tok = 'slow')
            GROUP BY doc_id ORDER BY doc_id
        """,
        "near1_tf": _NEAR1_SQL,
        # passage twin: every (doc, match-start) window rescanned with a
        # positional self-join, per-window micros, per-doc argmax (ties →
        # earliest start), global (micros desc, doc) order
        "passage_bm25": f"""
            {_POS_TOKS},
            nn AS (SELECT count(*) AS n FROM documents),
            dft AS (SELECT tok, count(DISTINCT doc_id) AS df FROM toks
                    WHERE tok IN ('spark', 'join') GROUP BY tok),
            idf AS (SELECT tok, ln((n - df + 0.5) / (df + 0.5)) AS w
                    FROM dft, nn),
            mpos AS (SELECT doc_id, pos FROM toks
                     WHERE tok IN ('spark', 'join')),
            cnt AS (
                SELECT m.doc_id, m.pos AS s, t.tok, count(*) AS c
                FROM mpos m JOIN toks t
                  ON t.doc_id = m.doc_id
                 AND t.pos >= m.pos AND t.pos < m.pos + 16
                 AND t.tok IN ('spark', 'join')
                GROUP BY m.doc_id, m.pos, t.tok
            ),
            wsc AS (
                SELECT doc_id, s,
                       CAST(round(sum(idf.w * (c / (c + 1.2))) * 1000000)
                            AS BIGINT) AS m
                FROM cnt JOIN idf USING (tok)
                GROUP BY doc_id, s
            ),
            best AS (
                SELECT doc_id, s, m,
                       row_number() OVER (
                           PARTITION BY doc_id ORDER BY m DESC, s ASC) AS rn
                FROM wsc
            )
            SELECT CAST(row_number() OVER (ORDER BY m DESC, doc_id) AS BIGINT)
                       AS rank,
                   doc_id,
                   CAST(s - 1 AS BIGINT) AS start_pos,
                   m AS score_micros
            FROM best WHERE rn = 1
            ORDER BY m DESC, doc_id LIMIT 10
        """,
        # phrase_accel shares near1_tf's oracle VERBATIM: the materialized
        # phrase store must be indistinguishable from evaluating #NEAR/1 —
        # the hash proves the acceleration exact (the salted-path pattern)
        "phrase_accel": _NEAR1_SQL,
        "near2_docs": f"""
            {_POS_TOKS}
            SELECT DISTINCT a.doc_id
            FROM toks a JOIN toks b
              ON a.doc_id = b.doc_id AND b.pos > a.pos AND b.pos <= a.pos + 2
            WHERE a.tok = 'spark' AND b.tok = 'join'
            ORDER BY a.doc_id
        """,
        "window_docs": f"""
            {_POS_TOKS}
            SELECT DISTINCT a.doc_id
            FROM toks a JOIN toks b
              ON a.doc_id = b.doc_id AND abs(b.pos - a.pos) <= 2 AND b.pos <> a.pos
            WHERE a.tok = 'spark' AND b.tok = 'join'
            ORDER BY a.doc_id
        """,
        "syn_tf": f"""
            {_TOKS}
            SELECT doc_id, CAST(count(*) AS BIGINT) AS tf FROM toks
            WHERE tok IN ('spark','join') GROUP BY doc_id ORDER BY doc_id
        """,
        "indri_and": _indri_sql(None, product=True),
        "indri_wand": _indri_sql((0.7, 0.3), product=True),
        "indri_wsum": _indri_sql((0.7, 0.3), product=False),
        "sdm_topk": _sdm_sql(),
        "cascade_rerank": _cascade_sql(),
        "search_after": _SEARCH_AFTER_SQL,
        "canary_scan": _CANARY_SQL,
        "shard_ranking": _cori_rank_sql(),
        "selective_bm25": _selective_bm25_sql(),
        # Bloom routing twin: per-shard vocabularies (the same plain
        # tokenization the partitioned build indexes), each term's k bit
        # positions via the md5 PRF pair (h2 forced odd), membership =
        # all k probe positions present in the shard's set bits
        "bloom_route": r"""
        WITH probes(term) AS (VALUES ('spark'), ('join'), ('qzx7nope')),
        ks(i) AS (VALUES (0), (1), (2)),
        vocab AS (
            SELECT DISTINCT (doc_id % 4) AS shard, lower(tok) AS term
            FROM (SELECT doc_id,
                         unnest(regexp_extract_all(text, '[^ \t\n\f\r]+')) AS tok
                  FROM documents)
        ),
        setbits AS (
            SELECT DISTINCT shard,
                   CAST((CAST(md5_number_lower(term) AS HUGEINT)
                         + i * (CAST(md5_number_lower('2:' || term) AS HUGEINT)
                                - CAST(md5_number_lower('2:' || term) AS HUGEINT) % 2
                                + 1)) % 4096 AS BIGINT) AS pos
            FROM vocab, ks
        ),
        probe_pos AS (
            SELECT term, i,
                   CAST((CAST(md5_number_lower(term) AS HUGEINT)
                         + i * (CAST(md5_number_lower('2:' || term) AS HUGEINT)
                                - CAST(md5_number_lower('2:' || term) AS HUGEINT) % 2
                                + 1)) % 4096 AS BIGINT) AS pos
            FROM probes, ks
        ),
        shards AS (SELECT DISTINCT shard FROM vocab),
        hits AS (
            SELECT s.shard, p.term, count(DISTINCT p.i) AS nhit
            FROM probe_pos p
            JOIN setbits s ON s.pos = p.pos
            GROUP BY s.shard, p.term
        )
        SELECT CAST(sh.shard AS BIGINT) AS shard, pr.term,
               CAST(CASE WHEN COALESCE(h.nhit, 0) = 3 THEN 1 ELSE 0 END
                    AS BIGINT) AS might_contain
        FROM shards sh CROSS JOIN probes pr
        LEFT JOIN hits h ON h.shard = sh.shard AND h.term = pr.term
        ORDER BY shard, pr.term
        """,
        "cori_merge": _cori_merge_sql(),
        "shard_balance": _SHARD_BALANCE_SQL,
        "fb_expansion": _FB_EXPANSION_SQL,
        # writer→reader roundtrip: parsed scores are repr(float)-exact, so
        # the micro-rounded ranking must equal the BM25 SQL twin's
        "trec_roundtrip": f"""
        SELECT 'doc' || printf('%010d', doc_id) AS extid, score_micros
        FROM ({_BM25_SQL}) t
        ORDER BY score_micros DESC, extid
        """,
        # the file-fed initial ranking must reproduce the in-memory one
        # exactly → fb_expansion's oracle verbatim
        "fb_from_file": _FB_EXPANSION_SQL,
        # md5_number_lower % 100 replay of the deterministic split
        "split_assign": """
        SELECT doc_id,
            CAST(md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 AS BIGINT)
                AS bucket,
            CASE WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < 10
                     THEN 'test'
                 WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < 20
                     THEN 'val'
                 ELSE 'train' END AS split
        FROM documents ORDER BY doc_id
        """,
        # list-slicing replay of the sliding windows; md5 certifies every
        # chunk's exact text
        "chunking": r"""
        WITH l AS (
            SELECT doc_id, regexp_extract_all(text, '[^ \t\n\f\r]+') AS w
            FROM documents),
        c AS (
            SELECT doc_id,
                CAST(s // 48 AS BIGINT) AS chunk_id,
                CAST(s AS BIGINT) AS start_tok,
                CAST(least(64, len(w) - s) AS BIGINT) AS n_tokens,
                array_to_string(w[s + 1 : least(s + 64, len(w))], ' ') AS piece
            FROM l, unnest(range(0, len(w), 48)) AS t(s))
        SELECT doc_id, chunk_id, start_tok, n_tokens,
            CAST(CASE WHEN md5_number_lower(piece)::HUGEINT
                          >= 9223372036854775808::HUGEINT
                 THEN md5_number_lower(piece)::HUGEINT
                      - 18446744073709551616::HUGEINT
                 ELSE md5_number_lower(piece)::HUGEINT END AS BIGINT)
                AS chunk_fp
        FROM c ORDER BY doc_id, chunk_id
        """,
        # NFC -> control strip -> whitespace collapse, same order as the
        # engine; chr(769)/chr(776) are the combining accents the synthesis
        # appends
        "text_norm": r"""
        WITH s0 AS (
            SELECT doc_id,
                text || '  cafe' || chr(769) || '  nai' || chr(776)
                     || 've' || chr(7) || 'end  ' AS t
            FROM documents),
        n1 AS (SELECT doc_id, nfc_normalize(t) AS t FROM s0),
        n2 AS (
            SELECT doc_id,
                regexp_replace(t, '[\x00-\x08\x0e-\x1f\x7f]', '', 'g') AS t
            FROM n1),
        n3 AS (
            SELECT doc_id,
                trim(regexp_replace(t, '[ \t\n\r\f\v]+', ' ', 'g')) AS t
            FROM n2)
        SELECT doc_id, t AS norm_text,
            CAST(CASE WHEN md5_number_lower(t)::HUGEINT
                          >= 9223372036854775808::HUGEINT
                 THEN md5_number_lower(t)::HUGEINT
                      - 18446744073709551616::HUGEINT
                 ELSE md5_number_lower(t)::HUGEINT END AS BIGINT) AS norm_fp
        FROM n3 ORDER BY doc_id
        """,
        # closed-form replay of the 8x8 -> 4x4 exact area pooling over the
        # formula-synthesized pixel grid
        "mm_resize": """
        WITH grid AS (
            SELECT doc_id, r, c
            FROM documents, unnest(range(0, 4)) t1(r),
                 unnest(range(0, 4)) t2(c)),
        vals AS (
            SELECT doc_id, r, c,
                ( ((doc_id * 31 + (2 * r) * 8 + 2 * c) % 251)
                + ((doc_id * 31 + (2 * r) * 8 + 2 * c + 1) % 251)
                + ((doc_id * 31 + (2 * r + 1) * 8 + 2 * c) % 251)
                + ((doc_id * 31 + (2 * r + 1) * 8 + 2 * c + 1) % 251)
                ) / 4.0 AS v
            FROM grid)
        SELECT doc_id, CAST(r AS BIGINT) AS r, CAST(c AS BIGINT) AS c,
            CAST(round(v * 1000000) AS BIGINT) AS v_micros
        FROM vals ORDER BY doc_id, r, c
        """,
        # closed-form replay of the 4-byte-window frame energies over the
        # formula-synthesized payload
        "mm_audio": """
        WITH fr AS (
            SELECT doc_id, f FROM documents, unnest(range(0, 16)) t(f)),
        vals AS (
            SELECT doc_id, f,
                ( ((doc_id + 4 * f) % 256) + ((doc_id + 4 * f + 1) % 256)
                + ((doc_id + 4 * f + 2) % 256) + ((doc_id + 4 * f + 3) % 256)
                ) / 4.0 AS v
            FROM fr)
        SELECT doc_id, CAST(f AS BIGINT) AS frame,
            CAST(round(v * 1000000) AS BIGINT) AS energy_micros
        FROM vals ORDER BY doc_id, frame
        """,
        # closed-form replay of the uniform-stride frame stripes: feature
        # k of frame f = mean of payload bytes (doc_id+f+8k)%256 and
        # (doc_id+f+8k+4)%256
        "mm_video": """
        WITH fr AS (
            SELECT doc_id, f, k
            FROM documents, unnest(range(0, 4)) t1(f),
                 unnest(range(0, 16)) t2(k)),
        vals AS (
            SELECT doc_id, f, k,
                ( ((doc_id + f + 8 * k) % 256)
                + ((doc_id + f + 8 * k + 4) % 256) ) / 2.0 AS v
            FROM fr)
        SELECT doc_id, CAST(f AS BIGINT) AS frame_idx,
            CAST(k AS BIGINT) AS dim,
            CAST(round(v * 1000000) AS BIGINT) AS v_micros
        FROM vals ORDER BY doc_id, frame_idx, dim
        """,
        # unrolled greedy MMR twin (PageRank-oracle precedent)
        "mmr_rerank": _mmr_sql(),
        # LIKE + window replay of autocomplete over the corpus vocabulary
        # wildcard twin: #SYN over the s* expansion merges positions, so
        # per-doc tf = count of prefix-matching tokens
        "wildcard_tf": f"""
            {_TOKS}
            SELECT doc_id, CAST(count(*) AS BIGINT) AS tf FROM toks
            WHERE tok LIKE 's%' GROUP BY doc_id ORDER BY doc_id
        """,
        "fuzzy_tf": f"""
            {_TOKS}
            SELECT doc_id, CAST(count(*) AS BIGINT) AS tf FROM toks
            WHERE levenshtein('scam', tok) <= 1
            GROUP BY doc_id ORDER BY doc_id
        """,
        "prefix_suggest": f"""
        {{toks}}
        , vocab AS (
            SELECT tok AS term, count(*)::BIGINT AS ctf FROM toks GROUP BY tok),
        q(prefix) AS (VALUES ('s'), ('jo'), ('win')),
        cand AS (
            SELECT q.prefix, v.term, v.ctf
            FROM q JOIN vocab v ON v.term LIKE q.prefix || '%'),
        ranked AS (
            SELECT *, row_number() OVER (
                PARTITION BY prefix ORDER BY ctf DESC, term) AS rank
            FROM cand)
        SELECT prefix, CAST(rank AS BIGINT) AS rank, term AS suggestion, ctf
        FROM ranked WHERE rank <= 5 ORDER BY prefix, rank
        """.format(toks=_TOKS),
        # exact levenshtein over the corpus vocabulary — the engine's
        # deletes prefilter must over-select only, never drop a candidate
        "spell_correct": f"""
        {{toks}}
        , vocab AS (
            SELECT tok AS term, count(*)::BIGINT AS ctf FROM toks GROUP BY tok),
        q(qtoken) AS (VALUES ('spork'), ('joib'), ('join')),
        cand AS (
            SELECT q.qtoken, v.term, v.ctf,
                CAST(levenshtein(q.qtoken, v.term) AS BIGINT) AS distance
            FROM q CROSS JOIN vocab v
            WHERE levenshtein(q.qtoken, v.term) <= 1),
        ranked AS (
            SELECT *, row_number() OVER (
                PARTITION BY qtoken ORDER BY distance, ctf DESC, term) AS rank
            FROM cand)
        SELECT qtoken, CAST(rank AS BIGINT) AS rank, term AS suggestion,
               distance, ctf
        FROM ranked WHERE rank <= 3 ORDER BY qtoken, rank
        """.format(toks=_TOKS),
        # closed-form deny condition of the synthesized robots rules: path
        # /p/{doc_id%10}/... is disallowed when doc_id%10 == host_k%7
        "robots_filter": """
        SELECT doc_id,
            source || '.example.com' AS host,
            '/p/' || (doc_id % 10) || '/x' || doc_id AS path,
            CAST(CASE WHEN (doc_id % 10)
                          = (CAST(substr(source, 4) AS BIGINT) % 7)
                 THEN 0 ELSE 1 END AS BIGINT) AS allowed
        FROM documents ORDER BY doc_id
        """,
        # partitioned-sink roundtrip: the read-back must be the corpus
        "resumable_sink": """
        SELECT doc_id, source, n_chars FROM documents ORDER BY doc_id
        """,
        # WARC roundtrip: the reader's output stated closed-form from the
        # synthesis template (md5 certifies every payload byte survived the
        # write → [gzip] → record-walk → HTTP-strip path)
        "warc_ingest": """
        SELECT 'https://warc.example/' || CAST(doc_id AS VARCHAR) AS url,
               CAST(1236000000 + doc_id AS BIGINT) AS ts_epoch,
               CAST(strlen(html) AS BIGINT) AS n_bytes,
               md5(html) AS html_md5
        FROM (SELECT doc_id,
                     '<html><body><p>' || COALESCE(text, '')
                         || '</p></body></html>' AS html
              FROM documents)
        ORDER BY url
        """,
        # Elias-Fano twin: the format's closed-form facts in integer
        # arithmetic — l = bit_length(U//n)-1 via bin(), exact byte size,
        # id-sum losslessness certificate
        "ef_docsets": """
        WITH u AS (SELECT count(*) AS universe FROM documents),
        g AS (SELECT source, count(*) AS n_docs, sum(doc_id) AS id_sum
              FROM documents GROUP BY source),
        c AS (SELECT source, n_docs, universe, id_sum,
                     CASE WHEN universe // n_docs >= 1
                          THEN length(ltrim(bin(universe // n_docs), '0')) - 1
                          ELSE 0 END AS l_bits
              FROM g, u)
        SELECT source,
               CAST(n_docs AS BIGINT) AS n_docs,
               CAST(universe AS BIGINT) AS universe,
               CAST(l_bits AS BIGINT) AS l_bits,
               CAST(16 + (n_docs * l_bits + 7) // 8
                    + ((n_docs + ((universe - 1) >> l_bits) + 1) + 7) // 8
                    AS BIGINT) AS ef_bytes,
               CAST(id_sum AS BIGINT) AS id_sum
        FROM c ORDER BY source
        """,
        # the CLI main flow writes the same run the roundtrip entry checks
        "cli_query": f"""
        SELECT 'doc' || printf('%010d', doc_id) AS extid, score_micros
        FROM ({_BM25_SQL}) t
        ORDER BY score_micros DESC, extid
        """,
        # replay of q_inlink_join's link synthesis: each page receives two
        # deterministic inbound anchors of 3 tokens each; tf('alpha') counts
        # the e1-family anchors
        "inlink_join": """
        WITH nn AS (SELECT count(*) AS n FROM documents),
        e AS (
            SELECT (doc_id * 7 + 3) % n AS dst, 1 AS is_alpha
            FROM documents, nn
            UNION ALL
            SELECT (doc_id * 13 + 1) % n, 0 FROM documents, nn),
        agg AS (
            SELECT dst AS doc_id, 3 * count(*) AS inlink_doclen,
                   sum(is_alpha) AS alpha_tf
            FROM e GROUP BY dst)
        SELECT d.doc_id,
            CAST(COALESCE(agg.inlink_doclen, 0) AS BIGINT) AS inlink_doclen,
            CAST(COALESCE(agg.alpha_tf, 0) AS BIGINT) AS alpha_tf
        FROM documents d LEFT JOIN agg USING (doc_id) ORDER BY doc_id
        """,
        "letor_core": _LETOR_CORE_SQL,
        # SVMlight writer roundtrip: repr-float values parse back exactly,
        # so the letor_core twin wrapped with the rel/extid rendering holds
        "svmlight_roundtrip": f"""
        SELECT 'doc' || printf('%010d', doc_id) AS extid,
               CAST(doc_id % 3 AS BIGINT) AS rel,
               f5_micros, f6_micros, f7_micros, f17_micros
        FROM ({_LETOR_CORE_SQL}) t ORDER BY extid
        """,
        "letor_features": _letor_features_sql(),
        "letor_rerank": _letor_rerank_sql(),
        "letor_from_clicks": _letor_from_clicks_sql(),
        "letor_rerank_svmrank": _letor_rerank_svmrank_sql(),
        "syn_root_tf": f"""
            {_TOKS},
            tf AS (SELECT doc_id, count(*) AS tf FROM toks
                   WHERE tok IN ('spark','join') GROUP BY doc_id),
            ranked AS (
                SELECT doc_id, tf,
                       row_number() OVER (ORDER BY tf DESC, doc_id) AS rank
                FROM tf
            )
            SELECT CAST(rank AS BIGINT) AS rank, doc_id, CAST(tf AS BIGINT) AS tf
            FROM ranked WHERE rank <= 100 ORDER BY rank
        """,
        "term_stats": f"""
            {_TOKS}
            SELECT tok AS term,
                   CAST(count(DISTINCT doc_id) AS BIGINT) AS df,
                   CAST(count(*) AS BIGINT) AS ctf
            FROM toks GROUP BY tok ORDER BY term
        """,
        "kstem_term_stats": _kstem_sql(),
        "click_model": _click_model_sql(),
        "param_sweep": _param_sweep_sql(),
        "ips_ctr": _ips_ctr_sql(),
        "texttiling": r"""
            WITH lists AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[^ \t\n\f\r]+') AS l
                FROM documents
            ),
            toks AS (
                SELECT doc_id, CAST((i - 1) // 10 AS BIGINT) AS blk, l[i] AS tok
                FROM lists, unnest(range(1, len(l) + 1)) t(i)
            ),
            cnt AS (SELECT doc_id, blk, tok, count(*) AS c
                    FROM toks GROUP BY doc_id, blk, tok),
            nrm AS (SELECT doc_id, blk, sum(c * c) AS n2
                    FROM cnt GROUP BY doc_id, blk),
            dot AS (
                SELECT a.doc_id, a.blk AS g, sum(a.c * b.c) AS dp
                FROM cnt a JOIN cnt b
                  ON b.doc_id = a.doc_id AND b.blk = a.blk + 1 AND b.tok = a.tok
                GROUP BY a.doc_id, a.blk
            ),
            sim AS (
                SELECT n1.doc_id, n1.blk AS gap,
                       CASE WHEN n1.n2 = 0 OR n2.n2 = 0 THEN 0
                            ELSE CAST(floor(coalesce(d.dp, 0)
                                    / (sqrt(n1.n2) * sqrt(n2.n2))
                                    * 1000000 + 0.5) AS BIGINT)
                       END AS sim_micros
                FROM nrm n1
                JOIN nrm n2 ON n2.doc_id = n1.doc_id AND n2.blk = n1.blk + 1
                LEFT JOIN dot d ON d.doc_id = n1.doc_id AND d.g = n1.blk
            ),
            mk AS (
                SELECT doc_id, gap, sim_micros,
                       coalesce(lag(sim_micros) OVER w, 9223372036854775807) AS lft,
                       coalesce(lead(sim_micros) OVER w, 9223372036854775807) AS rgt
                FROM sim WINDOW w AS (PARTITION BY doc_id ORDER BY gap)
            )
            SELECT doc_id, gap, sim_micros,
                   CAST(CASE WHEN sim_micros <= lft AND sim_micros <= rgt
                                  AND sim_micros < 500000
                             THEN 1 ELSE 0 END AS BIGINT) AS boundary
            FROM mk ORDER BY doc_id, gap
        """,
        "embedding_decontam": r"""
            WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb
                       FROM embeddings WHERE vec_id % 19 = 0),
            t AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS emb
                  FROM embeddings WHERE vec_id % 19 <> 0),
            pc AS (
                SELECT t.vec_id,
                       max(CASE WHEN list_dot_product(t.emb, t.emb) = 0
                                  OR list_dot_product(e.emb, e.emb) = 0 THEN 0
                                ELSE CAST(floor(list_cosine_similarity(t.emb, e.emb)
                                                * 1000000 + 0.5) AS BIGINT) END) AS mc
                FROM t CROSS JOIN e GROUP BY t.vec_id
            )
            SELECT vec_id, mc AS max_cos_micros,
                   CAST(CASE WHEN mc >= 460000 THEN 1 ELSE 0 END AS BIGINT)
                       AS contaminated
            FROM pc ORDER BY vec_id
        """, 
        "fasttext_score": r"""
            WITH l AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[^ \t\n\f\r]+') AS w
                FROM documents
            ),
            uni AS (SELECT doc_id, unnest(w) AS g FROM l),
            bi AS (
                SELECT doc_id, w[i] || ' ' || w[i + 1] AS g
                FROM l, unnest(range(1, len(w))) t(i)
            ),
            grams AS (SELECT * FROM uni UNION ALL SELECT * FROM bi),
            sc AS (
                SELECT doc_id,
                       CAST(sum(md5_number_lower(
                                'w|' || (md5_number_lower('ft|' || g) % 4096)
                            ) % 2001) AS BIGINT) AS sw,
                       count(*) AS cnt
                FROM grams GROUP BY doc_id
            )
            SELECT doc_id,
                   CAST(sw * 1000 // cnt - 1000000 AS BIGINT) AS score_micros,
                   CAST(CASE WHEN sw * 1000 // cnt - 1000000 >= 0
                             THEN 1 ELSE 0 END AS BIGINT) AS keep
            FROM sc ORDER BY doc_id
        """,
        # full postings content (every (term, doc, tf) cell of the inverted
        # index) — the engine side decoded it back out of the varbyte shards
        "postings_export": f"""
            {_TOKS}
            SELECT tok AS term, doc_id, CAST(count(*) AS BIGINT) AS tf
            FROM toks GROUP BY tok, doc_id ORDER BY term, doc_id
        """,
        "doclen_stats": f"""
            {_TOKS}
            SELECT doc_id, CAST(count(*) AS BIGINT) AS doclen
            FROM toks GROUP BY doc_id ORDER BY doc_id
        """,
        "dedup_exact": """
            SELECT doc_id, min(doc_id) OVER (PARTITION BY text) AS cluster_id
            FROM documents ORDER BY doc_id
        """,
        "dedup_minhash": _jaccard_sql("AND y.doc_id > x.doc_id") + _JACCARD_08,
        "mm_wav_decode": """
            WITH d AS (
                SELECT doc_id,
                       64 + (doc_id % 5) * 16 AS n,
                       8000 + (doc_id % 3) * 4000 AS sr
                FROM documents
            ),
            s AS (
                SELECT d.doc_id, d.sr, d.n, i.i,
                       abs((d.doc_id * 13 + i.i * 7) % 2048 - 1024) AS a,
                       i.i * 8 // d.n AS frame
                FROM d, unnest(range(0, d.n)) i(i)
            )
            SELECT doc_id,
                   CAST(max(sr) AS BIGINT) AS sample_rate,
                   CAST(frame AS BIGINT) AS frame,
                   CAST(sum(a) * 1000000 // count(*) AS BIGINT) AS energy_micros
            FROM s GROUP BY doc_id, frame
            ORDER BY doc_id, frame
        """,
        "mm_pnm_decode": """
            WITH d AS (
                SELECT doc_id,
                       4 + doc_id % 3 AS w,
                       3 + doc_id % 2 AS h
                FROM documents
            ),
            px AS (
                SELECT d.doc_id, d.w, d.h,
                       (d.doc_id * 31 + y.y * 7 + x.x * 3 + c.c * 11) % 256 AS v
                FROM d,
                     unnest(range(0, d.h)) y(y),
                     unnest(range(0, d.w)) x(x),
                     unnest(range(0, 3)) c(c)
            ),
            s AS (
                SELECT doc_id, max(w) AS w, max(h) AS h,
                       sum(v) AS sv, count(*) AS n
                FROM px GROUP BY doc_id
            ),
            lum AS (
                SELECT d.doc_id,
                       sum((  (d.doc_id * 31 + y.y * 7 + x.x * 3) % 256
                            + (d.doc_id * 31 + y.y * 7 + x.x * 3 + 11) % 256
                            + (d.doc_id * 31 + y.y * 7 + x.x * 3 + 22) % 256) // 3)
                           AS sl
                FROM d,
                     unnest(range(0, d.h)) y(y),
                     unnest(range(0, d.w)) x(x)
                GROUP BY d.doc_id
            )
            SELECT s.doc_id,
                   CAST(s.h AS BIGINT) AS px_h,
                   CAST(s.w AS BIGINT) AS px_w,
                   CAST(s.sv * 1000000 // s.n AS BIGINT) AS mean_micros,
                   CAST(lum.sl AS BIGINT) AS lum_sum
            FROM s JOIN lum USING (doc_id)
            ORDER BY s.doc_id
        """,
        # closed-form replay of the QOI corpus pixels (seg/5 segments,
        # mode = seg%3 selects constant/DIFF/LUMA ramps, 2-segment color
        # cycle, per-segment alpha on odd docs) — never parses the stream
        "mm_qoi_decode": """
            WITH d AS (
                SELECT doc_id,
                       4 + doc_id % 3 AS w,
                       3 + doc_id % 2 AS h,
                       CASE WHEN doc_id % 2 = 0 THEN 3 ELSE 4 END AS channels
                FROM documents
            ),
            px AS (
                SELECT d.doc_id, d.w, d.h, d.channels, i.i,
                       i.i // 5 AS seg, i.i % 5 AS j,
                       (i.i // 5) % 3 AS mode
                FROM d, unnest(range(0, d.w * d.h)) i(i)
            ),
            rgba AS (
                SELECT doc_id, w, h, channels, i,
                       (doc_id * 7 + (seg % 2) * 37
                        + CASE WHEN mode = 1 THEN j
                               WHEN mode = 2 THEN 8 * j ELSE 0 END) % 256 AS r,
                       (doc_id * 3 + (seg % 2) * 61
                        + CASE WHEN mode = 2 THEN 9 * j ELSE 0 END) % 256 AS g,
                       (doc_id * 13 + (seg % 2) * 29
                        + CASE WHEN mode = 1 THEN j
                               WHEN mode = 2 THEN 9 * j ELSE 0 END) % 256 AS b,
                       CASE WHEN channels = 3 THEN 255
                            ELSE 128 + (doc_id + seg * 17) % 128 END AS a
                FROM px
            )
            SELECT doc_id,
                   CAST(max(w) AS BIGINT) AS px_w,
                   CAST(max(h) AS BIGINT) AS px_h,
                   CAST(max(channels) AS BIGINT) AS channels,
                   CAST(sum(r + g + b + a) AS BIGINT) AS rgba_sum,
                   CAST(sum((r + g + b + a) * (i + 1)) AS BIGINT) AS wsum
            FROM rgba GROUP BY doc_id ORDER BY doc_id
        """,
        "mm_bmp_decode": """
            WITH d AS (
                SELECT doc_id,
                       3 + doc_id % 4 AS w,
                       2 + doc_id % 3 AS h,
                       CASE WHEN doc_id % 4 = 1 THEN 16
                            WHEN doc_id % 4 = 2 THEN 8
                            ELSE 24 END AS bpp
                FROM documents
            ),
            px AS (
                SELECT d.doc_id, d.w, d.h, d.bpp, y.y, x.x,
                       (d.doc_id * 11 + y.y * 6 + x.x * 2) % 32768 AS v16,
                       (d.doc_id + y.y * d.w + x.x) % 256 AS pidx
                FROM d,
                     unnest(range(0, d.h)) y(y),
                     unnest(range(0, d.w)) x(x)
            ),
            rgb AS (
                SELECT doc_id, w, h, bpp, y, x,
                       CASE WHEN bpp = 24 THEN (doc_id*7 + y*5 + x*3 + 18) % 256
                            WHEN bpp = 16 THEN (v16 // 1024) * 8 + (v16 // 1024) // 4
                            ELSE (pidx * 7) % 256 END AS r,
                       CASE WHEN bpp = 24 THEN (doc_id*7 + y*5 + x*3 + 9) % 256
                            WHEN bpp = 16 THEN ((v16 // 32) % 32) * 8 + ((v16 // 32) % 32) // 4
                            ELSE (pidx * 5) % 256 END AS g,
                       CASE WHEN bpp = 24 THEN (doc_id*7 + y*5 + x*3) % 256
                            WHEN bpp = 16 THEN (v16 % 32) * 8 + (v16 % 32) // 4
                            ELSE (pidx * 3) % 256 END AS b
                FROM px
            )
            SELECT doc_id,
                   CAST(max(w) AS BIGINT) AS px_w,
                   CAST(max(h) AS BIGINT) AS px_h,
                   CAST(max(bpp) AS BIGINT) AS bpp,
                   CAST(sum(r + g + b) AS BIGINT) AS rgb_sum,
                   CAST(sum((r + g + b) * (y * w + x + 1)) AS BIGINT) AS wsum
            FROM rgb GROUP BY doc_id ORDER BY doc_id
        """,
        # the five-stage ingestion lifecycle replayed declaratively: crawl
        # synthesis → FULL OUTER fingerprint diff (text equality ≡ md5-fp
        # equality for this synthesis: ' v2' always changes the normalized
        # text) → status semi-join → exact-content NOT IN dedup → all-pairs
        # trigram Jaccard vs the archive → BM25 over archive ∪ survivors
        "crawl_cycle": f"""
            WITH oldc AS (
                SELECT doc_id, coalesce(text, '') AS text
                FROM documents WHERE doc_id % 10 <> 0
            ),
            newc AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 10 = 2
                            THEN coalesce(text, '') || ' v2'
                            ELSE coalesce(text, '') END AS text
                FROM documents WHERE doc_id % 10 <> 1
            ),
            cls AS (
                SELECT coalesce(o.doc_id, n.doc_id) AS doc_id,
                       CASE WHEN o.doc_id IS NULL THEN 'added'
                            WHEN n.doc_id IS NULL THEN 'removed'
                            WHEN o.text = n.text THEN 'unchanged'
                            ELSE 'changed' END AS status
                FROM oldc o FULL OUTER JOIN newc n USING (doc_id)
            ),
            ingest AS (
                SELECT n.doc_id, n.text FROM newc n JOIN cls USING (doc_id)
                WHERE cls.status IN ('added', 'changed')
            ),
            fresh AS (
                SELECT * FROM ingest
                WHERE text NOT IN (SELECT text FROM oldc)
            ),
            lo AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS w FROM oldc),
            lf AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS w FROM fresh),
            so AS (SELECT DISTINCT doc_id, concat(w[i], ' ', w[i+1], ' ', w[i+2]) AS g
                   FROM lo, unnest(range(1, len(w) - 1)) t(i)),
            sfr AS (SELECT DISTINCT doc_id, concat(w[i], ' ', w[i+1], ' ', w[i+2]) AS g
                    FROM lf, unnest(range(1, len(w) - 1)) t(i)),
            co AS (SELECT doc_id, count(*) AS n FROM so GROUP BY doc_id),
            cf AS (SELECT doc_id, count(*) AS n FROM sfr GROUP BY doc_id),
            nd AS (
                SELECT DISTINCT i.b FROM (
                    SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
                    FROM so x JOIN sfr y ON x.g = y.g GROUP BY 1, 2
                ) i
                JOIN co ON co.doc_id = i.a
                JOIN cf ON cf.doc_id = i.b
                WHERE i.i * 1.0 / (co.n + cf.n - i.i) >= 0.8
            ),
            kept AS (
                SELECT doc_id + 1000000 AS doc_id, text FROM fresh
                WHERE doc_id NOT IN (SELECT b FROM nd)
            ),
            corpus AS (
                SELECT doc_id, text FROM oldc
                UNION ALL SELECT doc_id, text FROM kept
            ),
            ctoks AS (
                SELECT doc_id, lower(tok) AS tok
                FROM (SELECT doc_id,
                             unnest(regexp_extract_all(text, '[^ \\t\\n\\f\\r]+')) AS tok
                      FROM corpus)
            ),
            cdoclen AS (SELECT doc_id, count(*) AS dl FROM ctoks GROUP BY doc_id),
            cstats AS (
                SELECT (SELECT count(*) FROM corpus) AS n_docs,
                       (SELECT count(*) FROM cdoclen) AS doccount,
                       (SELECT sum(dl) FROM cdoclen) AS sum_dl
            ),
            ctf AS (
                SELECT doc_id, tok, count(*) AS tf FROM ctoks
                WHERE tok IN ('spark', 'join') GROUP BY doc_id, tok
            ),
            cdf AS (SELECT tok, count(*) AS df FROM ctf GROUP BY tok),
            cscores AS (
                SELECT ctf.doc_id,
                       sum( {_bm25_w(tf="ctf.tf", df="cdf.df", dl="cdoclen.dl", avgdl="cstats.sum_dl * 1.0 / cstats.doccount", n="cstats.n_docs")} ) AS score
                FROM ctf
                JOIN cdf USING (tok)
                JOIN cdoclen USING (doc_id)
                CROSS JOIN cstats
                GROUP BY ctf.doc_id
            ),
            top AS (
                SELECT doc_id, CAST(round(score * 1000000) AS BIGINT) AS sm
                FROM cscores ORDER BY sm DESC, doc_id LIMIT 20
            )
            SELECT 'bm25' AS kind, CAST(doc_id AS BIGINT) AS k1, sm AS k2 FROM top
            UNION ALL SELECT 'n_added', (SELECT count(*) FROM cls WHERE status = 'added'), -1
            UNION ALL SELECT 'n_removed', (SELECT count(*) FROM cls WHERE status = 'removed'), -1
            UNION ALL SELECT 'n_changed', (SELECT count(*) FROM cls WHERE status = 'changed'), -1
            UNION ALL SELECT 'n_unchanged', (SELECT count(*) FROM cls WHERE status = 'unchanged'), -1
            UNION ALL SELECT 'n_fresh', (SELECT count(*) FROM fresh), -1
            UNION ALL SELECT 'n_kept', (SELECT count(*) FROM kept), -1
            ORDER BY kind, k1, k2
        """,
        "incremental_neardup": _INCREMENTAL_NEARDUP_SQL,
        "incremental_neardup_warm": _INCREMENTAL_NEARDUP_SQL,
        "cluster_weights": _NEAR_DUP_REACH + """,
            clusters AS (
                SELECT src AS doc_id, min(dst) AS cluster_id
                FROM reach GROUP BY src
            ),
            sizes AS (SELECT cluster_id, count(*) AS weight FROM clusters GROUP BY cluster_id)
            SELECT c.doc_id, c.cluster_id,
                   CAST(s.weight AS BIGINT) AS weight,
                   CAST(c.doc_id = c.cluster_id AS BIGINT) AS keep
            FROM clusters c JOIN sizes s USING (cluster_id)
            ORDER BY c.doc_id
        """,
        "leakage_safe_split": _NEAR_DUP_REACH + """,
            clusters AS (
                SELECT src AS doc_id, min(dst) AS cluster_id
                FROM reach GROUP BY src
            )
            SELECT doc_id, cluster_id,
                   CASE WHEN md5_number_lower('ls|' || cluster_id) % 10 < 8 THEN 'train'
                        WHEN md5_number_lower('ls|' || cluster_id) % 10 = 8 THEN 'val'
                        ELSE 'test' END AS split
            FROM clusters ORDER BY doc_id
        """,
        "dedup_minhash_clusters": _NEAR_DUP_REACH + """
            SELECT src AS doc_id,
                   min(dst) AS cluster_id,
                   CAST(min(dst) <> src AS BIGINT) AS is_dup
            FROM reach GROUP BY src ORDER BY doc_id
        """,
        "simhash_values": f"""
            {_SIMHASH_SQL_U}
            SELECT doc_id,
                   CAST(CASE WHEN v >= 9223372036854775808::HUGEINT
                             THEN v - 18446744073709551616::HUGEINT
                             ELSE v END AS BIGINT) AS simhash
            FROM u ORDER BY doc_id
        """,
        "dedup_simhash": f"""
            {_SIMHASH_SQL_U}
            SELECT x.doc_id AS a, y.doc_id AS b,
                   CAST(bit_count(xor(CAST(x.v AS UBIGINT), CAST(y.v AS UBIGINT))) AS BIGINT) AS hamming
            FROM u x JOIN u y ON y.doc_id > x.doc_id
            WHERE bit_count(xor(CAST(x.v AS UBIGINT), CAST(y.v AS UBIGINT))) <= 3
            ORDER BY a, b
        """,
        "embedding_neardup": """
            SELECT x.vec_id AS a, y.vec_id AS b,
                   CAST(round(list_cosine_similarity(CAST(x.embedding AS DOUBLE[]), CAST(y.embedding AS DOUBLE[])) * 1000000) AS BIGINT) AS cosine_micros
            FROM embeddings x JOIN embeddings y ON y.vec_id > x.vec_id
            WHERE list_cosine_similarity(CAST(x.embedding AS DOUBLE[]), CAST(y.embedding AS DOUBLE[])) >= 0.46
            ORDER BY a, b
        """,
        "jaccard_pairs": r"""
            WITH l AS (
                SELECT doc_id, regexp_extract_all(text, '\S+') AS w FROM documents
                WHERE doc_id < 50
            ),
            sh AS (
                SELECT DISTINCT doc_id, concat(w[i], ' ', w[i+1], ' ', w[i+2]) AS g
                FROM l, unnest(range(1, len(w) - 1)) AS t(i)
            ),
            cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
            inter AS (
                SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
                FROM sh x JOIN sh y ON x.g = y.g AND y.doc_id = x.doc_id + 1
                WHERE x.doc_id % 2 = 0
                GROUP BY x.doc_id, y.doc_id
            )
            SELECT ca.doc_id AS a, cb.doc_id AS b,
                   CAST(round(coalesce(i.i, 0) * 1000000.0
                              / (ca.n + cb.n - coalesce(i.i, 0))) AS BIGINT)
                       AS jaccard_micros
            FROM cnt ca
            JOIN cnt cb ON cb.doc_id = ca.doc_id + 1
            LEFT JOIN inter i ON i.a = ca.doc_id
            WHERE ca.doc_id % 2 = 0
            ORDER BY a
        """,
        "setsim_pairs": _TOKEN_SET_PAIRS + r"""
            SELECT i.a, i.b,
                   CAST(round((i.i * 1.0 / (ca.n + cb.n - i.i)) * 1000000.0)
                        AS BIGINT) AS jaccard_micros
            FROM inter i
            JOIN cnt ca ON ca.doc_id = i.a
            JOIN cnt cb ON cb.doc_id = i.b
            WHERE 10 * i.i >= 9 * (ca.n + cb.n - i.i)
            ORDER BY a, b
        """,
        "edit_pairs": r"""
            WITH s AS (
                SELECT doc_id, substr(coalesce(text, ''), 1, 24) AS k
                FROM documents
            )
            SELECT a.doc_id AS a, b.doc_id AS b,
                   CAST(levenshtein(a.k, b.k) AS BIGINT) AS dist
            FROM s a JOIN s b ON a.doc_id < b.doc_id
            WHERE levenshtein(a.k, b.k) <= 2
            ORDER BY a, b
        """,
        "setsim_containment": _jaccard_sql("AND y.doc_id <> x.doc_id") + """
            SELECT i.a, i.b, CAST(i.i AS DOUBLE) / ca.n AS containment
            FROM inter i
            JOIN cnt ca ON ca.doc_id = i.a
            WHERE ca.n >= 8 AND 5 * i.i >= 4 * ca.n
            ORDER BY a, b
        """,
        "setsim_clusters": _TOKEN_SET_PAIRS + r""",
            p AS (
                SELECT i.a, i.b FROM inter i
                JOIN cnt ca ON ca.doc_id = i.a
                JOIN cnt cb ON cb.doc_id = i.b
                WHERE 10 * i.i >= 9 * (ca.n + cb.n - i.i)
            ),
            edges AS (SELECT a, b FROM p UNION SELECT b, a FROM p),
            reach AS (
                WITH RECURSIVE r(src, dst) AS (
                    SELECT doc_id, doc_id FROM documents
                    UNION
                    SELECT r.src, e.b FROM r JOIN edges e ON e.a = r.dst
                )
                SELECT src, dst FROM r
            )
            SELECT src AS doc_id,
                   min(dst) AS cluster_id,
                   CAST(min(dst) <> src AS BIGINT) AS is_dup
            FROM reach GROUP BY src ORDER BY doc_id
        """,
        "vocab_growth": r"""
            WITH tok AS (
                SELECT doc_id // 50 AS bkt,
                       unnest(regexp_extract_all(text, '[^ \t\n\f\r]+')) AS t
                FROM documents
            ),
            first AS (SELECT t, min(bkt) AS bucket FROM tok GROUP BY t),
            per AS (SELECT bucket, count(*) AS new_terms FROM first GROUP BY bucket)
            SELECT bucket, new_terms,
                   CAST(sum(new_terms) OVER (ORDER BY bucket) AS BIGINT)
                       AS vocab_size
            FROM per ORDER BY bucket
        """,
        "setsim_cross": r"""
            WITH tok AS (
                SELECT DISTINCT doc_id, source,
                       unnest(regexp_extract_all(text, '[^ \t\n\f\r]+')) AS t
                FROM documents
            ),
            cnt AS (SELECT doc_id, count(*) AS n FROM tok GROUP BY doc_id),
            inter AS (
                SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
                FROM (SELECT * FROM tok
                      WHERE source IN ('src0','src1','src2','src3','src4')) x
                JOIN (SELECT * FROM tok
                      WHERE source NOT IN ('src0','src1','src2','src3','src4')) y
                  ON x.t = y.t
                GROUP BY 1, 2
            )
            SELECT i.a, i.b,
                   CAST(round((i.i * 1.0 / (ca.n + cb.n - i.i)) * 1000000.0)
                        AS BIGINT) AS jaccard_micros
            FROM inter i
            JOIN cnt ca ON ca.doc_id = i.a
            JOIN cnt cb ON cb.doc_id = i.b
            WHERE 10 * i.i >= 9 * (ca.n + cb.n - i.i)
            ORDER BY a, b
        """,
        "ann_filtered": _cosine_top10_sql("WHERE label = 3"),
        "ann_cosine_topk": _cosine_top10_sql(),
        # SQ8: quantize/reconstruct/score with the exact f64 expressions
        # the engine uses; rank key is the micros-rounded cosine (ties →
        # vec_id) so ordering is accumulation-order independent
        "ann_sq_topk": """
            WITH e AS (
                SELECT vec_id, i - 1 AS dim,
                       CAST(embedding[i] AS DOUBLE) AS x
                FROM embeddings, unnest(range(1, len(embedding) + 1)) AS t(i)
            ),
            mm AS (SELECT dim, min(x) AS lo, max(x) AS hi FROM e GROUP BY dim),
            recon AS (
                SELECT e.vec_id, e.dim,
                       CASE WHEN hi > lo
                            THEN lo + round((x - lo) * 255.0 / (hi - lo))
                                      * (hi - lo) / 255.0
                            ELSE lo END AS r
                FROM e JOIN mm USING (dim)
            ),
            q AS (SELECT dim, x FROM e WHERE vec_id = 0),
            sc AS (
                SELECT r.vec_id,
                       sum(q.x * r.r) AS dot,
                       sqrt(sum(q.x * q.x)) AS qn,
                       sqrt(sum(r.r * r.r)) AS rn
                FROM recon r JOIN q USING (dim)
                GROUP BY r.vec_id
            ),
            micros AS (
                SELECT vec_id,
                       CAST(round(dot / (CASE WHEN rn > 0 THEN rn ELSE 1 END
                                         * qn) * 1000000) AS BIGINT)
                           AS cosine_micros
                FROM sc
            ),
            ranked AS (
                SELECT vec_id, cosine_micros,
                       row_number() OVER (
                           ORDER BY cosine_micros DESC, vec_id) AS rank
                FROM micros
            )
            SELECT CAST(rank AS BIGINT) AS rank, vec_id, cosine_micros
            FROM ranked WHERE rank <= 10 ORDER BY rank
        """,
        # PQ: the k-means replay with `sub` added to every group key —
        # 2 training iterations (c0→c1→c2), encode against c2 (a3), ADC
        # rank via integer micros per-sub distances (accumulation-order
        # independent by construction)
        "ann_pq_topk": r"""
            WITH pts AS (
                SELECT vec_id, CAST((i - 1) // 16 AS BIGINT) AS sub,
                       i - 1 AS dim, CAST(embedding[i] AS DOUBLE) AS x
                FROM embeddings, unnest(range(1, len(embedding) + 1)) AS t(i)
            ),
            seeds AS (
                SELECT vec_id,
                       (row_number() OVER (
                            ORDER BY md5_number_lower(CAST(vec_id AS VARCHAR)),
                                     vec_id
                        ) - 1) AS cid
                FROM embeddings QUALIFY cid < 8
            ),
            c0 AS (
                SELECT s.cid, p.sub, p.dim,
                       round(p.x * 1000000) / 1000000 AS v
                FROM seeds s JOIN pts p USING (vec_id)
            ),
            d1 AS (SELECT p.vec_id, p.sub, c.cid,
                          CAST(floor(sum((p.x - c.v) * (p.x - c.v))
                               * 1000000 + 0.5) AS BIGINT) AS dm
                   FROM pts p JOIN c0 c ON c.sub = p.sub AND c.dim = p.dim
                   GROUP BY 1, 2, 3),
            a1 AS (SELECT vec_id, sub, cid FROM (
                       SELECT vec_id, sub, cid, row_number() OVER (
                           PARTITION BY vec_id, sub ORDER BY dm, cid) AS rn
                       FROM d1) WHERE rn = 1),
            c1 AS (SELECT a.sub, a.cid, p.dim,
                          round(avg(p.x) * 1000000) / 1000000 AS v
                   FROM a1 a JOIN pts p
                        ON p.vec_id = a.vec_id AND p.sub = a.sub
                   GROUP BY 1, 2, 3),
            d2 AS (SELECT p.vec_id, p.sub, c.cid,
                          CAST(floor(sum((p.x - c.v) * (p.x - c.v))
                               * 1000000 + 0.5) AS BIGINT) AS dm
                   FROM pts p JOIN c1 c ON c.sub = p.sub AND c.dim = p.dim
                   GROUP BY 1, 2, 3),
            a2 AS (SELECT vec_id, sub, cid FROM (
                       SELECT vec_id, sub, cid, row_number() OVER (
                           PARTITION BY vec_id, sub ORDER BY dm, cid) AS rn
                       FROM d2) WHERE rn = 1),
            c2 AS (SELECT a.sub, a.cid, p.dim,
                          round(avg(p.x) * 1000000) / 1000000 AS v
                   FROM a2 a JOIN pts p
                        ON p.vec_id = a.vec_id AND p.sub = a.sub
                   GROUP BY 1, 2, 3),
            d3 AS (SELECT p.vec_id, p.sub, c.cid,
                          CAST(floor(sum((p.x - c.v) * (p.x - c.v))
                               * 1000000 + 0.5) AS BIGINT) AS dm
                   FROM pts p JOIN c2 c ON c.sub = p.sub AND c.dim = p.dim
                   GROUP BY 1, 2, 3),
            a3 AS (SELECT vec_id, sub, cid FROM (
                       SELECT vec_id, sub, cid, row_number() OVER (
                           PARTITION BY vec_id, sub ORDER BY dm, cid) AS rn
                       FROM d3) WHERE rn = 1),
            q AS (SELECT sub, dim, x FROM pts WHERE vec_id = 0),
            qd AS (SELECT c.sub, c.cid,
                          CAST(floor(sum((q.x - c.v) * (q.x - c.v))
                               * 1000000 + 0.5) AS BIGINT) AS dm
                   FROM c2 c JOIN q ON q.sub = c.sub AND q.dim = c.dim
                   GROUP BY 1, 2),
            adc AS (SELECT a.vec_id, CAST(sum(qd.dm) AS BIGINT) AS adc_micros
                    FROM a3 a JOIN qd ON qd.sub = a.sub AND qd.cid = a.cid
                    GROUP BY 1),
            ranked AS (SELECT vec_id, adc_micros,
                              row_number() OVER (
                                  ORDER BY adc_micros, vec_id) AS rank
                       FROM adc)
            SELECT CAST(rank AS BIGINT) AS rank, vec_id, adc_micros
            FROM ranked WHERE rank <= 10 ORDER BY rank
        """,
        # IVF-PQ: the coarse k-means replay (k=10 seeds/c0→c2/a3) chained
        # with the sub-keyed PQ replay (pseeds = first 8 of the SAME md5
        # seed ordering), nprobe=3 probe row_number, integer ADC join over
        # probed cells only
        "ann_ivfpq_topk": _KMEANS_REPLAY_CTES + r""",
            spts AS (
                SELECT vec_id, CAST(dim // 16 AS BIGINT) AS sub, dim, x
                FROM pts
            ),
            pseeds AS (SELECT vec_id, cid FROM seeds WHERE cid < 8),
            pc0 AS (
                SELECT s.cid, p.sub, p.dim,
                       round(p.x * 1000000) / 1000000 AS v
                FROM pseeds s JOIN spts p USING (vec_id)
            ),
            pd1 AS (SELECT p.vec_id, p.sub, c.cid,
                           CAST(floor(sum((p.x - c.v) * (p.x - c.v))
                                * 1000000 + 0.5) AS BIGINT) AS dm
                    FROM spts p JOIN pc0 c ON c.sub = p.sub AND c.dim = p.dim
                    GROUP BY 1, 2, 3),
            pa1 AS (SELECT vec_id, sub, cid FROM (
                        SELECT vec_id, sub, cid, row_number() OVER (
                            PARTITION BY vec_id, sub ORDER BY dm, cid) AS rn
                        FROM pd1) WHERE rn = 1),
            pc1 AS (SELECT a.sub, a.cid, p.dim,
                           round(avg(p.x) * 1000000) / 1000000 AS v
                    FROM pa1 a JOIN spts p
                         ON p.vec_id = a.vec_id AND p.sub = a.sub
                    GROUP BY 1, 2, 3),
            pd2 AS (SELECT p.vec_id, p.sub, c.cid,
                           CAST(floor(sum((p.x - c.v) * (p.x - c.v))
                                * 1000000 + 0.5) AS BIGINT) AS dm
                    FROM spts p JOIN pc1 c ON c.sub = p.sub AND c.dim = p.dim
                    GROUP BY 1, 2, 3),
            pa2 AS (SELECT vec_id, sub, cid FROM (
                        SELECT vec_id, sub, cid, row_number() OVER (
                            PARTITION BY vec_id, sub ORDER BY dm, cid) AS rn
                        FROM pd2) WHERE rn = 1),
            pc2 AS (SELECT a.sub, a.cid, p.dim,
                           round(avg(p.x) * 1000000) / 1000000 AS v
                    FROM pa2 a JOIN spts p
                         ON p.vec_id = a.vec_id AND p.sub = a.sub
                    GROUP BY 1, 2, 3),
            pd3 AS (SELECT p.vec_id, p.sub, c.cid,
                           CAST(floor(sum((p.x - c.v) * (p.x - c.v))
                                * 1000000 + 0.5) AS BIGINT) AS dm
                    FROM spts p JOIN pc2 c ON c.sub = p.sub AND c.dim = p.dim
                    GROUP BY 1, 2, 3),
            pa3 AS (SELECT vec_id, sub, cid FROM (
                        SELECT vec_id, sub, cid, row_number() OVER (
                            PARTITION BY vec_id, sub ORDER BY dm, cid) AS rn
                        FROM pd3) WHERE rn = 1),
            qpts AS (SELECT dim, x FROM pts WHERE vec_id = 0),
            qc AS (SELECT c.cid,
                          CAST(floor(sum((q.x - c.v) * (q.x - c.v))
                               * 1000000 + 0.5) AS BIGINT) AS dm
                   FROM c2 c JOIN qpts q USING (dim) GROUP BY 1),
            probe AS (SELECT cid FROM (
                          SELECT cid, row_number() OVER (ORDER BY dm, cid)
                              AS rn FROM qc) WHERE rn <= 3),
            cand AS (SELECT a.vec_id, a.cid AS coarse
                     FROM a3 a JOIN probe USING (cid)),
            qsp AS (SELECT CAST(dim // 16 AS BIGINT) AS sub, dim, x
                    FROM qpts),
            pqd AS (SELECT c.sub, c.cid,
                           CAST(floor(sum((q.x - c.v) * (q.x - c.v))
                                * 1000000 + 0.5) AS BIGINT) AS dm
                    FROM pc2 c JOIN qsp q
                         ON q.sub = c.sub AND q.dim = c.dim
                    GROUP BY 1, 2),
            adc AS (SELECT k.vec_id, k.coarse,
                           CAST(sum(pqd.dm) AS BIGINT) AS adc_micros
                    FROM cand k
                    JOIN pa3 a ON a.vec_id = k.vec_id
                    JOIN pqd ON pqd.sub = a.sub AND pqd.cid = a.cid
                    GROUP BY 1, 2),
            rankedq AS (SELECT vec_id, coarse, adc_micros,
                               row_number() OVER (
                                   ORDER BY adc_micros, vec_id) AS rank
                        FROM adc)
            SELECT CAST(rank AS BIGINT) AS rank, vec_id, coarse, adc_micros
            FROM rankedq WHERE rank <= 10 ORDER BY rank
        """,
        "source_centroids": """
            WITH e AS (
                SELECT d.source, i - 1 AS dim,
                       CAST(em.embedding[i] AS DOUBLE) AS x
                FROM embeddings em
                JOIN documents d ON em.vec_id = d.doc_id,
                     unnest(range(1, len(em.embedding) + 1)) AS t(i)
            )
            SELECT source, CAST(dim AS BIGINT) AS dim,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(round(sum(x) / count(*) * 1000000) AS BIGINT)
                       AS centroid_micros
            FROM e GROUP BY source, dim ORDER BY source, dim
        """,
        "knn_join": """
            WITH q AS (
                SELECT vec_id AS qid, embedding AS qe FROM embeddings
                WHERE vec_id % 50 = 3
            ),
            scored AS (
                SELECT q.qid, e.vec_id,
                       list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), CAST(q.qe AS DOUBLE[])) AS cos
                FROM embeddings e, q WHERE e.vec_id != q.qid
            ),
            ranked AS (
                SELECT *, row_number() OVER (
                    PARTITION BY qid ORDER BY cos DESC, vec_id
                ) AS rnk
                FROM scored
            )
            SELECT qid, CAST(rnk AS BIGINT) AS rnk, vec_id,
                   CAST(round(cos * 1000000) AS BIGINT) AS cosine_micros
            FROM ranked WHERE rnk <= 5 ORDER BY qid, rnk
        """,
        "ann_ivf_topk": _cosine_top10_sql(),
        "token_count": _token_count_sql(),
        "quality": r"""
            WITH toks AS (
                SELECT doc_id, unnest(regexp_extract_all(lower(text), '\S+')) AS tok
                FROM documents
            ),
            agg AS (
                SELECT doc_id, count(*) AS n_words,
                       sum(CASE WHEN tok IN ('a','an','and','are','as','at','be','but','by','for',
                                             'if','in','into','is','it','no','not','of','on','or',
                                             'such','that','the','their','then','there','these',
                                             'they','this','to','was','will','with')
                                THEN 1 ELSE 0 END) AS n_stop
                FROM toks GROUP BY doc_id
            )
            SELECT d.doc_id, CAST(length(d.text) AS BIGINT) AS n_chars_q,
                   CAST(coalesce(a.n_words, 0) AS BIGINT) AS n_words,
                   CAST(round(coalesce(a.n_stop * 1.0 / a.n_words, 0) * 1000000) AS BIGINT)
                       AS stopword_ratio_micros
            FROM documents d LEFT JOIN agg a USING (doc_id) ORDER BY d.doc_id
        """,
        "doc_packing": r"""
            WITH n AS (
                SELECT doc_id,
                       CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens
                FROM documents
            ),
            c AS (
                SELECT doc_id, n_tokens,
                       CAST(coalesce(sum(n_tokens) OVER (ORDER BY doc_id
                            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                            AS BIGINT) AS tokens_before
                FROM n
            )
            SELECT doc_id, n_tokens, tokens_before,
                   tokens_before // 512 AS pack_id,
                   tokens_before % 512 AS pack_offset
            FROM c ORDER BY doc_id
        """,
        "langid": _langid_sql(),
        "fingerprint": r"""
            WITH norm AS (
                SELECT doc_id,
                       trim(regexp_replace(text, '[ \t\n\r\f\v]+', ' ', 'g')) AS s
                FROM documents
            )
            SELECT doc_id,
                   CAST(CASE WHEN md5_number_lower(s)::HUGEINT >= 9223372036854775808::HUGEINT
                             THEN md5_number_lower(s)::HUGEINT - 18446744073709551616::HUGEINT
                             ELSE md5_number_lower(s)::HUGEINT END AS BIGINT) AS fp_md5
            FROM norm ORDER BY doc_id
        """,
        # decontamination: exact word-trigram overlap vs the doc_id%50==7
        # eval slice (engine hashes trigrams, 2^-64 collision risk only)
        "decontam": _SHINGLES + """,
            ev AS (SELECT DISTINCT g FROM sh WHERE doc_id % 50 = 7),
            hits AS (
                SELECT s.doc_id, count(*) AS n
                FROM sh s JOIN ev USING (g)
                WHERE s.doc_id % 50 <> 7
                GROUP BY s.doc_id
            )
            SELECT d.doc_id,
                   coalesce(h.n, 0) AS contam_ngrams,
                   CAST(coalesce(h.n, 0) > 0 AS BIGINT) AS contaminated
            FROM (SELECT doc_id FROM documents WHERE doc_id % 50 <> 7) d
            LEFT JOIN hits h USING (doc_id)
            ORDER BY d.doc_id
        """,
        # Gopher-style within-doc repetition: modal-bigram fraction +
        # duplicated-5-gram fraction (division-before-multiply matches the
        # engine's frac*1e6 float order)
        "repetition": r"""
            WITH l AS (
                SELECT doc_id, regexp_extract_all(text, '[^ \t\n\f\r]+') AS w
                FROM documents
            ),
            c2 AS (
                SELECT doc_id, concat(w[i], ' ', w[i+1]) AS g, count(*) AS c
                FROM l, unnest(range(1, len(w))) AS t(i)
                GROUP BY doc_id, g
            ),
            a2 AS (
                SELECT doc_id, max(c)::DOUBLE / sum(c) AS f
                FROM c2 GROUP BY doc_id
            ),
            c5 AS (
                SELECT doc_id,
                       concat(w[i],' ',w[i+1],' ',w[i+2],' ',w[i+3],' ',w[i+4]) AS g,
                       count(*) AS c
                FROM l, unnest(range(1, len(w) - 3)) AS t(i)
                GROUP BY doc_id, g
            ),
            a5 AS (
                SELECT doc_id,
                       sum(CASE WHEN c > 1 THEN c ELSE 0 END)::DOUBLE / sum(c) AS f
                FROM c5 GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(round(coalesce(a2.f, 0) * 1000000) AS BIGINT)
                       AS top_2gram_micros,
                   CAST(round(coalesce(a5.f, 0) * 1000000) AS BIGINT)
                       AS dup_5gram_micros
            FROM documents d
            LEFT JOIN a2 USING (doc_id)
            LEFT JOIN a5 USING (doc_id)
            ORDER BY d.doc_id
        """,
        # corpus-wide duplicated-trigram fraction (a gram is duplicated
        # when ≥ 2 distinct docs carry it)
        "cross_dup": r"""
            WITH l AS (
                SELECT doc_id, regexp_extract_all(text, '[^ \t\n\f\r]+') AS w
                FROM documents
            ),
            sh AS (
                SELECT doc_id, concat(w[i], ' ', w[i+1], ' ', w[i+2]) AS g,
                       count(*) AS n
                FROM l, unnest(range(1, len(w) - 1)) AS t(i)
                GROUP BY doc_id, g
            ),
            du AS (SELECT g FROM sh GROUP BY g HAVING count(*) > 1)
            SELECT s.doc_id,
                   CAST(sum(s.n) AS BIGINT) AS n_grams,
                   CAST(round((sum(CASE WHEN d.g IS NOT NULL THEN s.n ELSE 0 END)::DOUBLE
                               / sum(s.n)) * 1000000) AS BIGINT)
                       AS dup_frac_micros
            FROM sh s LEFT JOIN du d USING (g)
            GROUP BY s.doc_id ORDER BY s.doc_id
        """,
        "source_boilerplate": r"""
            WITH l AS (
                SELECT doc_id, source,
                       regexp_extract_all(text, '[^ \t\n\f\r]+') AS w
                FROM documents
            ),
            sh AS (
                SELECT doc_id, source,
                       concat(w[i], ' ', w[i+1], ' ', w[i+2]) AS g,
                       count(*) AS n
                FROM l, unnest(range(1, len(w) - 1)) AS t(i)
                GROUP BY doc_id, source, g
            ),
            du AS (
                SELECT source, g FROM sh GROUP BY source, g
                HAVING count(*) > 1
            )
            SELECT s.source,
                   CAST(sum(s.n) AS BIGINT) AS n_grams,
                   CAST(round((sum(CASE WHEN d.g IS NOT NULL THEN s.n ELSE 0 END)::DOUBLE
                               / sum(s.n)) * 1000000) AS BIGINT)
                       AS dup_frac_micros
            FROM sh s
            LEFT JOIN du d ON d.source = s.source AND d.g = s.g
            GROUP BY s.source ORDER BY s.source
        """,
        "source_stats": r"""
            SELECT source, count(*)::BIGINT AS n_docs,
                   sum(len(regexp_extract_all(text, '[^ \t\n\f\r]+')))::BIGINT AS n_tokens,
                   sum(length(text))::BIGINT AS n_chars_total
            FROM documents GROUP BY source ORDER BY source
        """,
        "triangles": """
            WITH n AS (SELECT count(*) AS n FROM documents),
            raw AS (
                SELECT doc_id AS s, (doc_id + 1) % (SELECT n FROM n) AS d
                FROM documents
                UNION ALL
                SELECT doc_id, (doc_id + 2) % (SELECT n FROM n) FROM documents
            ),
            e AS (
                SELECT DISTINCT LEAST(s, d) AS a, GREATEST(s, d) AS b
                FROM raw WHERE s != d
            ),
            tri AS (
                SELECT e1.a AS x, e1.b AS y, e2.b AS z
                FROM e e1
                JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b
                JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b
            ),
            nodes AS (
                SELECT x AS node FROM tri
                UNION ALL SELECT y FROM tri
                UNION ALL SELECT z FROM tri
            )
            SELECT node, count(*)::BIGINT AS n_triangles
            FROM nodes GROUP BY node ORDER BY node
        """,
        "facet_counts": f"""
            {_TOKS}, tf AS (
                SELECT doc_id, tok FROM toks
                WHERE tok IN ('spark','join') GROUP BY doc_id, tok),
            m AS (SELECT doc_id FROM tf GROUP BY doc_id HAVING count(*) = 2)
            SELECT d.source, d.lang, count(*)::BIGINT AS n_docs
            FROM documents d JOIN m USING (doc_id)
            GROUP BY d.source, d.lang ORDER BY d.source, d.lang
        """,
        # KMV sketches: the k smallest distinct md5-low64 token hashes per
        # source; estimator in exact HUGEINT arithmetic (2⁶⁴ spelled as
        # 4294967296² — HUGEINT-safe on every DuckDB literal parser)
        "kmv_distinct": r"""
            WITH toks AS (
                SELECT source,
                       unnest(regexp_extract_all(text, '[^ \t\n\f\r]+')) AS tok
                FROM documents
            ),
            d AS (SELECT DISTINCT source, md5_number_lower(tok) AS h FROM toks),
            r AS (
                SELECT source, h,
                       row_number() OVER (PARTITION BY source ORDER BY h) AS rn,
                       count(*) OVER (PARTITION BY source) AS n_distinct
                FROM d
            )
            SELECT source,
                   CAST(LEAST(n_distinct, 16) AS BIGINT) AS k_used,
                   CAST(CASE WHEN h >= CAST(9223372036854775808 AS UBIGINT)
                             THEN CAST(h AS HUGEINT)
                                  - CAST(4294967296 AS HUGEINT) * CAST(4294967296 AS HUGEINT)
                             ELSE CAST(h AS HUGEINT) END AS BIGINT) AS kth_hash,
                   CAST(CASE WHEN n_distinct < 16 THEN CAST(n_distinct AS HUGEINT)
                             ELSE (CAST(15 AS HUGEINT)
                                   * CAST(4294967296 AS HUGEINT) * CAST(4294967296 AS HUGEINT))
                                  // CAST(h AS HUGEINT)
                        END AS BIGINT) AS est_distinct
            FROM r
            WHERE rn = LEAST(n_distinct, 16)
            ORDER BY source
        """,
        "kmv_jaccard": r"""
            WITH toks AS (
                SELECT source,
                       unnest(regexp_extract_all(text, '[^ \t\n\f\r]+')) AS tok
                FROM documents
            ),
            d AS (SELECT DISTINCT source, md5_number_lower(tok) AS h FROM toks),
            sk AS (
                SELECT source, h FROM (
                    SELECT source, h,
                           row_number() OVER (PARTITION BY source ORDER BY h) AS rn
                    FROM d
                ) WHERE rn <= 16
            ),
            pairs AS (
                SELECT a.source AS key_a, b.source AS key_b
                FROM (SELECT DISTINCT source FROM sk) a
                JOIN (SELECT DISTINCT source FROM sk) b ON a.source < b.source
            ),
            u AS (
                SELECT p.key_a, p.key_b, s.h,
                       max(CASE WHEN s.source = p.key_a THEN 1 ELSE 0 END) AS in_a,
                       max(CASE WHEN s.source = p.key_b THEN 1 ELSE 0 END) AS in_b
                FROM pairs p JOIN sk s ON s.source IN (p.key_a, p.key_b)
                GROUP BY p.key_a, p.key_b, s.h
            ),
            kept AS (
                SELECT * FROM (
                    SELECT *, row_number() OVER (PARTITION BY key_a, key_b ORDER BY h) AS rn
                    FROM u
                ) WHERE rn <= 16
            )
            SELECT key_a, key_b,
                   CAST(count(*) AS BIGINT) AS k_eff,
                   CAST(sum(in_a * in_b) AS BIGINT) AS n_both,
                   CAST((CAST(sum(in_a * in_b) AS HUGEINT) * 1000000)
                        // CAST(count(*) AS HUGEINT) AS BIGINT) AS j_micros
            FROM kept GROUP BY key_a, key_b ORDER BY key_a, key_b
        """,
        # Count-min sketch: exact replay of the d=4 × w=1024 cell build.
        # Row-j column = Kirsch-Mitzenmacher double hashing
        # (h1 + j·h2) mod 2⁶⁴ mod w with h1/h2 = md5 lower/upper halves
        # (h2 forced odd) — ONE md5 per token feeds all d rows, same as
        # the engine — then min-over-rows point query for the fixed probe
        # list, next to the plain exact counts
        "cms_counts": r"""
            WITH toks AS (
                SELECT lower(unnest(regexp_extract_all(text, '[^ \t\n\f\r]+'))) AS tok
                FROM documents
            ),
            cnt AS (SELECT tok, count(*)::BIGINT AS c FROM toks GROUP BY tok),
            cells AS (
                SELECT t.j,
                       CAST(((CAST(md5_number_lower(cnt.tok) AS HUGEINT)
                              + t.j * CAST(md5_number_upper(cnt.tok) | 1 AS HUGEINT))
                             % (CAST(4294967296 AS HUGEINT) * CAST(4294967296 AS HUGEINT)))
                            % 1024 AS BIGINT) AS col,
                       sum(cnt.c) AS cell
                FROM cnt, unnest([0, 1, 2, 3]) AS t(j)
                GROUP BY 1, 2
            ),
            probes AS (
                SELECT unnest(['batch','column','customer','filter','hash',
                               'join','merge','row','scan','zzz-absent']) AS term
            ),
            pq AS (
                SELECT p.term, t.j,
                       CAST(((CAST(md5_number_lower(p.term) AS HUGEINT)
                              + t.j * CAST(md5_number_upper(p.term) | 1 AS HUGEINT))
                             % (CAST(4294967296 AS HUGEINT) * CAST(4294967296 AS HUGEINT)))
                            % 1024 AS BIGINT) AS col
                FROM probes p, unnest([0, 1, 2, 3]) AS t(j)
            ),
            est AS (
                SELECT pq.term, min(coalesce(cells.cell, 0)) AS est_cnt
                FROM pq LEFT JOIN cells ON cells.j = pq.j AND cells.col = pq.col
                GROUP BY pq.term
            )
            SELECT est.term,
                   CAST(est.est_cnt AS BIGINT) AS est_cnt,
                   CAST(coalesce(cnt.c, 0) AS BIGINT) AS exact_cnt
            FROM est LEFT JOIN cnt ON cnt.tok = est.term
            ORDER BY est.term
        """,
        # HyperLogLog: bucket = top-8 bits of md5-low64, rho = 57 - bit
        # length of the low-56 remainder (bin() string length — exact
        # integer bit math); raw estimate in HUGEINT, linear counting via
        # the same libm ln as Python (parity unit-verified for V=1..256)
        "hll_distinct": r"""
            WITH toks AS (
                SELECT source,
                       unnest(regexp_extract_all(text, '[^ \t\n\f\r]+')) AS tok
                FROM documents
            ),
            d AS (SELECT DISTINCT source, md5_number_lower(tok) AS h FROM toks),
            br AS (
                SELECT source,
                       CAST(h >> 56 AS BIGINT) AS bucket,
                       h & CAST(72057594037927935 AS UBIGINT) AS rest
                FROM d
            ),
            regs AS (
                SELECT source, bucket,
                       max(CASE WHEN rest = 0 THEN 57
                                ELSE 57 - length(bin(rest)) END) AS m_j
                FROM br GROUP BY source, bucket
            ),
            agg AS (
                SELECT source,
                       count(*) AS n_used,
                       sum(CAST(1 AS HUGEINT) << (56 - m_j)) AS s_used
                FROM regs GROUP BY source
            ),
            raw AS (
                SELECT source,
                       CAST(256 - n_used AS BIGINT) AS n_zero,
                       CAST((CAST(718272 AS HUGEINT) * 65536
                             * (CAST(1 AS HUGEINT) << 56))
                            // (s_used + (256 - CAST(n_used AS HUGEINT))
                                * (CAST(1 AS HUGEINT) << 56))
                            // 1000000 AS BIGINT) AS est_raw
                FROM agg
            )
            SELECT source, n_zero, est_raw,
                   CAST(CASE WHEN n_zero > 0 AND est_raw <= 640
                             THEN CAST(floor(256 * ln(256.0 / n_zero)) AS BIGINT)
                             ELSE est_raw END AS BIGINT) AS est_distinct
            FROM raw ORDER BY source
        """,
        "ngram_topk": r"""
            WITH lists AS (
                SELECT doc_id, regexp_extract_all(text, '[^ \t\n\f\r]+') AS l
                FROM documents
            ),
            toks AS (
                SELECT doc_id, lower(l[i]) AS tok, i AS pos
                FROM lists, unnest(range(1, len(l) + 1)) AS t(i)
            ),
            bi AS (
                SELECT a.tok || ' ' || b.tok AS gram
                FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
            )
            SELECT gram, count(*)::BIGINT AS cnt FROM bi
            GROUP BY gram ORDER BY cnt DESC, gram LIMIT 20
        """,
        # tf-idf rank key is the MICROS-ROUNDED score (ties → term) so the
        # ordering is libm-independent on both sides
        "tfidf_topk": r"""
            WITH toks AS (
                SELECT doc_id, lower(tok) AS tok
                FROM (SELECT doc_id, unnest(regexp_extract_all(text, '[^ \t\n\f\r]+')) AS tok
                      FROM documents)
            ),
            tf AS (SELECT doc_id, tok, count(*)::BIGINT AS tf FROM toks GROUP BY doc_id, tok),
            df AS (SELECT tok, count(DISTINCT doc_id)::BIGINT AS df FROM toks GROUP BY tok),
            n AS (SELECT count(*)::DOUBLE AS n FROM documents),
            sc AS (
                SELECT tf.doc_id, tf.tok AS term, tf.tf,
                       CAST(round(tf.tf * ln((SELECT n FROM n) / df.df) * 1000000) AS BIGINT)
                           AS tfidf_micros
                FROM tf JOIN df USING (tok)
            ),
            rk AS (
                SELECT *, row_number() OVER (
                    PARTITION BY doc_id ORDER BY tfidf_micros DESC, term) AS rank
                FROM sc
            )
            SELECT doc_id, term, tf, tfidf_micros, rank FROM rk
            WHERE rank <= 3 ORDER BY doc_id, rank
        """,
        # md5_number_lower == engine's md5-low64-little (BASELINE notes)
        "docs_shuffle": r"""
            SELECT (row_number() OVER (
                        ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id
                    ) - 1)::BIGINT AS pos, doc_id
            FROM documents ORDER BY pos
        """,
        # replay of kmeans_clusters: quantized seed centroids (c0) → two
        # Lloyd rounds (assign aN on micros-rounded squared-L2, update cN =
        # micros-quantized per-dim avg) → final assignment a3
        "pca_top_component": _PCA_SQL,
        "embedding_clusters": _KMEANS_REPLAY_CTES
        + """
            SELECT vec_id, cid AS cluster FROM a3 ORDER BY vec_id
        """,
        # SemDeDup twin: same kmeans replay over the zero-row-augmented
        # corpus (embx — the entry plants the same hostile row), then a
        # within-cluster lower-id self-join; cosine quantized with
        # floor(x*1e6 + 0.5), the engine kernel's exact expression, with
        # the PINNED zero-norm convention: cosine(0⃗, ·) ≡ 0 by definition
        # (explicit guard, never list_cosine_similarity's 0/0)
        "semantic_dedup": "WITH embx AS ("
        "  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS embedding FROM embeddings"
        "  UNION ALL"
        "  SELECT (SELECT max(vec_id) + 1 FROM embeddings) AS vec_id,"
        "         (SELECT list_transform(CAST(embedding AS DOUBLE[]), x -> 0.0)"
        "          FROM embeddings ORDER BY vec_id LIMIT 1) AS embedding"
        "),"
        + _KMEANS_REPLAY_CTES.replace("WITH seeds", "seeds", 1).replace(
            "FROM embeddings", "FROM embx"
        )
        + """,
            asg AS (
                SELECT a3.vec_id, a3.cid AS cluster, e.embedding
                FROM a3 JOIN embx e USING (vec_id)
            ),
            dup AS (
                SELECT a.vec_id,
                       max(CASE WHEN list_dot_product(a.embedding, a.embedding) = 0
                                  OR list_dot_product(b.embedding, b.embedding) = 0
                           THEN 0
                           WHEN CAST(floor(
                               list_cosine_similarity(a.embedding, b.embedding)
                               * 1000000 + 0.5) AS BIGINT) >= 460000
                           THEN 1 ELSE 0 END) AS d
                FROM asg a JOIN asg b
                  ON b.cluster = a.cluster AND b.vec_id < a.vec_id
                GROUP BY a.vec_id
            )
            SELECT asg.vec_id, asg.cluster,
                   CAST(1 - coalesce(dup.d, 0) AS BIGINT) AS keep
            FROM asg LEFT JOIN dup USING (vec_id)
            ORDER BY asg.vec_id
        """,
        "curation": _curation_sql(),
        # stages/web.py canonicalizer, rule for rule: lowercase scheme+host,
        # scheme-default port strip, fragment drop, tracking-param filter +
        # bytewise param sort, trailing-slash-run strip. Synthesis mirrors
        # q_url_canonical.add_url (all arithmetic parenthesized — || and %
        # share precedence in the PG grammar).
        "url_canonical": """
        WITH u AS (
            SELECT doc_id,
                CASE CAST(doc_id % 4 AS INTEGER)
                WHEN 0 THEN 'https://www.example' || ((doc_id // 4) % 50)
                    || '.com/a/' || (doc_id // 4) || '/?b=2&a=1'
                WHEN 1 THEN 'HTTPS://WWW.EXAMPLE' || ((doc_id // 4) % 50)
                    || '.COM:443/a/' || (doc_id // 4) || '?a=1&b=2'
                WHEN 2 THEN 'https://www.example' || ((doc_id // 4) % 50)
                    || '.com/a/' || (doc_id // 4)
                    || '?utm_source=feed&b=2&a=1&ref=rss'
                ELSE 'https://www.example' || ((doc_id // 4) % 50)
                    || '.com/a/' || (doc_id // 4) || '?b=2&a=1#sec-2'
                END AS url
            FROM documents),
        c1 AS (
            SELECT doc_id, url,
                lower(split_part(url, '://', 1)) AS scheme,
                split_part(url, '://', 2) AS after
            FROM u),
        c2 AS (
            SELECT *,
                lower(regexp_extract(after, '^[^/?#]*')) AS hostport,
                substr(after, length(regexp_extract(after, '^[^/?#]*')) + 1)
                    AS rest
            FROM c1),
        c3 AS (
            SELECT *,
                CASE WHEN scheme = 'https'
                         THEN regexp_replace(hostport, ':443$', '')
                     WHEN scheme = 'http'
                         THEN regexp_replace(hostport, ':80$', '')
                     ELSE hostport END AS host,
                regexp_replace(rest, '#.*$', '', 's') AS nofrag
            FROM c2),
        c4 AS (
            SELECT *,
                regexp_replace(split_part(nofrag, '?', 1), '/+$', '') AS path,
                CASE WHEN instr(nofrag, '?') > 0
                     THEN substr(nofrag, instr(nofrag, '?') + 1)
                     ELSE '' END AS q
            FROM c3),
        c5 AS (
            SELECT *,
                array_to_string(list_sort(list_filter(string_split(q, '&'),
                    p -> p <> '' AND NOT regexp_matches(p,
                        '^(utm_[^=]*|ref|fbclid|gclid|msclkid)(=|$)'))),
                    '&') AS qs
            FROM c4),
        c6 AS (
            SELECT doc_id, url,
                scheme || '://' || host || path
                    || CASE WHEN qs = '' THEN '' ELSE '?' || qs END
                    AS canon_url
            FROM c5)
        SELECT doc_id, url, canon_url,
            min(doc_id) OVER (PARTITION BY canon_url) AS canon_id,
            CAST(CASE WHEN doc_id = min(doc_id) OVER (PARTITION BY canon_url)
                 THEN 1 ELSE 0 END AS BIGINT) AS keep
        FROM c6 ORDER BY doc_id
        """,
        # Template-predicted output of the real HTML extractor: the synthesis
        # fixes the markup, so each extraction rule's result is a closed-form
        # expression over (doc_id, text)
        "html_extract": r"""
        SELECT doc_id,
            'Doc ' || doc_id || ' & more' AS title,
            'alpha, beta' AS keywords,
            trim(trim(regexp_replace(text, '[ \t\n\r\f\v]+', ' ', 'g'))
                 || ' next > page') AS body,
            CAST(1 AS BIGINT) AS n_links,
            'https://ex.com/p/' || (doc_id + 1) AS href,
            'next > page' AS anchor
        FROM documents ORDER BY doc_id
        """,
        # Recompute every manifest metric from the corpus: the build's shard
        # boundaries are url-rank quartiles (exhaustive deterministic sample
        # at this scale) and PlainSource urls are zero-padded ids, so
        # shard(doc) = #{k in 1..3 : doc_id >= floor(n*k/4)}; doclen under
        # PLAIN_ANALYZER = whitespace token count (RE2 \S class)
        "build_manifest": r"""
        WITH nn AS (SELECT count(*) AS n FROM documents),
        tok AS (
            SELECT doc_id,
                len(regexp_extract_all(text, '[^ \t\n\f\r]+'))::BIGINT AS dl
            FROM documents),
        parts AS (
            SELECT doc_id, dl,
                (CASE WHEN doc_id >= (n * 1) // 4 THEN 1 ELSE 0 END
               + CASE WHEN doc_id >= (n * 2) // 4 THEN 1 ELSE 0 END
               + CASE WHEN doc_id >= (n * 3) // 4 THEN 1 ELSE 0 END)::BIGINT
                    AS shard
            FROM tok, nn)
        SELECT shard,
            min(doc_id) AS docid_base,
            count(*)::BIGINT AS n_docs,
            sum(dl)::BIGINT AS body_sum_doclen,
            sum(CASE WHEN dl > 0 THEN 1 ELSE 0 END)::BIGINT AS body_doccount,
            count(*)::BIGINT AS url_sum_doclen
        FROM parts GROUP BY shard ORDER BY shard
        """,
        # FULL OUTER JOIN replay of stages/web.py crawl_delta over the same
        # two synthesized crawls; md5_number_lower signed-int64 view matches
        # textstats.fingerprint_md5 exactly (whitespace-normalized text)
        "crawl_delta": r"""
        WITH fp AS (
            SELECT doc_id,
                'https://ex.com/p/' || doc_id AS url,
                trim(regexp_replace(text, '[ \t\n\r\f\v]+', ' ', 'g')) AS s0,
                trim(regexp_replace(text || ' v2', '[ \t\n\r\f\v]+', ' ', 'g'))
                    AS s2
            FROM documents),
        oldc AS (
            SELECT url,
                CAST(CASE WHEN md5_number_lower(s0)::HUGEINT
                              >= 9223372036854775808::HUGEINT
                     THEN md5_number_lower(s0)::HUGEINT
                          - 18446744073709551616::HUGEINT
                     ELSE md5_number_lower(s0)::HUGEINT END AS BIGINT) AS fp
            FROM fp WHERE doc_id % 10 <> 0),
        newc AS (
            SELECT url,
                CAST(CASE WHEN md5_number_lower(
                              CASE WHEN doc_id % 10 = 2 THEN s2 ELSE s0 END
                          )::HUGEINT >= 9223372036854775808::HUGEINT
                     THEN md5_number_lower(
                              CASE WHEN doc_id % 10 = 2 THEN s2 ELSE s0 END
                          )::HUGEINT - 18446744073709551616::HUGEINT
                     ELSE md5_number_lower(
                              CASE WHEN doc_id % 10 = 2 THEN s2 ELSE s0 END
                          )::HUGEINT END AS BIGINT) AS fp
            FROM fp WHERE doc_id % 10 <> 1)
        SELECT COALESCE(o.url, n.url) AS url,
            CASE WHEN o.url IS NULL THEN 'added'
                 WHEN n.url IS NULL THEN 'removed'
                 WHEN o.fp = n.fp THEN 'unchanged'
                 ELSE 'changed' END AS status,
            COALESCE(o.fp, -1) AS old_fp,
            COALESCE(n.fp, -1) AS new_fp
        FROM oldc o FULL OUTER JOIN newc n USING (url)
        ORDER BY url
        """,
        "host_cap": """
        SELECT doc_id, source, n_chars, host_rank FROM (
            SELECT doc_id, source, n_chars,
                CAST(row_number() OVER (
                    PARTITION BY source ORDER BY n_chars DESC, doc_id
                ) AS BIGINT) AS host_rank
            FROM documents) t
        WHERE host_rank <= 10 ORDER BY doc_id
        """,
        # A-ES weighted sampling: k = -ln(u)/w with u md5-derived; ranked on
        # the pico-quantized key so both engines order identically
        "weighted_sample": r"""
            WITH keyed AS (
                SELECT doc_id, n_chars,
                       CAST(floor(
                           -ln((md5_number_lower(CAST(doc_id AS VARCHAR))::DOUBLE + 0.5)
                               / 18446744073709551616.0)
                           / n_chars * 1000000000000 + 0.5) AS BIGINT) AS key_picos
                FROM documents
            )
            SELECT doc_id, n_chars::BIGINT AS weight, key_picos
            FROM keyed ORDER BY key_picos, doc_id LIMIT 50
        """,
        # DSIR (arXiv 2302.03169) replay: md5-low64 % 512 bucket hash ==
        # engine's _md5_hash64 (DuckDB md5_number_lower, BASELINE notes);
        # per-bucket micro-weight rounded BEFORE the per-doc integer sum so
        # both sides sum exactly, in any order
        "dsir_weights": r"""
            WITH toks AS (
                SELECT doc_id, lang, lower(tok) AS tok
                FROM (SELECT doc_id, lang,
                             unnest(regexp_extract_all(text, '[^ \t\n\f\r]+')) AS tok
                      FROM documents)
            ),
            bk AS (
                SELECT doc_id, lang,
                       CAST(md5_number_lower(tok) % 512 AS BIGINT) AS bucket
                FROM toks
            ),
            cnt AS (
                SELECT bucket,
                       (count(*) FILTER (WHERE lang = 'en'))::BIGINT AS c_tgt,
                       count(*)::BIGINT AS c_all
                FROM bk GROUP BY bucket
            ),
            tot AS (SELECT sum(c_tgt)::DOUBLE AS t_tgt,
                           sum(c_all)::DOUBLE AS t_all FROM cnt),
            w AS (
                SELECT bucket,
                       CAST(round((ln((c_tgt + 1) / (t.t_tgt + 512.0))
                                 - ln((c_all + 1) / (t.t_all + 512.0)))
                                 * 1000000) AS BIGINT) AS w
                FROM cnt, tot t
            ),
            sc AS (
                SELECT b.doc_id, sum(w.w)::BIGINT AS dsir_micros
                FROM bk b JOIN w USING (bucket) GROUP BY b.doc_id
            )
            SELECT d.doc_id, coalesce(sc.dsir_micros, 0)::BIGINT AS dsir_micros
            FROM documents d LEFT JOIN sc USING (doc_id)
            ORDER BY doc_id
        """,
        # identical deterministic PII synthesis + the same RE2-subset regex
        # chain (email → ip → phone, counts taken before each replace)
        "pii_scrub": r"""
            WITH p AS (
                SELECT doc_id,
                       coalesce(text, '') || ' contact user' || doc_id
                         || '@example.com from 10.' || (doc_id % 256) || '.'
                         || ((doc_id // 256) % 256) || '.' || (doc_id % 100)
                         || ' call 415-555-' || (1000 + doc_id % 9000) AS t
                FROM documents
            ),
            s1 AS (
                SELECT doc_id,
                       len(regexp_extract_all(t,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))::BIGINT
                           AS n_email,
                       regexp_replace(t,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                           '<EMAIL>', 'g') AS t
                FROM p
            ),
            s2 AS (
                SELECT doc_id, n_email,
                       len(regexp_extract_all(t,
                           '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b'))::BIGINT AS n_ip,
                       regexp_replace(t,
                           '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b',
                           '<IP>', 'g') AS t
                FROM s1
            ),
            s3 AS (
                SELECT doc_id, n_email, n_ip,
                       len(regexp_extract_all(t,
                           '\b\d{3}-\d{3}-\d{4}\b'))::BIGINT AS n_phone,
                       regexp_replace(t, '\b\d{3}-\d{3}-\d{4}\b',
                           '<PHONE>', 'g') AS t
                FROM s2
            )
            SELECT doc_id, n_email, n_ip, n_phone, md5(t) AS scrub_md5
            FROM s3 ORDER BY doc_id
        """,
        # char explode + the same float64 -Σ p·log2(p); micros rounding
        # absorbs accumulation-order ulps (the repo's standard margin)
        "char_entropy": r"""
            WITH ch AS (
                SELECT doc_id, unnest(string_split(text, '')) AS c
                FROM documents
            ),
            cnt AS (SELECT doc_id, c, count(*)::DOUBLE AS k
                    FROM ch GROUP BY doc_id, c),
            tot AS (SELECT doc_id, sum(k) AS n FROM cnt GROUP BY doc_id),
            h AS (
                SELECT cnt.doc_id,
                       -sum((k / n) * log2(k / n)) AS hh
                FROM cnt JOIN tot USING (doc_id) GROUP BY cnt.doc_id
            )
            SELECT d.doc_id,
                   length(coalesce(d.text, ''))::BIGINT AS n_chars,
                   coalesce(CAST(round(h.hh * 1000000) AS BIGINT), 0)
                       AS entropy_micros
            FROM documents d LEFT JOIN h USING (doc_id)
            ORDER BY d.doc_id
        """,
        # identity projection — the JSONL writer/reader must be lossless
        "jsonl_export": """
            SELECT doc_id, text, source FROM documents ORDER BY doc_id
        """,
        # full-coverage sliding token windows replayed with list_slice:
        # n_chunks = 1 if n<=W else ceil((n-W)/S)+1, starts k·S, text
        # re-joined with single spaces (the engine's normalized form)
        "rag_chunks": r"""
            WITH toks AS (
                SELECT doc_id,
                       regexp_extract_all(text, '[^ \t\n\f\r]+') AS l
                FROM documents
            ),
            nn AS (
                SELECT doc_id, l, len(l) AS n,
                       CASE WHEN len(l) <= 24 THEN 1
                            ELSE ((len(l) - 24 + 16 - 1) // 16) + 1
                       END AS n_chunks
                FROM toks
            )
            SELECT doc_id,
                   CAST(k AS BIGINT) AS chunk_id,
                   CAST(k * 16 AS BIGINT) AS start_tok,
                   CAST(least(n - k * 16, 24) AS BIGINT) AS n_tokens,
                   coalesce(array_to_string(l[k*16+1 : k*16+24], ' '), '')
                       AS chunk_text
            FROM nn, LATERAL unnest(generate_series(0, n_chunks - 1)) AS t(k)
            ORDER BY doc_id, chunk_id
        """,
        # the four registered alert queries replayed with the proven
        # positional self-join patterns (near1/window/syn/term membership)
        "percolate": f"""
            {_POS_TOKS}
            SELECT 'near' AS qid, a.doc_id
            FROM toks a JOIN toks b
              ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
            WHERE a.tok = 'spark' AND b.tok = 'join'
            GROUP BY a.doc_id
            UNION ALL
            SELECT DISTINCT 'syn' AS qid, doc_id FROM toks
            WHERE tok IN ('spark', 'join')
            UNION ALL
            SELECT DISTINCT 'term' AS qid, doc_id FROM toks
            WHERE tok = 'spark'
            UNION ALL
            SELECT DISTINCT 'win' AS qid, a.doc_id
            FROM toks a JOIN toks b
              ON a.doc_id = b.doc_id AND abs(b.pos - a.pos) <= 2
                 AND b.pos <> a.pos
            WHERE a.tok = 'spark' AND b.tok = 'join'
            ORDER BY qid, doc_id
        """,
        # the 4 hops unrolled: each hop = row_number over
        # (md5_number_lower of the same PRF string, dst) per walk
        "random_walks": _WALKS_CTES + """
            SELECT s, CAST(st AS BIGINT) AS step, CAST(cur AS BIGINT) AS cur
            FROM walks ORDER BY s, step
        """,
        # skip-gram (center, context) pairs within window 2 over the same
        # replayed walks, counted corpus-wide
        "walk_pairs": _WALKS_CTES + """
            SELECT a.cur AS center, b.cur AS context,
                   count(*)::BIGINT AS cnt
            FROM walks a JOIN walks b
              ON a.s = b.s AND abs(b.st - a.st) <= 2 AND b.st <> a.st
            GROUP BY 1, 2
            ORDER BY cnt DESC, center, context
            LIMIT 50
        """,
        # the from-scratch aggregate — the merged state must equal it
        "incremental_agg": """
            SELECT event_type, count(*)::BIGINT AS cnt,
                   sum(CAST(floor(value * 100 + 0.5) AS BIGINT))::BIGINT
                       AS cents
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        # per-column n / nulls / exact ndv / min-max, VARCHAR-rendered
        "profile": """
            SELECT 'event_id' AS col, count(*)::BIGINT AS n,
                   (count(*) - count(event_id))::BIGINT AS n_null,
                   count(DISTINCT event_id)::BIGINT AS ndv,
                   CAST(min(event_id) AS VARCHAR) AS min_v,
                   CAST(max(event_id) AS VARCHAR) AS max_v
            FROM events
            UNION ALL
            SELECT 'event_type', count(*)::BIGINT,
                   (count(*) - count(event_type))::BIGINT,
                   count(DISTINCT event_type)::BIGINT,
                   min(event_type), max(event_type)
            FROM events
            UNION ALL
            SELECT 'user_id', count(*)::BIGINT,
                   (count(*) - count(user_id))::BIGINT,
                   count(DISTINCT user_id)::BIGINT,
                   CAST(min(user_id) AS VARCHAR),
                   CAST(max(user_id) AS VARCHAR)
            FROM events
            ORDER BY col
        """,
        # per-key counts ranked ascending; Σ rank·cnt and the order
        # statistics straight off the window, one float division at the end
        "skew_report": r"""
            WITH c AS (
                SELECT user_id, count(*)::BIGINT AS cnt
                FROM events GROUP BY user_id
            ),
            r AS (
                SELECT cnt,
                       row_number() OVER (ORDER BY cnt, user_id) AS rk
                FROM c
            ),
            s AS (
                SELECT count(*)::BIGINT AS n, sum(cnt)::BIGINT AS total,
                       sum(rk * cnt)::BIGINT AS srk, max(cnt)::BIGINT AS mx
                FROM r
            )
            SELECT s.n AS n_keys, s.total, s.mx AS max_cnt,
                   (SELECT cnt FROM r, s
                    WHERE rk = CAST(ceil(0.5 * s.n) AS BIGINT)) AS p50_cnt,
                   (SELECT cnt FROM r, s
                    WHERE rk = CAST(ceil(0.99 * s.n) AS BIGINT)) AS p99_cnt,
                   CAST(round((2.0 * s.srk - (s.n + 1.0) * s.total)
                        / (s.n * s.total) * 1000000) AS BIGINT)
                       AS gini_micros
            FROM s
        """,
        # the zorder replay carried through to per-file footer stats and
        # the same integer overlap tests
        "zorder_prune": f"""
            WITH e AS (
                SELECT event_id, user_id, epoch_us(ts) AS ts_us FROM events
            ),
            mm AS (
                SELECT min(user_id) AS mna, max(user_id) AS mxa,
                       min(ts_us) AS mnb, max(ts_us) AS mxb
                FROM e
            ),
            bkt AS (
                SELECT event_id, user_id, ts_us,
                       ((user_id - mna) * 65536) // (mxa - mna + 1) AS ba,
                       ((ts_us - mnb) * 65536) // (mxb - mnb + 1) AS bb
                FROM e, mm
            ),
            z AS (
                SELECT event_id, user_id, ts_us,
                       (CAST({_Z_INTERLEAVE} AS BIGINT) >> 28) AS file_id
                FROM bkt
            ),
            s AS (
                SELECT file_id, count(*)::BIGINT AS n_rows,
                       min(user_id) AS min_user, max(user_id) AS max_user,
                       min(ts_us) AS min_ts, max(ts_us) AS max_ts
                FROM z GROUP BY file_id
            )
            SELECT file_id, n_rows, min_user, max_user, min_ts, max_ts,
                   (min_user <= 40 AND max_user >= 10)::BIGINT
                       AS scan_user_range,
                   (min_ts <= epoch_us(TIMESTAMP '2024-01-15')
                    AND max_ts >= epoch_us(TIMESTAMP '2024-01-08'))::BIGINT
                       AS scan_ts_range
            FROM s ORDER BY file_id
        """,
        # cohort = min epoch-day per user; ages from the distinct
        # (user, day) pairs; exact integer counts
        "cohort_retention": r"""
            WITH up AS (
                SELECT DISTINCT user_id,
                       epoch_us(ts) // 86400000000 AS w
                FROM events
            ),
            c AS (SELECT user_id, min(w) AS cw FROM up GROUP BY user_id)
            SELECT CAST(c.cw AS BIGINT) AS cohort,
                   CAST(up.w - c.cw AS BIGINT) AS age,
                   count(*)::BIGINT AS n
            FROM up JOIN c USING (user_id)
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # integer min-max bucketing + generated bit-interleave — every
        # arithmetic step is BIGINT, so the replay is exact by construction
        "zorder": f"""
            WITH e AS (
                SELECT event_id, user_id, epoch_us(ts) AS ts_us FROM events
            ),
            mm AS (
                SELECT min(user_id) AS mna, max(user_id) AS mxa,
                       min(ts_us) AS mnb, max(ts_us) AS mxb
                FROM e
            ),
            bkt AS (
                SELECT event_id,
                       ((user_id - mna) * 65536) // (mxa - mna + 1) AS ba,
                       ((ts_us - mnb) * 65536) // (mxb - mnb + 1) AS bb
                FROM e, mm
            ),
            z AS (
                SELECT event_id,
                       CAST({_Z_INTERLEAVE} AS BIGINT) AS zkey
                FROM bkt
            )
            SELECT event_id, zkey, (zkey >> 28)::BIGINT AS file_id
            FROM z ORDER BY event_id
        """,
        # Gopher gate twin: identical integer threshold arithmetic, nested
        # CASE replays the engine's first-failing-rule order; '...' runs
        # counted via non-overlapping replace (== pandas regex count)
        "gopher_gate": r"""
            WITH toks AS (
                SELECT doc_id, lower(tok) AS tok
                FROM (SELECT doc_id,
                             unnest(regexp_extract_all(text,
                                 '[^ \t\n\f\r]+')) AS tok
                      FROM documents)
            ),
            words AS (
                SELECT doc_id, count(*)::BIGINT AS n_words,
                       sum(length(tok))::BIGINT AS word_chars,
                       count(*) FILTER (WHERE regexp_matches(tok, '[a-z]'))::BIGINT AS n_alpha,
                       count(DISTINCT tok) FILTER (WHERE tok IN
                           ('a','the','be','to','of','and','that','with'))::BIGINT AS n_stops
                FROM toks GROUP BY doc_id
            ),
            sym AS (
                SELECT doc_id,
                       ((length(text) - length(replace(text, '#', '')))
                        + (length(text) - length(replace(text, '...', ''))) // 3
                       )::BIGINT AS n_sym
                FROM documents
            ),
            base AS (
                SELECT d.doc_id,
                       coalesce(w.n_words, 0) AS n_words,
                       coalesce(w.word_chars, 0) AS word_chars,
                       s.n_sym,
                       coalesce(w.n_alpha, 0) AS n_alpha,
                       coalesce(w.n_stops, 0) AS n_stops
                FROM documents d
                LEFT JOIN words w ON w.doc_id = d.doc_id
                JOIN sym s ON s.doc_id = d.doc_id
            ),
            judged AS (
                SELECT *,
                       CASE
                         WHEN n_words < 50 OR n_words > 100000 THEN 'word_count'
                         WHEN word_chars < 3 * n_words
                              OR word_chars > 10 * n_words THEN 'mean_word_length'
                         WHEN 10 * n_sym >= n_words THEN 'symbol_ratio'
                         WHEN 5 * n_alpha < 4 * n_words THEN 'alpha_fraction'
                         WHEN n_stops < 2 THEN 'stopword_presence'
                         ELSE '' END AS fail_reason
                FROM base
            )
            SELECT doc_id, n_words, word_chars, n_sym, n_alpha, n_stops,
                   (CASE WHEN fail_reason = '' THEN 1 ELSE 0 END)::BIGINT AS keep,
                   fail_reason
            FROM judged ORDER BY doc_id
        """,
        # same RE2 tokens, same lowercase, same ratio gate (n_flagged ≤
        # 0.05·n_words keeps float compare semantics with the engine)
        "blocklist": r"""
            WITH toks AS (
                SELECT doc_id, lower(tok) AS tok
                FROM (SELECT doc_id,
                             unnest(regexp_extract_all(text,
                                 '[^ \t\n\f\r]+')) AS tok
                      FROM documents)
            ),
            agg AS (
                SELECT doc_id, count(*)::BIGINT AS n_words,
                       sum(CASE WHEN tok IN ('spark', 'dup', 'gpu')
                           THEN 1 ELSE 0 END)::BIGINT AS n_flagged
                FROM toks GROUP BY doc_id
            )
            SELECT d.doc_id,
                   coalesce(a.n_words, 0)::BIGINT AS n_words,
                   coalesce(a.n_flagged, 0)::BIGINT AS n_flagged,
                   CASE WHEN coalesce(a.n_flagged, 0)
                             <= 0.05 * coalesce(a.n_words, 0)
                        THEN 1 ELSE 0 END::BIGINT AS keep
            FROM documents d LEFT JOIN agg a USING (doc_id)
            ORDER BY d.doc_id
        """,
        # media payload = chr(width)||chr(height)||text (single-byte chars);
        # the engine PARSES width/height from the blob it built — the oracle
        # recomputes them arithmetically and md5s the identical byte string
        # binary-content dedup: blob content == text bytes except the
        # planted shared asset (doc_id % 10 < 2 → one logo cluster), so
        # clusters are the content-equality partition
        "mm_dedup": """
            WITH c AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 10 < 2 THEN '<shared-logo>'
                            ELSE text END AS content
                FROM documents
            )
            SELECT doc_id,
                   min(doc_id) OVER (PARTITION BY content) AS cluster_id,
                   (CASE WHEN doc_id <> min(doc_id) OVER (PARTITION BY content)
                         THEN 1 ELSE 0 END)::BIGINT AS is_dup
            FROM c ORDER BY doc_id
        """,
        "mm_meta": r"""
            SELECT doc_id,
                   (33 + doc_id % 64)::BIGINT AS width,
                   (33 + (doc_id // 64) % 64)::BIGINT AS height,
                   (2 + strlen(coalesce(text, '')))::BIGINT AS n_bytes,
                   md5(chr((33 + doc_id % 64)::INT)
                       || chr((33 + (doc_id // 64) % 64)::INT)
                       || coalesce(text, '')) AS payload_md5
            FROM documents ORDER BY doc_id
        """,
        # temperature mixing: pow → sum → divide → floor in the same float64
        # order as the engine; leftover seats to largest remainders (ties by
        # lang); quotas filled in md5-low64(doc_id) order
        "domain_mix": r"""
            WITH cnt AS (
                SELECT lang,
                       sum(len(regexp_extract_all(coalesce(text, ''),
                           '[^ \t\n\f\r]+')))::BIGINT AS c
                FROM documents GROUP BY lang
            ),
            p AS (SELECT lang, pow(c::DOUBLE, 0.5) AS cw FROM cnt),
            q AS (
                SELECT lang,
                       CAST(round(200 * (cw / (SELECT sum(cw) FROM p)) * 1000000)
                            AS BIGINT) AS qm
                FROM p
            ),
            b AS (
                SELECT lang, qm // 1000000 AS base, qm % 1000000 AS rem
                FROM q
            ),
            r AS (
                SELECT lang, base,
                       row_number() OVER (ORDER BY rem DESC, lang) AS rk,
                       greatest(0, (SELECT 200 - sum(base) FROM b)) AS leftover
                FROM b
            ),
            alloc AS (
                SELECT lang,
                       (base + CASE WHEN rk <= leftover THEN 1 ELSE 0 END)
                           ::BIGINT AS n_alloc
                FROM r
            ),
            keyed AS (
                SELECT lang, doc_id,
                       row_number() OVER (
                           PARTITION BY lang
                           ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)),
                                    doc_id
                       ) AS rn
                FROM documents
            )
            SELECT k.lang, CAST(k.doc_id AS BIGINT) AS doc_id, a.n_alloc
            FROM keyed k JOIN alloc a USING (lang)
            WHERE k.rn <= a.n_alloc
            ORDER BY lang, doc_id
        """,
        # exact integer sufficient statistics per feature pair, then the
        # textbook Pearson formula in float64 (same operation order as the
        # engine: products of DOUBLE casts of the exact sums)
        "feature_corr": r"""
            WITH f AS (
                SELECT n_chars::BIGINT AS n_chars,
                       len(regexp_extract_all(coalesce(text, ''),
                           '[^ \t\n\f\r]+'))::BIGINT AS n_tokens,
                       len(regexp_extract_all(coalesce(text, ''),
                           '[A-Za-z]'))::BIGINT AS n_alpha
                FROM documents
            ),
            pairs AS (
                SELECT 'n_alpha' AS feat_x, 'n_chars' AS feat_y,
                       count(*)::BIGINT AS n,
                       sum(n_alpha)::BIGINT AS sum_x,
                       sum(n_chars)::BIGINT AS sum_y,
                       sum(n_alpha * n_alpha)::BIGINT AS sum_xx,
                       sum(n_chars * n_chars)::BIGINT AS sum_yy,
                       sum(n_alpha * n_chars)::BIGINT AS sum_xy
                FROM f
                UNION ALL
                SELECT 'n_alpha', 'n_tokens', count(*)::BIGINT,
                       sum(n_alpha)::BIGINT, sum(n_tokens)::BIGINT,
                       sum(n_alpha * n_alpha)::BIGINT,
                       sum(n_tokens * n_tokens)::BIGINT,
                       sum(n_alpha * n_tokens)::BIGINT
                FROM f
                UNION ALL
                SELECT 'n_chars', 'n_tokens', count(*)::BIGINT,
                       sum(n_chars)::BIGINT, sum(n_tokens)::BIGINT,
                       sum(n_chars * n_chars)::BIGINT,
                       sum(n_tokens * n_tokens)::BIGINT,
                       sum(n_chars * n_tokens)::BIGINT
                FROM f
            )
            SELECT feat_x, feat_y, n, sum_x, sum_y, sum_xy,
                   CASE WHEN (n::DOUBLE * sum_xx::DOUBLE - sum_x::DOUBLE * sum_x::DOUBLE)
                           * (n::DOUBLE * sum_yy::DOUBLE - sum_y::DOUBLE * sum_y::DOUBLE) > 0
                        THEN CAST(round(
                            (n::DOUBLE * sum_xy::DOUBLE - sum_x::DOUBLE * sum_y::DOUBLE)
                            / sqrt((n::DOUBLE * sum_xx::DOUBLE - sum_x::DOUBLE * sum_x::DOUBLE)
                                 * (n::DOUBLE * sum_yy::DOUBLE - sum_y::DOUBLE * sum_y::DOUBLE))
                            * 1000000) AS BIGINT)
                        ELSE 0 END AS corr_micros
            FROM pairs ORDER BY feat_x, feat_y
        """,
        # Laplace-smoothed bigram LM: same counts → join → ln() dataflow as
        # stages/lm.py, in SQL (float64 ln; integer-micros rounding)
        "lm_bigram_ppl": r"""
            WITH l AS (
                SELECT doc_id, regexp_extract_all(text, '[^ \t\n\f\r]+') AS w
                FROM documents
            ),
            uni AS (
                SELECT w[i] AS w1, count(*) AS cu
                FROM l, unnest(range(1, len(w) + 1)) AS t(i)
                GROUP BY 1
            ),
            v AS (SELECT count(*) AS v FROM uni),
            bg AS (
                SELECT w[i] AS w1, w[i+1] AS w2, count(*) AS cb
                FROM l, unnest(range(1, len(w))) AS t(i)
                GROUP BY 1, 2
            ),
            docbg AS (
                SELECT doc_id, w[i] AS w1, w[i+1] AS w2, count(*) AS n
                FROM l, unnest(range(1, len(w))) AS t(i)
                GROUP BY 1, 2, 3
            ),
            scored AS (
                SELECT d.doc_id, d.n,
                       ln((b.cb + 1.0) / (u.cu + (SELECT v FROM v))) AS lp
                FROM docbg d
                JOIN bg b ON d.w1 = b.w1 AND d.w2 = b.w2
                JOIN uni u ON d.w1 = u.w1
            )
            SELECT doc_id,
                   CAST(sum(n) AS BIGINT) AS n_bigrams,
                   CAST(round(-sum(n * lp) / sum(n) * 1000000) AS BIGINT)
                       AS logppl_micros
            FROM scored GROUP BY doc_id ORDER BY doc_id
        """,
        "events_sliding": """
            WITH e AS (
                SELECT epoch_us(ts) // 1000000 AS es, value FROM events
            ),
            w AS (
                SELECT ((es - i * 900) // 900) * 900 AS ws, value
                FROM e, (SELECT unnest(range(0, 4)) AS i)
                WHERE es >= ((es - i * 900) // 900) * 900
                  AND es < ((es - i * 900) // 900) * 900 + 3600
            )
            SELECT CAST(ws AS BIGINT) AS window_start_s,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(round(sum(value) * 1000000) AS BIGINT) AS value_sum_micros
            FROM w GROUP BY ws ORDER BY ws
        """,
        "events_asof": """
            SELECT CAST(e.event_id AS BIGINT) AS event_id,
                   CAST(m.view_id AS BIGINT) AS last_view_id,
                   CAST(epoch_us(e.ts) - epoch_us(m.ts) AS BIGINT) AS lag_us
            FROM events e
            JOIN LATERAL (
                SELECT v.event_id AS view_id, v.ts FROM events v
                WHERE v.user_id = e.user_id AND v.event_type = 'view'
                  AND v.ts <= e.ts
                ORDER BY v.ts DESC, v.event_id DESC LIMIT 1
            ) m ON true
            ORDER BY event_id
        """,
        "events_in_sessions": _SESSIONS_CTES + """,
            sess AS (
                SELECT user_id, min(ts) AS st, max(ts) AS en
                FROM s GROUP BY user_id, sid
            )
            SELECT CAST(e.event_id AS BIGINT) AS event_id,
                   CAST(epoch_us(sess.st) AS BIGINT) AS session_start_us
            FROM events e
            JOIN sess ON sess.user_id = e.user_id
                     AND e.ts BETWEEN sess.st AND sess.en
            ORDER BY event_id, session_start_us
        """,
        "events_tumbling": """
            SELECT CAST(epoch(time_bucket(INTERVAL 1 HOUR, ts)) AS BIGINT) AS window_start_s,
                   event_type,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(round(sum(value) * 1000000) AS BIGINT) AS value_sum_micros
            FROM events GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "events_funnel": """
            WITH o AS (
                SELECT user_id, ts, event_type,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS new_s
                FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ),
            ev AS (
                SELECT user_id, ts, event_type,
                       sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                                        ROWS UNBOUNDED PRECEDING) AS sid
                FROM o
            ),
            s1 AS (
                SELECT user_id, sid, min(ts) AS t FROM ev
                WHERE event_type = 'view' GROUP BY user_id, sid
            ),
            s2 AS (
                SELECT e.user_id, e.sid, min(e.ts) AS t
                FROM ev e JOIN s1 ON s1.user_id = e.user_id AND s1.sid = e.sid
                WHERE e.event_type = 'click' AND e.ts > s1.t
                GROUP BY e.user_id, e.sid
            ),
            s3 AS (
                SELECT e.user_id, e.sid, min(e.ts) AS t
                FROM ev e JOIN s2 ON s2.user_id = e.user_id AND s2.sid = e.sid
                WHERE e.event_type = 'purchase' AND e.ts > s2.t
                GROUP BY e.user_id, e.sid
            )
            SELECT 1::BIGINT AS step, 'view' AS step_name,
                   (SELECT count(*) FROM s1)::BIGINT AS n_sessions
            UNION ALL
            SELECT 2, 'click', (SELECT count(*) FROM s2)
            UNION ALL
            SELECT 3, 'purchase', (SELECT count(*) FROM s3)
            ORDER BY step
        """,
        "events_decayed": """
            WITH t AS (SELECT epoch_us(max(ts)) AS u FROM events),
            w AS (
                SELECT event_type, value,
                       exp(-(ln(2) / 1800.0)
                           * ((t.u - epoch_us(ts)) / 1000000.0)) AS w
                FROM events, t
            )
            SELECT event_type,
                   CAST(round(sum(w) * 1000000) AS BIGINT) AS decayed_n_micros,
                   CAST(round(sum(w * value) * 1000000) AS BIGINT) AS decayed_sum_micros
            FROM w GROUP BY event_type ORDER BY event_type
        """,
        "events_window_topk": """
            WITH w AS (
                SELECT event_id, value,
                       CAST(epoch(time_bucket(INTERVAL 1 HOUR, ts)) AS BIGINT)
                           AS window_start_s
                FROM events
            ),
            r AS (
                SELECT *, row_number() OVER (
                    PARTITION BY window_start_s ORDER BY value DESC, event_id
                ) AS rnk
                FROM w
            )
            SELECT window_start_s, CAST(rnk AS BIGINT) AS rnk, event_id,
                   CAST(round(value * 1000000) AS BIGINT) AS value_micros
            FROM r WHERE rnk <= 3 ORDER BY window_start_s, rnk
        """,
        "events_sessions": _SESSIONS_CTES + """
            SELECT user_id,
                   CAST(epoch_us(min(ts)) AS BIGINT) AS session_start_us,
                   CAST(epoch_us(max(ts)) AS BIGINT) AS session_end_us,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(round(sum(value) * 1000000) AS BIGINT) AS value_sum_micros
            FROM s GROUP BY user_id, sid ORDER BY user_id, session_start_us
        """,
        "lineitem_agg": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(l_quantity) AS BIGINT) AS sum_qty,
                   CAST(round(sum(l_extendedprice * (1 - l_discount)) * 100) AS BIGINT)
                       AS sum_rev_cents,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM lineitem GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "orders_by_nation": """
            SELECT n.n_name,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(round(sum(o.o_totalprice) * 100) AS BIGINT) AS total_cents
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name ORDER BY n.n_name
        """,
        "revenue_by_priority": """
            SELECT o.o_orderpriority,
                   CAST(count(*) AS BIGINT) AS n_items,
                   CAST(round(sum(l.l_extendedprice * (1 - l.l_discount)) * 100) AS BIGINT)
                       AS rev_cents
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority
        """,
        "top_orders": """
            SELECT CAST(o_orderkey AS BIGINT) AS o_orderkey,
                   CAST(round(o_totalprice * 100) AS BIGINT) AS price_cents
            FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 15
        """,
        "docs_sample": """
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(n_chars AS BIGINT) AS n_chars
            FROM documents WHERE doc_id % 10 = 0 ORDER BY doc_id
        """,
        "event_types": """
            SELECT DISTINCT event_type FROM events ORDER BY event_type
        """,
        # unmatched probe rows survive with -1 sentinels (exact-int hashing
        # instead of NULL-ordering ambiguity across engines)
        "left_join": """
            SELECT CAST(c.c_custkey AS BIGINT) AS c_custkey,
                   COALESCE(o.o_orderkey, -1) AS o_orderkey,
                   COALESCE(CAST(round(o.o_totalprice * 100) AS BIGINT), -1)
                       AS price_cents
            FROM customer c LEFT JOIN orders o
              ON o.o_custkey = c.c_custkey AND o.o_totalprice >= 400000
            WHERE c.c_custkey % 100 = 0
            ORDER BY c_custkey, o_orderkey
        """,
        "full_join": """
            WITH c AS (
                SELECT c_custkey FROM customer WHERE c_custkey % 100 = 0
            ),
            o AS (
                SELECT o_custkey, o_orderkey, o_totalprice FROM orders
                WHERE o_totalprice >= 400000 AND o_custkey % 100 <= 1
            )
            SELECT CAST(COALESCE(c.c_custkey, o.o_custkey) AS BIGINT)
                       AS custkey,
                   COALESCE(o.o_orderkey, -1) AS o_orderkey,
                   COALESCE(CAST(round(o.o_totalprice * 100) AS BIGINT), -1)
                       AS price_cents
            FROM c FULL OUTER JOIN o ON o.o_custkey = c.c_custkey
            ORDER BY custkey, o_orderkey
        """,
        # integer-micros prefix sum: exact under any execution order
        "events_running": """
            WITH v AS (
                SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us, event_id,
                       CAST(round(value * 1000000) AS BIGINT) AS value_micros
                FROM events
            )
            SELECT user_id, ts_us, event_id, value_micros,
                   CAST(SUM(value_micros) OVER (
                       PARTITION BY user_id ORDER BY ts_us, event_id
                       ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_micros
            FROM v ORDER BY user_id, ts_us, event_id
        """,
        "events_pivot": """
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(count(*) FILTER (WHERE event_type = 'click') AS BIGINT) AS n_click,
                   CAST(count(*) FILTER (WHERE event_type = 'error') AS BIGINT) AS n_error,
                   CAST(count(*) FILTER (WHERE event_type = 'purchase') AS BIGINT) AS n_purchase,
                   CAST(count(*) FILTER (WHERE event_type = 'signup') AS BIGINT) AS n_signup,
                   CAST(count(*) FILTER (WHERE event_type = 'view') AS BIGINT) AS n_view
            FROM events GROUP BY user_id ORDER BY user_id
        """,
        "events_latest": """
            WITH r AS (
                SELECT user_id, ts, event_id, event_type, value,
                       row_number() OVER (
                           PARTITION BY user_id
                           ORDER BY ts DESC, event_id DESC) AS rn
                FROM events
            )
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   CAST(epoch_us(ts) AS BIGINT) AS ts_us,
                   CAST(event_id AS BIGINT) AS event_id,
                   event_type,
                   CAST(round(value * 1000000) AS BIGINT) AS value_micros
            FROM r WHERE rn = 1 ORDER BY user_id
        """,
        "events_paths": """
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   string_agg(event_type, ',' ORDER BY ts, event_id) AS path
            FROM events GROUP BY user_id ORDER BY user_id
        """,
        # '(all)' sentinels mark rolled-up levels (exact-hashable, no NULL
        # ordering ambiguity); additive measures roll up from the finest level
        "docs_rollup": """
            SELECT COALESCE(source, '(all)') AS source,
                   COALESCE(lang, '(all)') AS lang,
                   CAST(sum(n_chars) AS BIGINT) AS chars_sum,
                   CAST(count(*) AS BIGINT) AS n
            FROM documents GROUP BY ROLLUP(source, lang)
            ORDER BY source, lang
        """,
        # clip bounds = the exact p01/p99 order statistics (rank
        # floor(q*(n-1))), identical floats to the histogram-refine engine
        "events_winsorized": """
            WITH v AS (
                SELECT value, row_number() OVER (ORDER BY value) - 1 AS rk
                FROM events WHERE value IS NOT NULL
            ),
            n AS (SELECT count(*) AS n FROM v),
            b AS (SELECT
                (SELECT value FROM v WHERE rk =
                    CAST(floor(0.01 * ((SELECT n FROM n) - 1)) AS BIGINT)) AS lo,
                (SELECT value FROM v WHERE rk =
                    CAST(floor(0.99 * ((SELECT n FROM n) - 1)) AS BIGINT)) AS hi)
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(count(*) FILTER (WHERE value < lo) AS BIGINT) AS n_lo,
                   CAST(count(*) FILTER (WHERE value > hi) AS BIGINT) AS n_hi,
                   CAST(sum(CAST(round(GREATEST(LEAST(value, hi), lo) * 1000000)
                                 AS BIGINT)) AS BIGINT) AS clipped_sum_micros
            FROM events, b GROUP BY event_type ORDER BY event_type
        """,
        # per-item exact-cents rounding BEFORE the sum (integer aggregation
        # is order-independent; a float sum would be engine-order-sensitive)
        "revenue_by_nation": """
            SELECT n.n_name,
                   CAST(count(*) AS BIGINT) AS n_items,
                   CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount)
                                       * 100) AS BIGINT)) AS BIGINT) AS rev_cents
            FROM lineitem l
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            GROUP BY n.n_name ORDER BY n.n_name
        """,
        # real JSON parser on the oracle side vs the engine's vectorized
        # regex fast path — the hash certifies they agree on this corpus
        "events_props": """
            WITH x AS (
                SELECT event_type,
                       CAST(json_extract(props, '$.k') AS BIGINT) AS k
                FROM events
            )
            SELECT event_type,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(k) AS BIGINT) AS k_sum,
                   CAST(max(k) AS BIGINT) AS k_max
            FROM x GROUP BY event_type ORDER BY event_type
        """,
        "docs_mode_lang": """
            WITH c AS (
                SELECT source, lang, count(*) AS cnt
                FROM documents GROUP BY source, lang
            ),
            r AS (
                SELECT source, lang, cnt,
                       row_number() OVER (
                           PARTITION BY source ORDER BY cnt DESC, lang) AS rn
                FROM c
            )
            SELECT source, lang AS mode_lang, CAST(cnt AS BIGINT) AS n_docs
            FROM r WHERE rn = 1 ORDER BY source
        """,
        "docs_stratified": """
            WITH h AS (
                SELECT lang, doc_id,
                       row_number() OVER (
                           PARTITION BY lang
                           ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id
                       ) AS rn
                FROM documents
            )
            SELECT lang, CAST(doc_id AS BIGINT) AS doc_id
            FROM h WHERE rn <= 20 ORDER BY lang, doc_id
        """,
        # the engine pruned the probe side with a deliberately small Bloom
        # filter (~25% false positives at sf0.01) and verified exactly in a
        # key co-partition; the result is plain EXISTS semantics
        "semi_join_bloom": """
            SELECT o_orderkey, o_custkey, o_orderpriority
            FROM orders o
            WHERE EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = o.o_orderkey
                            AND l.l_quantity >= 45)
            ORDER BY o_orderkey
        """,
        "anti_join_bloom": """
            SELECT o_orderkey, o_custkey, o_orderpriority
            FROM orders o
            WHERE NOT EXISTS (SELECT 1 FROM lineitem l
                              WHERE l.l_orderkey = o.o_orderkey
                                AND l.l_quantity >= 45)
            ORDER BY o_orderkey
        """,
        # exact order statistics at rank floor(q*(n-1)) over the non-NULL
        # values; the engine side never held the column in one task
        "global_quantiles": """
            WITH v AS (
                SELECT value,
                       row_number() OVER (ORDER BY value) - 1 AS rk
                FROM events WHERE value IS NOT NULL
            ),
            n AS (SELECT count(*) AS n FROM v),
            ks AS (SELECT * FROM (VALUES (50, 0.5), (90, 0.9), (99, 0.99))
                   AS t(q_pct, q))
            SELECT CAST(k.q_pct AS BIGINT) AS q_pct,
                   CAST(round(v.value * 1000000) AS BIGINT) AS value_micros,
                   CAST((SELECT n FROM n) AS BIGINT) AS n
            FROM ks k JOIN v
              ON v.rk = CAST(floor(k.q * ((SELECT n FROM n) - 1)) AS BIGINT)
            ORDER BY q_pct
        """,
        "events_quantiles": """
            WITH r AS (
                SELECT event_type, value,
                       row_number() OVER (PARTITION BY event_type ORDER BY value) AS rn,
                       count(*) OVER (PARTITION BY event_type) AS n
                FROM events
            )
            SELECT event_type,
                   CAST(max(n) AS BIGINT) AS n,
                   CAST(round(max(CASE WHEN rn = CAST(floor(0.5 * (n - 1)) AS BIGINT) + 1
                                       THEN value END) * 1000000) AS BIGINT) AS p50_micros,
                   CAST(round(max(CASE WHEN rn = CAST(floor(0.9 * (n - 1)) AS BIGINT) + 1
                                       THEN value END) * 1000000) AS BIGINT) AS p90_micros,
                   CAST(round(max(CASE WHEN rn = CAST(floor(0.99 * (n - 1)) AS BIGINT) + 1
                                       THEN value END) * 1000000) AS BIGINT) AS p99_micros
            FROM r GROUP BY event_type ORDER BY event_type
        """,
    }
    # the salted hot-key paths (sessions, as-of, in-session range join) must
    # be BIT-IDENTICAL to the plain scans — same oracle, verbatim
    for name in ("events_sessions", "events_asof", "events_in_sessions"):
        sql[f"{name}_salted"] = sql[name]
    return sql
