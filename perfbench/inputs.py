"""Seeded benchmark inputs.

One ``synthesize_corpus`` call per run writes ``n_files`` parquet files; the
last file is the delta crawl and the rest are the base, so
base and delta urls are disjoint (the ``extend_index`` contract). Queries are
drawn from the base corpus vocabulary, pairing head terms (long posting
lists) with tail terms (short ones), so every query class covers a spread of
list-length ratios.

Everything here is a pure function of ``seed`` and the size arguments.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pyarrow.parquet as pq

from search_engine_framework_ray.functions.analysis import analyze
from search_engine_framework_ray.sources.corpus import synthesize_corpus

# query class → retrieval model it runs under
CLASS_MODEL = {"flat": "BM25", "weighted": "Indri", "composite": "BM25", "field": "BM25"}
# composite query shapes of the 10-query set that bench.py serves and batches
# (q3, q4, q6, q8); h1/h2 are head terms, t a tail term
COMPOSITE_FORMS = {
    "near1": "#NEAR/1({h1} {h2})",
    "syn": "#SYN({h1} {t}) {h2}",
    "window4": "#WINDOW/4({h1} {h2})",
    "near3": "#NEAR/3({h1} {h2})",
}
HEAD_TERMS = 12
_WORD_RE = re.compile(r"^[a-z]+$")


@dataclass
class Inputs:
    base_paths: list[str]
    delta_paths: list[str]
    base_rows: list[dict]
    delta_rows: list[dict]
    base_df: Counter  # body-field document frequency of each analyzed term
    all_df: Counter  # the same over base + delta
    # one serving round: (qid, class, model, text); the round repeats as a whole
    serve_round: list[tuple[str, str, str, str]]
    # distinct BM25 body-field queries for the batch path: (qid, text)
    batch_queries: list[tuple[str, str]]
    stats: dict = field(default_factory=dict)


def _read_rows(paths: list[str]) -> list[dict]:
    rows: list[dict] = []
    for p in paths:
        rows.extend(pq.read_table(p, columns=["url", "html", "text"]).to_pylist())
    return rows


def _body_df(rows: list[dict]) -> Counter:
    df: Counter = Counter()
    for r in rows:
        df.update(set(analyze(r["text"])))
    return df


def _surface_words(rows: list[dict]) -> dict[str, str]:
    """analyzed term → its most frequent plain lowercase surface word."""
    counts: Counter = Counter()
    for r in rows:
        counts.update(w for w in r["text"].lower().split() if _WORD_RE.match(w))
    best: dict[str, tuple[int, str]] = {}
    for w, c in counts.items():
        terms = analyze(w)
        if len(terms) == 1 and c > best.get(terms[0], (0, ""))[0]:
            best[terms[0]] = (c, w)
    return {t: w for t, (_, w) in best.items()}


def make_inputs(
    out_dir: str,
    seed: int,
    *,
    n_docs: int,
    n_files: int,
    mix: dict[str, int],
    composite_forms: tuple[str, ...],
    n_batch: int,
) -> Inputs:
    """``mix``: queries per serving round by class; its ``repeat`` entry
    re-issues that many earlier queries of the round. ``composite_forms``:
    the ``COMPOSITE_FORMS`` a composite query is drawn from, uniformly. The
    batch queries keep the round's flat : composite proportion."""
    paths = synthesize_corpus(os.path.join(out_dir, "corpus"), n_docs, n_files=n_files, seed=seed)
    base_paths, delta_paths = paths[:-1], paths[-1:]
    base_rows, delta_rows = _read_rows(base_paths), _read_rows(delta_paths)
    base_df = _body_df(base_rows)
    all_df = base_df + _body_df(delta_rows)

    words = _surface_words(base_rows)
    ranked = sorted((t for t in base_df if t in words), key=lambda t: (-base_df[t], t))
    head = ranked[:HEAD_TERMS]
    # tail: the lower half of the terms that occur in at least 3 documents
    common = [t for t in ranked if base_df[t] >= 3]
    tail = common[len(common) // 2 :] or ranked[-HEAD_TERMS:]
    rng = np.random.default_rng([seed, 7])

    def pick(pool: list[str]) -> str:
        return words[pool[int(rng.integers(len(pool)))]]

    def weight() -> str:
        return f"{int(rng.integers(1, 10)) / 10:.1f}"

    def flat() -> str:
        return f"{pick(head)} {pick(tail)} {pick(tail)}"

    def composite() -> str:
        form = COMPOSITE_FORMS[composite_forms[int(rng.integers(len(composite_forms)))]]
        return form.format(h1=pick(head), h2=pick(head), t=pick(tail))

    def weighted() -> str:
        if rng.random() < 0.5:
            return f"#WAND({weight()} {pick(head)} {weight()} {pick(tail)})"
        return f"#WSUM({weight()} {pick(head)} {weight()} {pick(tail)} {weight()} {pick(head)})"

    def field_q() -> str:
        f1, f2 = ("title", "keywords")[int(rng.integers(2))], ("title", "url")[int(rng.integers(2))]
        return f"{pick(head)}.{f1} {pick(tail)}" + (f" {pick(head)}.{f2}" if f2 == "title" else "")

    makers = {"flat": flat, "weighted": weighted, "composite": composite, "field": field_q}
    fresh = [(c, m()) for c, m in makers.items() for _ in range(mix[c])]
    rng.shuffle(fresh)
    repeats = [fresh[int(i)] for i in rng.integers(len(fresh), size=mix["repeat"])]
    round_ = fresh + repeats
    order = rng.permutation(len(round_))
    serve_round = [
        (f"s{i:03d}", round_[j][0], CLASS_MODEL[round_[j][0]], round_[j][1])
        for i, j in enumerate(order)
    ]

    batch_texts: list[str] = []
    seen: set[str] = set()
    n_flat = round(n_batch * mix["flat"] / (mix["flat"] + mix["composite"]))
    while len(batch_texts) < n_batch:
        t = flat() if len(batch_texts) < n_flat else composite()
        if t not in seen:
            seen.add(t)
            batch_texts.append(t)
    batch_queries = [(f"b{i:03d}", t) for i, t in enumerate(batch_texts)]

    ratios = sorted(base_df[h] / base_df[t] for h in head for t in tail)
    stats = {
        "seed": seed,
        "base_docs": len(base_rows),
        "delta_docs": len(delta_rows),
        "base_bytes": sum(os.path.getsize(p) for p in base_paths),
        "delta_bytes": sum(os.path.getsize(p) for p in delta_paths),
        "base_text_bytes": sum(len(r["text"].encode()) for r in base_rows),
        "round_mix": dict(Counter(c for _, c, _, _ in serve_round)),
        "repeat_share": mix["repeat"] / len(serve_round),
        "batch_flat_composite": [n_flat, n_batch - n_flat],
        "head_df": [base_df[t] for t in head],
        "tail_df_range": [base_df[tail[-1]], base_df[tail[0]]],
        "head_tail_df_ratio": {
            "min": ratios[0],
            "median": ratios[len(ratios) // 2],
            "max": ratios[-1],
        },
    }
    return Inputs(
        base_paths, delta_paths, base_rows, delta_rows, base_df, all_df,
        serve_round, batch_queries, stats,
    )
