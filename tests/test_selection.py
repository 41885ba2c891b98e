"""Handcrafted-semantics tests for the data-selection stages
(stages/selection.py: DSIR importance weights, PII scrub) and the
driver-checked multimodal metadata path (stages/multimodal.py)."""

import hashlib
import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _mk_docs(rows):
    import ray.data

    return ray.data.from_pandas(pd.DataFrame(rows))


# ----------------------------------------------------------------------------
# DSIR
# ----------------------------------------------------------------------------


def test_dsir_weights_match_hand_formula(ray_session):
    from search_engine_framework_ray.stages.dedup import _md5_hash64
    from search_engine_framework_ray.stages.selection import dsir_weights

    rows = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": ["alpha beta", "alpha alpha", "gamma delta", "beta gamma"],
            "lang": ["en", "en", "fr", "fr"],
        }
    )
    nb = 64
    got = (
        dsir_weights(_mk_docs(rows), target_value="en", n_buckets=nb)
        .to_pandas()
        .set_index("doc_id")["dsir_micros"]
        .sort_index()
    )

    # independent recomputation straight from the DSIR definition
    toks = rows.assign(tok=rows["text"].str.split()).explode("tok")
    toks["bucket"] = toks["tok"].map(lambda t: _md5_hash64(t) % nb)
    cnt = toks.groupby("bucket").agg(
        c_tgt=("lang", lambda s: int((s == "en").sum())),
        c_all=("lang", "size"),
    )
    t_tgt = float(cnt["c_tgt"].sum())
    t_all = float(cnt["c_all"].sum())

    def w(b):
        c = cnt.loc[b]
        lr = math.log((c["c_tgt"] + 1) / (t_tgt + nb)) - math.log(
            (c["c_all"] + 1) / (t_all + nb)
        )
        v = lr * 1e6
        return int(math.copysign(math.floor(abs(v) + 0.5), v))

    want = toks.assign(wm=toks["bucket"].map(w)).groupby("doc_id")["wm"].sum()
    assert got.to_dict() == want.to_dict()
    # target-language docs must outrank the rest under their own target dist
    assert min(got[0], got[1]) > max(got[2], got[3])


def test_dsir_empty_text_scores_zero(ray_session):
    from search_engine_framework_ray.stages.selection import dsir_weights

    rows = pd.DataFrame(
        {"doc_id": [0, 1], "text": ["hello world", ""], "lang": ["en", "en"]}
    )
    got = dsir_weights(_mk_docs(rows), n_buckets=32).to_pandas()
    assert int(got.set_index("doc_id").loc[1, "dsir_micros"]) == 0


# ----------------------------------------------------------------------------
# PII scrub
# ----------------------------------------------------------------------------


def test_pii_scrub_counts_and_redaction(ray_session):
    from search_engine_framework_ray.stages.selection import pii_scrub

    rows = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                "write a.b-c@mail.example.org or x@y.io now",
                "server 192.168.0.1 and 10.0.0.255 call 412-268-3564",
                "no pii here at all",
            ],
        }
    )
    got = (
        pii_scrub(_mk_docs(rows), keep_text=True)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert got["n_email"].tolist() == [2, 0, 0]
    assert got["n_ip"].tolist() == [0, 2, 0]
    assert got["n_phone"].tolist() == [0, 1, 0]
    assert got.loc[0, "text"] == "write <EMAIL> or <EMAIL> now"
    assert got.loc[1, "text"] == "server <IP> and <IP> call <PHONE>"
    assert got.loc[2, "text"] == "no pii here at all"
    for i in range(3):
        assert got.loc[i, "scrub_md5"] == hashlib.md5(
            got.loc[i, "text"].encode()
        ).hexdigest()


def test_blocklist_filter_ratio_gate(ray_session):
    from search_engine_framework_ray.stages.selection import blocklist_filter

    rows = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                "clean words only here today",  # 0 flagged / 5 → keep
                "BAD bad ok ok ok ok ok ok ok ok",  # 2/10 = 0.2 → drop
                "bad " + "ok " * 39,  # 1/40 = 0.025 ≤ 0.1 → keep
                "",  # empty: 0 ≤ 0 → keep
            ],
        }
    )
    got = (
        blocklist_filter(_mk_docs(rows), {"bad"}, max_ratio=0.1)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert got["n_words"].tolist() == [5, 10, 40, 0]
    assert got["n_flagged"].tolist() == [0, 2, 1, 0]  # lowercased match
    assert got["keep"].tolist() == [1, 0, 1, 1]


# ----------------------------------------------------------------------------
# multimodal metadata path
# ----------------------------------------------------------------------------


def test_media_meta_header_roundtrip(ray_session):
    from search_engine_framework_ray.stages.multimodal import (
        MediaMetaStage,
        synthesize_media,
    )

    rows = pd.DataFrame({"doc_id": [0, 65, 129], "text": ["aa", "b", ""]})
    media = synthesize_media(_mk_docs(rows))
    out = (
        media.map_batches(MediaMetaStage(), batch_format="pyarrow", batch_size=2)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    for d, t in zip(rows["doc_id"], rows["text"]):
        assert out.loc[d, "width"] == 33 + d % 64
        assert out.loc[d, "height"] == 33 + (d // 64) % 64
        assert out.loc[d, "n_bytes"] == 2 + len(t)
        payload = bytes([33 + d % 64, 33 + (d // 64) % 64]) + t.encode()
        assert out.loc[d, "payload_md5"] == hashlib.md5(payload).hexdigest()


def test_media_payload_is_binary_column(ray_session):
    from search_engine_framework_ray.stages.multimodal import synthesize_media

    rows = pd.DataFrame({"doc_id": [7], "text": ["xyz"]})
    tbl = synthesize_media(_mk_docs(rows)).take_batch(1, batch_format="pyarrow")
    assert pa.types.is_binary(tbl.schema.field("payload").type)

# ----------------------------------------------------------------------------
# domain mixing
# ----------------------------------------------------------------------------


def test_domain_mix_largest_remainder_and_hash_order(ray_session):
    from search_engine_framework_ray.stages.dedup import _md5_hash64
    from search_engine_framework_ray.stages.selection import domain_mix

    # en: 3 docs x 4 tokens = 12; fr: 2 docs x 1 token = 2; de: 1 doc x 9
    rows = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3, 4, 5],
            "text": [
                "a b c d", "e f g h", "i j k l",
                "m", "n",
                "o p q r s t u v w",
            ],
            "lang": ["en", "en", "en", "fr", "fr", "de"],
        }
    )
    budget, tau = 4, 0.5
    got = domain_mix(
        _mk_docs(rows), group_col="lang", budget=budget, temperature=tau
    )

    # independent largest-remainder apportionment on micro-quantized quotas
    c = {"en": 12, "fr": 2, "de": 9}
    cw = {g: v ** tau for g, v in c.items()}
    s = sum(cw[g] for g in sorted(cw))
    qm = {g: int(math.copysign(math.floor(abs(budget * cw[g] / s * 1e6) + 0.5),
                               1)) for g in cw}
    base = {g: qm[g] // 1_000_000 for g in qm}
    rem = {g: qm[g] % 1_000_000 for g in qm}
    left = budget - sum(base.values())
    for g in sorted(rem, key=lambda g: (-rem[g], g))[:left]:
        base[g] += 1
    assert sum(base.values()) == budget
    per_group = got.groupby("lang")["doc_id"].count().to_dict()
    assert per_group == {g: n for g, n in base.items() if n > 0}
    assert (got.groupby("lang")["n_alloc"].first().to_dict()
            == {g: n for g, n in base.items() if n > 0})

    # each group's picks are its smallest-md5 doc_ids
    for g, n in base.items():
        if n == 0:
            continue
        ids = rows.loc[rows["lang"] == g, "doc_id"]
        want = sorted(ids, key=lambda d: (_md5_hash64(str(d)), d))[:n]
        assert sorted(got.loc[got["lang"] == g, "doc_id"]) == sorted(want)


def test_domain_mix_budget_exhausts_small_groups(ray_session):
    from search_engine_framework_ray.stages.selection import domain_mix

    rows = pd.DataFrame(
        {
            "doc_id": [0, 1],
            "text": ["x y z", "q"],
            "lang": ["en", "fr"],
        }
    )
    got = domain_mix(_mk_docs(rows), budget=2, temperature=0.5)
    # quota can exceed group size only if budget > corpus; here it cannot
    assert len(got) == 2
    assert set(got["doc_id"]) == {0, 1}


# ----------------------------------------------------------------------------
# feature correlation
# ----------------------------------------------------------------------------


def test_feature_corr_matches_numpy(ray_session):
    from search_engine_framework_ray.stages.selection import feature_corr

    rng = np.random.default_rng(3)
    a = rng.integers(0, 100, 200)
    b = a * 2 + rng.integers(0, 10, 200)      # strongly correlated
    c = rng.integers(0, 100, 200)             # independent
    df = pd.DataFrame({"fa": a, "fb": b, "fc": c})
    got = feature_corr(_mk_docs(df), ["fa", "fb", "fc"]).set_index(
        ["feat_x", "feat_y"]
    )
    for (x, y) in [("fa", "fb"), ("fa", "fc"), ("fb", "fc")]:
        want = np.corrcoef(df[x], df[y])[0, 1]
        got_c = got.loc[(x, y), "corr_micros"] / 1e6
        assert abs(got_c - want) < 1e-5
        assert got.loc[(x, y), "sum_xy"] == int((df[x] * df[y]).sum())
    assert got.loc[("fa", "fb"), "corr_micros"] > 990_000


def test_feature_corr_exact_across_partitions(ray_session):
    """Partial-sum reduction must be exact regardless of block split."""
    from search_engine_framework_ray.stages.selection import feature_corr

    df = pd.DataFrame({"u": np.arange(1000), "v": np.arange(1000)[::-1]})
    one = feature_corr(_mk_docs(df), ["u", "v"])
    import ray.data

    many = feature_corr(
        ray.data.from_pandas(df).repartition(13), ["u", "v"]
    )
    assert one.equals(many)
    assert int(one.loc[0, "corr_micros"]) == -1_000_000


def test_feature_corr_zero_variance_is_zero(ray_session):
    from search_engine_framework_ray.stages.selection import feature_corr

    df = pd.DataFrame({"k": np.full(50, 7), "v": np.arange(50)})
    got = feature_corr(_mk_docs(df), ["k", "v"])
    assert int(got.loc[0, "corr_micros"]) == 0


def test_split_assign_deterministic_and_bounded(ray_session):
    import hashlib

    import pandas as pd
    import ray.data

    from search_engine_framework_ray.stages.selection import split_assign

    df = pd.DataFrame({"doc_id": range(200)})
    ds = ray.data.from_pandas([df.iloc[:100], df.iloc[100:].reset_index(drop=True)])
    out = split_assign(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    out2 = split_assign(ray.data.from_pandas(df)).to_pandas().sort_values(
        "doc_id"
    ).reset_index(drop=True)
    assert out.equals(out2)  # block layout must not change assignments
    # bucket is md5-low64 % 100 of the stringified id
    h0 = int.from_bytes(hashlib.md5(b"0").digest()[8:], "little") % 100
    assert int(out.loc[0, "bucket"]) == h0
    assert set(out["split"]) == {"train", "val", "test"}
    assert ((out["bucket"] < 10) == (out["split"] == "test")).all()
    assert (
        ((out["bucket"] >= 10) & (out["bucket"] < 20)) == (out["split"] == "val")
    ).all()


def test_gopher_gate_rules_and_first_fail_order(ray_session):
    import ray.data

    from search_engine_framework_ray.stages.selection import gopher_gate

    good = "the cats and dogs sat quietly " * 5  # 30 words, mean wl 4.0
    docs = pd.DataFrame(
        {
            "doc_id": list(range(6)),
            "text": [
                good,                                   # keep
                "short the and",                        # word_count (3 < 5)
                "aa " * 5 + "supercalifragilistic " * 5 + "the and",  # mean_word_length? compute below
                good + " ### ## # # #",                 # symbol_ratio
                ("1234 " * 30) + "the and",             # alpha_fraction
                "cat dog bird fish mouse " * 6,         # stopword_presence
            ],
        }
    )
    out = (
        gopher_gate(
            ray.data.from_pandas(docs),
            min_words=5,
            stops={"the", "and"},
        )
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.loc[0, "keep"] == 1 and out.loc[0, "fail_reason"] == ""
    assert out.loc[1, "fail_reason"] == "word_count"
    # doc 3: 30 good words + 5 symbol runs of '#'-only tokens → 10*n_sym >= n_words
    assert out.loc[3, "fail_reason"] == "symbol_ratio"
    assert out.loc[4, "fail_reason"] == "alpha_fraction"
    assert out.loc[5, "fail_reason"] == "stopword_presence"
    # first-fail ordering: doc 1 also lacks mean-length issues etc. but
    # word_count wins because it is checked first
    assert (out["keep"] == (out["fail_reason"] == "").astype(int)).all()


def test_gopher_gate_mean_word_length_bounds(ray_session):
    import ray.data

    from search_engine_framework_ray.stages.selection import gopher_gate

    docs = pd.DataFrame(
        {
            "doc_id": [0, 1],
            "text": [
                "a b c d e the and x y z",  # mean wl 1.2 < 3 → fails rule 2
                "the and " + "extraordinarily " * 8,  # mean wl > 10
            ],
        }
    )
    out = (
        gopher_gate(ray.data.from_pandas(docs), min_words=5, stops={"the", "and"})
        .to_pandas()
        .set_index("doc_id")
    )
    assert out.loc[0, "fail_reason"] == "mean_word_length"
    assert out.loc[1, "fail_reason"] == "mean_word_length"
