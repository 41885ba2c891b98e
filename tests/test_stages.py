"""Training-data-pipeline stages over the driver's sf0.001 tables: dedup,
ANN, text stats, windows, multimodal plumbing."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF}/documents.parquet")


@pytest.fixture(scope="module")
def docs_pdf():
    return pq.read_table(f"{SF}/documents.parquet").to_pandas()


def test_exact_dedup_matches_pandas(docs_ds, docs_pdf):
    from search_engine_framework_ray.stages.dedup import exact_dedup

    got = exact_dedup(docs_ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    want_cluster = docs_pdf.groupby("text")["doc_id"].transform("min")
    want = pd.DataFrame(
        {"doc_id": docs_pdf["doc_id"], "cluster_id": want_cluster}
    ).sort_values("doc_id").reset_index(drop=True)
    assert got["cluster_id"].tolist() == want["cluster_id"].tolist()
    assert (got["is_dup"] == (got["doc_id"] != got["cluster_id"])).all()


def test_minhash_lsh_finds_planted_dups(ray_session):
    import ray.data

    from search_engine_framework_ray.stages.dedup import minhash_lsh_dedup

    base = (
        "the quick brown fox jumps over the lazy dog and runs far away "
        "while the hunter watches from the hill with a long rifle"
    )
    rows = []
    for i in range(30):
        rows.append({"doc_id": i, "text": f"unique document number {i} " + " ".join(f"w{i}_{j}" for j in range(30))})
    rows.append({"doc_id": 100, "text": base})
    rows.append({"doc_id": 101, "text": base})  # identical
    rows.append({"doc_id": 102, "text": base.replace("rifle", "scope")})  # near-dup
    ds = ray.data.from_items(rows)
    out = minhash_lsh_dedup(ds, threshold=0.5).to_pandas()
    c = dict(zip(out["doc_id"], out["cluster_id"]))
    assert c[101] == 100
    assert c[102] == 100
    assert c[5] == 5  # uniques untouched
    assert len(out) == len(rows)  # labeling covers the whole corpus


def test_simhash_dedup(ray_session):
    import ray.data

    from search_engine_framework_ray.stages.dedup import simhash_dedup

    text = " ".join(f"tok{i}" for i in range(200))
    rows = [
        {"doc_id": 0, "text": text},
        {"doc_id": 1, "text": text.replace("tok5", "tokX")},  # tiny change
        {"doc_id": 2, "text": " ".join(f"zz{i}" for i in range(200))},
    ]
    out = simhash_dedup(ray.data.from_items(rows), max_hamming=6).to_pandas()
    c = dict(zip(out["doc_id"], out["cluster_id"]))
    assert c[1] == 0 and c[2] == 2


def test_simhash_pairs_exact_recall(ray_session):
    """4×16-bit banding + Hamming ≤ 3 is EXACT (pigeonhole): the distributed
    pair set must equal the all-pairs brute force over the sketches."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import (
        _popcount64,
        simhash_pairs,
        simhash_sketches,
    )

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    sk = simhash_sketches(ray.data.from_arrow(docs))
    got = simhash_pairs(sk, max_hamming=3, max_bucket=None)
    sdf = sk.to_pandas().sort_values("doc_id").reset_index(drop=True)
    hs = sdf["simhash"].to_numpy().astype(np.uint64)
    ids = sdf["doc_id"].to_numpy()
    iu, ju = np.triu_indices(len(ids), k=1)
    d = _popcount64(hs[iu] ^ hs[ju])
    keep = d <= 3
    want = pd.DataFrame(
        {"a": ids[iu[keep]], "b": ids[ju[keep]], "hamming": d[keep]}
    ).sort_values(["a", "b"]).reset_index(drop=True)
    assert got.astype("int64").equals(want.astype("int64"))
    assert len(got) > 0  # fixture contains duplicate texts


def test_minhash_distributed_labeling_matches_driver(ray_session):
    """The high-dup-rate scale path (distributed signature-agreement verify
    + hash-min connected-components labeling) must be result-identical to
    the driver union-find path — min-id labels on the same verified graph
    (VERDICT r3 #3)."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import minhash_lsh_dedup

    base = (
        "the quick brown fox jumps over the lazy dog and runs far away "
        "while the hunter watches from the hill with a long rifle"
    )
    rows = []
    for i in range(25):
        rows.append({"doc_id": i, "text": f"unique document number {i} " + " ".join(f"w{i}_{j}" for j in range(30))})
    for j, repl in enumerate(["rifle", "scope", "drone"]):
        rows.append({"doc_id": 100 + j, "text": base.replace("rifle", repl)})
    ds = ray.data.from_items(rows)
    drv = (
        minhash_lsh_dedup(ds, threshold=0.5, driver_label_max_pairs=None)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    dst = (
        minhash_lsh_dedup(ds, threshold=0.5, driver_label_max_pairs=0)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(drv, dst, check_dtype=False)
    assert dst.loc[dst["doc_id"] == 101, "cluster_id"].item() == 100


def test_simhash_distributed_labeling_matches_driver(ray_session):
    """Same invariant for the SimHash clustering path (sketch payload rides
    the distributed label join)."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import simhash_dedup

    text = " ".join(f"tok{i}" for i in range(200))
    rows = [
        {"doc_id": 0, "text": text},
        {"doc_id": 1, "text": text.replace("tok5", "tokX")},
        {"doc_id": 2, "text": " ".join(f"zz{i}" for i in range(200))},
        {"doc_id": 3, "text": text.replace("tok7", "tokY")},
    ]
    ds = ray.data.from_items(rows)
    drv = (
        simhash_dedup(ds, max_hamming=6, driver_label_max_pairs=None)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    dst = (
        simhash_dedup(ds, max_hamming=6, driver_label_max_pairs=0)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(drv, dst, check_dtype=False)
    assert set(dst.columns) == {"doc_id", "simhash", "cluster_id", "is_dup"}
    assert dst.loc[dst["doc_id"] == 1, "cluster_id"].item() == 0


def test_minhash_neardup_pairs_vs_bruteforce(ray_session):
    """LSH-candidate + exact-Jaccard pairs == all-pairs exact trigram
    Jaccard at the same threshold (32×2 banding leaves ~6e-15 miss)."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import (
        _shingles_strict,
        minhash_neardup_pairs,
    )

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    got = minhash_neardup_pairs(
        ray.data.from_pandas(docs), threshold=0.8, k_shingle=3, bands=32
    )
    sh = {int(i): _shingles_strict(t, 3) for i, t in zip(docs["doc_id"], docs["text"].fillna(""))}
    rows = []
    ids = sorted(sh)
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            sa, sb = sh[ids[x]], sh[ids[y]]
            if not sa.size or not sb.size:
                continue
            inter = np.intersect1d(sa, sb).size
            j = inter / (sa.size + sb.size - inter)
            if j >= 0.8:
                rows.append((ids[x], ids[y], j))
    want = pd.DataFrame(rows, columns=["a", "b", "jaccard"])
    assert got[["a", "b"]].astype("int64").values.tolist() == want[["a", "b"]].values.tolist()
    assert np.allclose(got["jaccard"], want["jaccard"])
    assert len(got) > 0


def test_ngram_jaccard():
    from search_engine_framework_ray.stages.dedup import ngram_jaccard

    a = "one two three four five six"
    assert ngram_jaccard(a, a, 3) == 1.0
    assert ngram_jaccard(a, "totally different words here now ok", 3) == 0.0


def test_brute_force_ann_matches_numpy(ray_session, docs_pdf):
    import ray.data

    from search_engine_framework_ray.stages.ann import brute_force_topk

    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    q = np.asarray(emb["embedding"].iloc[0], dtype=np.float32)
    got = brute_force_topk(ds, q, k=10)
    m = np.stack([np.asarray(e, dtype=np.float32) for e in emb["embedding"]])
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q)
    sims = mn @ qn
    order = np.lexsort((emb["vec_id"].to_numpy(), -sims))[:10]
    assert got["vec_id"].tolist() == emb["vec_id"].to_numpy()[order].tolist()
    assert np.allclose(got["score"].to_numpy(), sims[order], atol=1e-6)
    assert got["vec_id"].iloc[0] == 0  # self-match first


def test_ivf_recall_reasonable(ray_session):
    import ray.data

    from search_engine_framework_ray.stages.ann import IvfIndexedSearch, brute_force_topk

    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    q = np.asarray(emb["embedding"].iloc[7], dtype=np.float32)
    ivf = IvfIndexedSearch(ds, nlist=8)
    approx = ivf.search(q, k=10, nprobe=4)
    exact = brute_force_topk(ds, q, k=10)
    recall = len(set(approx["vec_id"]) & set(exact["vec_id"])) / 10
    assert recall >= 0.5


def test_embedding_neardup_self(ray_session):
    import ray.data

    from search_engine_framework_ray.stages.ann import embedding_neardup_pairs

    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas().head(50)
    dup = emb.copy()
    dup["vec_id"] = dup["vec_id"] + 1000  # exact duplicates planted
    ds = ray.data.from_pandas(pd.concat([emb, dup]).reset_index(drop=True))
    pairs = embedding_neardup_pairs(ds, threshold=0.999)
    found = set(zip(pairs["a"], pairs["b"]))
    assert all((int(v), int(v) + 1000) in found for v in emb["vec_id"].head(20))


def test_embedding_neardup_planted_near_dups(ray_session):
    """Multi-band SRP must recover NEAR (not just exact) duplicates: plant
    perturbed copies at cosine ≈ 0.97 and require 100% recall at 0.9."""
    rng = np.random.default_rng(5)
    import ray.data

    from search_engine_framework_ray.stages.ann import embedding_neardup_pairs

    base = rng.standard_normal((40, 64))
    noise = rng.standard_normal((40, 64)) * 0.12
    near = base + noise  # cosine ~0.96-0.99 vs base
    rows = pd.DataFrame(
        {
            "vec_id": list(range(40)) + list(range(1000, 1040)),
            "embedding": [list(map(float, v)) for v in np.vstack([base, near])],
        }
    )
    bn = base / np.linalg.norm(base, axis=1, keepdims=True)
    nn = near / np.linalg.norm(near, axis=1, keepdims=True)
    cos = np.einsum("ij,ij->i", bn, nn)
    expect = {(i, 1000 + i) for i in range(40) if cos[i] >= 0.9}
    assert len(expect) >= 30  # the perturbation really is a near-dup regime
    pairs = embedding_neardup_pairs(
        ray.data.from_pandas(rows), threshold=0.9, planes_per_band=2, bands=32
    )
    found = set(zip(pairs["a"].astype(int), pairs["b"].astype(int)))
    assert expect <= found
    assert (pairs["cosine"] >= 0.9).all()


def test_textstats_match_duckdb(docs_ds, docs_pdf):
    import duckdb

    from search_engine_framework_ray.stages.textstats import quality_score, token_count

    got = (
        docs_ds.map_batches(token_count, batch_format="pandas")
        .map_batches(quality_score, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        f"""
        select doc_id, len(string_split(text, ' ')) n_ws,
               length(text) n_chars2
        from read_parquet('{SF}/documents.parquet') order by doc_id
        """
    ).df()
    assert got["n_ws_tokens"].tolist() == want["n_ws"].tolist()
    assert got["n_chars_q"].tolist() == want["n_chars2"].tolist()
    assert ((got["stopword_ratio"] >= 0) & (got["stopword_ratio"] <= 1)).all()
    assert ((got["quality"] >= 0) & (got["quality"] <= 1)).all()


def test_langid_and_fingerprint(ray_session):
    import ray.data

    from search_engine_framework_ray.stages.textstats import LangIdStage, fingerprint

    rows = [
        {"doc_id": 0, "text": "the cat is on the mat and it is happy with the dog"},
        {"doc_id": 1, "text": "der hund ist nicht mit der katze und das ist gut"},
        {"doc_id": 2, "text": "le chat est dans la maison et il est content pour un moment"},
        {"doc_id": 3, "text": "el perro es grande y la casa es de madera con un techo"},
    ]
    ds = ray.data.from_items(rows)
    out = ds.map_batches(LangIdStage(), batch_format="pandas").to_pandas()
    got = dict(zip(out["doc_id"], out["lang_pred"]))
    assert got == {0: "en", 1: "de", 2: "fr", 3: "es"}

    f1 = fingerprint(pd.DataFrame(rows))
    f2 = fingerprint(pd.DataFrame(rows[::-1]).reset_index(drop=True))
    m1 = dict(zip(f1["doc_id"], f1["fingerprint"]))
    m2 = dict(zip(f2["doc_id"], f2["fingerprint"]))
    assert m1 == m2  # order-independent per-doc determinism
    assert len(set(m1.values())) == 4
    # whitespace-normalization invariance
    fa = fingerprint(pd.DataFrame([{"doc_id": 9, "text": "a  b\tc"}]))
    fb = fingerprint(pd.DataFrame([{"doc_id": 9, "text": "a b c"}]))
    assert fa["fingerprint"].iloc[0] == fb["fingerprint"].iloc[0]


def test_tumbling_window_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from search_engine_framework_ray.stages.window import tumbling_window

    ds = ray.data.read_parquet(f"{SF}/events.parquet")
    got = (
        tumbling_window(ds, 3600, keys=["event_type"])
        .to_pandas()
        .sort_values(["window_start", "event_type"])
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        f"""
        select time_bucket(interval 1 hour, ts) window_start, event_type,
               sum(value) value_sum, count(*) n
        from read_parquet('{SF}/events.parquet')
        group by 1, 2 order by 1, 2
        """
    ).df()
    assert len(got) == len(want)
    assert got["event_type"].tolist() == want["event_type"].tolist()
    assert np.allclose(got["value_sum"], want["value_sum"])
    assert got["n"].tolist() == want["n"].tolist()


def test_session_windows(ray_session):
    import ray.data

    from search_engine_framework_ray.stages.window import session_windows

    ts = pd.to_datetime(
        ["2024-01-01 00:00:00", "2024-01-01 00:10:00", "2024-01-01 02:00:00"]
    )
    df = pd.DataFrame({"user_id": [1, 1, 1], "ts": ts, "value": [1.0, 2.0, 3.0]})
    out = session_windows(ray.data.from_pandas(df), gap_s=1800).to_pandas()
    assert len(out) == 2
    assert sorted(out["n"].tolist()) == [1, 2]


def test_session_windows_subsecond_gap(ray_session):
    """ADVICE r1: a 1800.8 s gap must split the session (full-microsecond
    comparison, no flooring to whole seconds)."""
    import ray.data

    from search_engine_framework_ray.stages.window import session_windows

    ts = pd.to_datetime(["2024-01-01 00:00:00.000", "2024-01-01 00:30:00.800"])
    df = pd.DataFrame({"user_id": [1, 1], "ts": ts, "value": [1.0, 1.0]})
    out = session_windows(ray.data.from_pandas(df), gap_s=1800).to_pandas()
    assert len(out) == 2  # 1800.8 s > 30 min → two sessions
    ts2 = pd.to_datetime(["2024-01-01 00:00:00.500", "2024-01-01 00:30:00.400"])
    df2 = pd.DataFrame({"user_id": [1, 1], "ts": ts2, "value": [1.0, 1.0]})
    out2 = session_windows(ray.data.from_pandas(df2), gap_s=1800).to_pandas()
    assert len(out2) == 1  # 1799.9 s ≤ 30 min → one session


def test_fingerprint_md5_matches_duckdb(ray_session):
    """md5-low64 semantics: signed view of DuckDB's md5_number_lower over
    the whitespace-normalized text (full SQL parity is exercised by the
    driver-entry oracle test; this pins the kernel's byte contract)."""
    import duckdb
    import hashlib

    from search_engine_framework_ray.stages.textstats import fingerprint_md5

    rows = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": ["a  b\tc", "a b c", "", "Hello,  World!\nsecond line"],
        }
    )
    got = fingerprint_md5(rows)
    for t, fp in zip(rows["text"], got["fp_md5"]):
        s = " ".join(t.split())
        v = int.from_bytes(hashlib.md5(s.encode()).digest()[8:], "little")
        assert fp == (v - (1 << 64) if v >= (1 << 63) else v)
        duck = duckdb.execute("SELECT md5_number_lower(?)", [s]).fetchone()[0]
        assert int(duck) == v
    assert got["fp_md5"].iloc[0] == got["fp_md5"].iloc[1]  # ws-normalized equal


def test_multimodal_fake_decode(ray_session):
    import ray.data

    from search_engine_framework_ray.stages.multimodal import DecodeImageStage, decode_media

    tab = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "kind": ["image", "image"],
            "payload": pa.array([b"\x01\x02imagebytes", b"\x03other"], type=pa.binary()),
        }
    )
    ds = ray.data.from_arrow(tab)
    out = decode_media(ds, "image").to_pandas()
    assert out["feat_dim"].tolist() == [64, 64]
    # deterministic across invocations
    out2 = decode_media(ray.data.from_arrow(tab), "image").to_pandas()
    assert out["feature"].iloc[0].tolist() == out2["feature"].iloc[0].tolist()

    with pytest.raises(NotImplementedError):
        DecodeImageStage(backend="pil")(tab)


def test_asof_join_directions(ray_session):
    """asof_join vs hand-computed matches: backward picks the latest right
    ≤ left, forward the earliest ≥; left rows with no eligible right are
    dropped; keys never cross."""
    import ray.data

    from search_engine_framework_ray.stages.join import asof_join

    lts = pd.to_datetime(["2024-01-01 00:00:05", "2024-01-01 00:00:10", "2024-01-01 00:00:01"])
    left = pd.DataFrame({"event_id": [1, 2, 3], "ts": lts, "user_id": [7, 7, 9]})
    rts = pd.to_datetime(["2024-01-01 00:00:03", "2024-01-01 00:00:08", "2024-01-01 00:00:30"])
    right = pd.DataFrame({"user_id": [7, 7, 9], "ts": rts, "mark": [100, 200, 300]})

    back = asof_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right), by="user_id", on="ts"
    ).to_pandas().sort_values("event_id")
    # user 7: e1(t5)→mark100(t3), e2(t10)→mark200(t8); user 9: e3(t1) has no
    # earlier mark → dropped
    assert back["event_id"].astype(int).tolist() == [1, 2]
    assert back["r_mark"].astype(int).tolist() == [100, 200]

    fwd = asof_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right),
        by="user_id", on="ts", direction="forward",
    ).to_pandas().sort_values("event_id")
    # forward: e1(t5)→mark200(t8), e2(t10)→none, e3(t1)→mark300(t30)
    assert fwd["event_id"].astype(int).tolist() == [1, 3]
    assert fwd["r_mark"].astype(int).tolist() == [200, 300]


def test_range_join(ray_session):
    """Interval containment: inclusive bounds, multi-interval fan-out,
    no cross-key matches, empty result when nothing contains."""
    import ray.data

    from search_engine_framework_ray.stages.join import range_join

    lts = pd.to_datetime(["2024-01-01 00:00:05", "2024-01-01 00:00:30", "2024-01-01 00:01:00"])
    left = pd.DataFrame({"event_id": [1, 2, 3], "ts": lts, "user_id": [7, 7, 9]})
    right = pd.DataFrame(
        {
            "user_id": [7, 7, 9],
            "lo": pd.to_datetime(["2024-01-01 00:00:00", "2024-01-01 00:00:05", "2024-01-01 00:02:00"]),
            "hi": pd.to_datetime(["2024-01-01 00:00:10", "2024-01-01 00:00:30", "2024-01-01 00:03:00"]),
            "tag": [10, 20, 30],
        }
    )
    out = range_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right),
        by="user_id", on="ts", lo="lo", hi="hi",
    ).to_pandas().sort_values(["event_id", "r_tag"])
    # e1(t5,u7) ∈ both u7 intervals (inclusive lo of the 2nd); e2(t30,u7) ∈
    # 2nd only (inclusive hi); e3(u9) before u9's interval → dropped
    assert list(zip(out["event_id"].astype(int), out["r_tag"].astype(int))) == [
        (1, 10), (1, 20), (2, 20),
    ]


def test_multimodal_video_and_resize(ray_session):
    import ray.data

    from search_engine_framework_ray.stages.multimodal import (
        ResizeImageStage,
        decode_media,
    )

    tab = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "kind": ["video", "video"],
            "payload": pa.array([bytes(range(256)) * 4, b""], type=pa.binary()),
        }
    )
    out = decode_media(ray.data.from_arrow(tab), "video").to_pandas()
    assert len(out) == 8  # 2 docs × 4 frames
    assert sorted(out["frame_idx"].unique().tolist()) == [0, 1, 2, 3]
    assert all(len(f) == 16 for f in out["feature"])
    # empty payload → zero features, not a crash
    assert all(v == 0.0 for f in out[out["doc_id"] == 2]["feature"] for v in f)

    # resize: exact area pooling halves an 8x8 into 4x4 block means
    px = np.arange(64, dtype=np.float32)
    rtab = pa.table(
        {
            "doc_id": pa.array([7], type=pa.int64()),
            "pixels": pa.array([px.tolist()], type=pa.list_(pa.float32())),
            "px_h": pa.array([8], type=pa.int32()),
            "px_w": pa.array([8], type=pa.int32()),
        }
    )
    r = ResizeImageStage(out_size=(4, 4))(rtab).to_pandas()
    got = np.asarray(r["pixels"].iloc[0]).reshape(4, 4)
    want = px.reshape(8, 8).reshape(4, 2, 4, 2).mean(axis=(1, 3))
    assert np.allclose(got, want)
    assert r["px_h"].iloc[0] == 4 and r["px_w"].iloc[0] == 4


def test_ivf_partitioned_index_matches_inmemory(ray_session, tmp_path):
    """The cluster-partitioned on-disk IVF index (pruned per-cluster reads)
    must return exactly what the in-memory variant returns."""
    import numpy as np
    import ray.data

    from search_engine_framework_ray.stages.ann import IvfIndexedSearch

    ds = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    q = np.asarray(ds.limit(1).to_pandas()["embedding"].iloc[0], dtype=np.float64)
    mem = IvfIndexedSearch(ds, nlist=8)
    disk = IvfIndexedSearch(ds, nlist=8, index_dir=str(tmp_path / "ivf"))
    for nprobe in (2, 8):
        a = mem.search(np.stack([q, -q]), k=5, nprobe=nprobe).reset_index(drop=True)
        b = disk.search(np.stack([q, -q]), k=5, nprobe=nprobe).reset_index(drop=True)
        assert a.equals(b), f"nprobe={nprobe}"


def test_hot_key_guard_temporal_ops(ray_session):
    """A pathologically hot key must fail LOUDLY (with the salting remedy in
    the message) instead of silently OOMing the worker that owns its group —
    asof_join, range_join and session_windows all route through
    check_hot_key; a generous bound passes untouched."""
    import ray.data

    from search_engine_framework_ray.stages.join import asof_join, range_join
    from search_engine_framework_ray.stages.window import session_windows

    n = 500
    ts = pd.to_datetime("2024-01-01") + pd.to_timedelta(np.arange(n), unit="s")
    left = pd.DataFrame({"event_id": np.arange(n), "ts": ts, "user_id": 7})
    right = pd.DataFrame({"user_id": [7], "ts": [ts[0]], "mark": [1]})

    with pytest.raises(Exception, match="hot key"):
        asof_join(
            ray.data.from_pandas(left), ray.data.from_pandas(right),
            by="user_id", on="ts", hot_key_bound=100,
        ).to_pandas()
    ok = asof_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right),
        by="user_id", on="ts", hot_key_bound=10_000,
    ).to_pandas()
    assert len(ok) == n  # every left row has an eligible mark

    ivals = right.rename(columns={"ts": "lo"}).assign(hi=ts[n - 1])
    with pytest.raises(Exception, match="[Ss]alt"):
        range_join(
            ray.data.from_pandas(left), ray.data.from_pandas(ivals),
            by="user_id", on="ts", lo="lo", hi="hi", hot_key_bound=100,
        ).to_pandas()

    ev = pd.DataFrame({"user_id": 7, "ts": ts, "value": 1.0})
    with pytest.raises(Exception, match="hot key"):
        session_windows(
            ray.data.from_pandas(ev), gap_s=10.0, hot_key_bound=100
        ).to_pandas()
    sess = session_windows(
        ray.data.from_pandas(ev), gap_s=10.0, hot_key_bound=10_000
    ).to_pandas()
    assert len(sess) == 1 and int(sess["n"].iloc[0]) == n


def test_substring_dedup_semantics(ray_session):
    """First occurrence (min (doc_id, pos)) keeps its span; later exact
    8-token repeats are cut, overlapping duplicated spans merge, and short
    docs pass through untouched (canonical-whitespace rebuild)."""
    from search_engine_framework_ray.stages.dedup import substring_dedup

    import ray.data

    span = "q w e r t y u i"  # 8 tokens
    docs = [
        {"doc_id": 0, "text": f"{span} tail0"},          # first occurrence: kept
        {"doc_id": 1, "text": f"head1 {span} tail1"},    # repeat: 8 tokens cut
        {"doc_id": 2, "text": f"{span} o {span}"},       # two repeats in one doc
        {"doc_id": 3, "text": "short doc"},              # < 8 tokens: untouched
    ]
    out = (
        substring_dedup(ray.data.from_items(docs), min_len=8, n_buckets=8, doc_buckets=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out["n_removed"]) == [0, 8, 16, 0]
    assert out.loc[0, "clean_text"] == f"{span} tail0"
    assert out.loc[1, "clean_text"] == "head1 tail1"
    assert out.loc[2, "clean_text"] == "o"  # both spans cut, bridge token kept
    assert out.loc[3, "clean_text"] == "short doc"


def test_semantic_dedup_planted_duplicates(ray_session):
    """SemDeDup keep/drop semantics: exact duplicates planted with HIGHER
    ids must be dropped (lowest id is the cluster-canonical survivor), the
    originals and the isolated vectors all kept, and the kmeans bucketing
    must agree with kmeans_clusters."""
    import ray.data

    from search_engine_framework_ray.stages.ann import (
        kmeans_clusters,
        semantic_dedup,
    )

    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas().head(60)
    dup = emb.head(15).copy()
    dup["vec_id"] = dup["vec_id"] + 5000  # exact duplicates, higher ids
    both = pd.concat([emb, dup]).reset_index(drop=True)
    ds = ray.data.from_pandas(both)

    out = (
        semantic_dedup(ds, k=5, iters=2, threshold_micros=999_000)
        .to_pandas()
        .set_index("vec_id")
    )
    assert len(out) == len(both)
    # every planted copy dropped, every original kept (cosine(self)=1.0)
    for v in dup["vec_id"]:
        assert out.loc[int(v), "keep"] == 0
    for v in emb["vec_id"]:
        assert out.loc[int(v), "keep"] == 1
    # bucketing identical to the standalone kmeans operator
    kc = kmeans_clusters(ds, k=5, iters=2).to_pandas().set_index("vec_id")
    assert out["cluster"].sort_index().equals(kc["cluster"].sort_index())


def test_session_windows_salted_bit_identical(ray_session):
    """The salted hot-key path must reproduce the single-group scan
    EXACTLY — including a dense hot key spanning many slices, sessions
    that straddle slice boundaries, and a sparse key whose every event is
    its own session."""
    import ray.data

    from search_engine_framework_ray.stages.window import session_windows

    rng = np.random.default_rng(17)
    rows = []
    # hot key: 2,000 events at ~60 s spacing (one long session crossing
    # every 2h slice) plus occasional >gap holes that split it
    t = 0
    for i in range(2000):
        t += int(rng.integers(30, 120)) if i % 400 else 4000
        rows.append(("hot", t, 1.0))
    # sparse key: every event isolated
    rows += [("sparse", i * 10_000, 2.0) for i in range(20)]
    # boundary key: events hugging slice edges (7200 s slices)
    rows += [("edge", s, 0.5) for s in (7199, 7201, 14399, 14401, 21603)]
    df = pd.DataFrame(
        {
            "user_id": [r[0] for r in rows],
            "ts": pd.to_datetime([r[1] for r in rows], unit="s"),
            "value": [r[2] for r in rows],
        }
    )

    def run(**kw):
        out = session_windows(
            ray.data.from_pandas(df), gap_s=1800, **kw
        ).to_pandas()
        return (
            out.sort_values(["user_id", "session_start"])
            .reset_index(drop=True)[
                ["user_id", "session_start", "session_end", "n", "value_sum"]
            ]
        )

    plain = run()
    salted = run(salt_slice_s=7200)
    pd.testing.assert_frame_equal(plain, salted)
    # the salted path keeps per-group inputs bounded: a bound the raw hot
    # key would blow (2,000 events) passes because merge sees SESSIONS
    salted_bounded = run(salt_slice_s=7200, hot_key_bound=500)
    pd.testing.assert_frame_equal(plain, salted_bounded)
    import pytest as _pytest

    with _pytest.raises(Exception, match="hot key"):
        run(hot_key_bound=500)  # unsalted guard still trips


def test_asof_join_salted_bit_identical(ray_session):
    """Salted as-of (carry-in per probe slice) must equal the single-group
    join in BOTH directions: probes whose predecessor lives many slices
    back, right rows hugging slice edges, ties on `on`, and keys with no
    match at all."""
    import ray.data

    from search_engine_framework_ray.stages.join import asof_join

    rng = np.random.default_rng(29)
    # hot key: 1,500 probes over 20 slices (7200 s each), sparse right side
    lt = np.sort(rng.integers(0, 20 * 7200, size=1500))
    rt = np.sort(rng.choice(20 * 7200, size=40, replace=False))
    rows_l = [("hot", int(t), i) for i, t in enumerate(lt)]
    rows_r = [("hot", int(t), 10_000 + i) for i, t in enumerate(rt)]
    # duplicate `on` tie on the right (kernel tie-sort must agree)
    rows_r += [("hot", int(rt[5]), 20_000)]
    # edge key: right rows exactly at slice boundaries
    rows_l += [("edge", 7200, 1), ("edge", 7201, 2), ("edge", 14400, 3)]
    rows_r += [("edge", 7200, 30_000), ("edge", 14400, 30_001)]
    # lonely key: probes with no right rows at all (must drop)
    rows_l += [("lonely", 50, 7)]

    def mk(rows):
        import pyarrow as pa

        return ray.data.from_arrow(
            pa.Table.from_pandas(
                pd.DataFrame(
                    {
                        "user_id": [r[0] for r in rows],
                        "ts": pd.to_datetime([r[1] for r in rows], unit="s"),
                        "event_id": [r[2] for r in rows],
                    }
                )
            ).combine_chunks()
        )

    for direction in ("backward", "forward"):
        plain = asof_join(
            mk(rows_l), mk(rows_r), by="user_id", on="ts", direction=direction
        ).to_pandas()
        salted = asof_join(
            mk(rows_l), mk(rows_r), by="user_id", on="ts",
            direction=direction, salt_slice_s=7200,
        ).to_pandas()

        def norm(df):
            df = df.copy()
            df["r_event_id"] = df["r_event_id"].astype("int64")
            return df.sort_values(["user_id", "ts", "event_id"]).reset_index(
                drop=True
            )

        pd.testing.assert_frame_equal(norm(plain), norm(salted))
        assert not (norm(plain)["user_id"] == "lonely").any()


def test_range_join_salted_bit_identical(ray_session):
    """Salted range join (interval replication across slices) must equal
    the single-group join exactly: intervals spanning many slices, probes
    at interval endpoints, nested/overlapping intervals, and empty keys."""
    import pyarrow as pa
    import ray.data

    from search_engine_framework_ray.stages.join import range_join

    rng = np.random.default_rng(41)
    lt = np.sort(rng.integers(0, 15 * 3600, size=800))
    rows_l = [("hot", int(t), i) for i, t in enumerate(lt)]
    ivals = []
    for i in range(25):  # overlapping, some spanning 5+ slices
        a = int(rng.integers(0, 13 * 3600))
        ivals.append((a, a + int(rng.integers(60, 6 * 3600))))
    rows_r = [("hot", a, b, 500 + i) for i, (a, b) in enumerate(ivals)]
    # endpoint probes: on == lo and on == hi must match (inclusive)
    rows_l += [("edge", ivals[0][0], 9000), ("edge", ivals[0][1], 9001)]
    rows_r += [("edge", ivals[0][0], ivals[0][1], 9500)]
    rows_l += [("lonely", 42, 9002)]

    def mk_l(rows):
        return ray.data.from_arrow(pa.Table.from_pandas(pd.DataFrame({
            "user_id": [r[0] for r in rows],
            "ts": pd.to_datetime([r[1] for r in rows], unit="s"),
            "event_id": [r[2] for r in rows],
        })).combine_chunks())

    def mk_r(rows):
        return ray.data.from_arrow(pa.Table.from_pandas(pd.DataFrame({
            "user_id": [r[0] for r in rows],
            "lo": pd.to_datetime([r[1] for r in rows], unit="s"),
            "hi": pd.to_datetime([r[2] for r in rows], unit="s"),
            "ival_id": [r[3] for r in rows],
        })).combine_chunks())

    def norm(df):
        df = df.copy()
        df["r_ival_id"] = df["r_ival_id"].astype("int64")
        return df.sort_values(
            ["user_id", "event_id", "r_ival_id"]
        ).reset_index(drop=True)

    plain = range_join(
        mk_l(rows_l), mk_r(rows_r), by="user_id", on="ts", lo="lo", hi="hi"
    ).to_pandas()
    salted = range_join(
        mk_l(rows_l), mk_r(rows_r), by="user_id", on="ts", lo="lo", hi="hi",
        salt_slice_s=3600,
    ).to_pandas()
    pd.testing.assert_frame_equal(norm(plain), norm(salted))
    got = norm(plain)
    assert len(got[got["user_id"] == "edge"]) == 2  # inclusive endpoints
    assert not (got["user_id"] == "lonely").any()


def test_window_topk_matches_naive(ray_session):
    import ray.data
    from search_engine_framework_ray.stages.window import window_topk

    rng = np.random.default_rng(3)
    n = 2000
    pdf = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pd.to_datetime(rng.integers(0, 20 * 3600, n), unit="s"),
            "value": rng.normal(size=n).round(3),  # rounding makes TIES
        }
    )
    ds = ray.data.from_pandas(pdf).repartition(7)  # windows split across batches
    got = (
        window_topk(ds, 3600, 3)
        .to_pandas()
        .sort_values(["window_start", "rank"])
        .reset_index(drop=True)
    )
    naive = pdf.copy()
    naive["window_start"] = pd.to_datetime(
        (naive["ts"].astype("datetime64[us]").astype("int64") // 10**6 // 3600)
        * 3600,
        unit="s",
    )
    naive = naive.sort_values(
        ["window_start", "value", "event_id"], ascending=[True, False, True]
    )
    naive = naive.groupby("window_start", sort=True).head(3)
    naive["rank"] = naive.groupby("window_start").cumcount() + 1
    naive = naive[["window_start", "event_id", "value", "rank"]].reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["window_start", "event_id", "value", "rank"]],
        naive,
        check_dtype=False,
    )


def test_decayed_agg_half_life(ray_session):
    import ray.data
    from search_engine_framework_ray.stages.window import decayed_agg

    ref = pd.Timestamp("2026-01-01 12:00:00")
    pdf = pd.DataFrame(
        {
            "ts": [ref, ref - pd.Timedelta(seconds=1800),
                   ref - pd.Timedelta(seconds=3600)],
            "event_type": ["a", "a", "a"],
            "value": [4.0, 4.0, 4.0],
        }
    )
    ds = ray.data.from_pandas(pdf).repartition(3)
    out = decayed_agg(ds, ref, 1800.0, keys=["event_type"]).to_pandas()
    # weights: 1, 1/2, 1/4 → decayed_n = 1.75, decayed_sum = 7.0
    assert abs(out["decayed_n"].iloc[0] - 1.75) < 1e-12
    assert abs(out["decayed_sum"].iloc[0] - 7.0) < 1e-11

    import pytest as _pytest
    with _pytest.raises(ValueError):
        decayed_agg(ds, ref, 1800.0, keys=[])


def test_session_funnel(ray_session):
    import ray.data
    from search_engine_framework_ray.stages.window import session_funnel

    t0 = pd.Timestamp("2026-01-01 10:00:00")
    rows = [
        # user 1, one session: full funnel in order
        (1, t0, "view"), (1, t0 + pd.Timedelta("1min"), "click"),
        (1, t0 + pd.Timedelta("2min"), "purchase"),
        # user 2: click BEFORE view → reaches view only
        (2, t0, "click"), (2, t0 + pd.Timedelta("1min"), "view"),
        # user 2, SECOND session (gap > 30min): view then click
        (2, t0 + pd.Timedelta("2h"), "view"),
        (2, t0 + pd.Timedelta("2h 1min"), "click"),
        # user 3: view and click at the SAME timestamp → strict > excludes
        (3, t0, "view"), (3, t0, "click"),
    ]
    pdf = pd.DataFrame(rows, columns=["user_id", "ts", "event_type"])
    out = session_funnel(
        ray.data.from_pandas(pdf).repartition(3), 1800,
        ["view", "click", "purchase"],
    )
    assert out["n_sessions"].tolist() == [4, 2, 1]
    assert out["step_name"].tolist() == ["view", "click", "purchase"]


def test_line_dedup_newline_mode(ray_session):
    """CCNet shape: literal newline lines, first occurrence (minimal
    (doc_id, line_no)) survives, every later exact copy is dropped —
    including a doc's own internal repeats."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import line_dedup

    pdf = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "cookie banner\nunique alpha\ncookie banner",
                "cookie banner\nunique beta",
                "",
            ],
        }
    )
    out = (
        line_dedup(ray.data.from_pandas(pdf))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["clean_text"].tolist() == [
        "cookie banner\nunique alpha",
        "unique beta",
        "",
    ]
    assert out["n_kept"].tolist() == [2, 1, 0]
    assert out["n_dropped"].tolist() == [1, 1, 0]


def test_line_dedup_token_windows(ray_session):
    """Token-window mode: 2-token windows, the duplicate window in the
    later doc is removed while the partial tail window survives."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import line_dedup

    pdf = pd.DataFrame(
        {
            "doc_id": [10, 20],
            "text": ["a b c d", "a b x"],  # doc 20: windows "a b", "x"
        }
    )
    out = (
        line_dedup(ray.data.from_pandas(pdf), tokens_per_line=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["clean_text"].tolist() == ["a b c d", "x"]
    assert out["n_dropped"].tolist() == [0, 1]


def test_sq_quantization_roundtrip_and_recall(ray_session):
    """SQ8: codes are uint8, constant dims code to 0 and reconstruct to
    the constant, and asymmetric SQ search keeps high recall@10 vs exact
    brute force on random vectors (8-bit grid error ≪ neighbour gaps)."""
    import ray.data

    from search_engine_framework_ray.stages.ann import (
        brute_force_topk,
        sq_encode,
        sq_minmax,
        sq_topk,
    )

    rng = np.random.default_rng(3)
    n, d = 2000, 32
    emb = rng.standard_normal((n, d)).astype(np.float32)
    emb[:, 5] = 1.25  # constant dimension
    pdf = pd.DataFrame(
        {"vec_id": np.arange(n, dtype=np.int64), "embedding": list(emb)}
    )
    ds = ray.data.from_pandas(pdf).repartition(4)
    lo, hi = sq_minmax(ds)
    assert lo[5] == hi[5] == np.float64(np.float32(1.25))
    codes_ds = sq_encode(ds, lo, hi)
    codes = codes_ds.to_pandas()
    first = np.asarray(codes["codes"].iloc[0])
    assert first.dtype == np.uint8
    assert all(np.asarray(c)[5] == 0 for c in codes["codes"].head(50))

    q = emb[7].astype(np.float64)
    sq = sq_topk(codes_ds, lo, hi, q, k=10)
    exact = brute_force_topk(ds, q, k=10)
    overlap = len(set(sq["vec_id"]) & set(exact["vec_id"]))
    assert sq["vec_id"].iloc[0] == 7  # self is nearest either way
    assert overlap >= 8  # recall@10 ≥ 0.8 from 8-bit quantization


def test_pq_codes_and_adc_recall(ray_session):
    """PQ: codebooks are (m, ksub, d/m)-shaped with live cids, codes pick
    the per-subspace argmin, self is the nearest ADC hit, and ADC search
    keeps reasonable recall@10 vs exact L2 brute force on clustered
    vectors (coarse 8-centroid codebooks resolve cluster structure)."""
    import ray.data

    from search_engine_framework_ray.stages.ann import (
        _kmeans_assign,
        pq_encode,
        pq_fit,
        pq_topk,
    )

    rng = np.random.default_rng(11)
    n, d, m = 1200, 32, 4
    centers = rng.standard_normal((8, d)) * 4
    emb = (
        centers[rng.integers(0, 8, n)] + rng.standard_normal((n, d)) * 0.3
    ).astype(np.float32)
    pdf = pd.DataFrame(
        {"vec_id": np.arange(n, dtype=np.int64), "embedding": list(emb)}
    )
    ds = ray.data.from_pandas(pdf).repartition(4)
    books = pq_fit(ds, m=m, ksub=8, iters=2)
    assert len(books) == m
    dsub = d // m
    for cids, C in books:
        assert C.shape[1] == dsub
        assert len(cids) == C.shape[0] <= 8
        assert np.all(np.diff(cids) > 0)  # ascending live ids

    codes = pq_encode(ds, books).to_pandas().set_index("vec_id")
    # spot-check: code = the training assignment rule on the raw vector
    x = emb[17].astype(np.float64)
    got = np.asarray(codes.loc[17, "codes"], dtype=np.int64)
    for s, (cids, C) in enumerate(books):
        want = cids[_kmeans_assign(x[None, s * dsub : (s + 1) * dsub], C)][0]
        assert got[s] == want

    q = emb[7].astype(np.float64)
    res = pq_topk(pq_encode(ds, books), books, q, k=10)
    assert list(res.columns) == ["rank", "vec_id", "adc_micros"]
    assert res["adc_micros"].is_monotonic_increasing
    # coarse 8-centroid codebooks can't order WITHIN a cluster (members
    # share codes) — the guarantee is cluster-level: every ADC hit lies in
    # the query's ground-truth cluster (nearest planted center)
    d2c = ((centers[None, :, :] - emb[:, None, :].astype(np.float64)) ** 2).sum(
        axis=2
    )
    truth = d2c.argmin(axis=1)
    assert all(truth[v] == truth[7] for v in res["vec_id"])


def test_exact_quantiles_refine_and_duplicate_mass(ray_session):
    """Histogram-refine selection: exact order statistics with tight
    final_bound (forcing refine rounds), 90%-duplicate mass resolving via
    the single-distinct-value bin, NaN exclusion, and the no-refine tiny
    path."""
    import ray.data

    from search_engine_framework_ray.stages.aggregate import exact_quantiles

    rng = np.random.default_rng(11)
    v = np.concatenate(
        [rng.standard_normal(60_000), np.full(20_000, 1.5), [np.nan] * 50]
    )
    ds = ray.data.from_pandas(pd.DataFrame({"value": v})).repartition(8)
    out = exact_quantiles(
        ds, "value", [0.5, 0.9, 0.99], n_bins=32, final_bound=256, max_refine=8
    )
    clean = np.sort(v[~np.isnan(v)])
    for _, r in out.iterrows():
        k = int(np.floor(r["q"] * (len(clean) - 1)))
        assert r["value"] == clean[k], (r["q"], r["value"], clean[k])
    assert int(out["n"].iloc[0]) == len(clean)

    tiny = ray.data.from_pandas(pd.DataFrame({"value": [5.0, 1.0, 3.0]}))
    got = exact_quantiles(tiny, "value", [0.0, 0.5, 1.0])
    assert got["value"].tolist() == [1.0, 3.0, 5.0]


def test_bloom_semi_anti_join_with_false_positives(ray_session):
    """A deliberately saturated Bloom filter (64 bits for 40 build keys ⇒
    most probes are false positives) must still yield EXACT semi and anti
    results — the verify co-partition kills every FP. Also checks dtype
    survival through the tagged union (int64 ids stay integral)."""
    import ray.data

    from search_engine_framework_ray.stages.join import bloom_semi_join

    probe = pd.DataFrame(
        {
            "k": np.arange(1000, dtype=np.int64),
            "payload": [f"p{i}" for i in range(1000)],
        }
    )
    build = pd.DataFrame({"bk": np.arange(0, 80, 2, dtype=np.int64)})  # evens < 80
    pds = ray.data.from_pandas(probe).repartition(4)
    bds = ray.data.from_pandas(build).repartition(2)
    semi = (
        bloom_semi_join(pds, bds, probe_key="k", build_key="bk", bits=64, k_hashes=2)
        .to_pandas()
        .sort_values("k")
    )
    assert semi["k"].astype("int64").tolist() == list(range(0, 80, 2))
    anti = (
        bloom_semi_join(
            pds, bds, probe_key="k", build_key="bk", anti=True, bits=64, k_hashes=2
        )
        .to_pandas()
        .sort_values("k")
    )
    expect_anti = sorted(set(range(1000)) - set(range(0, 80, 2)))
    assert anti["k"].astype("int64").tolist() == expect_anti
    assert anti["payload"].iloc[0] == f"p{expect_anti[0]}"


def test_running_sum_matches_naive(ray_session):
    import ray.data

    from search_engine_framework_ray.stages.window import running_sum

    rng = np.random.default_rng(7)
    n = 5_000
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 40, n),
            "ts": pd.to_datetime(rng.integers(0, 10**6, n), unit="s"),
            "event_id": np.arange(n, dtype=np.int64),
            "value_micros": rng.integers(-500, 500, n).astype(np.int64),
        }
    )
    got = (
        running_sum(
            ray.data.from_pandas(df).repartition(8),
            key="user_id",
            ts_col="ts",
            id_col="event_id",
            value_col="value_micros",
        )
        .to_pandas()
        .sort_values(["user_id", "ts", "event_id"])
        .reset_index(drop=True)
    )
    want = df.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
    want["running"] = want.groupby("user_id")["value_micros"].cumsum()
    pd.testing.assert_frame_equal(
        got[["user_id", "event_id", "running"]],
        want[["user_id", "event_id", "running"]],
        check_dtype=False,
    )


def test_running_sum_hot_key_guard(ray_session):
    import ray.data

    from search_engine_framework_ray.stages.window import running_sum

    df = pd.DataFrame(
        {
            "user_id": np.zeros(100, dtype=np.int64),
            "ts": pd.to_datetime(np.arange(100), unit="s"),
            "event_id": np.arange(100, dtype=np.int64),
            "value_micros": np.ones(100, dtype=np.int64),
        }
    )
    ds = running_sum(
        ray.data.from_pandas(df).repartition(4),
        key="user_id",
        ts_col="ts",
        id_col="event_id",
        value_col="value_micros",
        hot_key_bound=10,
    )
    with pytest.raises(Exception, match="hot key"):
        ds.to_pandas()


def test_pivot_counts_matches_crosstab(ray_session):
    import ray.data

    from search_engine_framework_ray.stages.aggregate import pivot_counts

    rng = np.random.default_rng(11)
    n = 3_000
    cats = ["a", "b", "c"]
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 25, n),
            # 'z' is outside the declared category set -> dropped
            "event_type": rng.choice(cats + ["z"], n),
        }
    )
    got = (
        pivot_counts(
            ray.data.from_pandas(df).repartition(6),
            key="user_id",
            cat_col="event_type",
            categories=cats,
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    want = (
        pd.crosstab(df["user_id"], df["event_type"])
        .reindex(columns=cats, fill_value=0)
        .rename(columns={c: f"n_{c}" for c in cats})
        .reset_index()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    want.columns.name = None
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_latest_by_key_ties_and_parallelism(ray_session):
    import ray.data

    from search_engine_framework_ray.stages.aggregate import latest_by_key

    # two rows share the max ts for user 1 -> event_id breaks the tie
    df = pd.DataFrame(
        {
            "user_id": [1, 1, 1, 2, 2],
            "ts": pd.to_datetime([5, 9, 9, 3, 4], unit="s"),
            "event_id": [10, 11, 12, 20, 21],
            "payload": ["a", "b", "c", "d", "e"],
        }
    )
    got = (
        latest_by_key(
            ray.data.from_pandas(df).repartition(5),
            key="user_id",
            order_cols=[("ts", False), ("event_id", False)],
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert got["event_id"].tolist() == [12, 21]
    assert got["payload"].tolist() == ["c", "e"]


def test_grouped_concat_ordered(ray_session):
    import ray.data

    from search_engine_framework_ray.stages.aggregate import grouped_concat

    rng = np.random.default_rng(3)
    n = 2_000
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 30, n),
            "ts": pd.to_datetime(rng.integers(0, 10**5, n), unit="s"),
            "event_id": np.arange(n, dtype=np.int64),
            "event_type": rng.choice(["a", "b", "c"], n),
        }
    )
    got = (
        grouped_concat(
            ray.data.from_pandas(df).repartition(7),
            key="user_id",
            order_cols=["ts", "event_id"],
            val_col="event_type",
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    want = (
        df.sort_values(["user_id", "ts", "event_id"])
        .groupby("user_id")["event_type"]
        .agg(",".join)
        .reset_index()
        .rename(columns={"event_type": "path"})
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_rollup_counts_levels(ray_session):
    import ray.data

    from search_engine_framework_ray.stages.aggregate import rollup_counts

    df = pd.DataFrame(
        {
            "source": ["s1", "s1", "s1", "s2", "s2"],
            "lang": ["en", "en", "fr", "en", "de"],
            "m": np.array([1, 2, 4, 8, 16], dtype=np.int64),
        }
    )
    out = rollup_counts(
        ray.data.from_pandas(df).repartition(3), keys=["source", "lang"], micros_col="m"
    )
    def row(src, lg):
        r = out[(out["source"] == src) & (out["lang"] == lg)]
        assert len(r) == 1
        return int(r["m"].iloc[0]), int(r["n"].iloc[0])

    assert row("s1", "en") == (3, 2)
    assert row("s1", "fr") == (4, 1)
    assert row("s1", "(all)") == (7, 3)
    assert row("s2", "(all)") == (24, 2)
    assert row("(all)", "(all)") == (31, 5)
    assert len(out) == 4 + 2 + 1


def test_chunk_documents_windows(ray_session):
    import pandas as pd
    import ray.data

    from search_engine_framework_ray.stages.packing import chunk_documents

    text = " ".join(f"w{i}" for i in range(100))
    df = pd.DataFrame({"doc_id": [1, 2, 3], "text": [text, "a b", ""]})
    out = (
        chunk_documents(ray.data.from_pandas(df))
        .to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )
    d1 = out[out["doc_id"] == 1]
    assert d1["start_tok"].tolist() == [0, 48, 96]
    assert d1["n_tokens"].tolist() == [64, 52, 4]
    d2 = out[out["doc_id"] == 2]
    assert d2["n_tokens"].tolist() == [2]
    assert (out["doc_id"] == 3).sum() == 0  # empty doc emits no chunks
    # overlapping windows share tokens → different fingerprints
    assert d1["chunk_fp"].nunique() == 3


def test_normalize_text_rules(ray_session):
    import pandas as pd
    import ray.data

    from search_engine_framework_ray.stages.textstats import normalize_text

    df = pd.DataFrame(
        {
            "doc_id": [1, 2],
            "text": ["café  x\x07y\tz ", "  plain  text  "],
        }
    )
    out = (
        normalize_text(ray.data.from_pandas(df))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out.loc[0, "norm_text"] == "café xy z"
    assert out.loc[1, "norm_text"] == "plain text"


def test_cohort_retention_cross_block_distinct(ray_session):
    """Cohort retention: duplicate (user, period) pairs across blocks count
    once, cohort = first period, ages exact."""
    import ray.data

    from search_engine_framework_ray.stages.window import cohort_retention

    day = 86_400_000_000
    base = pd.Timestamp("2024-01-01").value // 1000  # µs
    mk = lambda d: pd.Timestamp((base + d * day) * 1000)
    # u1: days 0,1,3 (two events on day 1 in DIFFERENT blocks)
    # u2: days 1,2 — cohort 1
    pdf = pd.DataFrame(
        {
            "user_id": [1, 1, 1, 1, 2, 2],
            "ts": [mk(0), mk(1), mk(1.2), mk(3), mk(1), mk(2)],
        }
    )
    ds = ray.data.from_pandas(pdf).repartition(6)
    out = (
        cohort_retention(ds, period_s=86_400)
        .to_pandas()
        .sort_values(["cohort", "age"])
        .reset_index(drop=True)
    )
    d0 = base // day
    want = pd.DataFrame(
        {
            "cohort": [d0, d0, d0, d0 + 1, d0 + 1],
            "age": [0, 1, 3, 0, 1],
            "n": [1, 1, 1, 1, 1],
        }
    )
    pd.testing.assert_frame_equal(
        out.astype("int64"), want.astype("int64"), check_dtype=False
    )


def test_percolate_semantics_and_gaps(ray_session):
    """Percolation: NEAR/1 respects gap-preserving positions (a stopword
    slot breaks adjacency under the default analyzer), SYN tf sums member
    tfs, WINDOW is unordered, and Sl (score-layer) queries raise."""
    import ray.data

    from search_engine_framework_ray.stages.percolate import (
        PercolateStage,
        percolate,
    )

    rows = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                "spark join now",  # adjacent → near hit
                "spark the join",  # stopword gap → NO near hit; win hit
                "join then spark",  # reversed, dist 2 → win hit only
                "nothing here",
            ],
        }
    )
    qs = [
        ("near", "#NEAR/1(spark join)"),
        ("syn", "#SYN(spark join)"),
        ("win", "#WINDOW/3(spark join)"),
    ]
    out = (
        percolate(ray.data.from_pandas(rows).repartition(2), qs)
        .to_pandas()
        .sort_values(["qid", "doc_id"])
        .reset_index(drop=True)
    )
    hits = {q: g["doc_id"].tolist() for q, g in out.groupby("qid")}
    assert hits["near"] == [0]
    assert hits["win"] == [0, 1, 2]
    assert hits["syn"] == [0, 1, 2]
    syn_tf = out[out["qid"] == "syn"].set_index("doc_id")["tf"]
    assert syn_tf.tolist() == [2, 2, 2]  # both members present in each hit

    with pytest.raises(ValueError):
        PercolateStage([("bad", "#AND(spark join)")])
    # the stage is built when percolate() is called: a bad query fails
    # there, before the (lazy) Dataset is consumed
    with pytest.raises(ValueError):
        percolate(ray.data.from_pandas(rows), [("bad", "#AND(spark join)")])


def test_char_entropy_closed_form(ray_session):
    """Entropy: uniform 4-symbol text = 2 bits exactly, constant text = 0,
    empty = 0 with n_chars 0."""
    import ray.data

    from search_engine_framework_ray.stages.textstats import char_entropy

    pdf = pd.DataFrame(
        {"doc_id": [0, 1, 2], "text": ["abcd" * 8, "aaaa", ""]}
    )
    out = (
        char_entropy(ray.data.from_pandas(pdf))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["n_chars"].tolist() == [32, 4, 0]
    assert out["entropy_micros"].tolist() == [2_000_000, 0, 0]


def test_ivfpq_prunes_and_matches_full_pq(ray_session):
    """IVF-PQ: with nprobe=nlist the ranking equals plain PQ ADC (pruning
    off = same codes, same table); with nprobe=1 every hit's coarse cell
    is the query's own cell."""
    import ray.data

    from search_engine_framework_ray.stages.ann import (
        ivf_pq_topk,
        pq_encode,
        pq_fit,
        pq_topk,
    )

    rng = np.random.default_rng(3)
    n, d = 800, 32
    centers = rng.standard_normal((6, d)) * 4
    emb = (
        centers[rng.integers(0, 6, n)] + rng.standard_normal((n, d)) * 0.3
    ).astype(np.float32)
    pdf = pd.DataFrame(
        {"vec_id": np.arange(n, dtype=np.int64), "embedding": list(emb)}
    )
    ds = ray.data.from_pandas(pdf).repartition(4)
    q = emb[5].astype(np.float64)

    full = ivf_pq_topk(ds, q, nlist=6, nprobe=6, m=4, ksub=8, k=10)
    books = pq_fit(ds, m=4, ksub=8, iters=2)
    plain = pq_topk(pq_encode(ds, books), books, q, k=10)
    assert full["vec_id"].tolist() == plain["vec_id"].tolist()
    assert full["adc_micros"].tolist() == plain["adc_micros"].tolist()

    pruned = ivf_pq_topk(ds, q, nlist=6, nprobe=1, m=4, ksub=8, k=10)
    assert pruned["coarse"].nunique() == 1  # only the query's cell scanned
    assert len(pruned) == 10


def test_skew_report_exact_gini(ray_session):
    """Skew report: hand-checkable distributions — uniform counts give
    Gini 0; a planted hot key moves Gini and max/p50 as computed by the
    brute-force rank formula."""
    import ray.data

    from search_engine_framework_ray.stages.aggregate import skew_report

    # 4 keys × 3 rows each → uniform
    uni = pd.DataFrame({"k": np.repeat([1, 2, 3, 4], 3)})
    r = skew_report(ray.data.from_pandas(uni).repartition(3), "k")
    assert r.loc[0, "n_keys"] == 4 and r.loc[0, "total"] == 12
    assert r.loc[0, "gini_micros"] == 0
    assert r.loc[0, "p50_cnt"] == 3 and r.loc[0, "max_cnt"] == 3

    # hot key: counts [1, 1, 1, 9]
    hot = pd.DataFrame({"k": [1, 2, 3] + [9] * 9})
    r2 = skew_report(ray.data.from_pandas(hot).repartition(4), "k")
    counts = np.array([1, 1, 1, 9])
    n, tot = 4, 12
    srk = int((np.arange(1, 5) * np.sort(counts)).sum())
    want = (2 * srk - (n + 1) * tot) / (n * tot)
    assert r2.loc[0, "gini_micros"] == int(np.floor(want * 1e6 + 0.5))
    assert r2.loc[0, "max_cnt"] == 9 and r2.loc[0, "p99_cnt"] == 9


def test_profile_table_nulls_and_typed_minmax(ray_session):
    """Profiler: cross-block int min/max stay numeric ("9" vs "10" order
    bug pinned), nulls counted, exact ndv across blocks, string columns
    lexicographic."""
    import ray.data

    from search_engine_framework_ray.stages.aggregate import profile_table

    pdf = pd.DataFrame(
        {
            "a": pd.array([9, 10, None, 200, 9], dtype="Int64"),
            "s": ["b", "a", "c", None, "a"],
        }
    )
    out = (
        profile_table(ray.data.from_pandas(pdf).repartition(5), ["a", "s"])
        .set_index("col")
    )
    assert out.loc["a", "n"] == 5 and out.loc["a", "n_null"] == 1
    assert out.loc["a", "ndv"] == 3
    assert out.loc["a", "min_v"] == "9" and out.loc["a", "max_v"] == "200"
    assert out.loc["s", "ndv"] == 3
    assert out.loc["s", "min_v"] == "a" and out.loc["s", "max_v"] == "c"


def test_merge_agg_state_equals_from_scratch(ray_session):
    """Incremental maintenance: state(base) + delta == from-scratch agg,
    including a key only present in the delta."""
    import ray.data

    from ray.data.aggregate import Sum

    from search_engine_framework_ray.stages.aggregate import merge_agg_state

    base = pd.DataFrame({"k": ["a", "a", "b"], "cnt": 1, "v": [10, 20, 5]})
    delta = pd.DataFrame({"k": ["a", "c"], "cnt": 1, "v": [7, 100]})
    state = (
        ray.data.from_pandas(base)
        .groupby("k")
        .aggregate(Sum("cnt", alias_name="cnt"), Sum("v", alias_name="v"))
    )
    got = (
        merge_agg_state(state, ray.data.from_pandas(delta).repartition(2), ["k"], ["cnt", "v"])
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = (
        pd.concat([base, delta])
        .groupby("k", as_index=False)[["cnt", "v"]]
        .sum()
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got.astype({"cnt": "int64", "v": "int64"}), want.astype({"cnt": "int64", "v": "int64"}))


def test_late_events_watermark_across_buckets(ray_session):
    """Hand-built stream, bucket_size=2 so the exclusive carry-in crosses
    bucket boundaries; first arrival has no watermark and is never late."""
    import pandas as pd
    import ray.data

    from search_engine_framework_ray.stages.window import late_events

    # arrival: 0..5; event times (us), lateness 10
    ts = [100, 50, 120, 105, 130, 200]
    df = pd.DataFrame({"arrival": range(6), "ts_us": ts})
    out = (
        late_events(
            ray.data.from_pandas(df),
            arrival_col="arrival",
            ts_col="ts_us",
            lateness_us=10,
            bucket_size=2,
        )
        .to_pandas()
        .sort_values("arrival")
        .reset_index(drop=True)
    )
    # exclusive prefix max: [None, 100, 100, 120, 120, 130] → wm = max-10
    assert out["watermark_us"].tolist() == [pd.NA, 90, 90, 110, 110, 120]
    assert out["late"].tolist() == [False, True, False, True, False, False]


def test_pattern_scan_overlap_null_and_clean(ray_session):
    """Non-overlapping left-to-right counts (the replace-based SQL
    semantics), null text treated as empty, hits-only output, and the
    typed empty frame when nothing matches."""
    import pandas as pd
    import ray.data

    from search_engine_framework_ray.stages.textstats import pattern_scan

    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": ["aaa", None, "xy aa xy aa", "clean"],
        }
    )
    out = (
        pattern_scan(ray.data.from_pandas(df), ["aa", "xy"])
        .to_pandas()
        .sort_values(["doc_id", "pattern"])
        .reset_index(drop=True)
    )
    # 'aaa' → one non-overlapping 'aa' (replace semantics), never two
    want = pd.DataFrame(
        {
            "doc_id": [1, 3, 3],
            "pattern": ["aa", "aa", "xy"],
            "n": [1, 2, 2],
        }
    )
    pd.testing.assert_frame_equal(
        out.astype({"doc_id": "int64", "n": "int64"}), want
    )
    none = pattern_scan(ray.data.from_pandas(df), ["absent-marker"])
    # Arrow-level schema survives an all-empty scan (Ray's to_pandas drops
    # columns for zero-row datasets — the driver entry guards that quirk)
    assert none.schema().names == ["doc_id", "pattern", "n"]
    assert none.count() == 0


def test_chunk_documents_semantics(ray_session):
    """Full-coverage rule: window 3 / stride 2 over hand-built docs —
    exact boundaries, tail window reaching the end, sub-window doc,
    empty doc emitting one empty chunk, multi-space normalization."""
    import ray.data

    from search_engine_framework_ray.stages.corpus import chunk_documents

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": ["a b  c d e f g", "x y", "", "p q r s t u v w"],
        }
    )
    got = (
        chunk_documents(ray.data.from_pandas(docs), window=3, stride=2)
        .to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )
    assert got["chunk_text"].tolist() == [
        "a b c", "c d e", "e f g",          # n=7 → starts 0,2,4 (4+3 = end)
        "x y",                              # n ≤ window → one chunk
        "",                                 # empty doc → one empty chunk
        "p q r", "r s t", "t u v", "v w",   # n=8 → last start 6, len-2 tail
    ]
    assert got["start_tok"].tolist() == [0, 2, 4, 0, 0, 0, 2, 4, 6]
    assert got["n_tokens"].tolist() == [3, 3, 3, 2, 0, 3, 3, 3, 2]
    # every token covered: union of [start, start+n_tokens) == [0, n)
    for doc, n in [(1, 7), (4, 8)]:
        seen = set()
        for _, r in got[got["doc_id"] == doc].iterrows():
            seen |= set(range(r["start_tok"], r["start_tok"] + r["n_tokens"]))
        assert seen == set(range(n))


def test_chunk_documents_guards():
    from search_engine_framework_ray.stages.corpus import chunk_documents

    with pytest.raises(ValueError):
        chunk_documents(None, window=4, stride=5)  # stride > window
    with pytest.raises(ValueError):
        chunk_documents(None, window=0, stride=0)


def test_pca_power_matches_numpy_eig(ray_session):
    """Planted anisotropic cloud: the exact-integer power-iteration
    component must align with numpy's top eigenvector of the centered
    scatter (|cos| > 0.999), projections must equal the quantized-input
    matmul, and the whole run must be deterministic."""
    import ray.data

    from search_engine_framework_ray.stages.ann import pca_power

    rng = np.random.default_rng(7)
    d, n = 8, 400
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    x = (
        rng.normal(size=(n, 1)) * 3.0 * direction[None, :]
        + rng.normal(size=(n, d)) * 0.3
    ).astype(np.float32)
    pdf = pd.DataFrame({"vec_id": np.arange(n), "embedding": list(x)})
    out = pca_power(ray.data.from_pandas(pdf), iters=8)
    v = out.attrs["component"].astype(np.float64)
    xq = np.sign(x.astype(np.float64)) * np.floor(
        np.abs(x.astype(np.float64)) * 1e6 + 0.5
    )
    c = len(xq) * (xq.T @ xq) - np.outer(xq.sum(0), xq.sum(0))
    evals, evecs = np.linalg.eigh(c)
    top = evecs[:, -1]
    cos = abs(v @ top) / (np.linalg.norm(v) * np.linalg.norm(top))
    assert cos > 0.999, cos
    want_proj = (xq @ v).astype(np.int64)
    got = out.sort_values("vec_id")["proj"].to_numpy()
    np.testing.assert_array_equal(got, want_proj)
    again = pca_power(ray.data.from_pandas(pdf), iters=8)
    assert (again.attrs["component"] == out.attrs["component"]).all()


def test_minhash_probe_pairs_equals_cross_subset(ray_session):
    """The incremental probe (cross-side candidates only) must find exactly
    the cross-side subset of the full self-join's verified pairs — the
    archive self-pairs are the ONLY thing it skips."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import (
        minhash_neardup_pairs,
        minhash_probe_pairs,
    )

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    old = docs[docs["doc_id"] % 10 < 7]
    new = docs[docs["doc_id"] % 10 >= 7]
    probe = minhash_probe_pairs(
        ray.data.from_pandas(old), ray.data.from_pandas(new),
        threshold=0.8, k_shingle=3, bands=32,
    )
    full = minhash_neardup_pairs(
        ray.data.from_pandas(docs), threshold=0.8, k_shingle=3, bands=32,
    )
    # orient full's (a < b) pairs to (old, new) and keep the cross subset
    lo = full["a"].to_numpy()
    hi = full["b"].to_numpy()
    a_old = lo % 10 < 7
    b_new = hi % 10 >= 7
    cross_a = np.where(a_old & b_new, lo, np.where((hi % 10 < 7) & (lo % 10 >= 7), hi, -1))
    cross_b = np.where(a_old & b_new, hi, np.where((hi % 10 < 7) & (lo % 10 >= 7), lo, -1))
    keep = cross_a >= 0
    want = (
        pd.DataFrame({"a": cross_a[keep], "b": cross_b[keep],
                      "jaccard": full["jaccard"].to_numpy()[keep]})
        .sort_values(["a", "b"]).reset_index(drop=True)
    )
    got = probe[["a", "b", "jaccard"]].reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_minhash_probe_shingle_store_roundtrip(ray_session, tmp_path):
    """The persisted-shingle-store probe (archive shingles written to
    parquet as list<int64>, read back, verify locating from the store —
    archive text never re-shingled) must be BIT-identical to the cold
    probe that re-extracts everything."""
    import ray.data

    from search_engine_framework_ray.stages.dedup import (
        _minhash_sigs,
        minhash_probe_pairs,
        minhash_shingle_store,
    )

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    old = docs[docs["doc_id"] % 10 < 7]
    new = docs[docs["doc_id"] % 10 >= 7]
    old_ds = ray.data.from_pandas(old)
    # once per crawl cycle: persist sketch + shingle store
    sig_path = str(tmp_path / "sigs_old")
    sh_path = str(tmp_path / "shingles_old")
    _minhash_sigs(
        old_ds, n_perm=64, k_shingle=3, text_col="text", id_col="doc_id",
        strict_k=True,
    ).write_parquet(sig_path)
    minhash_shingle_store(old_ds, k_shingle=3).write_parquet(sh_path)

    warm = minhash_probe_pairs(
        old_ds,
        ray.data.from_pandas(new),
        threshold=0.8, k_shingle=3, bands=32,
        sigs_old=ray.data.read_parquet(sig_path),
        shingles_old=ray.data.read_parquet(sh_path),
    )
    cold = minhash_probe_pairs(
        old_ds, ray.data.from_pandas(new),
        threshold=0.8, k_shingle=3, bands=32,
    )
    pd.testing.assert_frame_equal(warm, cold)


def test_decode_pnm_grammar():
    """Real Netpbm parser: P5/P6, 1- and 2-byte samples, comments anywhere
    in the header, compact single-space headers, corrupt input raises."""
    import pytest as _pytest

    from search_engine_framework_ray.stages.multimodal import decode_pnm

    img, w, h, ch, mv = decode_pnm(b"P6\n# a comment\n2 2\n255\n" + bytes(range(12)))
    assert (w, h, ch, mv) == (2, 2, 3, 255) and img.sum() == sum(range(12))
    img, w, h, ch, mv = decode_pnm(b"P5 3 1 255 " + bytes([10, 20, 30]))
    assert img.ravel().tolist() == [10, 20, 30] and ch == 1
    # 16-bit big-endian samples
    img, w, h, ch, mv = decode_pnm(b"P5\n1 2\n65535\n" + (258).to_bytes(2, "big") * 2)
    assert img.ravel().tolist() == [258, 258] and mv == 65535
    with _pytest.raises(ValueError, match="not a binary PNM"):
        decode_pnm(b"P3\n1 1\n255\n1 2 3")
    with _pytest.raises(ValueError, match="truncated"):
        decode_pnm(b"P6\n2 2\n255\n" + bytes(5))


def test_decode_bmp_grammar():
    """Real BMP parser: 24-bit bottom-up with row padding, 16-bit 555
    expansion, 8-bit palette lookup, top-down via negative height,
    corrupt/unsupported inputs raise."""
    import struct

    import pytest as _pytest

    from search_engine_framework_ray.stages.multimodal import decode_bmp

    def bmp(w, h, bpp, raster, *, palette=b"", top_down=False, comp=0):
        off = 54 + len(palette)
        return (
            b"BM" + struct.pack("<IHHI", off + len(raster), 0, 0, off)
            + struct.pack("<IiiHHIIiiII", 40, w, -h if top_down else h, 1,
                          bpp, comp, len(raster), 0, 0, 0, 0)
            + palette + raster
        )

    # 24-bit, 1x2 bottom-up, stride 4 (1 padding byte): file rows are
    # (bottom, top) so decoded row 0 is the SECOND stored row
    raster = bytes([10, 20, 30, 0xAA]) + bytes([40, 50, 60, 0xAA])
    img, w, h, bpp = decode_bmp(bmp(1, 2, 24, raster))
    assert (w, h, bpp) == (1, 2, 24)
    assert img[0, 0].tolist() == [60, 50, 40]  # top row, BGR→RGB
    assert img[1, 0].tolist() == [30, 20, 10]
    # same raster top-down: rows stay in file order
    img, _, _, _ = decode_bmp(bmp(1, 2, 24, raster, top_down=True))
    assert img[0, 0].tolist() == [30, 20, 10]
    # 16-bit 555: v = (1<<10)|(2<<5)|3 → 5-bit channels (1,2,3) expand
    v = (1 << 10) | (2 << 5) | 3
    img, _, _, bpp = decode_bmp(bmp(1, 1, 16, struct.pack("<H", v) + b"\0\0"))
    assert bpp == 16 and img[0, 0].tolist() == [(1 << 3), (2 << 3), (3 << 3)]
    c31 = (31 << 3) | (31 >> 2)
    img, _, _, _ = decode_bmp(
        bmp(1, 1, 16, struct.pack("<H", (31 << 10) | (31 << 5) | 31) + b"\0\0")
    )
    assert img[0, 0].tolist() == [c31, c31, c31] == [255, 255, 255]
    # 8-bit palette: entry 1 stored as B,G,R = 9,8,7 → RGB (7,8,9)
    pal = bytes([1, 2, 3, 0]) + bytes([9, 8, 7, 0]) + bytes(254 * 4)
    img, _, _, bpp = decode_bmp(bmp(1, 1, 8, bytes([1, 0, 0, 0]), palette=pal))
    assert bpp == 8 and img[0, 0].tolist() == [7, 8, 9]
    with _pytest.raises(ValueError, match="not a BMP"):
        decode_bmp(b"PNG whatever")
    with _pytest.raises(ValueError, match="compressed BMP"):
        decode_bmp(bmp(1, 1, 24, bytes(4), comp=1))
    with _pytest.raises(ValueError, match="truncated BMP raster"):
        decode_bmp(bmp(4, 4, 24, bytes(5)))
    with _pytest.raises(ValueError, match="bit depth"):
        decode_bmp(bmp(1, 1, 32, bytes(4)))


def test_decode_qoi_spec_vectors():
    """QOI wire format pinned with hand-derived spec byte vectors — the
    guard against symmetric encoder/decoder bugs (both sides are ours) —
    plus an encode→decode roundtrip asserting EVERY op appears in the
    synthesized corpus stream."""
    import struct

    import pytest as _pytest

    from search_engine_framework_ray.stages.multimodal import decode_qoi, encode_qoi

    def qoi(w, h, ch, body):
        return (b"qoif" + struct.pack(">IIBB", w, h, ch, 0) + body
                + b"\x00" * 7 + b"\x01")

    img, w, h, ch = decode_qoi(qoi(1, 1, 3, bytes((0xFE, 255, 0, 0))))
    assert img[0, 0].tolist() == [255, 0, 0, 255] and (w, h, ch) == (1, 1, 3)
    # DIFF from implicit (0,0,0,255): dr=+1, dg=0, db=-2
    img, *_ = decode_qoi(qoi(1, 1, 3, bytes([0x40 | (3 << 4) | (2 << 2) | 0])))
    assert img[0, 0].tolist() == [1, 0, 254, 255]
    # LUMA: dg=+10, dr-dg=-3, db-dg=+2
    img, *_ = decode_qoi(qoi(1, 1, 3, bytes([0x80 | 42, ((-3 + 8) << 4) | (2 + 8)])))
    assert img[0, 0].tolist() == [7, 10, 12, 255]
    # RUN of 3 from the implicit previous pixel
    img, *_ = decode_qoi(qoi(3, 1, 3, bytes([0xC0 | 2])))
    assert img.reshape(-1, 4).tolist() == [[0, 0, 0, 255]] * 3
    # INDEX back to a cached color: hash(255,0,0,255) slot
    ih = (255 * 3 + 255 * 11) % 64
    img, *_ = decode_qoi(qoi(3, 1, 3, bytes((0xFE, 255, 0, 0, 0xFE, 0, 255, 0, ih))))
    assert img.reshape(-1, 4).tolist() == [
        [255, 0, 0, 255], [0, 255, 0, 255], [255, 0, 0, 255]]
    img, _, _, ch = decode_qoi(qoi(1, 1, 4, bytes((0xFF, 1, 2, 3, 4))))
    assert img[0, 0].tolist() == [1, 2, 3, 4] and ch == 4
    with _pytest.raises(ValueError, match="not a QOI"):
        decode_qoi(b"BM whatever")
    with _pytest.raises(ValueError, match="truncated QOI"):
        decode_qoi(b"qoif" + struct.pack(">IIBB", 9, 9, 3, 0) + b"\x00" * 8)
    # one-op-short stream must raise, never read end-marker bytes as ops
    # (review repro: 2-pixel image, only one RGB op before the marker)
    with _pytest.raises(ValueError, match="truncated QOI"):
        decode_qoi(qoi(2, 1, 3, bytes((0xFE, 9, 8, 7))))
    # op byte present but operands truncated into the marker
    with _pytest.raises(ValueError, match="truncated QOI"):
        decode_qoi(qoi(1, 1, 3, bytes((0xFE, 9))[:1]))

    # roundtrip + full op vocabulary over a crafted raster
    rng = np.random.default_rng(5)
    px = np.zeros((6, 8, 4), dtype=np.uint8)
    px[..., 3] = 255
    px[0, :] = (10, 20, 30, 255)                      # RUN
    px[1, :, 0] = 10 + np.arange(8)                   # DIFF ramp
    px[2, :, 0] = 8 * np.arange(8)                    # LUMA ramp:
    px[2, :, 1] = 40 + 9 * np.arange(8)               #   dg=+9, dr-dg=-1,
    px[2, :, 2] = 9 * np.arange(8)                    #   db-dg=0
    px[3, 0::2] = (100, 0, 0, 255)                    # alternation forces
    px[3, 1::2] = (0, 100, 0, 255)                    #   INDEX cache hits
    px[4, :, :3] = rng.integers(0, 256, (8, 3), dtype=np.uint8)  # RGB noise
    px[5, :] = (0, 0, 200, 77)                        # alpha jump → RGBA + RUN
    enc = encode_qoi(px, channels=4)
    dec, w, h, ch = decode_qoi(enc)
    assert (dec == px.astype(np.int64)).all() and (w, h, ch) == (8, 6, 4)
    ops = set()
    pos, body = 14, enc[:-8]
    while pos < len(body):
        op = body[pos]
        if op == 0xFE:
            ops.add("rgb"); pos += 4
        elif op == 0xFF:
            ops.add("rgba"); pos += 5
        elif op >> 6 == 0:
            ops.add("index"); pos += 1
        elif op >> 6 == 1:
            ops.add("diff"); pos += 1
        elif op >> 6 == 2:
            ops.add("luma"); pos += 2
        else:
            ops.add("run"); pos += 1
    assert {"run", "diff", "luma", "index"} <= ops, ops


def test_decode_wav_pcm_grammar():
    """Real RIFF/WAVE parser: chunk walking past junk chunks, 8- and
    16-bit PCM, word alignment, non-PCM rejection."""
    import struct

    import pytest as _pytest

    from search_engine_framework_ray.stages.multimodal import decode_wav_pcm

    def wav(fmt_tuple, data, extra=b""):
        fmt = b"fmt " + struct.pack("<IHHIIHH", 16, *fmt_tuple)
        body = b"WAVE" + fmt + extra + b"data" + struct.pack("<I", len(data)) + data
        return b"RIFF" + struct.pack("<I", len(body)) + body

    s16 = np.arange(-3, 3, dtype="<i2").tobytes()
    smp, sr, ch = decode_wav_pcm(wav((1, 1, 8000, 16000, 2, 16), s16))
    assert smp.ravel().tolist() == [-3, -2, -1, 0, 1, 2] and (sr, ch) == (8000, 1)
    # junk chunk with ODD size exercises word alignment
    smp2, _, _ = decode_wav_pcm(
        wav((1, 1, 8000, 16000, 2, 16), s16, extra=b"LIST" + struct.pack("<I", 3) + b"IN\x00\x00")
    )
    assert smp2.ravel().tolist() == smp.ravel().tolist()
    # 8-bit PCM is unsigned, centered at 128
    smp3, _, _ = decode_wav_pcm(wav((1, 1, 8000, 8000, 1, 8), bytes([120, 128, 136])))
    assert smp3.ravel().tolist() == [-8, 0, 8]
    with _pytest.raises(ValueError, match="not PCM"):
        decode_wav_pcm(wav((85, 1, 8000, 16000, 2, 16), s16))
    with _pytest.raises(ValueError, match="not a RIFF"):
        decode_wav_pcm(b"OggS junk")
