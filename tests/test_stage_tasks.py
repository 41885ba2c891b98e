"""Every Ray Data map stage runs as tasks: a stage is passed to
``map_batches`` as a built instance (or a plain function), never as a class
that Ray Data turns into an actor pool. A finished actor pool kept its CPUs
until a ``gc.collect()`` dropped the streaming executor's reference cycles;
on a 4-CPU cluster the held CPUs starved the next stage into a deadlock."""

from __future__ import annotations

import ast
import gc
import pathlib
import time

import numpy as np
import pandas as pd
import pyarrow as pa

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = [*(ROOT / "search_engine_framework_ray").rglob("*.py"), ROOT / "__ray_entry__.py"]
UDF_METHODS = {"map_batches", "map", "flat_map", "filter", "map_groups"}
POOL_KWARGS = {"fn_constructor_args", "fn_constructor_kwargs", "concurrency", "compute"}


def test_no_stage_is_passed_as_an_actor_pool_class():
    trees = {p: ast.parse(p.read_text(), str(p)) for p in SOURCES}
    classes = {n.name for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.ClassDef)}
    bad = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in UDF_METHODS):
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            bad += [f"{where}: {kw.arg}=" for kw in node.keywords if kw.arg in POOL_KWARGS]
            for fn in node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "fn"]:
                if getattr(fn, "id", getattr(fn, "attr", None)) in classes:
                    bad.append(f"{where}: a class is passed (pass an instance)")
    assert not bad, "Ray Data actor pool(s):\n" + "\n".join(bad)


def test_former_pool_stages_leave_every_cpu_free(ray_session):
    """Each stage that used to run as an actor pool frees every CPU within
    15 s of its Dataset being consumed, with gc switched off."""
    import ray
    import ray.data

    from search_engine_framework_ray.stages.corpus import curate
    from search_engine_framework_ray.stages.decontam import decontaminate, embedding_decontaminate
    from search_engine_framework_ray.stages.dedup import minhash_lsh_dedup, simhash_dedup
    from search_engine_framework_ray.stages.multimodal import decode_media
    from search_engine_framework_ray.stages.percolate import percolate
    from search_engine_framework_ray.stages.selection import dsir_weights, hashed_linear_score

    words = "spark join sort merge shuffle index query shard token batch".split()
    docs = pd.DataFrame({
        "doc_id": np.arange(40, dtype=np.int64),
        "text": [" ".join(words[(i + j) % 10] for j in range(12)) for i in range(40)],
        "lang": ["en" if i % 3 else "de" for i in range(40)],
    })
    media = pa.table({
        "doc_id": pa.array(range(8), type=pa.int64()),
        "payload": pa.array([bytes(range(i, i + 64)) for i in range(8)], type=pa.binary()),
    })
    vecs = ray.data.from_pandas(
        pd.DataFrame({"vec_id": np.arange(8), "embedding": [[1.0, i, 0.0] for i in range(8)]})
    )

    def doc_ds():
        return ray.data.from_pandas(docs).repartition(4)

    stages = {
        "minhash_lsh_dedup": lambda: minhash_lsh_dedup(doc_ds()),
        "simhash_dedup": lambda: simhash_dedup(doc_ds()),
        "dsir_weights": lambda: dsir_weights(doc_ds()),
        "hashed_linear_score": lambda: hashed_linear_score(doc_ds()),
        "decontaminate": lambda: decontaminate(doc_ds(), [docs["text"][0]], k=5),
        "embedding_decontaminate": lambda: embedding_decontaminate(vecs, np.eye(3)),
        "percolate": lambda: percolate(doc_ds(), [("q", "#NEAR/1(spark join)")]),
        **{f"decode_media[{k}]": (lambda k=k: decode_media(ray.data.from_arrow(media), k))
           for k in ("image", "audio", "video")},
        "curate": lambda: curate(doc_ds(), min_words=5),
    }
    total = ray.cluster_resources()["CPU"]

    def cpus_held_after_wait() -> float:
        deadline = time.monotonic() + 15
        while ray.available_resources().get("CPU", 0) < total and time.monotonic() < deadline:
            time.sleep(0.05)
        return total - ray.available_resources().get("CPU", 0)

    assert cpus_held_after_wait() == 0
    gc.disable()
    try:
        for name, run in stages.items():
            assert len(run().to_pandas()), name
            held = cpus_held_after_wait()
            assert held == 0, f"{name}: {held} CPU(s) still held 15 s after the stage"
    finally:
        gc.enable()
