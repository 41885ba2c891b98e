"""Shared fixtures. Ray is initialised ONCE per pytest session."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Deterministic F1-shaped corpus (url, warc_ts, html, text, lang) written
    to parquet once per session."""
    from search_engine_framework_ray.sources.corpus import synthesize_corpus

    out = tmp_path_factory.mktemp("corpus") / "tiny"
    synthesize_corpus(str(out), n_docs=200, n_files=4, seed=7)
    return str(out)
