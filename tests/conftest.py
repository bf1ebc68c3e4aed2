import pytest


@pytest.fixture(autouse=True)
def _cold_sample_cache(tmp_path_factory, monkeypatch):
    # the CLI caches the samples of large input files under XDG_CACHE_HOME;
    # each test gets its own empty cache, so none reads or writes the user's
    # and a fresh interpreter started by a test inherits the same one
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg_cache")))
