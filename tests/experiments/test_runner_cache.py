"""Regression: the market cache key must cover oracle-build settings.

The pre-service cache keyed markets on ``(dataset, model, seed, tier)``
only, so a ``--no-cache`` invocation could silently reuse a
process-cached market built under different persistence settings (and
report that build's statistics as its own).  Keys are now the full
:meth:`MarketSpec.digest`, which includes ``jobs``/``cache_dir``/
``no_cache``.
"""

import pytest

from repro.experiments import runner
from repro.market.market import Market
from repro.service.manager import MarketPool


@pytest.fixture
def isolated_pool(monkeypatch):
    """A fresh pool with market construction stubbed out (and counted)."""
    pool = MarketPool()
    monkeypatch.setattr(runner, "shared_pool", lambda: pool)
    built = []

    def fake_build(cls, spec, **kwargs):
        built.append(spec)
        return object()

    monkeypatch.setattr(Market, "from_spec", classmethod(fake_build))
    return pool, built


class TestMarketCacheKey:
    def test_same_settings_reuse(self, isolated_pool):
        pool, built = isolated_pool
        first = runner.get_market("titanic")
        again = runner.get_market("titanic")
        assert first is again
        assert len(built) == 1

    def test_cache_setting_enters_key(self, isolated_pool):
        """A --no-cache run must not reuse a cache-backed build."""
        pool, built = isolated_pool
        cached = pool.get(runner.spec_for("titanic", cache_dir="/tmp/oracle-cache"))
        uncached = pool.get(runner.spec_for("titanic", no_cache=True))
        assert cached is not uncached
        assert len(built) == 2
        assert built[0].cache_dir == "/tmp/oracle-cache" and not built[0].no_cache
        assert built[1].no_cache

    def test_jobs_enter_key(self, isolated_pool):
        pool, built = isolated_pool
        serial = pool.get(runner.spec_for("titanic", no_cache=True))
        parallel = pool.get(runner.spec_for("titanic", jobs=4, no_cache=True))
        assert serial is not parallel
        assert [spec.jobs for spec in built] == [1, 4]

    def test_pool_contains_agrees_with_get_market(self, isolated_pool):
        pool, built = isolated_pool
        spec = runner.spec_for("titanic", no_cache=True)
        assert not pool.contains(spec)
        runner.get_market("titanic")
        assert pool.contains(spec)
        # Different settings -> different key -> not cached yet.
        assert not pool.contains(runner.spec_for("titanic", jobs=4, no_cache=True))
        assert not pool.contains(runner.spec_for("titanic", cache_dir="/tmp/x"))

    def test_get_market_builds_without_the_gain_cache(self, isolated_pool):
        pool, built = isolated_pool
        runner.get_market("credit", "mlp", seed=2)
        assert built == [runner.spec_for("credit", "mlp", seed=2, no_cache=True)]
        assert built[0].cache_dir is None


class TestCacheDirectory:
    def test_no_cache_names_no_directory(self):
        spec = runner.spec_for("titanic", cache_dir="/tmp/x", no_cache=True)
        assert spec.no_cache and spec.cache_dir is None

    def test_explicit_directory_kept_verbatim(self):
        assert runner.spec_for("titanic", cache_dir="rel/dir").cache_dir == "rel/dir"

    def test_default_directory_resolved(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE_CACHE", "/env/oracle-cache")
        spec = runner.spec_for("titanic")
        assert spec.cache_dir == "/env/oracle-cache" and not spec.no_cache
