"""SessionManager and MarketPool behaviour (concurrency, eviction)."""

import threading

import pytest

from repro.market.market import Market
from repro.service import MarketPool, MarketSpec, SessionManager, SessionSpec
from repro.utils.rng import spawn

SPEC = MarketSpec(dataset="synthetic", seed=0)


@pytest.fixture(scope="module")
def pool():
    return MarketPool()


@pytest.fixture
def manager(pool):
    return SessionManager(pool=pool)


class TestMarketPool:
    def test_get_builds_once(self, pool):
        first = pool.get(SPEC)
        again = pool.get(SPEC)
        assert first is again
        assert pool.contains(SPEC)
        assert SPEC.digest() in pool.markets()

    def test_distinct_specs_distinct_markets(self, pool):
        other = pool.get(MarketSpec(dataset="synthetic", seed=1))
        assert other is not pool.get(SPEC)

    def test_lookup_unknown_digest(self, pool):
        with pytest.raises(ValueError, match="no market"):
            pool.lookup("deadbeef")

    def test_adhoc_keys_never_collide(self):
        """Regression: auto keys were ``adhoc-{name}-{id(market):x}`` —
        ``id()`` is reused after GC (and identical for the *same*
        object), so a re-added market silently replaced the first entry
        under its own key.  Keys must be process-unique."""
        fresh = MarketPool()
        market = Market.from_spec(SPEC)
        first = fresh.add(market)
        second = fresh.add(market)  # same object, same id(): worst case
        assert first != second
        assert fresh.lookup(first) is market
        assert fresh.lookup(second) is market
        assert len(fresh) == 2
        # And across many churned objects, still no duplicates.
        keys = {fresh.add(Market.from_spec(SPEC)) for _ in range(20)}
        assert len(keys) == 20

    def test_concurrent_get_single_build(self, monkeypatch):
        fresh = MarketPool()
        builds = []
        gate = threading.Event()
        real = Market.from_spec.__func__

        def slow_build(cls, spec, **kwargs):
            gate.wait(timeout=5.0)
            builds.append(spec.digest())
            return real(cls, spec, **kwargs)

        monkeypatch.setattr(Market, "from_spec", classmethod(slow_build))
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(fresh.get(SPEC)))
            for _ in range(6)
        ]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join(timeout=10.0)
        assert len(builds) == 1
        assert len(results) == 6 and all(m is results[0] for m in results)


class TestSessionLifecycle:
    def test_open_step_status_close(self, manager):
        session_id = manager.open_session(SessionSpec(market=SPEC, seed=0))
        status = manager.status(session_id)
        assert status["round"] == 0 and not status["done"]
        assert status["quote"]["rate"] > 0
        stepped = manager.step(session_id)
        assert stepped["round"] == 1
        final = manager.run(session_id)
        assert final["done"] and final["outcome"]["status"] == "accepted"
        # Stepping a terminal session is a no-op, not an error.
        assert manager.step(session_id)["round"] == final["round"]
        assert manager.close(session_id)
        with pytest.raises(KeyError, match="unknown session"):
            manager.status(session_id)

    def test_outcome_matches_direct_market_bargain(self, manager, pool):
        market = pool.get(SPEC)
        expected = market.bargain(seed=spawn(0, "run", 2))
        session_id = manager.open_session(
            SessionSpec(market=SPEC, seed=0, run=2)
        )
        manager.run(session_id)
        outcome = manager.outcome(session_id)
        assert outcome.status == expected.status
        assert outcome.n_rounds == expected.n_rounds
        assert outcome.payment == expected.payment
        assert outcome.quote == expected.quote

    def test_market_referenced_by_digest(self, manager, pool):
        pool.get(SPEC)
        session_id = manager.open_session(
            SessionSpec(market=SPEC.digest(), seed=0)
        )
        assert manager.status(session_id)["market"] == SPEC.digest()

    def test_unknown_market_digest_rejected(self, manager):
        with pytest.raises(ValueError, match="no market"):
            manager.open_session(SessionSpec(market="deadbeef"))

    def test_report_counts(self, pool):
        manager = SessionManager(pool=pool)
        sid = manager.open_session(SessionSpec(market=SPEC, seed=0, run=1))
        manager.run(sid)
        report = manager.report()
        assert report["sessions"]["opened"] == 1
        assert report["sessions"]["active"] == 0
        assert sum(report["outcomes"].values()) == 1


class TestConcurrentSessions:
    def test_two_sessions_share_one_market_across_threads(self, pool):
        """Interleaved concurrent stepping must equal sequential play."""
        manager = SessionManager(pool=pool)
        market = pool.get(SPEC)
        runs = (10, 11)
        expected = {
            run: market.bargain(seed=spawn(0, "run", run)) for run in runs
        }
        sids = {
            run: manager.open_session(SessionSpec(market=SPEC, seed=0, run=run))
            for run in runs
        }
        errors = []

        def drive(run):
            try:
                while not manager.step(sids[run])["done"]:
                    pass
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(run,)) for run in runs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
        for run in runs:
            outcome = manager.outcome(sids[run])
            assert outcome.status == expected[run].status
            assert outcome.n_rounds == expected[run].n_rounds
            assert outcome.payment == expected[run].payment


class TestEviction:
    def test_idle_sessions_evicted(self, pool):
        now = [0.0]
        manager = SessionManager(pool=pool, idle_ttl=10.0, clock=lambda: now[0])
        stale = manager.open_session(SessionSpec(market=SPEC, seed=0))
        now[0] = 5.0
        live = manager.open_session(SessionSpec(market=SPEC, seed=0, run=1))
        manager.step(live)  # refreshes last_active to t=5
        now[0] = 12.0  # stale idle 12s > ttl, live idle 7s
        evicted = manager.evict_idle()
        assert evicted == [stale]
        with pytest.raises(KeyError):
            manager.status(stale)
        assert manager.status(live)["round"] == 1
        assert manager.report()["sessions"]["evicted"] == 1

    def test_open_session_sweeps_idle(self, pool):
        now = [0.0]
        manager = SessionManager(pool=pool, idle_ttl=1.0, clock=lambda: now[0])
        stale = manager.open_session(SessionSpec(market=SPEC, seed=0))
        now[0] = 5.0
        manager.open_session(SessionSpec(market=SPEC, seed=0, run=1))
        assert stale not in manager.session_ids()

    def test_session_limit(self, pool):
        manager = SessionManager(pool=pool, max_sessions=1)
        manager.open_session(SessionSpec(market=SPEC, seed=0))
        with pytest.raises(RuntimeError, match="session limit"):
            manager.open_session(SessionSpec(market=SPEC, seed=0, run=1))

    def test_restored_checkpoint_survives_idle_eviction(self, pool):
        """Regression: a session restored from a persisted checkpoint
        must not be reaped before its client first reconnects — however
        long the restore-to-reconnect gap — while ordinary sessions
        around it still age out."""
        now = [0.0]
        manager = SessionManager(pool=pool, idle_ttl=10.0, clock=lambda: now[0])
        sid = manager.open_session(SessionSpec(market=SPEC, seed=0))
        manager.step(sid)
        payload = manager.checkpoint(sid)
        manager.close(sid)
        restored = manager.restore(payload)
        bystander = manager.open_session(SessionSpec(market=SPEC, seed=0, run=1))
        now[0] = 1000.0  # both idle far beyond the ttl
        assert manager.evict_idle() == [bystander]
        assert restored in manager.session_ids()
        # First client contact lifts the grace period: from then on the
        # restored session ages like any other.
        manager.step(restored)
        now[0] = 2000.0
        assert manager.evict_idle() == [restored]


class TestConfig:
    def test_max_sessions_must_be_positive(self, pool):
        with pytest.raises(ValueError, match="max_sessions"):
            SessionManager(pool=pool, max_sessions=0)

    @pytest.mark.parametrize("ttl", [0.0, -1.0])
    def test_idle_ttl_must_be_positive(self, pool, ttl):
        with pytest.raises(ValueError, match="idle_ttl"):
            SessionManager(pool=pool, idle_ttl=ttl)

    def test_no_idle_ttl_never_evicts(self, pool):
        now = [0.0]
        manager = SessionManager(pool=pool, clock=lambda: now[0])
        sid = manager.open_session(SessionSpec(market=SPEC, seed=0))
        now[0] = 1e9
        assert manager.evict_idle() == []
        assert sid in manager.session_ids()


class TestConcurrentRun:
    def test_concurrent_run_matches_serial(self, pool):
        """`run` (until_done) from several threads at once must finish
        every session with the same outcome as a serial run."""
        plain = SessionManager(pool=pool)
        want = plain.run(
            plain.open_session(SessionSpec(market=SPEC, seed=0, run=7))
        )
        manager = SessionManager(pool=pool)
        sids = [
            manager.open_session(SessionSpec(market=SPEC, seed=0, run=7))
            for _ in range(4)
        ]
        results = [None] * 4
        barrier = threading.Barrier(4)

        def work(i):
            barrier.wait(timeout=10.0)
            results[i] = manager.run(sids[i])

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        for got in results:
            assert got is not None
            assert {k: v for k, v in got.items() if k != "session"} == (
                {k: v for k, v in want.items() if k != "session"}
            )
