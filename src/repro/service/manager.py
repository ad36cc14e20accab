"""The concurrent session broker: markets pooled, sessions stepped.

Two pieces:

* :class:`MarketPool` — a thread-safe, digest-keyed cache of built
  :class:`~repro.market.market.Market` stacks.  Building an oracle is
  the expensive part of serving a market, so every consumer of a given
  :class:`~repro.service.specs.MarketSpec` — CLI commands, the
  experiment harness, every HTTP client of ``repro serve`` — shares
  one warm build.  A per-digest build lock guarantees concurrent
  requests for the same spec trigger exactly one build.
* :class:`SessionManager` — a broker over the stepwise
  :meth:`~repro.market.engine.BargainingEngine.start` /
  :meth:`~repro.market.engine.BargainingEngine.step` core:
  ``open_session(spec) -> session_id``, then ``step``/``status``/
  ``close``.  Sessions hold their own seeded RNG streams and per-session
  locks, so many clients can bargain concurrently against one shared
  market; idle sessions are evicted after ``idle_ttl`` seconds.

Sessions never batch across each other: every ``step``/``run`` call
advances one session through its own engine under its own lock, which
is the paper's §3.4 protocol — one task party and one data party per
session.  (Population workloads reach the vectorised kernel only
through :class:`~repro.simulate.pool.SessionPool`, which runs its
kernel-eligible sessions, one population per call, through
:func:`~repro.simulate.kernel.simulate_strategic_batch`; wire sessions
stay on the stepwise path so their digests never drift.)

The module-level :func:`shared_pool` is the process-wide pool;
:func:`repro.experiments.runner.get_market` and ``repro serve`` both
sit on it, so a market warmed by one front door is warm for all.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

from repro.market.engine import BargainingEngine, BargainOutcome, EngineState
from repro.market.market import Market
from repro.service.specs import MarketSpec, SessionSpec
from repro.utils.validation import require

__all__ = [
    "MarketPool",
    "SessionConflictError",
    "SessionLimitError",
    "SessionManager",
    "shared_pool",
]


class SessionLimitError(RuntimeError):
    """Resident-session cap reached (HTTP 429 on the wire)."""


class SessionConflictError(RuntimeError):
    """A session id is already resident (HTTP 409 on the wire)."""


#: Process-unique ids for hand-injected (adhoc) markets; shared across
#: every pool in the process so an auto key can never repeat.
_ADHOC_IDS = itertools.count()


class MarketPool:
    """Thread-safe cache of built markets keyed by spec digest."""

    def __init__(self):
        self._lock = threading.Lock()
        self._markets: dict[str, Market] = {}
        self._specs: dict[str, dict] = {}
        self._builds: dict[str, threading.Lock] = {}
        self.builds = 0  # cold builds performed (cache misses)

    # ------------------------------------------------------------------
    def contains(self, spec: MarketSpec | str) -> bool:
        """Whether :meth:`get` would return an already-built market."""
        digest = spec if isinstance(spec, str) else spec.digest()
        with self._lock:
            return digest in self._markets

    def get(self, spec: MarketSpec) -> Market:
        """The market for ``spec``, built at most once per digest."""
        digest = spec.digest()
        with self._lock:
            market = self._markets.get(digest)
            if market is not None:
                return market
            build_lock = self._builds.setdefault(digest, threading.Lock())
        with build_lock:
            # Another thread may have finished the build while we waited.
            with self._lock:
                market = self._markets.get(digest)
            if market is not None:
                return market
            market = Market.from_spec(spec)
            with self._lock:
                self._markets[digest] = market
                self._specs[digest] = spec.to_dict()
                self._builds.pop(digest, None)
                self.builds += 1
            return market

    def lookup(self, digest: str) -> Market:
        """The already-built market under ``digest`` (no building)."""
        with self._lock:
            try:
                return self._markets[digest]
            except KeyError:
                raise ValueError(
                    f"no market {digest!r} in the pool; POST its spec first"
                ) from None

    def add(self, market: Market, *, key: str | None = None) -> str:
        """Inject a hand-built market (embedded deployments, tests).

        Auto-generated keys come from a process-unique counter — *not*
        from ``id(market)``, which the allocator reuses after GC, so
        two adhoc markets injected over the lifetime of a pool could
        silently collide on one digest and serve each other's sessions.
        """
        digest = key if key is not None else (
            f"adhoc-{market.name}-{next(_ADHOC_IDS):08x}"
        )
        with self._lock:
            self._markets[digest] = market
        return digest

    def spec_dict(self, digest: str) -> dict | None:
        """The ``MarketSpec`` dict built under ``digest`` (``None`` for
        hand-injected markets, which have no declarative description)."""
        with self._lock:
            return self._specs.get(digest)

    def clear(self) -> None:
        """Drop every cached market (tests use this to force cold builds)."""
        with self._lock:
            self._markets.clear()
            self._specs.clear()
            self._builds.clear()

    def markets(self) -> dict[str, str]:
        """``digest -> market name`` for every resident market."""
        with self._lock:
            return {d: m.name for d, m in self._markets.items()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._markets)


_SHARED_POOL = MarketPool()


def shared_pool() -> MarketPool:
    """The process-wide market pool every front door shares."""
    return _SHARED_POOL


# ----------------------------------------------------------------------
@dataclass
class _Session:
    """One live bargaining session inside a manager."""

    id: str
    spec: SessionSpec
    market_digest: str
    engine: BargainingEngine
    state: EngineState
    opened_at: float
    last_active: float
    steps: int = 0
    counted: bool = False
    #: Restored-but-not-yet-resumed sessions are protected from idle
    #: eviction until their client first touches them — a checkpoint
    #: shipped into this manager must not be reaped while the client
    #: is still reconnecting.
    pending_restore: bool = False
    #: Memoised secure-settled outcome payload (``spec.secure`` only).
    secure_outcome: dict | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)


def _quote_dict(quote) -> dict | None:
    return quote.to_dict() if quote is not None else None


def _outcome_dict(outcome: BargainOutcome) -> dict:
    delta_g = float(outcome.delta_g)
    return {
        "status": outcome.status,
        "terminated_by": outcome.terminated_by,
        "accepted": outcome.accepted,
        "n_rounds": int(outcome.n_rounds),
        "delta_g": delta_g if delta_g == delta_g else None,  # NaN -> null
        "payment": float(outcome.payment),
        "net_profit": float(outcome.net_profit),
        "cost_task": float(outcome.cost_task),
        "cost_data": float(outcome.cost_data),
        "quote": _quote_dict(outcome.quote),
        "bundle": list(outcome.bundle.indices) if outcome.bundle else None,
    }


class SessionManager:
    """Brokers many concurrent bargaining sessions over pooled markets.

    Parameters
    ----------
    pool:
        The :class:`MarketPool` to resolve ``SessionSpec.market``
        against (default: the process-wide :func:`shared_pool`).
    max_sessions:
        Hard cap on resident sessions; :meth:`open_session` beyond it
        raises ``RuntimeError`` (HTTP 429) after an eviction sweep.
    idle_ttl:
        Seconds of inactivity after which a session is evicted
        (``None`` disables eviction).
    clock:
        Injectable monotonic clock (tests drive eviction with it).
    """

    def __init__(
        self,
        *,
        pool: MarketPool | None = None,
        max_sessions: int = 4096,
        idle_ttl: float | None = None,
        clock=time.monotonic,
    ):
        require(max_sessions >= 1, "max_sessions must be >= 1")
        require(idle_ttl is None or idle_ttl > 0, "idle_ttl must be > 0")
        self.pool = pool if pool is not None else shared_pool()
        self.max_sessions = int(max_sessions)
        self.idle_ttl = idle_ttl
        self._clock = clock
        self._lock = threading.Lock()
        self._sessions: dict[str, _Session] = {}
        self._ids = itertools.count()
        self._opened = 0
        self._closed = 0
        self._evicted = 0
        self._outcomes = {"accepted": 0, "failed": 0, "max_rounds": 0}

    # ------------------------------------------------------------------
    # Markets
    # ------------------------------------------------------------------
    def market(self, spec: MarketSpec) -> Market:
        """Build (or reuse) the pooled market for ``spec``."""
        return self.pool.get(spec)

    def _resolve_market(self, spec: SessionSpec) -> tuple[str, Market]:
        if isinstance(spec.market, str):
            return spec.market, self.pool.lookup(spec.market)
        return spec.market.digest(), self.pool.get(spec.market)

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def _build_engine(self, spec: SessionSpec) -> tuple[str, BargainingEngine]:
        """One session's engine over the pooled market for ``spec``."""
        digest, market = self._resolve_market(spec)
        cost_task, cost_data = spec.cost_models()
        engine = market.build_engine(
            task=spec.task,
            data=spec.data,
            information=spec.information,
            seed=spec.engine_seed(),
            cost_task=cost_task,
            cost_data=cost_data,
            config_overrides=spec.config_overrides,
        )
        return digest, engine

    def _install(
        self,
        spec: SessionSpec,
        digest: str,
        engine: BargainingEngine,
        state: EngineState,
        *,
        session_id: str | None = None,
        steps: int = 0,
        pending_restore: bool = False,
    ) -> str:
        """Register a session under the manager's capacity accounting."""
        now = self._clock()
        with self._lock:
            self._evict_locked(now)
            if len(self._sessions) >= self.max_sessions:
                raise SessionLimitError(
                    f"session limit reached ({self.max_sessions}); "
                    f"close or evict sessions first"
                )
            if session_id is None:
                while True:
                    session_id = f"s{next(self._ids):06d}"
                    if session_id not in self._sessions:
                        break
            elif session_id in self._sessions:
                raise SessionConflictError(
                    f"session {session_id!r} is already resident; close it "
                    f"before restoring a checkpoint under its id"
                )
            self._sessions[session_id] = _Session(
                id=session_id,
                spec=spec,
                market_digest=digest,
                engine=engine,
                state=state,
                opened_at=now,
                last_active=now,
                steps=steps,
                pending_restore=pending_restore,
            )
            self._opened += 1
        return session_id

    def open_session(self, spec: SessionSpec) -> str:
        """Stand up one session's engine and return its id."""
        digest, engine = self._build_engine(spec)
        return self._install(spec, digest, engine, engine.start())

    def _get(self, session_id: str) -> _Session:
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise KeyError(
                    f"unknown session {session_id!r} (closed, evicted, or "
                    f"never opened)"
                ) from None

    def step(self, session_id: str, *, rounds: int = 1) -> dict:
        """Advance a session up to ``rounds`` rounds; returns its status.

        Stepping a terminal session is a no-op (the standing status is
        returned), so clients may poll ``step`` without tracking
        ``done`` themselves.
        """
        require(rounds >= 1, "rounds must be >= 1")
        return self._execute(self._get(session_id), rounds, False)

    def run(self, session_id: str) -> dict:
        """Step a session to termination; returns the terminal status."""
        return self._execute(self._get(session_id), 1, True)

    def _execute(self, session: _Session, rounds: int, until_done: bool) -> dict:
        """The stepwise path: advance one session under its own lock."""
        with session.lock:
            while not session.state.done:
                session.state = session.engine.step(session.state)
                session.steps += 1
                if not until_done:
                    rounds -= 1
                    if rounds <= 0:
                        break
            self._touch(session)
            self._tally(session)
            return self._summary(session)

    def status(self, session_id: str) -> dict:
        """The session's current (possibly terminal) status.

        Read-only: polling does not count as client activity (and does
        not lift a restored session's eviction grace period) — the
        restore handler itself replies with a status.
        """
        session = self._get(session_id)
        with session.lock:
            return self._summary(session)

    def _touch(self, session: _Session) -> None:
        """Record client activity (and lift any restore grace period)."""
        session.last_active = self._clock()
        session.pending_restore = False

    def outcome(self, session_id: str) -> BargainOutcome | None:
        """The rich outcome object (embedded callers; ``None`` if live)."""
        session = self._get(session_id)
        with session.lock:
            return session.state.outcome

    def close(self, session_id: str) -> bool:
        """Drop a session; ``False`` if it was not resident."""
        with self._lock:
            existed = self._sessions.pop(session_id, None) is not None
            if existed:
                self._closed += 1
            return existed

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self, session_id: str) -> dict:
        """A self-contained snapshot of one session, shippable as JSON.

        The payload carries the session's full :class:`SessionSpec`
        (with the market inlined as a spec dict, so another process can
        rebuild the same market), the canonical
        :meth:`~repro.market.engine.EngineState.to_dict` state, and the
        state's content digest — which :meth:`restore` verifies after
        replaying, guaranteeing the resumed session's remaining trace
        is bit-identical to the source's.
        """
        session = self._get(session_id)
        with session.lock:
            spec_dict = session.spec.to_dict()
            if isinstance(spec_dict["market"], str):
                market_spec = self.pool.spec_dict(spec_dict["market"])
                if market_spec is None:
                    raise ValueError(
                        f"session {session_id!r} runs on a hand-injected "
                        f"market ({spec_dict['market']!r}) with no spec; "
                        f"its checkpoint cannot be restored elsewhere"
                    )
                spec_dict["market"] = market_spec
            state = session.state
            return {
                "version": 1,
                "session": session.id,
                "market": session.market_digest,
                "spec": spec_dict,
                "steps": session.steps,
                "state": state.to_dict(),
                "digest": state.digest(),
            }

    def restore(self, payload: dict, *, session_id: str | None = None) -> str:
        """Resume a checkpointed session (possibly from another process).

        Strategies keep private learning state the checkpoint does not
        carry, so restore *replays*: a fresh engine is built from the
        checkpoint's spec (identical seeded RNG streams) and stepped
        ``round_number`` times — bit-identical to the original game's
        prefix — then the replayed state is verified against the
        checkpoint digest.  A mismatch (corrupt payload, drifted market,
        wrong code version) raises ``ValueError`` rather than silently
        resuming a different game.

        The restored session keeps a grace period: it is exempt from
        idle eviction until a client first touches it.
        """
        require(isinstance(payload, dict), "checkpoint payload must be a dict")
        require(payload.get("version") == 1,
                f"unsupported checkpoint version {payload.get('version')!r}")
        target = EngineState.from_dict(payload["state"])
        expected = target.digest()
        claimed = payload.get("digest")
        if claimed is not None and claimed != expected:
            raise ValueError(
                f"checkpoint digest mismatch: payload claims {claimed!r} "
                f"but its state serialises to {expected!r}"
            )
        spec = SessionSpec.from_dict(payload["spec"])
        digest, engine = self._build_engine(spec)
        state = engine.start()
        for _ in range(target.round_number):
            if state.done:
                break
            state = engine.step(state)
        if state.digest() != expected:
            raise ValueError(
                "checkpoint does not replay: the rebuilt engine's round "
                f"{target.round_number} state digests to {state.digest()!r}, "
                f"checkpoint has {expected!r} (corrupt payload, or the "
                "market/strategy code differs from the checkpointing process)"
            )
        return self._install(
            spec,
            digest,
            engine,
            state,
            session_id=session_id,
            steps=int(payload.get("steps", target.round_number)),
            pending_restore=True,
        )

    # ------------------------------------------------------------------
    # Eviction and accounting
    # ------------------------------------------------------------------
    def evict_idle(self, now: float | None = None) -> list[str]:
        """Evict sessions idle longer than ``idle_ttl``; returns their ids."""
        with self._lock:
            return self._evict_locked(self._clock() if now is None else now)

    def _evict_locked(self, now: float) -> list[str]:
        if self.idle_ttl is None:
            return []
        stale = [
            sid
            for sid, session in self._sessions.items()
            if now - session.last_active > self.idle_ttl
            and not session.pending_restore
        ]
        for sid in stale:
            del self._sessions[sid]
        self._evicted += len(stale)
        return stale

    def _tally(self, session: _Session) -> None:
        """Count a session's outcome exactly once, on termination.

        Called under the session's own lock; the shared counters need
        the manager lock too (concurrent sessions terminate in
        parallel).  Safe to nest: nothing acquires a session lock while
        holding the manager lock.
        """
        if session.state.done and not session.counted:
            outcome = session.state.outcome
            with self._lock:
                if outcome is not None and outcome.status in self._outcomes:
                    self._outcomes[outcome.status] += 1
            session.counted = True

    def _summary(self, session: _Session) -> dict:
        state = session.state
        payload = {
            "session": session.id,
            "market": session.market_digest,
            "round": state.round_number,
            "done": state.done,
            "quote": _quote_dict(state.quote),
        }
        if state.done and state.outcome is not None:
            payload["outcome"] = self._outcome_payload(session)
        return payload

    def _outcome_payload(self, session: _Session) -> dict:
        """The wire outcome dict, secure-settled when the spec asks.

        Plain sessions keep the exact seed payload shape byte for
        byte.  Secure sessions overlay ``payment``/``net_profit`` with
        the batched Paillier settlement (value-identical to the serial
        §3.6 protocol) and carry a ``secure: true`` marker.  The engine
        state itself is never touched, so checkpoints replay and
        digest-verify exactly as for plain sessions.
        """
        outcome = session.state.outcome
        payload = _outcome_dict(outcome)
        if not session.spec.secure:
            return payload
        if session.secure_outcome is None:
            secure = dict(payload)
            secure["secure"] = True
            if outcome.accepted and outcome.quote is not None:
                from repro.security.batch import settlement_for

                settlement = settlement_for(
                    session.spec.seed, session.spec.key_bits
                )
                [payment] = settlement.settle(
                    [float(outcome.delta_g)], [outcome.quote]
                )
                secure["payment"] = float(payment)
                secure["net_profit"] = float(
                    session.engine.utility_rate * float(outcome.delta_g)
                    - payment
                )
            session.secure_outcome = secure
        return dict(session.secure_outcome)

    def session_ids(self) -> list[str]:
        """Ids of every resident session."""
        with self._lock:
            return list(self._sessions)

    def report(self) -> dict:
        """Operator view: pooled markets, session counts, outcome tallies."""
        with self._lock:
            active = sum(
                1 for s in self._sessions.values() if not s.state.done
            )
            return {
                "markets": self.pool.markets(),
                "sessions": {
                    "resident": len(self._sessions),
                    "active": active,
                    "opened": self._opened,
                    "closed": self._closed,
                    "evicted": self._evicted,
                },
                "outcomes": dict(self._outcomes),
            }
