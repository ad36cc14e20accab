"""The session-pool scheduler: many bargaining games, round by round.

:class:`SessionPool` is the concurrency seam of the simulator.  It
splits a :class:`~repro.simulate.population.Population` into batches
and advances every session round-by-round until termination:

* sessions against the strategic data party — with the strategic or
  the ``increase_price`` task party, on any registered cost kind — go
  through the vectorised batch kernel (:mod:`repro.simulate.kernel`),
  which amortises the per-round Python costs across the whole batch
  and returns, for every session, the record
  :meth:`~repro.market.engine.BargainingEngine.run` gives it, bit for
  bit;
* every other strategy mix (``random_bundle``, ``imperfect``,
  registered strategies) runs on the stepwise
  :meth:`~repro.market.engine.BargainingEngine.step` core, interleaved
  round-by-round within its batch, with platform queries deduplicated
  through a shared :class:`~repro.market.oracle.MemoisedOracle`.

Because each session draws from its own seeded RNG stream, results are
independent of ``batch_size`` — batching is purely an execution
concern, which is what lets the same pool later shard across processes
or hosts without changing outcomes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.market.engine import BargainOutcome
from repro.market.oracle import MemoisedOracle
from repro.simulate.kernel import (
    BY_DATA,
    BY_ENGINE,
    BY_TASK,
    STATUS_ACCEPTED,
    STATUS_FAILED,
    STATUS_MAX_ROUNDS,
    simulate_strategic_batch,
)
from repro.simulate.population import Population
from repro.utils.validation import require

__all__ = ["PoolResult", "SessionPool", "session_record_arrays"]

#: Run-granularity pool telemetry.  Deliberately coarse (one update per
#: :meth:`SessionPool.run`, never per session) so the instrumented
#: overhead stays unmeasurable against a population sweep.
_POOL_SESSIONS = obs.REGISTRY.counter(
    "repro_pool_sessions_total",
    "Sessions played to termination, by execution path.",
    ("path",),
)
_POOL_RUN_SECONDS = obs.REGISTRY.histogram(
    "repro_pool_run_seconds",
    "SessionPool.run() latency per call (monotonic, seconds).",
)
_POOL_ORACLE = obs.REGISTRY.counter(
    "repro_pool_oracle_queries_total",
    "Stepwise-path platform queries, by memoisation result.",
    ("result",),
)


def session_record_arrays(n: int) -> dict[str, np.ndarray]:
    """Zero/NaN-filled terminal-record arrays for ``n`` sessions.

    The single definition of :class:`PoolResult`'s per-session array
    layout (names, dtypes, fill values), shared by
    :meth:`SessionPool.run` and the jobs merger
    (:func:`repro.jobs.executor.merge_simulation_chunks`) — the
    bit-identical-merge guarantee rides on the two never drifting.
    """
    return {
        "status": np.zeros(n, dtype=np.int8),
        "terminated_by": np.zeros(n, dtype=np.int8),
        "n_rounds": np.zeros(n, dtype=np.int32),
        "delta_g": np.full(n, np.nan),
        "payment": np.zeros(n),
        "net_profit": np.zeros(n),
        "cost_task": np.zeros(n),
        "cost_data": np.zeros(n),
        "final_rate": np.full(n, np.nan),
        "final_base": np.full(n, np.nan),
        "final_cap": np.full(n, np.nan),
    }

_STATUS_CODES = {
    "accepted": STATUS_ACCEPTED,
    "failed": STATUS_FAILED,
    "max_rounds": STATUS_MAX_ROUNDS,
}
_TERMINATOR_CODES = {"data_party": BY_DATA, "task_party": BY_TASK, "engine": BY_ENGINE}
_STATUS_NAMES = {code: name for name, code in _STATUS_CODES.items()}
_TERMINATOR_NAMES = {code: name for name, code in _TERMINATOR_CODES.items()}


@dataclass
class PoolResult:
    """Terminal records of every session, as parallel arrays.

    ``status``/``terminated_by`` hold the kernel's integer codes
    (decode with :meth:`status_names`); monetary fields mirror
    :class:`~repro.market.engine.BargainOutcome`.
    """

    status: np.ndarray
    terminated_by: np.ndarray
    n_rounds: np.ndarray
    delta_g: np.ndarray
    payment: np.ndarray
    net_profit: np.ndarray
    cost_task: np.ndarray
    cost_data: np.ndarray
    final_rate: np.ndarray
    final_base: np.ndarray
    final_cap: np.ndarray
    kernel_sessions: int
    stepped_sessions: int
    oracle_queries: int
    oracle_hits: int
    elapsed: float
    #: Distinct bundles the stepwise sessions queried (index tuples).
    #: A sharded executor merging per-shard results recovers the
    #: single-process cache-hit count from these: every first query of
    #: a bundle is a miss, so ``hits = queries - |union of bundles|``.
    queried_bundles: tuple[tuple[int, ...], ...] = ()

    @property
    def accepted(self) -> np.ndarray:
        """Boolean mask of successful transactions."""
        return self.status == STATUS_ACCEPTED

    def status_names(self) -> list[str]:
        """Per-session status strings (``accepted``/``failed``/``max_rounds``)."""
        return [_STATUS_NAMES[int(s)] for s in self.status]

    def terminator_names(self) -> list[str]:
        """Per-session terminator strings (``data_party``/``task_party``/``engine``)."""
        return [_TERMINATOR_NAMES[int(t)] for t in self.terminated_by]


class SessionPool:
    """Advances a population of bargaining sessions to termination.

    Parameters
    ----------
    population:
        The sampled sessions (shared catalogue + per-session params).
    batch_size:
        Execution granularity.  Outcomes are invariant to this; it only
        trades peak memory against vectorisation width.
    settlement:
        Optional :class:`~repro.security.batch.SecureSettlement`:
        accepted sessions re-settle their payments through the batched
        §3.6 Paillier path after termination.  Settled payments depend
        only on each session's ``(ΔG, quote)`` — never on the batch,
        shard, or pack grouping — so the invariance guarantees below
        carry over unchanged.
    """

    def __init__(
        self,
        population: Population,
        *,
        batch_size: int = 1024,
        settlement=None,
    ):
        require(batch_size >= 1, "batch_size must be >= 1")
        self.population = population
        self.batch_size = int(batch_size)
        self.settlement = settlement

    # ------------------------------------------------------------------
    def run(self, *, indices: np.ndarray | None = None) -> PoolResult:
        """Play sessions to termination and collect terminal records.

        ``indices`` restricts execution to a subset of the population
        (a *shard*): only those sessions are advanced, and the returned
        arrays carry their terminal records at their original positions
        (other rows keep the zero/NaN fill).  Because every session
        draws from its own seeded RNG stream, a session's record is
        identical whether it runs alone, in any batch, or in any shard
        — which is what lets :mod:`repro.jobs` split one population
        across worker processes and merge a bit-identical result.
        """
        pop = self.population
        n = pop.n_sessions
        member = np.zeros(n, dtype=bool)
        if indices is None:
            member[:] = True
        else:
            member[np.asarray(indices, dtype=int)] = True
        arrays = session_record_arrays(n)
        t0 = time.perf_counter()

        eligible = pop.kernel_eligible()
        kernel_idx = np.flatnonzero(eligible & member)
        for batch in _chunks(kernel_idx, self.batch_size):
            out = simulate_strategic_batch(pop, batch)
            for key, values in out.items():
                arrays[key][batch] = values

        stepped_idx = np.flatnonzero(~eligible & member)
        oracle = MemoisedOracle(pop.oracle)
        for batch in _chunks(stepped_idx, self.batch_size):
            self._run_stepwise(batch, oracle, arrays)

        if self.settlement is not None:
            self._settle_secure(arrays)

        elapsed = time.perf_counter() - t0
        if kernel_idx.size:
            _POOL_SESSIONS.inc(int(kernel_idx.size), path="kernel")
        if stepped_idx.size:
            _POOL_SESSIONS.inc(int(stepped_idx.size), path="stepwise")
        if oracle.hit_count:
            _POOL_ORACLE.inc(oracle.hit_count, result="hit")
        if oracle.query_count - oracle.hit_count:
            _POOL_ORACLE.inc(oracle.query_count - oracle.hit_count,
                             result="miss")
        _POOL_RUN_SECONDS.observe(elapsed)
        return PoolResult(
            **arrays,
            kernel_sessions=int(kernel_idx.size),
            stepped_sessions=int(stepped_idx.size),
            oracle_queries=oracle.query_count,
            oracle_hits=oracle.hit_count,
            elapsed=elapsed,
            queried_bundles=tuple(
                sorted(b.indices for b in oracle.queried_bundles())
            ),
        )

    # ------------------------------------------------------------------
    def _run_stepwise(
        self,
        batch: np.ndarray,
        oracle: MemoisedOracle,
        arrays: dict[str, np.ndarray],
    ) -> None:
        """Advance one batch of engine-backed sessions round-by-round.

        All sessions play round 1, then round 2, ... — the interleave a
        distributed scheduler needs (checkpoint between rounds, migrate
        sessions mid-game) — rather than one game at a time.
        """
        engines = {int(i): self.population.build_engine(int(i), oracle=oracle)
                   for i in batch}
        states = {i: engine.start() for i, engine in engines.items()}
        while states:
            for i in list(states):
                state = engines[i].step(states[i])
                if state.done:
                    assert state.outcome is not None
                    self._record(arrays, i, state.outcome)
                    del states[i]
                else:
                    states[i] = state

    def _settle_secure(self, arrays: dict[str, np.ndarray]) -> None:
        """Re-settle accepted sessions through the batched secure path.

        Only rows this run actually terminated as accepted are touched
        (non-member rows keep their fill), and each payment is a pure
        function of that session's ``(ΔG, quote)`` — the secure twin of
        the kernel's clamp — so shard merges stay bit-identical.
        """
        from repro.market.pricing import QuotedPrice

        idx = np.flatnonzero(arrays["status"] == STATUS_ACCEPTED)
        if idx.size == 0:
            return
        gains = [float(arrays["delta_g"][i]) for i in idx]
        quotes = [
            QuotedPrice(
                rate=float(arrays["final_rate"][i]),
                base=float(arrays["final_base"][i]),
                cap=float(arrays["final_cap"][i]),
            )
            for i in idx
        ]
        payments = self.settlement.settle(gains, quotes)
        utility = self.population.utility_rate
        for i, gain, payment in zip(idx, gains, payments):
            arrays["payment"][i] = payment
            arrays["net_profit"][i] = float(utility[i]) * gain - payment

    @staticmethod
    def _record(arrays: dict[str, np.ndarray], i: int, outcome: BargainOutcome) -> None:
        arrays["status"][i] = _STATUS_CODES[outcome.status]
        arrays["terminated_by"][i] = _TERMINATOR_CODES[outcome.terminated_by]
        arrays["n_rounds"][i] = outcome.n_rounds
        arrays["delta_g"][i] = outcome.delta_g
        arrays["payment"][i] = outcome.payment
        arrays["net_profit"][i] = outcome.net_profit
        arrays["cost_task"][i] = outcome.cost_task
        arrays["cost_data"][i] = outcome.cost_data
        if outcome.quote is not None:
            arrays["final_rate"][i] = outcome.quote.rate
            arrays["final_base"][i] = outcome.quote.base
            arrays["final_cap"][i] = outcome.quote.cap


def _chunks(indices: np.ndarray, size: int):
    for start in range(0, len(indices), size):
        yield indices[start : start + size]
