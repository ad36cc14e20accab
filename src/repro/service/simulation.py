"""Population-simulation jobs as specs.

:func:`run_simulation` is the service-layer twin of
``python -m repro simulate``: it resolves a
:class:`~repro.service.specs.SimulationSpec` into a sampled population,
runs the :class:`~repro.simulate.pool.SessionPool` scheduler, and
returns the deterministic aggregate report.  Oracle-backed jobs pull
their market from the shared :class:`~repro.service.manager.MarketPool`,
so a warm oracle serves simulations and interactive sessions alike.
"""

from __future__ import annotations

from repro.service.manager import MarketPool, shared_pool
from repro.service.specs import MarketSpec, SimulationSpec

__all__ = ["backing_market_spec", "run_simulation", "settlement_for"]


def backing_market_spec(spec: SimulationSpec) -> MarketSpec | None:
    """The oracle-backing market spec, experiment-scale aware.

    The single resolution rule (through
    :func:`repro.experiments.spec_for`) shared by
    :func:`run_simulation`'s default path, ``repro simulate --dataset``
    and the jobs executor's workers (:mod:`repro.jobs.executor`), so a
    simulation and a sharded job of the same :class:`SimulationSpec`
    build the same oracle — and digest-match — under every ``REPRO_*``
    scale tier (notably ``REPRO_FULL=1``).
    """
    if spec.dataset is None:
        return None
    from repro.experiments import spec_for

    return spec_for(
        spec.dataset,
        spec.base_model,
        seed=spec.seed,
        jobs=spec.jobs,
        cache_dir=spec.cache_dir,
        no_cache=spec.no_cache,
    )


def run_simulation(
    spec: SimulationSpec,
    *,
    pool: MarketPool | None = None,
    market_spec: MarketSpec | None = None,
):
    """Run one population-simulation job.

    Returns ``(population, result, report)`` — the sampled
    :class:`~repro.simulate.population.Population`, the pool's terminal
    :class:`~repro.simulate.pool.PoolResult`, and the aggregate
    :class:`~repro.simulate.report.SimulationReport`.

    ``market_spec`` overrides the oracle-backing market description; by
    default :func:`backing_market_spec` resolves it (experiment-scale
    aware, matching what the CLI and the jobs executor build).
    """
    from repro.simulate.pool import SessionPool
    from repro.simulate.report import build_report
    from repro.simulate.population import sample_population

    oracle = None
    if spec.dataset is not None:
        backing = (
            market_spec if market_spec is not None else backing_market_spec(spec)
        )
        market = (pool if pool is not None else shared_pool()).get(backing)
        oracle = market.oracle
    population = sample_population(
        spec.population_spec(), spec.sessions, seed=spec.seed, oracle=oracle
    )
    result = SessionPool(
        population, batch_size=spec.batch_size, settlement=settlement_for(spec)
    ).run()
    report = build_report(population, result, n_bins=spec.bins)
    return population, result, report


def settlement_for(spec: SimulationSpec):
    """The spec's :class:`~repro.security.batch.SecureSettlement` (or None).

    Keys derive from ``(seed, key_bits)`` alone, so the executor's
    worker shards (:func:`repro.jobs.executor.run_simulation_chunk`)
    rebuild the identical keypair from the spec dict — the merged
    secure report digests match the single-process path.
    """
    if not spec.secure:
        return None
    from repro.security.batch import settlement_for as _settlement_for

    return _settlement_for(spec.seed, spec.key_bits)
