"""Population-scale bargaining simulation.

The paper evaluates one negotiation at a time; this subsystem runs
*populations* of heterogeneous bargaining sessions concurrently —
the workload a production feature market actually serves.  Layered as:

* :mod:`~repro.simulate.population` — vectorised sampling of ``N``
  session specs (buyer economics, reserved prices, strategy/cost mix)
  from preset-anchored distributions;
* :mod:`~repro.simulate.kernel` — the vectorised batch kernel for
  sessions against the strategic data party (strategic or
  Increase-Price task party);
* :mod:`~repro.simulate.pool` — the :class:`SessionPool` scheduler
  advancing every session round-by-round (batch kernel + stepwise
  :meth:`~repro.market.engine.BargainingEngine.step` fallback);
* :mod:`~repro.simulate.report` — population-level aggregates with a
  determinism digest.

Typical use::

    from repro.simulate import PopulationSpec, sample_population, SessionPool
    from repro.simulate import build_report

    spec = PopulationSpec(preset="titanic")
    population = sample_population(spec, 10_000, seed=0)
    result = SessionPool(population, batch_size=1024).run()
    print(build_report(population, result).to_text())

or from the command line: ``python -m repro simulate --sessions 10000``.
"""

from repro.simulate.pool import PoolResult, SessionPool
from repro.simulate.population import Population, PopulationSpec, sample_population
from repro.simulate.report import SimulationReport, build_report

__all__ = [
    "Population",
    "PopulationSpec",
    "PoolResult",
    "SessionPool",
    "SimulationReport",
    "build_report",
    "sample_population",
]
