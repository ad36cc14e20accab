"""The marketplace service layer: one typed API under every front door.

The paper models a standing feature market where a platform mediates
many buyer/seller bargaining sessions over pre-computed ΔG oracles.
This package is that platform's programmatic surface, layered as:

* :mod:`~repro.service.registry` — decorator-based registries for
  datasets, base models, party strategies and cost kinds; the single
  extension point behind CLI choices, spec validation and the
  simulator's mix parser.
* :mod:`~repro.service.specs` — frozen, validated
  :class:`MarketSpec` / :class:`SessionSpec` / :class:`SimulationSpec`
  job descriptions with canonical dict round-trips and content digests
  (the cache keys for the market pool and the oracle gain cache).
* :mod:`~repro.service.manager` — the thread-safe :class:`MarketPool`
  and the :class:`SessionManager` brokering concurrent sessions over
  the stepwise :class:`~repro.market.engine.BargainingEngine` core.
* :mod:`~repro.service.simulation` — population-simulation jobs as
  specs (:func:`run_simulation`).
* :mod:`~repro.service.api` — the transport-independent ``/v1`` route
  table every front door dispatches through.
* :mod:`~repro.service.async_server` / :mod:`~repro.service.server` —
  ``python -m repro serve``: the route table over HTTP on one asyncio
  event loop, so many clients can bargain against one warm oracle
  concurrently.  Import them directly; the package does not, so
  embedded and CLI use never pays for loading the HTTP stack.

Typical embedded use::

    from repro.service import MarketSpec, SessionSpec, SessionManager

    manager = SessionManager()
    spec = MarketSpec(dataset="titanic")
    sid = manager.open_session(SessionSpec(market=spec, seed=0))
    while not manager.step(sid)["done"]:
        pass
    print(manager.status(sid)["outcome"])
"""

from repro.service import registry
from repro.service.api import JobService
from repro.service.manager import (
    MarketPool,
    SessionConflictError,
    SessionLimitError,
    SessionManager,
    shared_pool,
)
from repro.service.registry import (
    Registry,
    StrategyContext,
    register_base_model,
    register_cost,
    register_data_strategy,
    register_dataset,
    register_task_strategy,
)
from repro.service.simulation import run_simulation
from repro.service.specs import MarketSpec, SessionSpec, SimulationSpec

__all__ = [
    "JobService",
    "MarketPool",
    "MarketSpec",
    "Registry",
    "SessionConflictError",
    "SessionLimitError",
    "SessionManager",
    "SessionSpec",
    "SimulationSpec",
    "StrategyContext",
    "register_base_model",
    "register_cost",
    "register_data_strategy",
    "register_dataset",
    "register_task_strategy",
    "registry",
    "run_simulation",
    "shared_pool",
]
