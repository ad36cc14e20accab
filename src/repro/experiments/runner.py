"""Shared experiment plumbing: the market rule and trace extraction.

:func:`spec_for` is the one place a front door turns a dataset and base
model into a :class:`~repro.service.specs.MarketSpec`: it applies the
active experiment tier and resolves the gain-cache directory.  Markets
are pooled in the process-wide :func:`repro.service.manager.shared_pool`,
keyed by the full :meth:`~repro.service.specs.MarketSpec.digest`, which
covers the oracle-build execution fields too, so a ``--no-cache`` run
never reuses a market built under other persistence settings.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.config import scale
from repro.market.engine import BargainOutcome
from repro.market.market import Market
from repro.service.manager import shared_pool
from repro.service.specs import MarketSpec

__all__ = ["get_market", "round_matrix", "spec_for"]


def spec_for(
    dataset: str,
    base_model: str = "random_forest",
    *,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: str | None = None,
    no_cache: bool = False,
) -> MarketSpec:
    """The experiment-scale-aware :class:`MarketSpec` for one market.

    Applies the active :func:`repro.experiments.config.scale` tier
    (quick-mode rows, catalogue size) and resolves the gain-cache
    directory: none with ``no_cache``, else ``cache_dir`` or
    :func:`~repro.oracle_factory.cache.default_cache_dir`.
    """
    tier = scale()
    if no_cache:
        cache_dir = None
    else:
        from repro.oracle_factory.cache import default_cache_dir

        cache_dir = cache_dir or default_cache_dir()
    return MarketSpec(
        dataset=dataset,
        base_model=base_model,
        seed=seed,
        quick=tier.quick,
        n_bundles=tier.n_bundles,
        jobs=jobs,
        cache_dir=cache_dir,
        no_cache=no_cache,
    )


def get_market(
    dataset: str, base_model: str = "random_forest", *, seed: int = 0
) -> Market:
    """Build (or reuse) the market a paper table or figure reads.

    Oracle construction dominates experiment cost, so markets are
    pooled per spec digest for the process lifetime — every
    figure/table for a given market shares one oracle, exactly as the
    paper's platform pre-computes gains once.  The artifacts build
    without the persistent gain cache.
    """
    return shared_pool().get(spec_for(dataset, base_model, seed=seed, no_cache=True))


def round_matrix(
    outcomes: list[BargainOutcome],
    field: str,
    *,
    max_round: int | None = None,
) -> np.ndarray:
    """Per-round values as an ``(n_runs, max_round)`` array.

    ``field`` is a :class:`~repro.market.engine.RoundRecord` attribute
    (``"net_profit"``, ``"payment"``, ``"delta_g"``).  Accepted runs are
    padded with their final value after termination (the agreed deal
    persists); failed runs are NaN after their last round, so per-round
    means aggregate over runs still alive — matching how the paper's
    curves remain defined while runs drop out.
    """
    if max_round is None:
        max_round = max(o.n_rounds for o in outcomes)
    matrix = np.full((len(outcomes), max_round), np.nan)
    for i, outcome in enumerate(outcomes):
        for record in outcome.history:
            if record.round_number <= max_round and record.bundle is not None:
                matrix[i, record.round_number - 1] = getattr(record, field)
        if outcome.accepted and outcome.n_rounds < max_round:
            matrix[i, outcome.n_rounds :] = getattr(
                outcome.history[-1], field
            )
    return matrix
