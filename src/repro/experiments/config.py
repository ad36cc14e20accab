"""Experiment-scale configuration: quick mode vs paper scale.

Every benchmark runs in **quick mode** by default (reduced repetition
counts and dataset rows, so the full suite finishes in minutes on a
laptop).  Setting the environment variable ``REPRO_FULL=1`` restores
the paper's scale: 100 bargaining repetitions, full dataset rows, and
N=100 exploration rounds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["ExperimentScale", "scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Repetition counts for one experiment tier."""

    name: str
    quick: bool
    n_runs: int
    n_runs_imperfect: int
    n_bundles: int
    exploration_rounds: int
    trace_rounds: int


_QUICK = ExperimentScale(
    name="quick",
    quick=True,
    n_runs=20,
    n_runs_imperfect=8,
    n_bundles=24,
    exploration_rounds=60,
    trace_rounds=150,
)

_FULL = ExperimentScale(
    name="full",
    quick=False,
    n_runs=100,
    n_runs_imperfect=100,
    n_bundles=24,
    exploration_rounds=100,
    trace_rounds=200,
)


def scale() -> ExperimentScale:
    """The active tier, from the ``REPRO_FULL`` environment variable."""
    return _FULL if os.environ.get("REPRO_FULL", "") == "1" else _QUICK
