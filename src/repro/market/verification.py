"""Gain-report auditing: the paper's §6 limitation 1, implemented.

The bargaining model assumes benign clients (Assumption 3.3); the paper
notes the obvious manipulation — *"the task party may accept a feature
bundle with high performance gain but only report a lower value to
reduce its payment"* — and sketches the fix: *"involve a trustworthy
third party for evaluation."*

This module provides that third party:

* :class:`TrustedEvaluator` re-runs the VFL course for a transacted
  bundle under independent seeds and checks the reported ΔG against the
  measured distribution (training stochasticity is measured, not
  assumed: the tolerance band comes from repeated evaluations);
* :func:`under_report` simulates the attack for tests/benchmarks.

The evaluator is exactly the §3.4 platform wearing a second hat — it
already trains per-bundle models to publish the perfect-information
catalogue, so auditing adds no new trust assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.partition import PartitionedDataset
from repro.market.bundle import FeatureBundle
from repro.utils.validation import require
from repro.vfl.runner import isolated_performance, run_vfl

#: Reports more than this many (estimated) standard deviations *below*
#: the measured mean are flagged.  One-sided: over-reports hurt the
#: task party itself, so only under-reporting is policed.
_Z_THRESHOLD = 3.0

#: Floor on the measured spread, so a bundle whose re-trainings agree
#: exactly still tolerates floating-point wobble.
_MIN_TOLERANCE = 5e-3

__all__ = ["AuditResult", "TrustedEvaluator", "under_report"]


def under_report(true_gain: float, fraction: float) -> float:
    """The §6 manipulation: report only ``fraction`` of the realised gain."""
    require(0.0 <= fraction <= 1.0, "fraction must be in [0, 1]")
    return true_gain * fraction


@dataclass(frozen=True)
class AuditResult:
    """Verdict of one gain-report audit."""

    bundle: FeatureBundle
    reported_gain: float
    measured_mean: float
    measured_std: float
    z_score: float
    verified: bool

    @property
    def discrepancy(self) -> float:
        """Reported minus measured gain (negative = under-reporting)."""
        return self.reported_gain - self.measured_mean


class TrustedEvaluator:
    """Third-party re-evaluation of reported performance gains.

    Parameters
    ----------
    dataset:
        The aligned, partitioned dataset (the platform held it for the
        pre-bargaining training already).
    base_model / model_params:
        The VFL configuration under audit.
    n_repeats:
        Independent re-trainings per audit; their spread calibrates the
        tolerance.
    """

    def __init__(
        self,
        dataset: PartitionedDataset,
        *,
        base_model: str = "random_forest",
        model_params: dict | None = None,
        n_repeats: int = 3,
        seed: object = 1234,
    ):
        require(n_repeats >= 2, "auditing needs >= 2 repeats to estimate spread")
        self.dataset = dataset
        self.base_model = base_model
        self.model_params = model_params
        self.n_repeats = int(n_repeats)
        self.seed = seed
        self._cache: dict[FeatureBundle, tuple[float, float]] = {}

    def measure(self, bundle: FeatureBundle) -> tuple[float, float]:
        """(mean, std) of ΔG over independent re-trainings (cached)."""
        if bundle not in self._cache:
            gains = []
            for r in range(self.n_repeats):
                seed = f"audit/{self.seed}/{r}"
                m0 = isolated_performance(
                    self.dataset,
                    base_model=self.base_model,
                    model_params=self.model_params,
                    seed=seed,
                )
                result = run_vfl(
                    self.dataset,
                    bundle.indices,
                    base_model=self.base_model,
                    model_params=self.model_params,
                    seed=seed,
                    m0=m0,
                )
                gains.append(result.delta_g)
            self._cache[bundle] = (
                float(np.mean(gains)),
                float(np.std(gains, ddof=1)),
            )
        return self._cache[bundle]

    def audit(self, bundle: FeatureBundle, reported_gain: float) -> AuditResult:
        """Check a reported ΔG against independent re-measurements."""
        mean, std = self.measure(bundle)
        scale = max(std, _MIN_TOLERANCE)
        z = (reported_gain - mean) / scale
        return AuditResult(
            bundle=bundle,
            reported_gain=float(reported_gain),
            measured_mean=mean,
            measured_std=std,
            z_score=float(z),
            verified=bool(z >= -_Z_THRESHOLD),
        )
