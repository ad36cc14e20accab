"""Statistical aggregation: means, confidence bands, densities."""

from __future__ import annotations

import math
import warnings
from statistics import NormalDist

import numpy as np

from repro.utils.validation import require

__all__ = ["density", "histogram", "mean_std", "nan_mean_ci"]


def histogram(values: object, *, n_bins: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-width histogram with deterministic, data-derived edges.

    Returns ``(edges, counts)`` with ``len(edges) == n_bins + 1``.
    Degenerate samples (a single point mass) get a unit-width bin
    around the value so the result is always renderable.  Used by the
    population simulator's aggregate report.
    """
    arr = np.asarray(values, dtype=float)
    arr = arr[np.isfinite(arr)]
    require(arr.size >= 1, "need at least one finite value")
    require(n_bins >= 1, "n_bins must be >= 1")
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo < 1e-12:
        half = max(abs(lo), 1.0) * 0.5
        lo, hi = lo - half, lo + half
    edges = np.linspace(lo, hi, n_bins + 1)
    counts, _ = np.histogram(arr, bins=edges)
    return edges, counts


#: Two-sided standard-normal quantile of the 95% confidence bands.
_Z95 = NormalDist().inv_cdf(0.975)


def mean_std(values: object) -> tuple[float, float]:
    """Mean and standard deviation (ddof=1 when possible)."""
    arr = np.asarray(values, dtype=float)
    require(arr.size >= 1, "need at least one value")
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1))


def nan_mean_ci(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-wise mean/95% CI ignoring NaN (runs that already terminated).

    Returns ``(mean, half_width, n_alive)`` per column; columns with
    fewer than two live runs (no spread to estimate) yield NaN means.
    """
    alive = np.sum(~np.isnan(matrix), axis=0)
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(matrix, axis=0)
        sd = np.nanstd(matrix, axis=0, ddof=1)
    half = _Z95 * sd / np.sqrt(np.maximum(alive, 1))
    mean = np.where(alive >= 2, mean, np.nan)
    half = np.where(alive >= 2, half, np.nan)
    return mean, half, alive


def density(samples: object, grid: np.ndarray):
    """Gaussian KDE over ``samples`` at the ``grid`` points (paper's
    Figure 2 d/e panels).

    The bandwidth is Scott's rule, ``h = n**(-1/5) * std(ddof=1)``.
    Returns ``(grid, density_values)``; degenerate samples (constant or
    too few) fall back to a point-mass histogram.
    """
    arr = np.asarray(samples, dtype=float)
    arr = arr[np.isfinite(arr)]
    require(arr.size >= 1, "need at least one finite sample")
    grid = np.asarray(grid, dtype=float)
    require(grid.size >= 1, "grid must hold at least one point")
    if arr.size < 3 or np.ptp(arr) < 1e-12:
        values = np.zeros_like(grid)
        values[np.argmin(np.abs(grid - arr.mean()))] = 1.0
        return grid, values
    n = arr.size
    h = n ** (-1 / 5) * float(arr.std(ddof=1))
    kernel = np.exp(-0.5 * ((grid[:, None] - arr[None, :]) / h) ** 2)
    return grid, kernel.sum(axis=1) / (n * h * math.sqrt(2 * math.pi))
