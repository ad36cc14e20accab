"""Statistical aggregation: means, confidence bands, densities."""

from __future__ import annotations

import math
import warnings
from statistics import NormalDist

import numpy as np

from repro.utils.validation import require

__all__ = ["density", "histogram", "mean_ci", "mean_std", "nan_mean_ci"]


def histogram(
    values: object, *, n_bins: int = 16, lo: float | None = None, hi: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
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
    lo = float(arr.min()) if lo is None else float(lo)
    hi = float(arr.max()) if hi is None else float(hi)
    require(hi >= lo, f"histogram bounds must satisfy lo <= hi, got [{lo}, {hi}]")
    if hi - lo < 1e-12:
        half = max(abs(lo), 1.0) * 0.5
        lo, hi = lo - half, lo + half
    edges = np.linspace(lo, hi, n_bins + 1)
    counts, _ = np.histogram(arr, bins=edges)
    return edges, counts


def _z(confidence: float) -> float:
    """Two-sided standard-normal quantile for a ``confidence`` level."""
    require(0 < confidence < 1, f"confidence must be in (0, 1), got {confidence}")
    return NormalDist().inv_cdf(0.5 + confidence / 2)


def mean_ci(values: object, *, confidence: float = 0.95) -> tuple[float, float]:
    """Mean and half-width of the normal-approximation CI."""
    z = _z(confidence)
    arr = np.asarray(values, dtype=float)
    require(arr.size >= 1, "need at least one value")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    return mean, z * float(arr.std(ddof=1)) / math.sqrt(arr.size)


def mean_std(values: object) -> tuple[float, float]:
    """Mean and standard deviation (ddof=1 when possible)."""
    arr = np.asarray(values, dtype=float)
    require(arr.size >= 1, "need at least one value")
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1))


def nan_mean_ci(
    matrix: np.ndarray, *, confidence: float = 0.95, min_alive: int = 2
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-wise mean/CI ignoring NaN (runs that already terminated).

    Returns ``(mean, half_width, n_alive)`` per column; columns with
    fewer than ``min_alive`` live runs yield NaN means.
    """
    z = _z(confidence)
    alive = np.sum(~np.isnan(matrix), axis=0)
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(matrix, axis=0)
        sd = np.nanstd(matrix, axis=0, ddof=1)
    half = z * sd / np.sqrt(np.maximum(alive, 1))
    mean = np.where(alive >= min_alive, mean, np.nan)
    half = np.where(alive >= min_alive, half, np.nan)
    return mean, half, alive


def density(samples: object, grid: np.ndarray | None = None, *, n_grid: int = 64):
    """Gaussian KDE over ``samples`` (paper's Figure 2 d/e panels).

    The bandwidth is Scott's rule, ``h = n**(-1/5) * std(ddof=1)``.
    Returns ``(grid, density_values)``; degenerate samples (constant or
    too few) fall back to a point-mass histogram.
    """
    require(n_grid >= 1, f"n_grid must be >= 1, got {n_grid}")
    arr = np.asarray(samples, dtype=float)
    arr = arr[np.isfinite(arr)]
    require(arr.size >= 1, "need at least one finite sample")
    if grid is None:
        lo, hi = float(arr.min()), float(arr.max())
        span = (hi - lo) or max(abs(lo), 1.0) * 0.1
        grid = np.linspace(lo - 0.25 * span, hi + 0.25 * span, n_grid)
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
