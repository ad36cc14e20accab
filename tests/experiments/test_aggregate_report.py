"""Tests for aggregation statistics and plain-text rendering."""

import os

import numpy as np
import pytest

from repro.experiments import (
    ascii_chart,
    density,
    format_table,
    mean_std,
    nan_mean_ci,
    write_csv,
)


class TestMeanCI:
    def test_point_estimate(self):
        mean, half, alive = nan_mean_ci(np.array([[2.0], [4.0], [6.0]]))
        assert mean[0] == pytest.approx(4.0)
        assert half[0] > 0
        assert alive[0] == 3

    def test_coverage_approximately_nominal(self):
        # 300 samples of 30 draws each, one sample per column.
        samples = np.random.default_rng(1).normal(0, 1, (30, 300))
        mean, half, _ = nan_mean_ci(samples)
        hits = np.abs(mean) <= half
        assert 0.87 <= hits.mean() <= 0.99

    def test_mean_std(self):
        m, s = mean_std([1.0, 3.0])
        assert m == 2.0
        assert s == pytest.approx(np.std([1, 3], ddof=1))

    def test_mean_std_single_value_has_no_spread(self):
        assert mean_std([3.0]) == (3.0, 0.0)

    def test_mean_std_returns_plain_floats(self):
        # The table builders format and serialise these as plain floats.
        m, s = mean_std(np.array([2.0, 4.0, 6.0]))
        assert type(m) is float and type(s) is float


# norm.ppf(0.975) from SciPy 1.17.1, the reference the z constant
# replaced; NormalDist's inverse CDF agrees within a few ulp.
REFERENCE_Z95 = 1.959963984540054

# Mean 0 and std(ddof=1) 2 over 4 points, so the half-width is z * 2 / 2:
# exactly the z constant, with no rounding from the scaling.
UNIT_SCALE = [-3.0, 1.0, 1.0, 1.0]


def _ulps(a: float, b: float) -> float:
    return abs(a - b) / np.spacing(b)


class TestZConstant:
    def test_nan_mean_ci_z_matches_reference_within_4_ulp(self):
        matrix = np.array(UNIT_SCALE + [np.nan])[:, None]
        _, half, _ = nan_mean_ci(matrix)
        assert _ulps(float(half[0]), REFERENCE_Z95) <= 4


class TestNanMeanCI:
    def test_ignores_terminated_runs(self):
        matrix = np.array([[1.0, 2.0, np.nan], [3.0, 4.0, 5.0], [5.0, np.nan, np.nan]])
        mean, half, alive = nan_mean_ci(matrix)
        np.testing.assert_array_equal(alive, [3, 2, 1])
        assert mean[0] == pytest.approx(3.0)
        assert mean[1] == pytest.approx(3.0)  # two live runs: a spread
        assert np.isnan(mean[2])  # one live run: none

    def test_min_alive_threshold(self):
        mean, half, alive = nan_mean_ci(np.array([[1.0, 1.0], [3.0, np.nan]]))
        np.testing.assert_array_equal(alive, [2, 1])
        assert mean[0] == 2.0 and half[0] > 0
        assert np.isnan(mean[1]) and np.isnan(half[1])

    def test_no_live_runs(self):
        mean, half, alive = nan_mean_ci(np.full((3, 2), np.nan))
        np.testing.assert_array_equal(alive, [0, 0])
        assert np.isnan(mean).all() and np.isnan(half).all()


# gaussian_kde(KDE_SAMPLE)(KDE_GRID) from SciPy 1.17.1, as hex floats.
KDE_SAMPLE = np.array([0.3, 1.1, 1.7, 2.4, 4.0])
KDE_GRID = np.linspace(-1.0, 5.0, 8)
REFERENCE_KDE = np.array([float.fromhex(h) for h in (
    "0x1.7e610f886d93ap-5", "0x1.04892880ee37fp-3", "0x1.b72191308063fp-3",
    "0x1.f57bf31aa871ap-3", "0x1.a3f9fdd127b3bp-3", "0x1.2d5c866789b9ap-3",
    "0x1.9dfc24cecfbbcp-4", "0x1.a8ceb2688b2b6p-5",
)])


class TestDensity:
    def test_integrates_to_one(self):
        rng = np.random.default_rng(0)
        grid, values = density(rng.normal(size=400), np.linspace(-5, 5, 256))
        area = np.trapezoid(values, grid)
        assert area == pytest.approx(1.0, abs=0.06)

    def test_peak_near_mode(self):
        rng = np.random.default_rng(1)
        grid, values = density(rng.normal(5.0, 0.2, 500), np.linspace(4, 6, 64))
        assert abs(grid[np.argmax(values)] - 5.0) < 0.2

    def test_degenerate_samples_fall_back(self):
        grid, values = density([2.0, 2.0, 2.0], np.linspace(1, 3, 16))
        assert values.max() == 1.0
        assert abs(grid[np.argmax(values)] - 2.0) < 0.5

    def test_custom_grid_respected(self):
        grid_in = np.linspace(-1, 1, 16)
        grid, _ = density([0.0, 0.1, -0.1, 0.2], grid_in)
        np.testing.assert_array_equal(grid, grid_in)

    def test_matches_scott_rule_sum(self):
        samples = np.random.default_rng(2).gamma(2.0, 1.5, 200)
        grid, values = density(samples, np.linspace(-1, 15, 97))
        n = samples.size
        h = n ** (-1 / 5) * samples.std(ddof=1)
        expected = np.array([
            sum(np.exp(-0.5 * ((x - s) / h) ** 2) for s in samples)
            for x in grid
        ]) / (n * h * np.sqrt(2 * np.pi))
        np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0)

    def test_matches_reference_gaussian_kde_literal(self):
        _, values = density(KDE_SAMPLE, KDE_GRID)
        np.testing.assert_allclose(values, REFERENCE_KDE, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("samples", [[2.0, 2.0, 2.0], [0.0, 1.0, 3.0]],
                             ids=["degenerate", "kde"])
    def test_empty_grid_rejected(self, samples):
        with pytest.raises(ValueError, match="grid"):
            density(samples, np.array([]))


class TestFormatTable:
    def test_alignment_and_rule(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_title(self):
        assert format_table(["x"], [[1]], title="T").splitlines()[0] == "T"

    def test_nan_rendered_as_dash(self):
        assert "-" in format_table(["x"], [[float("nan")]]).splitlines()[-1]

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])


class TestAsciiChart:
    def test_contains_series_glyphs_and_legend(self):
        out = ascii_chart({"up": np.linspace(0, 1, 30), "down": np.linspace(1, 0, 30)})
        assert "*" in out and "o" in out
        assert "up" in out and "down" in out

    def test_nan_segments_blank(self):
        values = np.array([0.0, 1.0] + [np.nan] * 30)
        out = ascii_chart({"s": values})
        # The right half of the chart should be blank for this series.
        rows = out.splitlines()[2:-2]
        right_halves = "".join(row[-10:] for row in rows)
        assert "*" not in right_halves

    def test_all_nan_rejected(self):
        with pytest.raises(ValueError):
            ascii_chart({"s": np.array([np.nan, np.nan])})


class TestWriteCsv:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "out" / "data.csv")
        write_csv(path, ["a", "b"], [np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        lines = open(path).read().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,3"

    def test_ragged_columns_padded(self, tmp_path):
        path = str(tmp_path / "data.csv")
        write_csv(path, ["a", "b"], [[1, 2, 3], [9]])
        lines = open(path).read().splitlines()
        assert lines[2] == "2,"

    def test_header_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "x.csv"), ["a"], [[1], [2]])
