"""Experiment harness regenerating every table and figure of the paper."""

from repro.experiments.aggregate import (
    density,
    histogram,
    mean_std,
    nan_mean_ci,
)
from repro.experiments.config import ExperimentScale, scale
from repro.experiments.figures import (
    figure1_series,
    figure23_series,
    figure4_series,
    write_figure_csvs,
)
from repro.experiments.report import ascii_chart, format_table, write_csv
from repro.experiments.runner import get_market, round_matrix, spec_for
from repro.experiments.tables import (
    ablation_epsilon_rows,
    ablation_market_rows,
    security_overhead_rows,
    table2_rows,
    table3_rows,
    table4_rows,
)

__all__ = [
    "ExperimentScale",
    "ablation_epsilon_rows",
    "ablation_market_rows",
    "ascii_chart",
    "density",
    "figure1_series",
    "figure23_series",
    "figure4_series",
    "format_table",
    "get_market",
    "histogram",
    "mean_std",
    "nan_mean_ci",
    "round_matrix",
    "scale",
    "security_overhead_rows",
    "spec_for",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "write_csv",
    "write_figure_csvs",
]
