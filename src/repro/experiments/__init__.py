"""Experiment harness regenerating every table and figure of the paper."""

from repro.experiments.aggregate import (
    density,
    histogram,
    mean_std,
    nan_mean_ci,
)
from repro.experiments.config import BASE_MODELS, DATASETS, ExperimentScale, scale
from repro.experiments.figures import (
    figure1_series,
    figure23_series,
    figure4_series,
    write_figure_csvs,
)
from repro.experiments.report import ascii_chart, format_table, write_csv
from repro.experiments.runner import (
    clear_market_cache,
    get_market,
    market_is_cached,
    round_matrix,
    spec_for,
)
from repro.experiments.tables import (
    ablation_epsilon_rows,
    ablation_market_rows,
    security_overhead_rows,
    table2_rows,
    table3_rows,
    table4_rows,
)

__all__ = [
    "BASE_MODELS",
    "DATASETS",
    "ExperimentScale",
    "ablation_epsilon_rows",
    "ablation_market_rows",
    "ascii_chart",
    "clear_market_cache",
    "density",
    "figure1_series",
    "figure23_series",
    "figure4_series",
    "format_table",
    "get_market",
    "market_is_cached",
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
