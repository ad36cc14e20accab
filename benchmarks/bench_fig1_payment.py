"""Figure 1 — payment and net profit as functions of ΔG.

Paper reference: payment is flat at P0, linear with slope p, capped at
Ph beyond the turning point (Ph−P0)/p (Fig. 1a); net profit is negative
below P0/(u−p) and increases monotonically (Fig. 1b).
"""

import numpy as np
from conftest import run_once

from repro.experiments import ascii_chart, figure1_series, write_figure_csvs


def test_fig1_payment_and_profit_curves(benchmark, results_dir):
    series = run_once(benchmark, figure1_series)
    grid = series["delta_g"]
    payment = series["payment"]
    profit = series["net_profit"]
    print()
    print(
        ascii_chart(
            {"payment": payment},
            title="Figure 1a: payment vs dG (flat -> linear -> capped)",
            x_label="dG",
        )
    )
    print(
        ascii_chart(
            {"net profit": profit},
            title="Figure 1b: task-party net profit vs dG",
            x_label="dG",
        )
    )
    write_figure_csvs(1, series, results_dir)
    # Shape assertions mirroring the paper's panel annotations.
    tp = float(series["turning_point"][0])
    be = float(series["break_even"][0])
    # Payment: monotone, floor P0 to cap Ph, kink at the turning point.
    assert np.all(np.diff(payment) >= -1e-12)
    assert payment[0] == 1.0 and payment[-1] == 3.0
    assert abs(np.interp(tp, grid, payment) - 3.0) < 1e-2
    # Net profit: negative below break-even, positive above, monotone.
    assert np.interp(be - 0.05, grid, profit) < 0
    assert np.interp(be + 0.05, grid, profit) > 0
    assert np.all(np.diff(profit) >= -1e-9)
