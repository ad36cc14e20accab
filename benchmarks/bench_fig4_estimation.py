"""Figure 4 — convergence of the ΔG estimation networks.

Paper reference (Fig. 4, RF and MLP x Titanic/Credit/Adult): both
parties' estimators' MSE falls quickly within the first 20-30 rounds
and keeps improving with more bargaining rounds, reaching a level where
estimation-guided bargaining is reliable by ~round 100.

The quick-mode series are also pinned by digest (``_SERIES_PINS``), so
any bit drift in estimator training on the three datasets fails here.
"""

import numpy as np
import pytest
from conftest import run_once

from repro.experiments import ascii_chart, figure4_series, scale, write_figure_csvs
from repro.utils.canonical import content_digest

#: Quick-mode digest of both MSE series (hex floats) per cell, seed 0.
_SERIES_PINS = {
    ("titanic", "random_forest"): "84d2fabc5196c752",
    ("titanic", "mlp"): "139ac4b6b7a298e4",
    ("credit", "random_forest"): "e324b1b98b21e43e",
    ("credit", "mlp"): "1b97ea1a8a0ea8e3",
    ("adult", "random_forest"): "aff05a602b7d3034",
    ("adult", "mlp"): "6c34a7bdfc9aaf09",
}


def _series_digest(fig):
    return content_digest(
        {key: [float(v).hex() for v in fig[key]] for key in ("task_mse", "data_mse")}
    )


@pytest.mark.parametrize("base_model", ["random_forest", "mlp"])
@pytest.mark.parametrize("dataset", ["titanic", "credit", "adult"])
def test_fig4_estimator_convergence(benchmark, results_dir, dataset, base_model):
    fig = run_once(benchmark, figure4_series, dataset, base_model, seed=0)
    print()
    print(
        ascii_chart(
            {"Task Party": fig["task_mse"], "Data Party": fig["data_mse"]},
            title=f"Figure 4 ({dataset}, {base_model}): estimator MSE vs round",
        )
    )
    write_figure_csvs(4, fig, results_dir)
    # Paper shape: MSE after convergence is far below the early rounds.
    for key in ("task_mse", "data_mse"):
        curve = np.asarray(fig[key])
        finite = curve[np.isfinite(curve)]
        early = finite[1:8].mean()
        late = finite[-20:].mean()
        assert late <= early * 0.8 + 1e-9, f"{key} did not converge: {early} -> {late}"
    if scale().quick:
        assert _series_digest(fig) == _SERIES_PINS[dataset, base_model]
