"""Figure 3 — bargaining dynamics with the 3-layer MLP base model.

Paper reference (Fig. 3): same panels as Figure 2 with the SplitNN MLP
as the VFL base model; gains are larger (e.g. Titanic ΔG ~0.2 vs ~0.17
for RF) but every qualitative comparison between strategies is
unchanged — the market is protocol-agnostic (§3.6).

The quick-mode CSV cells are also pinned by digest (``_CELL_PINS``), so
any drift in the MLP markets or their bargaining fails here.
"""

import glob
import os

import pytest
from conftest import run_once
from _render import assert_paper_shape, render_bargaining_figure

from repro.experiments import figure23_series, scale
from repro.utils.canonical import content_digest

#: Quick-mode digest of the rendered CSV cells per dataset, seed 0.
_CELL_PINS = {
    "titanic": "740140954713ae85",
    "credit": "0131e5a7ec430007",
    "adult": "c3d1e0bfcdbf5564",
}


def _cells(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()]


@pytest.mark.parametrize("dataset", ["titanic", "credit", "adult"])
def test_fig3_bargaining_dynamics_mlp(benchmark, results_dir, dataset):
    fig = run_once(benchmark, figure23_series, dataset, "mlp", seed=0)
    render_bargaining_figure(fig, figure_no=3, results_dir=results_dir)
    assert_paper_shape(fig)
    if scale().quick:
        paths = glob.glob(os.path.join(results_dir, f"fig3_{dataset}_*.csv"))
        digest = content_digest({os.path.basename(p): _cells(p) for p in paths})
        assert digest == _CELL_PINS[dataset]
