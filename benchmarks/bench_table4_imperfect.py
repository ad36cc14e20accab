"""Table 4 — bargaining under imperfect performance information.

Paper reference (Table 4, RF and MLP x Titanic/Credit/Adult): the
imperfect-information setting reaches final prices, gains and payoffs
of the same magnitude as the perfect-information setting, with larger
variance (estimation noise); net profit and payment are typically
somewhat below the perfect-information values.

The quick-mode rows are also pinned by digest (``_ROW_PINS``; the
random-forest pins equal ``tests/experiments/test_paper_artifacts.py``'s).
"""

import os
import re

import pytest
from conftest import run_once

from repro.experiments import format_table, scale, table4_rows, write_csv
from repro.utils.canonical import content_digest

#: Quick-mode digest of the rendered rows per (dataset, base model), seed 0.
_ROW_PINS = {
    ("titanic", "random_forest"): "a18d36739ddb18ca",
    ("credit", "random_forest"): "425de89181aa9696",
    ("adult", "random_forest"): "cc56d1a6021d0b55",
    ("titanic", "mlp"): "da8df4bd1470194b",
    ("credit", "mlp"): "0df75ed0acb9a65f",
    ("adult", "mlp"): "7487df46f3c66c4f",
}


def _mean(cell: str) -> float:
    match = re.match(r"(-?\d+\.?\d*)", str(cell))
    return float(match.group(1)) if match else float("nan")


@pytest.mark.parametrize("base_model", ["random_forest", "mlp"])
@pytest.mark.parametrize("dataset", ["titanic", "credit", "adult"])
def test_table4_imperfect_vs_perfect(benchmark, results_dir, dataset, base_model):
    headers, rows = run_once(benchmark, table4_rows, dataset, base_model, seed=0)
    print()
    print(format_table(headers, rows, title=f"Table 4 ({dataset}, {base_model})"))
    write_csv(
        os.path.join(results_dir, f"table4_{dataset}_{base_model}.csv"),
        headers,
        [[r[i] for r in rows] for i in range(len(headers))],
    )
    cells = {row[0]: (row[1], row[2]) for row in rows}
    perfect_net = _mean(cells["Net Profit"][1])
    imperfect_net = _mean(cells["Net Profit"][0])
    # Paper shape: imperfect is effective — same order of magnitude,
    # below perfect (estimation noise costs something).  On Adult's
    # razor-thin margins (u·dG barely exceeds the reserved price) the
    # estimation noise can push quick-mode settlements slightly
    # negative — a documented deviation (EXPERIMENTS.md), so the lower
    # band is a magnitude check rather than a profitability check.
    if imperfect_net == imperfect_net and perfect_net == perfect_net:  # not NaN
        assert imperfect_net <= perfect_net * 1.25 + 0.5
        assert abs(imperfect_net) <= max(2.0, 1.5 * abs(perfect_net)) or (
            imperfect_net >= 0.05 * perfect_net - 0.5
        )
    if scale().quick:
        digest = content_digest([[str(cell) for cell in row] for row in rows])
        assert digest == _ROW_PINS[dataset, base_model]
