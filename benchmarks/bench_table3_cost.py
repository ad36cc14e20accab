"""Table 3 — effect of bargaining cost.

Paper reference (Table 3, RF base model): introducing linear
``C(T)=aT`` or exponential ``C(T)=a^T`` bargaining costs lowers net
profit, payment and realized ΔG relative to the no-cost rows; faster-
growing costs (larger a) push the parties to a less optimal but earlier
equilibrium; smaller ε yields higher revenue but more rounds (more
accumulated cost).

Asserted here, per ε: every cost row's cost-adjusted payment and
realized ΔG are at most the no-cost row's, linear a=0.1 costs net
profit, and a=1 hurts at least about as much as a=0.1.  The ε clause
is not asserted: on this reproduction's markets (quick mode, seed 0)
the two ε rows, which set ``eps_d``/``eps_t``, come out identical on
every dataset, so there is no revenue-versus-rounds trade-off to
check.

The quick-mode rows are also pinned by digest (``_ROW_PINS``), so any
drift in the cost-adjusted outcomes fails here.
"""

import os
import re

import pytest
from conftest import run_once

from repro.experiments import format_table, scale, table3_rows, write_csv
from repro.utils.canonical import content_digest

#: Quick-mode digest of the rendered rows per dataset, seed 0.
_ROW_PINS = {
    "titanic": "d199d8a72b885e1b",
    "credit": "848bba4d8a8e9e47",
    "adult": "7e4b0f22b2cc01bb",
}


def _mean(cell: str) -> float:
    match = re.match(r"(-?\d+\.?\d*)", str(cell))
    return float(match.group(1)) if match else float("nan")


@pytest.mark.parametrize("dataset", ["titanic", "credit", "adult"])
def test_table3_bargaining_cost(benchmark, results_dir, dataset):
    headers, rows = run_once(benchmark, table3_rows, dataset, seed=0)
    print()
    print(format_table(headers, rows, title=f"Table 3 ({dataset}, RF)"))
    write_csv(
        os.path.join(results_dir, f"table3_{dataset}.csv"),
        headers,
        [[r[i] for r in rows] for i in range(len(headers))],
    )
    by_label = {}
    for row in rows:
        by_label.setdefault(row[0], []).append(row)
    # Paper shape: costs reduce cost-adjusted net profit vs the no-cost
    # rows, and the fast-growing linear a=1 schedule hurts at least as
    # much as a=0.1.
    for eps_idx in range(len(by_label["No cost"])):
        no_cost = by_label["No cost"][eps_idx]
        for label, cost_rows in by_label.items():
            row = cost_rows[eps_idx]
            assert row[1] == no_cost[1]  # same eps
            # Costs never raise the seller's cost-adjusted payment nor
            # the realized gain (cells are printed to two decimals).
            assert _mean(row[3]) <= _mean(no_cost[3]), (label, row[3], no_cost[3])
            assert _mean(row[4]) <= _mean(no_cost[4]), (label, row[4], no_cost[4])
        base_net = _mean(no_cost[2])
        slow = _mean(by_label["C(T)=aT, a=0.1"][eps_idx][2])
        fast = _mean(by_label["C(T)=aT, a=1"][eps_idx][2])
        assert slow <= base_net + 1e-6
        assert fast <= slow + max(0.15 * abs(base_net), 0.2)
    if scale().quick:
        digest = content_digest([[str(cell) for cell in row] for row in rows])
        assert digest == _ROW_PINS[dataset]
