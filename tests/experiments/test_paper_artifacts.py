"""The paper's tables and figures as the CLI and benches build them.

``repro table``/``repro figure`` and the paper-claims benches call these
row and series builders; here they run at quick scale (seed 0) and each
result is pinned by digest, so any drift in bargaining, estimation or
cost handling fails the tier-1 suite, not only the benches.  Table 3's
and Figure 4's pins equal the benches' (``bench_table3_cost.py``,
``bench_fig4_estimation.py``).
"""

import functools
import os

import pytest

from repro.cli import main
from repro.experiments import (
    ablation_epsilon_rows,
    ablation_market_rows,
    figure1_series,
    figure23_series,
    figure4_series,
    security_overhead_rows,
    table3_rows,
    table4_rows,
    write_figure_csvs,
)
from repro.experiments.tables import TABLE3_COSTS, TABLE3_EPSILONS
from repro.utils.canonical import content_digest

DATASETS = ("titanic", "credit", "adult")

#: Quick-mode digests per dataset, seed 0 (random-forest markets).
PINS = {
    "table3": {"titanic": "d199d8a72b885e1b", "credit": "848bba4d8a8e9e47",
               "adult": "7e4b0f22b2cc01bb"},
    "table4": {"titanic": "a18d36739ddb18ca", "credit": "425de89181aa9696",
               "adult": "cc56d1a6021d0b55"},
    "figure2": {"titanic": "a7ce3d2b2e825a61", "credit": "4011721f22bf0086",
                "adult": "ddfaf968bcc83ce7"},
    "figure4": {"titanic": "84d2fabc5196c752", "credit": "e324b1b98b21e43e",
                "adult": "aff05a602b7d3034"},
    "epsilon": {"titanic": "ef0c90834cb1a9e9", "credit": "e0c9b6baf102e42c",
                "adult": "635b4f2cd9c6bdfa"},
}
MARKET_ABLATION_PIN = "0960732ac674c99d"


@pytest.fixture(autouse=True)
def quick_scale(monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)


@functools.lru_cache(maxsize=None)
def _build(name, dataset):
    if name == "table3":
        return table3_rows(dataset, seed=0)
    if name == "table4":
        return table4_rows(dataset, "random_forest", seed=0)
    if name == "figure2":
        return figure23_series(dataset, "random_forest", seed=0)
    if name == "figure3":
        return figure23_series(dataset, "mlp", seed=0)
    if name == "figure4":
        return figure4_series(dataset, "random_forest", seed=0)
    return ablation_epsilon_rows(dataset, seed=0)


def _rows_digest(rows):
    return content_digest([[str(cell) for cell in row] for row in rows])


def _hexes(values):
    return [float(v).hex() for v in values]


def _figure2_digest(fig):
    return content_digest({
        "max_round": fig["max_round"],
        "variants": {
            label: {
                "accept_rate": variant["accept_rate"].hex(),
                "mean_rounds": variant["mean_rounds"].hex(),
                "final_rate": _hexes(variant["final_rate"]),
                "final_base": _hexes(variant["final_base"]),
                "curves": {field: _hexes(curve["mean"])
                           for field, curve in variant["curves"].items()},
            }
            for label, variant in fig["variants"].items()
        },
    })


def _figure4_digest(fig):
    return content_digest({key: _hexes(fig[key]) for key in ("task_mse", "data_mse")})


@pytest.mark.parametrize("dataset", DATASETS)
class TestPinned:
    def test_table3_rows(self, dataset):
        assert _rows_digest(_build("table3", dataset)[1]) == PINS["table3"][dataset]

    def test_table4_rows(self, dataset):
        assert _rows_digest(_build("table4", dataset)[1]) == PINS["table4"][dataset]

    def test_figure2_series(self, dataset):
        fig = _build("figure2", dataset)
        assert _figure2_digest(fig) == PINS["figure2"][dataset]

    def test_figure4_series(self, dataset):
        fig = _build("figure4", dataset)
        assert _figure4_digest(fig) == PINS["figure4"][dataset]

    def test_epsilon_ablation_rows(self, dataset):
        rows = _build("epsilon", dataset)[1]
        assert _rows_digest(rows) == PINS["epsilon"][dataset]

    def test_table3_layout(self, dataset):
        """One row per (ε, cost kind); the no-cost row has no C(T)."""
        headers, rows = _build("table3", dataset)
        assert headers[5] == "C(T)"
        expected = [(label, eps) for eps in TABLE3_EPSILONS[dataset]
                    for label, _, _ in TABLE3_COSTS]
        assert [(row[0], row[1]) for row in rows] == expected
        for row in rows:
            assert len(row) == len(headers)
            if row[0] == "No cost":
                assert row[5] == "-"
            else:
                assert "±" in row[5]


def test_market_ablation_rows_pinned():
    assert _rows_digest(ablation_market_rows(seed=0)[1]) == MARKET_ABLATION_PIN


def test_security_overhead_rows_layout():
    headers, rows = security_overhead_rows(seed=0)
    assert rows
    assert all(len(row) == len(headers) for row in rows)


class TestCli:
    def test_table3(self, capsys):
        assert main(["table", "3", "--dataset", "titanic"]) == 0
        out = capsys.readouterr().out
        assert "Table 3: bargaining cost (titanic, RF)" in out
        for label, _, _ in TABLE3_COSTS:
            assert label in out

    def test_table4(self, capsys):
        assert main(["table", "4", "--dataset", "titanic",
                     "--model", "random_forest"]) == 0
        out = capsys.readouterr().out
        assert "Table 4: imperfect vs perfect (titanic, random_forest)" in out
        assert "Net Profit" in out

    def test_figure1(self, capsys, tmp_path):
        assert main(["figure", "1", "--csv-dir", str(tmp_path / "cli")]) == 0
        out = capsys.readouterr().out
        assert "Figure 1a: payment vs dG" in out
        assert "Figure 1b: net profit vs dG" in out
        _assert_csvs_match_builder(1, figure1_series(), tmp_path, ["fig1.csv"])

    def test_figure2(self, capsys, tmp_path):
        assert main(["figure", "2", "--dataset", "titanic",
                     "--csv-dir", str(tmp_path / "cli")]) == 0
        out = capsys.readouterr().out
        for field in ("net_profit", "payment", "delta_g"):
            assert f"Figure 2 (titanic, random_forest): {field}" in out
        names = [f"fig2_titanic_{field}.csv"
                 for field in ("net_profit", "payment", "delta_g")]
        names += [f"fig2_titanic_density_{variant}.csv"
                  for variant in ("strategic", "increase", "random")]
        _assert_csvs_match_builder(2, _build("figure2", "titanic"), tmp_path, names)

    def test_figure3(self, capsys, tmp_path):
        assert main(["figure", "3", "--dataset", "titanic",
                     "--csv-dir", str(tmp_path / "cli")]) == 0
        out = capsys.readouterr().out
        for field in ("net_profit", "payment", "delta_g"):
            assert f"Figure 3 (titanic, mlp): {field}" in out
        names = [f"fig3_titanic_{field}.csv"
                 for field in ("net_profit", "payment", "delta_g")]
        names += [f"fig3_titanic_density_{variant}.csv"
                  for variant in ("strategic", "increase", "random")]
        _assert_csvs_match_builder(3, _build("figure3", "titanic"), tmp_path, names)

    def test_figure4(self, capsys, tmp_path):
        assert main(["figure", "4", "--dataset", "titanic",
                     "--csv-dir", str(tmp_path / "cli")]) == 0
        out = capsys.readouterr().out
        assert "Figure 4 (titanic, RF): estimator MSE" in out
        _assert_csvs_match_builder(4, _build("figure4", "titanic"), tmp_path,
                                   ["fig4_titanic_random_forest.csv"])


def _assert_csvs_match_builder(number, fig, tmp_path, names):
    """``repro figure N --csv-dir`` writes the files the benches write."""
    write_figure_csvs(number, fig, str(tmp_path / "bench"))
    names = sorted(names)
    assert sorted(os.listdir(tmp_path / "bench")) == names
    assert sorted(os.listdir(tmp_path / "cli")) == names
    for name in names:
        cli = (tmp_path / "cli" / name).read_text()
        assert cli == (tmp_path / "bench" / name).read_text()
        assert len(cli.splitlines()) > 2
