"""Series generators for every figure in the paper's evaluation.

Each function returns plain arrays/dicts; the benchmarks render them as
ASCII charts + CSV files.  Figure numbering follows the paper:

* Figure 1 — payment / net profit as functions of ΔG (analytic);
* Figures 2 & 3 — bargaining dynamics for three strategy variants
  (RF and MLP base models respectively): per-round net profit, payment
  and realised ΔG curves with 95% CIs, plus final-price densities
  against the reserved price;
* Figure 4 — MSE of both parties' ΔG estimators over bargaining rounds
  under imperfect information.

:func:`write_figure_csvs` writes any of them as the CSV files the
benchmarks and ``repro figure --csv-dir`` leave behind.
"""

from __future__ import annotations

import os

import numpy as np

from repro.experiments.aggregate import density, nan_mean_ci
from repro.experiments.config import scale
from repro.experiments.report import write_csv
from repro.experiments.runner import get_market, round_matrix
from repro.market.config import MarketConfig
from repro.market.engine import BargainingEngine
from repro.market.objectives import task_net_profit
from repro.market.pricing import QuotedPrice
from repro.market.strategies.imperfect import ImperfectDataParty, ImperfectTaskParty
from repro.utils.rng import spawn

__all__ = ["figure1_series", "figure23_series", "figure4_series", "write_figure_csvs"]

#: The per-round panels of Figures 2/3, in panel order.
_FIGURE23_FIELDS = ("net_profit", "payment", "delta_g")

STRATEGY_VARIANTS: list[tuple[str, dict]] = [
    ("Strategic (Ours)", {}),
    ("Increase Price", {"task": "increase_price"}),
    ("Random Bundle", {"data": "random_bundle"}),
]


def figure1_series() -> dict[str, np.ndarray]:
    """Figure 1: the payment function and net profit vs ΔG.

    The quote (``p = 10``, ``P0 = 1``, ``Ph = 3``) and utility rate
    (``u = 20``) reproduce the paper's qualitative panels: payment is
    flat at ``P0``, linear, then capped at ``Ph``; net profit crosses
    zero at ``P0/(u − p)`` and keeps climbing past the turning point.
    """
    quote = QuotedPrice(rate=10.0, base=1.0, cap=3.0)
    utility_rate = 20.0
    hi = quote.turning_point * 2.0
    grid = np.linspace(-0.25 * hi, hi, 200)
    payment = np.array([quote.payment(g) for g in grid])
    profit = np.array([task_net_profit(quote, g, utility_rate) for g in grid])
    return {
        "delta_g": grid,
        "payment": payment,
        "net_profit": profit,
        "turning_point": np.array([quote.turning_point]),
        "break_even": np.array([quote.base / (utility_rate - quote.rate)]),
    }


def figure23_series(dataset: str, base_model: str, *, seed: int = 0) -> dict:
    """Figures 2/3: bargaining dynamics for the three strategy variants.

    Returns, per variant: ``rounds`` (per-round mean & CI for
    net_profit / payment / delta_g over runs still alive), the final
    price samples (p, P0) for the density panels, and the acceptance
    rate.  ``reserved`` carries the target bundle's reserved price —
    the vertical reference line of the paper's density panels.
    """
    tier = scale()
    market = get_market(dataset, base_model, seed=seed)
    target_bundle = market.oracle.best_bundle()
    reserved = market.reserved_prices[target_bundle]
    out: dict = {
        "dataset": dataset,
        "base_model": base_model,
        "n_runs": tier.n_runs,
        "reserved": {"rate": reserved.rate, "base": reserved.base},
        "variants": {},
    }
    all_rounds: list[int] = []
    results = {}
    for label, kwargs in STRATEGY_VARIANTS:
        outcomes = market.bargain_many(tier.n_runs, base_seed=seed, **kwargs)
        results[label] = outcomes
        all_rounds.extend(o.n_rounds for o in outcomes if o.accepted)
    max_round = int(min(max(all_rounds or [50]) * 1.1 + 5, 300))
    for label, kwargs in STRATEGY_VARIANTS:
        outcomes = results[label]
        curves = {}
        for field in _FIGURE23_FIELDS:
            matrix = round_matrix(outcomes, field, max_round=max_round)
            mean, half, alive = nan_mean_ci(matrix)
            curves[field] = {"mean": mean, "ci": half, "alive": alive}
        finals = [o for o in outcomes if o.quote is not None]
        out["variants"][label] = {
            "curves": curves,
            "accept_rate": float(np.mean([o.accepted for o in outcomes])),
            "mean_rounds": float(np.mean([o.n_rounds for o in outcomes])),
            "final_rate": np.array([o.quote.rate for o in finals]),
            "final_base": np.array([o.quote.base for o in finals]),
        }
    # Density panels over the pooled grids (Figure 2 d/e style).
    pooled_rate = np.concatenate(
        [v["final_rate"] for v in out["variants"].values() if len(v["final_rate"])]
    )
    pooled_base = np.concatenate(
        [v["final_base"] for v in out["variants"].values() if len(v["final_base"])]
    )
    rate_grid = np.linspace(pooled_rate.min() - 1, pooled_rate.max() + 1, 64)
    base_grid = np.linspace(pooled_base.min() - 0.2, pooled_base.max() + 0.2, 64)
    for variant in out["variants"].values():
        variant["rate_density"] = (
            density(variant["final_rate"], rate_grid)
            if len(variant["final_rate"])
            else (rate_grid, np.zeros_like(rate_grid))
        )
        variant["base_density"] = (
            density(variant["final_base"], base_grid)
            if len(variant["final_base"])
            else (base_grid, np.zeros_like(base_grid))
        )
    out["max_round"] = max_round
    return out


def figure4_series(dataset: str, base_model: str, *, seed: int = 0) -> dict:
    """Figure 4: estimator MSE vs bargaining round, both parties.

    Runs imperfect-information bargaining with termination disabled for
    ``trace_rounds`` rounds (a pure training trace — the paper's Figure
    4 x-axes extend well past the exploration window) and averages each
    estimator's per-round buffer MSE across repetitions.
    """
    tier = scale()
    market = get_market(dataset, base_model, seed=seed)
    rounds = tier.trace_rounds
    config: MarketConfig = market.config.with_overrides(
        exploration_rounds=rounds, max_rounds=rounds
    )
    n_traces = max(3, tier.n_runs_imperfect // 2)
    task_curves = np.full((n_traces, rounds), np.nan)
    data_curves = np.full((n_traces, rounds), np.nan)
    for i in range(n_traces):
        task = ImperfectTaskParty(config, rng=spawn(seed, "fig4", "task", i))
        data = ImperfectDataParty(
            market.oracle.bundles,
            market.reserved_prices,
            config,
            market.n_data_features,
            rng=spawn(seed, "fig4", "data", i),
        )
        BargainingEngine(
            task,
            data,
            market.oracle,
            utility_rate=config.utility_rate,
            max_rounds=rounds,
        ).run()
        t_hist = np.asarray(task.estimator.mse_history[:rounds])
        d_hist = np.asarray(data.estimator.mse_history[:rounds])
        task_curves[i, : len(t_hist)] = t_hist
        data_curves[i, : len(d_hist)] = d_hist
    task_mean, task_ci, _ = nan_mean_ci(task_curves)
    data_mean, data_ci, _ = nan_mean_ci(data_curves)
    return {
        "dataset": dataset,
        "base_model": base_model,
        "rounds": np.arange(1, rounds + 1),
        "task_mse": task_mean,
        "task_ci": task_ci,
        "data_mse": data_mean,
        "data_ci": data_ci,
    }


def write_figure_csvs(number: int, fig: dict, out_dir: str) -> None:
    """Write figure ``number``'s series (as its builder returned them)
    under ``out_dir``.

    * Figure 1: ``fig1.csv`` (ΔG grid, payment, net profit);
    * Figures 2/3: ``fig<n>_<dataset>_<field>.csv`` per panel (round,
      each variant's mean, then each variant's CI half-width) and
      ``fig<n>_<dataset>_density_<variant>.csv`` per variant (the rate
      and base density grids);
    * Figure 4: ``fig4_<dataset>_<base model>.csv`` (round, both
      parties' MSE and CI half-width).
    """
    if number == 1:
        write_csv(os.path.join(out_dir, "fig1.csv"),
                  ["delta_g", "payment", "net_profit"],
                  [fig["delta_g"], fig["payment"], fig["net_profit"]])
        return
    if number == 4:
        write_csv(
            os.path.join(out_dir, f"fig4_{fig['dataset']}_{fig['base_model']}.csv"),
            ["round", "task_mse", "task_ci", "data_mse", "data_ci"],
            [fig["rounds"], fig["task_mse"], fig["task_ci"], fig["data_mse"],
             fig["data_ci"]],
        )
        return
    tag = os.path.join(out_dir, f"fig{number}_{fig['dataset']}")
    variants = fig["variants"]
    for field in _FIGURE23_FIELDS:
        curves = [variant["curves"][field] for variant in variants.values()]
        write_csv(
            f"{tag}_{field}.csv",
            ["round"] + [f"{label} mean" for label in variants]
            + [f"{label} ci" for label in variants],
            [np.arange(1, fig["max_round"] + 1)]
            + [curve["mean"] for curve in curves]
            + [curve["ci"] for curve in curves],
        )
    for label, variant in variants.items():
        grid_r, dens_r = variant["rate_density"]
        grid_b, dens_b = variant["base_density"]
        write_csv(
            f"{tag}_density_{label.split()[0].lower()}.csv",
            ["p_grid", "p_density", "P0_grid", "P0_density"],
            [grid_r, dens_r, grid_b, dens_b],
        )
