"""Ablation A4 — learned vs sampled offer generation (§6 limitation 2).

Compares the paper's sampling-evaluation quote generation (Algorithm 1,
line 16-17) against the bandit-paced :class:`LearnedTaskParty` on
synthetic ladders: agreement rounds, buyer net profit, and final rate
slack over the seller's reserve.

The rows do not depend on the run scale (20 fixed seeds on one ladder),
so they are pinned by digest (``_ROW_PIN``): any drift in either offer
generator's outcomes fails here.
"""

import os

import numpy as np
from conftest import run_once

from repro.experiments import format_table, write_csv
from repro.market import (
    BargainingEngine,
    FeatureBundle,
    LearnedTaskParty,
    MarketConfig,
    PerformanceOracle,
    ReservedPrice,
    StrategicDataParty,
    StrategicTaskParty,
)
from repro.utils import spawn
from repro.utils.canonical import content_digest

#: Digest of the rendered rows (seeds 0-19).
_ROW_PIN = "3bf9e94229dcb3e9"


def _ladder(seed):
    rng = np.random.default_rng(seed)
    bundles = [FeatureBundle.of(range(i + 1)) for i in range(12)]
    gains, reserved = {}, {}
    for i, b in enumerate(bundles):
        q = (i + 1) / 12
        gains[b] = 0.2 * q
        reserved[b] = ReservedPrice(
            rate=5.0 + 4.0 * q + rng.uniform(0, 0.1),
            base=0.8 + 0.6 * q + rng.uniform(0, 0.02),
        )
    config = MarketConfig(
        utility_rate=500.0, budget=6.0, initial_rate=5.6, initial_base=0.95,
        target_gain=0.2, eps_d=1e-3, eps_t=1e-3, n_price_samples=64, max_rounds=400,
    )
    return gains, reserved, config


def compare(n_runs: int = 20):
    rows = []
    for label, task_cls in (("Sampled (Alg. 1)", StrategicTaskParty),
                            ("Learned (bandit)", LearnedTaskParty)):
        rounds, nets, slacks = [], [], []
        for seed in range(n_runs):
            gains, reserved, config = _ladder(0)
            oracle = PerformanceOracle.from_gains(gains)
            outcome = BargainingEngine(
                task_cls(config, list(gains.values()), rng=spawn(seed, label)),
                StrategicDataParty(gains, reserved, config),
                oracle,
                utility_rate=config.utility_rate,
                reserved_prices=reserved,
                max_rounds=config.max_rounds,
            ).run()
            if outcome.accepted:
                rounds.append(outcome.n_rounds)
                nets.append(outcome.net_profit)
                if outcome.reserved_of_bundle is not None:
                    slacks.append(
                        outcome.quote.rate - outcome.reserved_of_bundle.rate
                    )
        rows.append(
            [
                label,
                f"{np.mean(rounds):.1f}±{np.std(rounds):.1f}",
                f"{np.mean(nets):.2f}",
                f"{np.mean(slacks):.2f}",
                f"{100 * len(rounds) / n_runs:.0f}%",
            ]
        )
    return ["Offer generation", "Rounds", "Net Profit", "p - p_l", "Accept"], rows


def test_ablation_learned_offers(benchmark, results_dir):
    headers, rows = run_once(benchmark, compare)
    print()
    print(format_table(headers, rows, title="Ablation A4: sampled vs learned offer generation"))
    write_csv(
        os.path.join(results_dir, "ablation_learned.csv"),
        headers,
        [[r[i] for r in rows] for i in range(len(headers))],
    )
    # Both reach the top of the ladder reliably.
    assert all(row[-1] != "0%" for row in rows)
    assert content_digest([[str(cell) for cell in row] for row in rows]) == _ROW_PIN
