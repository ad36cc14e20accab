"""Row generators for every table in the paper's evaluation (+ ablations).

* Table 2 — dataset statistics after preprocessing;
* Table 3 — effect of bargaining cost (linear/exponential schedules ×
  two termination tolerances per dataset);
* Table 4 — imperfect vs perfect performance information, final
  bargaining variables;
* Ablations (ours) — ε sweep, market-structure sensitivity, security
  overhead.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data.synthetic import load_dataset
from repro.experiments.aggregate import mean_std
from repro.experiments.config import scale
from repro.experiments.runner import get_market
from repro.market.costs import ScaledCost
from repro.market.engine import BargainOutcome
from repro.service import registry

__all__ = [
    "ablation_epsilon_rows",
    "ablation_market_rows",
    "security_overhead_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
]

#: Per-dataset termination tolerances studied in Table 3 (paper §4.3;
#: the underlined default first).
TABLE3_EPSILONS = {
    "titanic": (1e-3, 1e-2),
    "credit": (1e-5, 1e-4),
    "adult": (1e-4, 5e-4),
}

#: Cost schedules of Table 3: label -> (kind, a).
TABLE3_COSTS: list[tuple[str, str, float]] = [
    ("No cost", "none", 0.0),
    ("C(T)=aT, a=0.1", "linear", 0.1),
    ("C(T)=aT, a=1", "linear", 1.0),
    ("C(T)=a^T, a=1.01", "exponential", 1.01),
    ("C(T)=a^T, a=1.1", "exponential", 1.1),
]


def table2_rows() -> tuple[list[str], list[list[object]]]:
    """Table 2: dataset statistics (paper-default row counts)."""
    headers = [
        "Dataset",
        "# samples",
        "original # features (total)",
        "# features (task party)",
        "# features (data party)",
    ]
    rows = []
    for name in ("titanic", "credit", "adult"):
        raw = load_dataset(name, seed=0)
        prepared = raw.prepare(seed=0)
        summary = prepared.summary()
        rows.append(
            [
                name.capitalize(),
                summary["n_samples"],
                summary["original_features_total"],
                summary["task_party_features"],
                summary["data_party_features"],
            ]
        )
    return headers, rows


def _accepted(outcomes: list[BargainOutcome]) -> list[BargainOutcome]:
    return [o for o in outcomes if o.accepted]


def table3_rows(dataset: str, *, seed: int = 0) -> tuple[list[str], list[list[object]]]:
    """Table 3: bargaining-cost sweep on the Random Forest market.

    Per the paper, Credit/Adult scale each party's cost to ``C(T)/10``;
    Titanic uses the unscaled schedule.  Reported Net Profit and
    Payment are cost-adjusted (revenue minus the party's cost); C(T) is
    the unscaled schedule value at the final round.
    """
    tier = scale()
    market = get_market(dataset, "random_forest", seed=seed)
    # The paper sets 10*C_t = 10*C_d = C(T) for Credit and Adult; we
    # apply the same scaling to Titanic so its per-party cost stays
    # commensurate with its payment scale (documented in EXPERIMENTS.md).
    party_scale = 0.1
    headers = [
        "Cost",
        "eps",
        "Net Profit",
        "Payment",
        "Realized dG (1e-2)",
        "C(T)",
        "Accept",
    ]
    rows: list[list[object]] = []
    for eps in TABLE3_EPSILONS[dataset]:
        for label, kind, a in TABLE3_COSTS:
            raw_cost = registry.build_cost(kind, a)
            party_cost = (
                None if raw_cost is None else ScaledCost(raw_cost, party_scale)
            )
            outcomes = market.bargain_many(
                tier.n_runs,
                base_seed=seed,
                cost_task=party_cost,
                cost_data=party_cost,
                config_overrides={"eps_d": eps, "eps_t": eps},
            )
            accepted = _accepted(outcomes)
            if not accepted:
                rows.append([label, eps, float("nan"), float("nan"),
                             float("nan"), float("nan"), "0%"])
                continue
            net_m, net_s = mean_std([o.net_profit_after_cost for o in accepted])
            pay_m, pay_s = mean_std([o.payment_after_cost for o in accepted])
            dg_m, dg_s = mean_std([o.delta_g * 100 for o in accepted])
            cost_cell = "-"
            if raw_cost is not None:
                c_m, c_s = mean_std([raw_cost(o.n_rounds) for o in accepted])
                cost_cell = f"{c_m:.2f}±{c_s:.2f}"
            rows.append(
                [
                    label,
                    eps,
                    f"{net_m:.2f}±{net_s:.2f}",
                    f"{pay_m:.2f}±{pay_s:.2f}",
                    f"{dg_m:.2f}±{dg_s:.2f}",
                    cost_cell,
                    f"{100 * len(accepted) / len(outcomes):.0f}%",
                ]
            )
    return headers, rows


def table4_rows(
    dataset: str, base_model: str, *, seed: int = 0
) -> tuple[list[str], list[list[object]]]:
    """Table 4: final bargaining variables, imperfect vs perfect.

    Δp and ΔP0 are the final quote's distances to the transacted
    bundle's reserved price (how closely the buyer's price tracked the
    seller's private floor).  Failed runs are excluded from the means;
    the acceptance rate is reported alongside (the paper instead
    records failures as negative-infinite values).
    """
    tier = scale()
    market = get_market(dataset, base_model, seed=seed)
    settings = [
        ("Perfect", dict(information="perfect"), tier.n_runs),
        (
            "Imperfect",
            dict(
                information="imperfect",
                config_overrides={
                    "exploration_rounds": tier.exploration_rounds,
                },
            ),
            tier.n_runs_imperfect,
        ),
    ]
    headers = ["Variable", "Imperfect", "Perfect"]
    stats: dict[str, dict[str, str]] = {}
    accept: dict[str, str] = {}
    for label, kwargs, n_runs in settings:
        outcomes = market.bargain_many(n_runs, base_seed=seed, **kwargs)
        accepted = _accepted(outcomes)
        accept[label] = f"{100 * len(accepted) / len(outcomes):.0f}%"
        metrics: dict[str, list[float]] = {
            "p": [], "P0": [], "Ph": [], "dp": [], "dP0": [],
            "dG": [], "Net Profit": [], "Payment": [],
        }
        for o in accepted:
            metrics["p"].append(o.quote.rate)
            metrics["P0"].append(o.quote.base)
            metrics["Ph"].append(o.quote.cap)
            if o.reserved_of_bundle is not None:
                metrics["dp"].append(o.quote.rate - o.reserved_of_bundle.rate)
                metrics["dP0"].append(o.quote.base - o.reserved_of_bundle.base)
            metrics["dG"].append(o.delta_g)
            metrics["Net Profit"].append(o.net_profit)
            metrics["Payment"].append(o.payment)
        stats[label] = {}
        for key, values in metrics.items():
            if values:
                m, s = mean_std(values)
                stats[label][key] = f"{m:.2f}±{s:.2f}" if key not in ("dG",) else f"{m:.4f}±{s:.4f}"
            else:
                stats[label][key] = "-"
    rows = [
        [key, stats["Imperfect"][key], stats["Perfect"][key]]
        for key in ("p", "P0", "Ph", "dp", "dP0", "dG", "Net Profit", "Payment")
    ]
    rows.append(["Accept rate", accept["Imperfect"], accept["Perfect"]])
    return headers, rows


def ablation_epsilon_rows(
    dataset: str = "titanic", *, seed: int = 0
) -> tuple[list[str], list[list[object]]]:
    """Ablation A1: the ε trade-off of §4.3.

    Smaller tolerances push the realised gain closer to the target
    (better equilibrium) at the price of longer bargaining.
    """
    tier = scale()
    market = get_market(dataset, "random_forest", seed=seed)
    headers = ["eps", "Rounds", "Net Profit", "Payment", "Realized dG", "Accept"]
    rows = []
    for eps in (1e-4, 1e-3, 1e-2, 5e-2):
        outcomes = market.bargain_many(
            tier.n_runs,
            base_seed=seed,
            config_overrides={"eps_d": eps, "eps_t": eps},
        )
        accepted = _accepted(outcomes)
        if not accepted:
            rows.append([eps, "-", "-", "-", "-", "0%"])
            continue
        rounds_m, rounds_s = mean_std([o.n_rounds for o in accepted])
        net_m, _ = mean_std([o.net_profit for o in accepted])
        pay_m, _ = mean_std([o.payment for o in accepted])
        dg_m, _ = mean_std([o.delta_g for o in accepted])
        rows.append(
            [
                eps,
                f"{rounds_m:.1f}±{rounds_s:.1f}",
                f"{net_m:.2f}",
                f"{pay_m:.3f}",
                f"{dg_m:.4f}",
                f"{100 * len(accepted) / len(outcomes):.0f}%",
            ]
        )
    return headers, rows


def ablation_market_rows(*, seed: int = 0) -> tuple[list[str], list[list[object]]]:
    """Ablation A2: bargaining mechanics vs market structure.

    Synthetic gain ladders (no VFL) isolate the engine: vary catalogue
    size and the value-premium steepness of reserved prices, and track
    how convergence length and buyer surplus respond.
    """
    from repro.market.bundle import FeatureBundle
    from repro.market.config import MarketConfig
    from repro.market.engine import BargainingEngine
    from repro.market.oracle import PerformanceOracle
    from repro.market.pricing import ReservedPrice
    from repro.market.strategies.data_party import StrategicDataParty
    from repro.market.strategies.task_party import StrategicTaskParty
    from repro.utils.rng import spawn

    headers = ["# bundles", "value premium", "Rounds", "Net Profit", "Payment", "p-p_l"]
    rows = []
    tier = scale()
    for n_bundles in (6, 12, 24):
        for premium in (0.0, 2.0, 4.0):
            rounds_list, net_list, pay_list, slack_list = [], [], [], []
            for run in range(max(6, tier.n_runs // 3)):
                rng = spawn(seed, "ablation", n_bundles, premium, run)
                bundles = [FeatureBundle.of(range(i + 1)) for i in range(n_bundles)]
                gains, reserved = {}, {}
                for i, b in enumerate(bundles):
                    q = (i + 1) / n_bundles
                    gains[b] = 0.2 * q
                    reserved[b] = ReservedPrice(
                        rate=5.0 + premium * q + rng.uniform(0, 0.1),
                        base=0.8 + 0.5 * q + rng.uniform(0, 0.02),
                    )
                config = MarketConfig(
                    utility_rate=500.0, budget=6.0, initial_rate=5.2,
                    initial_base=0.85, target_gain=0.2,
                    eps_d=1e-3, eps_t=1e-3, n_price_samples=64, max_rounds=400,
                )
                oracle = PerformanceOracle.from_gains(gains)
                outcome = BargainingEngine(
                    StrategicTaskParty(config, list(gains.values()), rng=rng),
                    StrategicDataParty(gains, reserved, config),
                    oracle,
                    utility_rate=config.utility_rate,
                    reserved_prices=reserved,
                    max_rounds=config.max_rounds,
                ).run()
                if outcome.accepted:
                    rounds_list.append(outcome.n_rounds)
                    net_list.append(outcome.net_profit)
                    pay_list.append(outcome.payment)
                    if outcome.reserved_of_bundle is not None:
                        slack_list.append(
                            outcome.quote.rate - outcome.reserved_of_bundle.rate
                        )
            rows.append(
                [
                    n_bundles,
                    premium,
                    f"{np.mean(rounds_list):.1f}" if rounds_list else "-",
                    f"{np.mean(net_list):.1f}" if net_list else "-",
                    f"{np.mean(pay_list):.3f}" if pay_list else "-",
                    f"{np.mean(slack_list):.2f}" if slack_list else "-",
                ]
            )
    return headers, rows


def security_overhead_rows(*, seed: int = 0) -> tuple[list[str], list[list[object]]]:
    """Ablation A3: cost of the §3.6 mitigation.

    Times plaintext payment evaluation against the serial Paillier
    :func:`~repro.security.secure_compare.secure_payment` and against
    the packed batch path
    (:func:`~repro.security.batch.secure_payment_batch`, obfuscation
    pool prebuilt — it is cached per settlement), per session.
    """
    from repro.market.pricing import QuotedPrice
    from repro.security import (
        ObfuscationPool,
        encrypted_gain,
        generate_keypair,
        secure_payment,
        secure_payment_batch,
    )
    from repro.utils.rng import spawn

    headers = ["Key bits", "Plain (ms/round)", "Serial (ms/round)",
               "Batched (ms/round)", "Speedup"]
    rows = []
    quote = QuotedPrice(rate=10.0, base=1.0, cap=3.0)
    gains = np.linspace(0.0, 0.4, 20)
    t0 = time.perf_counter()
    for g in gains:
        quote.payment(float(g))
    plain_ms = (time.perf_counter() - t0) / len(gains) * 1e3
    for bits in (128, 256, 512):
        pub, priv = generate_keypair(bits=bits, rng=spawn(seed, "keys", bits))
        t0 = time.perf_counter()
        serial = []
        for i, g in enumerate(gains):
            enc = encrypted_gain(float(g), pub, rng=spawn(seed, "enc", bits, i))
            serial.append(
                secure_payment(enc, quote, priv, rng=spawn(seed, "blind", bits, i))
            )
        serial_ms = (time.perf_counter() - t0) / len(gains) * 1e3
        pool = ObfuscationPool(pub, rng=spawn(seed, "pool", bits))
        t0 = time.perf_counter()
        batched = secure_payment_batch(
            [float(g) for g in gains], [quote] * len(gains), pub, priv,
            rng=spawn(seed, "batch", bits), pool=pool,
        )
        batched_ms = (time.perf_counter() - t0) / len(gains) * 1e3
        assert batched == serial  # value-identity, pinned in the tables too
        rows.append(
            [
                bits,
                f"{plain_ms:.4f}",
                f"{serial_ms:.3f}",
                f"{batched_ms:.3f}",
                f"{serial_ms / max(batched_ms, 1e-9):.1f}x",
            ]
        )
    return headers, rows
