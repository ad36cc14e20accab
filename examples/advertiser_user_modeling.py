"""Scenario: an advertiser buying audience features under uncertainty.

The paper's second production setting (§1): advertisers conduct user
modeling with data from external media platforms.  Here the *task
party* is an advertiser holding campaign-side categorical attributes;
the *data party* is a platform holding behavioural/numeric attributes
(the Adult market stands in for the demographic-modeling task).

Neither side knows what any feature bundle is worth in advance — this
is the paper's **imperfect performance information** setting (§3.5):
both parties train ΔG estimators *while bargaining*, with an initial
exploration phase (Case VII) during which no one walks away.

Run:  python examples/advertiser_user_modeling.py
"""

from repro.market import Market
from repro.service import MarketSpec


def main() -> None:
    print("Advertiser (task party) + media platform (data party) on Adult...")
    market = Market.from_spec(MarketSpec(
        dataset="adult", base_model="random_forest", quick=True, seed=0,
        no_cache=True,
    ))
    print(
        f"  platform catalogue: {len(market.oracle)} bundles | "
        f"advertiser isolated accuracy M0 = {market.oracle.isolated:.3f}"
    )

    exploration = 40
    outcome = market.bargain(
        information="imperfect",
        seed=5,
        config_overrides={"exploration_rounds": exploration, "max_rounds": 250},
    )

    print(f"\nImperfect-information bargaining "
          f"({exploration} exploration rounds first):")
    print(f"  status: {outcome.status} after {outcome.n_rounds} rounds")
    if outcome.accepted:
        print(f"  transacted bundle size: {outcome.bundle.size}")
        print(f"  realised gain dG = {outcome.delta_g:.4f} "
              f"(market best was {market.oracle.max_gain:.4f})")
        print(f"  payment = {outcome.payment:.3f}, "
              f"advertiser net profit = {outcome.net_profit:.2f}")

    # Show what the exploration phase bought: per-round estimator error.
    explored = [r for r in outcome.history if r.round_number <= exploration]
    settled = [r for r in outcome.history if r.round_number > exploration]
    if explored and settled:
        import numpy as np

        print("\nWhat exploration bought (realised gains offered per phase):")
        print(f"  exploration rounds: mean dG offered = "
              f"{np.mean([r.delta_g for r in explored]):.4f} (random quotes/bundles)")
        print(f"  bargaining rounds:  mean dG offered = "
              f"{np.mean([r.delta_g for r in settled]):.4f} (estimator-guided)")

    perfect = market.bargain(seed=5)
    if perfect.accepted and outcome.accepted and perfect.net_profit > 0:
        ratio = max(outcome.net_profit, 0.0) / perfect.net_profit
        print(
            f"\nReference: the same game under perfect information nets "
            f"{perfect.net_profit:.2f}\n  -> estimation-based bargaining "
            f"recovered {100 * ratio:.0f}% of the perfect-information profit "
            f"(paper Table 4's comparison)."
        )


if __name__ == "__main__":
    main()
