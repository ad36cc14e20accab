"""Quickstart: one bargaining game on the Titanic feature market.

Builds the full stack — synthetic dataset, vertical partition, bundle
catalogue, the trusted platform's ΔG oracle — then plays one perfect-
information bargaining game and prints the round-by-round trail.

Run:  python examples/quickstart.py
"""

from repro.market import Market
from repro.service import MarketSpec


def main() -> None:
    print("Building the Titanic market (runs one VFL course per bundle)...")
    market = Market.from_spec(MarketSpec(
        dataset="titanic",
        base_model="random_forest",
        quick=True,
        seed=0,
        n_bundles=12,
        no_cache=True,
    ))
    oracle = market.oracle
    print(
        f"  catalogue: {len(oracle)} bundles | isolated accuracy M0 = "
        f"{oracle.isolated:.3f} | best bundle gain = {oracle.max_gain:.3f}"
    )
    print(f"  task party targets dG* = {market.config.target_gain:.4f}, "
          f"utility rate u = {market.config.utility_rate:.0f}")

    outcome = market.bargain(seed=0)

    print("\nRound trail (quote -> offered bundle -> realised gain):")
    for record in outcome.history[:8]:
        print(
            f"  T={record.round_number:>3}  {record.quote}  "
            f"bundle={record.bundle.label():<18} dG={record.delta_g:.4f}  "
            f"payment={record.payment:.3f}  net={record.net_profit:.2f}"
        )
    if outcome.n_rounds > 8:
        print(f"  ... {outcome.n_rounds - 8} more rounds ...")

    print(f"\nOutcome: {outcome.status} (by {outcome.terminated_by}) "
          f"after {outcome.n_rounds} rounds")
    print(f"  transacted bundle: {outcome.bundle.label()} "
          f"({outcome.bundle.size} features)")
    print(f"  realised gain dG = {outcome.delta_g:.4f}")
    print(f"  payment to the data party = {outcome.payment:.3f}")
    print(f"  task party net profit     = {outcome.net_profit:.2f}")
    if outcome.reserved_of_bundle is not None:
        reserved = outcome.reserved_of_bundle
        print(
            f"  final quote vs seller's private floor: "
            f"p {outcome.quote.rate:.2f} vs p_l {reserved.rate:.2f}, "
            f"P0 {outcome.quote.base:.2f} vs P_l {reserved.base:.2f}"
        )


if __name__ == "__main__":
    main()
