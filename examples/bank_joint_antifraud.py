"""Scenario: a bank buying behavioural features for a credit-risk model.

The paper's motivating production setting (§1): commercial banks
amalgamate external data when constructing joint anti-fraud / default
models.  Here the *task party* is a bank holding demographics and the
credit limit; the *data party* is a payment processor holding six
months of repayment behaviour.  The bank wants the accuracy lift, the
processor wants to be paid for exactly the features that deliver it.

The example compares the paper's Strategic bargaining with the two
non-strategic variants over several repetitions — reproducing the
Figure 2 comparison on the Credit market in miniature.

Run:  python examples/bank_joint_antifraud.py
"""

import numpy as np

from repro.market import Market
from repro.service import MarketSpec


def describe(label: str, outcomes) -> None:
    accepted = [o for o in outcomes if o.accepted]
    rate = 100.0 * len(accepted) / len(outcomes)
    if accepted:
        print(
            f"  {label:<16} deals={rate:3.0f}%  rounds={np.mean([o.n_rounds for o in outcomes]):6.1f}  "
            f"dG={np.mean([o.delta_g for o in accepted]):.4f}  "
            f"payment={np.mean([o.payment for o in accepted]):.3f}  "
            f"bank profit={np.mean([o.net_profit for o in accepted]):.2f}"
        )
    else:
        print(f"  {label:<16} deals={rate:3.0f}%  (no successful transactions)")


def main() -> None:
    print("Bank (task party) + payment processor (data party) on Credit...")
    market = Market.from_spec(MarketSpec(
        dataset="credit", base_model="random_forest", quick=True, seed=1,
        no_cache=True,
    ))
    print(
        f"  processor catalogue: {len(market.oracle)} feature bundles | "
        f"bank's isolated accuracy M0 = {market.oracle.isolated:.3f}"
    )

    n_runs = 10
    print(f"\n{n_runs} independent negotiations per strategy:")
    describe("Strategic (ours)", market.bargain_many(n_runs, base_seed=7))
    describe(
        "Increase Price", market.bargain_many(n_runs, base_seed=7, task="increase_price")
    )
    describe(
        "Random Bundle", market.bargain_many(n_runs, base_seed=7, data="random_bundle")
    )

    outcome = market.bargain(seed=3)
    if outcome.accepted:
        print("\nOne strategic deal in detail:")
        print(f"  bundle: {outcome.bundle.size} of "
              f"{market.n_data_features} behavioural features")
        print(f"  accuracy lift: {outcome.delta_g * 100:.2f}% relative")
        print(f"  the bank pays {outcome.payment:.3f} "
              f"(quoted cap was {outcome.quote.cap:.3f})")
        print(
            "  outcome-based pricing means the processor is paid for the "
            "lift it delivered,\n  not a flat catalogue price — the "
            "paper's fix for under/over-payment."
        )


if __name__ == "__main__":
    main()
