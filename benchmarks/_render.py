"""Shared rendering for the Figure 2/3 bargaining-dynamics benchmarks."""

from __future__ import annotations

import numpy as np

from repro.experiments import ascii_chart, write_figure_csvs

FIELD_TITLES = {
    "net_profit": "Net Profit",
    "payment": "Payment",
    "delta_g": "Realized dG",
}


def render_bargaining_figure(fig: dict, figure_no: int, results_dir: str) -> None:
    """Print the three per-round panels + density summaries, dump CSVs."""
    dataset = fig["dataset"]
    model = fig["base_model"]
    for field, title in FIELD_TITLES.items():
        series = {
            label: variant["curves"][field]["mean"]
            for label, variant in fig["variants"].items()
        }
        print()
        print(
            ascii_chart(
                series,
                title=f"Figure {figure_no} ({dataset}, {model}): {title} vs round",
            )
        )
    print()
    print(f"Final-quote summary vs reserved price of the target bundle "
          f"(p_l={fig['reserved']['rate']:.2f}, P_l={fig['reserved']['base']:.2f}):")
    for label, variant in fig["variants"].items():
        rate = variant["final_rate"]
        base = variant["final_base"]
        print(
            "  %-18s accept=%3.0f%%  rounds=%6.1f  final p=%.2f±%.2f  final P0=%.2f±%.2f"
            % (
                label,
                100 * variant["accept_rate"],
                variant["mean_rounds"],
                rate.mean() if len(rate) else float("nan"),
                rate.std() if len(rate) else float("nan"),
                base.mean() if len(base) else float("nan"),
                base.std() if len(base) else float("nan"),
            )
        )
    write_figure_csvs(figure_no, fig, results_dir)


def assert_paper_shape(fig: dict) -> None:
    """The qualitative claims of §4.2, asserted.

    * Strategic achieves the highest net profit of the three variants;
    * Strategic settles in fewer rounds than Increase Price;
    * Random Bundle fails most (early terminations);
    * Strategic's final rate sits closest to the reserved rate
      (no overpayment) among variants that transact.
    """
    v = fig["variants"]
    strategic = v["Strategic (Ours)"]
    increase = v["Increase Price"]
    random_b = v["Random Bundle"]

    def final_net(variant):
        curve = variant["curves"]["net_profit"]["mean"]
        finite = curve[np.isfinite(curve)]
        return finite[-1] if len(finite) else -np.inf

    assert strategic["accept_rate"] >= increase["accept_rate"] - 0.25
    assert final_net(strategic) >= final_net(increase) - 1e-9
    assert strategic["mean_rounds"] <= increase["mean_rounds"]
    assert random_b["accept_rate"] <= strategic["accept_rate"]
    reserved_rate = fig["reserved"]["rate"]
    if len(strategic["final_rate"]) and len(increase["final_rate"]):
        slack_strategic = strategic["final_rate"].mean() - reserved_rate
        slack_increase = increase["final_rate"].mean() - reserved_rate
        assert slack_strategic <= slack_increase + 1.0
