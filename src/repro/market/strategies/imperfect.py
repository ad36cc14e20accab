"""Estimation-based strategies for imperfect performance information (§3.5).

Neither party knows any bundle's ΔG up front.  Each round's VFL course
produces one labelled sample; both parties train online estimators and
act on predictions:

* the data party predicts every affordable bundle's gain with ``g`` and
  offers the predicted-closest-below-turning-point bundle (Cases I-III);
* the task party samples Eq.5-consistent candidate quotes, predicts
  each quote's achievable gain with ``f``, keeps candidates predicted
  to reach their turning point, and offers the predicted-net-profit
  maximiser (falling back to the overall maximiser when none qualify).

During the first ``N`` exploration rounds (Case VII) termination is
disabled and both parties explore: the task party quotes random
Eq.5-consistent prices across the whole price box, and the data party
offers random affordable bundles — giving the estimators diverse
training data (the paper leaves the exploration policy unspecified;
random exploration is the natural instantiation and is documented in
DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from repro.market.bundle import FeatureBundle
from repro.market.config import MarketConfig
from repro.market.estimation import DataGainEstimator, TaskGainEstimator
from repro.market.objectives import break_even_gain
from repro.market.pricing import QuotedPrice, ReservedPrice
from repro.market.strategies.base import (
    DataResponse,
    DataStrategy,
    TaskDecision,
    TaskStrategy,
)
from repro.market.strategies.data_party import affordable_bundles, floor_rows
from repro.market.termination import (
    Decision,
    OfferTrail,
    data_accepts,
    no_affordable_bundle,
    task_accepts,
    task_fails_regression,
)
from repro.utils.rng import as_generator, replay_block, spawn
from repro.utils.validation import require

__all__ = ["ImperfectDataParty", "ImperfectTaskParty"]


class ImperfectTaskParty(TaskStrategy):
    """Buyer guided by the price-to-gain estimator ``f`` (§3.5.3)."""

    def __init__(
        self,
        config: MarketConfig,
        *,
        target_gain: float | None = None,
        estimator: TaskGainEstimator | None = None,
        rng: object = None,
    ):
        self.config = config
        self.rng = as_generator(rng)
        target = target_gain if target_gain is not None else config.target_gain
        require(
            target is not None and target > 0,
            "imperfect information needs an explicit positive target gain",
        )
        self.target = float(target)
        self.estimator = estimator or TaskGainEstimator(rng=spawn(self.rng, "f"))
        opening_cap = config.initial_base + config.initial_rate * self.target
        require(opening_cap <= config.budget, "opening cap exceeds budget")
        self._opening = QuotedPrice(config.initial_rate, config.initial_base, opening_cap)
        self._break_even = break_even_gain(config.initial_rate, config.initial_base,
                                           config.utility_rate)
        self._trail = OfferTrail()

    def exploring(self, round_number: int) -> bool:
        """Case VII window: first N rounds never terminate."""
        return round_number <= self.config.exploration_rounds

    def initial_quote(self) -> QuotedPrice:
        """Same Eq.5-consistent opening as the perfect-info strategy."""
        return self._opening

    def observe(self, quote: QuotedPrice, bundle: FeatureBundle, delta_g: float) -> None:
        """Train ``f`` on the realised (quote, ΔG) pair."""
        self.estimator.observe(quote, delta_g)
        self._trail.observe(quote, delta_g)

    def _sample_box(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eq.5-consistent quotes across the admissible price box.

        Individual rationality bounds the box from above: a cap beyond
        ``u*dG*`` could never be profitable even when the target gain
        is delivered, so such quotes are never sampled (this matters on
        thin-margin markets like Adult, where the budget alone would
        admit loss-making quotes).

        Returns the candidates' ``(rate, base, cap)`` columns in draw
        order.  Each candidate is a ``uniform`` cap draw followed, when
        the cap leaves room above the opening rate, by a ``uniform``
        rate draw; the ``2n`` doubles are taken as one block through
        :func:`~repro.utils.rng.replay_block`, so the candidates and
        the generator state afterwards are bit-identical to the scalar
        loop's.  Every candidate is checked against
        :class:`QuotedPrice`'s invariants.
        """
        cfg = self.config
        cap_low = cfg.initial_base + cfg.initial_rate * self.target
        cap_high = min(cfg.budget, 0.95 * cfg.utility_rate * self.target)
        if cap_high <= cap_low:
            cap_high = min(cfg.budget, cap_low * 1.25)
        rates, caps = replay_block(
            self.rng, 2 * n, lambda tape: self._candidates(tape, n, cap_low, cap_high)
        )
        bases = caps - rates * self.target
        invalid = ~((rates > 0) & (bases >= 0) & (caps >= bases - 1e-12))
        if invalid.any():
            i = int(invalid.argmax())
            QuotedPrice(rate=float(rates[i]), base=float(bases[i]), cap=float(caps[i]))
        return rates, bases, caps

    def _candidates(
        self, tape: np.ndarray, n: int, cap_low: float, cap_high: float
    ) -> tuple[tuple[np.ndarray, np.ndarray], int]:
        """``((rates, caps), doubles used)`` for ``n`` candidates read
        off ``tape``: as arrays when no candidate is skipped (cap and
        rate draws then simply alternate), else sequentially, since a
        skipped candidate shifts every later draw."""
        cfg = self.config
        caps = cap_low + (cap_high - cap_low) * tape[0::2]
        rate_high = np.minimum(cfg.utility_rate, (caps - cfg.initial_base) / self.target)
        if (rate_high > cfg.initial_rate).all():
            rates = cfg.initial_rate + (rate_high - cfg.initial_rate) * tape[1::2]
            return (rates, caps), 2 * n
        return self._scan(tape.tolist(), n, cap_low, cap_high)

    def _scan(
        self, tape: list[float], n: int, cap_low: float, cap_high: float
    ) -> tuple[tuple[np.ndarray, np.ndarray], int]:
        """The scalar sampling loop over ``tape``'s uniforms in [0, 1):
        ``uniform(a, b)`` is ``a + (b - a) * random()`` draw for draw."""
        draw = iter(tape).__next__
        cfg = self.config
        span = cap_high - cap_low
        rate_low = cfg.initial_rate
        used = 0
        rates: list[float] = []
        caps: list[float] = []
        for _ in range(n):
            cap = cap_low + span * draw()
            used += 1
            rate_high = min(cfg.utility_rate, (cap - cfg.initial_base) / self.target)
            if rate_high <= rate_low:
                continue
            rates.append(rate_low + (rate_high - rate_low) * draw())
            caps.append(cap)
            used += 1
        return (np.asarray(rates, dtype=np.float64), np.asarray(caps, dtype=np.float64)), used

    def decide(
        self, quote: QuotedPrice, delta_g: float, round_number: int
    ) -> TaskDecision:
        """Cases IV-VI with estimation-guided re-quoting.

        Candidates are scored as arrays: ``f`` predicts every
        candidate's gain in one call, the qualify test, predicted net
        profit and first-maximum selection are vectorised (the same
        tie-break as ``max``), and only the chosen candidate becomes a
        :class:`QuotedPrice`.
        """
        cfg = self.config
        if not self.exploring(round_number):
            # Case IV under the regression reading (see termination module).
            if task_fails_regression(
                delta_g, self._break_even, self._trail.best_dominated_previous(quote)
            ):
                return TaskDecision(Decision.FAIL)
            if task_accepts(quote.turning_point, delta_g, cfg.eps_t):
                return TaskDecision(Decision.ACCEPT)
        rates, bases, caps = self._sample_box(cfg.n_price_samples)
        if not rates.size:
            return TaskDecision(Decision.ACCEPT)
        if self.exploring(round_number + 1):
            # Pure exploration: a random Eq.5-consistent quote.  (The
            # quote emitted in the final exploration round is already
            # estimation-guided, since it becomes the first real offer.)
            i = int(self.rng.integers(0, rates.size))
        else:
            turning = (caps - bases) / rates
            predicted = self.estimator.predict_features(
                np.column_stack([rates, bases, caps, turning])
            )
            # Candidates predicted to pass Case V at their own turning point.
            pool = np.flatnonzero(task_accepts(turning, predicted, cfg.eps_t))
            if not pool.size:
                pool = np.arange(rates.size)
            # Predicted net profit u*g - payment(g) at g = max(prediction, 0).
            gain = np.maximum(predicted[pool], 0.0)
            payment = np.minimum(
                np.maximum(bases[pool], bases[pool] + rates[pool] * gain), caps[pool]
            )
            profit = cfg.utility_rate * gain - payment
            if np.isnan(profit).any():
                # ``max`` never prefers a NaN key; argmax always would.
                best = max(range(profit.size), key=profit.__getitem__)
            else:
                best = int(profit.argmax())
            i = int(pool[best])
        pick = QuotedPrice(rate=float(rates[i]), base=float(bases[i]), cap=float(caps[i]))
        return TaskDecision(Decision.CONTINUE, pick)


class ImperfectDataParty(DataStrategy):
    """Seller guided by the bundle-to-gain estimator ``g`` (§3.5.2)."""

    def __init__(
        self,
        bundles: list[FeatureBundle],
        reserved_prices: dict[FeatureBundle, ReservedPrice],
        config: MarketConfig,
        n_features: int,
        *,
        estimator: DataGainEstimator | None = None,
        rng: object = None,
    ):
        require(bool(bundles), "data party needs a non-empty catalogue")
        self.bundles = list(bundles)
        self.reserved_prices = dict(reserved_prices)
        self.config = config
        self.rng = as_generator(rng)
        self._floors = floor_rows([self.reserved_prices[b] for b in self.bundles])
        self.estimator = estimator or DataGainEstimator(
            n_features, rng=spawn(self.rng, "g")
        )

    def exploring(self, round_number: int) -> bool:
        """Case VII window: first N rounds never terminate."""
        return round_number <= self.config.exploration_rounds

    def observe(self, quote: QuotedPrice, bundle: FeatureBundle, delta_g: float) -> None:
        """Train ``g`` on the realised (bundle, ΔG) pair."""
        self.estimator.observe(bundle, delta_g)

    def respond(self, quote: QuotedPrice, round_number: int) -> DataResponse:
        """Cases I-III on predicted gains (relaxed during exploration)."""
        affordable = affordable_bundles(self.bundles, self._floors, quote)
        if no_affordable_bundle(len(affordable)):
            if self.exploring(round_number):
                # Case VII: keep the game alive with the cheapest bundle.
                cheapest = min(
                    self.bundles, key=lambda b: self.reserved_prices[b].base
                )
                return DataResponse(Decision.CONTINUE, cheapest)
            return DataResponse(Decision.FAIL)
        if self.exploring(round_number):
            pick = affordable[int(self.rng.integers(0, len(affordable)))]
            return DataResponse(Decision.CONTINUE, pick)
        predicted = self.estimator.predict(affordable)
        catalogue_predicted = self.estimator.predict(self.bundles)
        tp = quote.turning_point
        if tp > float(catalogue_predicted.max()):
            # Case II-2: the quote asks for more than the party believes
            # *any* of its bundles can ever deliver — settle with the
            # predicted-best affordable bundle.  (Scoped to the full
            # catalogue: an unaffordable-but-promising bundle means the
            # right move is to keep bargaining for a better price,
            # Case III, not to settle.)
            f_max = affordable[int(predicted.argmax())]
            return DataResponse(Decision.ACCEPT, f_max)
        if tp < float(catalogue_predicted.min()):
            # Case II-3: every bundle it owns is predicted to overshoot;
            # the smallest affordable overshoot saturates the cap at the
            # least cost.
            f_min = affordable[int(predicted.argmin())]
            return DataResponse(Decision.ACCEPT, f_min)
        below = [(b, g) for b, g in zip(affordable, predicted) if g <= tp]
        if not below:
            # All affordable predictions overshoot (better bundles exist
            # in the catalogue): offering the smallest overshoot still
            # saturates the cap, but keep bargaining open (Case III).
            bundle = affordable[int(predicted.argmin())]
            return DataResponse(Decision.CONTINUE, bundle)
        bundle, gain_hat = min(below, key=lambda pair: tp - pair[1])
        if data_accepts(tp, gain_hat, self.config.eps_d):
            # Case II-1: predicted gain within eps_d of the turning point.
            return DataResponse(Decision.ACCEPT, bundle)
        return DataResponse(Decision.CONTINUE, bundle)
