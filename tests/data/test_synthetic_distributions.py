"""Distributional sanity checks on the synthetic generators.

These guard the calibration DESIGN.md §5 promises: realistic marginal
shapes and the cross-party signal structure the market prices.
"""

import numpy as np
import pytest

from repro.data import load_adult, load_credit, load_titanic
from repro.ml import RandomForestClassifier


class TestTitanicDistributions:
    @pytest.fixture(scope="class")
    def raw(self):
        return load_titanic(3000, seed=0)

    def test_age_range_and_center(self, raw):
        age = np.asarray(raw.table["age"], dtype=float)
        finite = age[np.isfinite(age)]
        assert 0.0 < finite.min() and finite.max() <= 80.0
        assert 25.0 < finite.mean() < 35.0

    def test_fare_right_skewed(self, raw):
        fare = np.asarray(raw.table["fare"], dtype=float)
        assert fare.mean() > np.median(fare)  # lognormal tail

    def test_wealth_links_class_and_fare(self, raw):
        pclass = np.asarray(raw.table["pclass"], dtype=int)
        fare = np.asarray(raw.table["fare"], dtype=float)
        assert fare[pclass == 0].mean() > fare[pclass == 2].mean()

    def test_women_survive_more(self, raw):
        sex = np.asarray(raw.table["sex"], dtype=float)
        assert raw.y[sex == 1].mean() > raw.y[sex == 0].mean() + 0.15

    def test_unknown_deck_is_most_common(self, raw):
        deck = np.asarray(raw.table["cabin_deck"], dtype=int)
        # Category index 8 is "U" (unknown).
        assert np.bincount(deck).argmax() == 8


class TestCreditDistributions:
    @pytest.fixture(scope="class")
    def raw(self):
        return load_credit(6000, seed=0)

    def test_limit_balance_positive_lognormal(self, raw):
        limit = np.asarray(raw.table["limit_bal"], dtype=float)
        assert limit.min() >= 10_000
        assert limit.mean() > np.median(limit)

    def test_repayment_status_range(self, raw):
        pay = np.asarray(raw.table["pay_0"], dtype=float)
        assert pay.min() >= -2.0 and pay.max() <= 8.0

    def test_utilization_consistency(self, raw):
        util = np.asarray(raw.table["utilization"], dtype=float)
        bills = np.asarray(raw.table["avg_bill"], dtype=float)
        limit = np.asarray(raw.table["limit_bal"], dtype=float)
        np.testing.assert_allclose(util, np.clip(bills / limit, 0, 4), atol=1e-9)

    def test_defaulters_have_worse_repayment(self, raw):
        pay = np.asarray(raw.table["pay_0"], dtype=float)
        assert pay[raw.y == 1].mean() > pay[raw.y == 0].mean()


class TestAdultDistributions:
    @pytest.fixture(scope="class")
    def raw(self):
        return load_adult(6000, seed=0)

    def test_hours_centered_at_forty(self, raw):
        hours = np.asarray(raw.table["hours_per_week"], dtype=float)
        assert 35.0 < hours.mean() < 45.0

    def test_education_years_match_levels(self, raw):
        edu = np.asarray(raw.table["education"], dtype=int)
        years = np.asarray(raw.table["education_num"], dtype=float)
        doctorate = years[edu == 15]
        preschool = years[edu == 0]
        if doctorate.size and preschool.size:
            assert doctorate.mean() > preschool.mean() + 8

    def test_high_earners_more_educated(self, raw):
        years = np.asarray(raw.table["education_num"], dtype=float)
        assert years[raw.y == 1].mean() > years[raw.y == 0].mean() + 1.0

    def test_capital_gain_predicts_income(self, raw):
        gain = np.asarray(raw.table["capital_gain"], dtype=float)
        assert (gain[raw.y == 1] > 0).mean() > (gain[raw.y == 0] > 0).mean()


@pytest.mark.parametrize("loader", [load_titanic, load_credit, load_adult])
def test_joint_features_beat_task_features_with_a_small_probe(loader):
    """The market's premise holds even for a small forest probe.

    A shallow forest on task+data features must beat one on task
    features alone — the data party's features carry real signal beyond
    proxies of what the task party owns.
    """
    ds = loader(2500, seed=0).prepare(seed=0)
    task_only = RandomForestClassifier(10, max_depth=4, rng=0).fit(
        ds.task_train, ds.y_train
    )
    joint = RandomForestClassifier(10, max_depth=4, rng=0).fit(
        np.hstack([ds.task_train, ds.data_train]), ds.y_train
    )
    acc_task = task_only.score(ds.task_test, ds.y_test)
    acc_joint = joint.score(
        np.hstack([ds.task_test, ds.data_test]), ds.y_test
    )
    assert acc_joint >= acc_task - 0.005  # never meaningfully worse
    # And strictly better on at least the AUC-like margin for Titanic's
    # strong data-party signal (checked loosely to stay robust).
    if loader is load_titanic:
        assert acc_joint > acc_task + 0.02
