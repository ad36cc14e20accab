"""Every front door names its market the same way.

The platform pre-computes one ΔG catalogue per market (§3.4), so which
market a command trades on is one decision: the experiment tier and the
gain-cache directory applied to a :class:`~repro.service.MarketSpec`.
Each case stops an entry point at the moment it asks for its market and
pins that spec's digest, so a front door that derives its market some
other way (a different tier, catalogue size or cache directory) fails
here.  Runs with ``$REPRO_ORACLE_CACHE`` fixed, so the resolved cache
directory is part of what is pinned.
"""

import os
import runpy

import pytest

import repro.service.manager as manager_module
from repro.cli import main
from repro.experiments import figure23_series, figure4_series, table3_rows, table4_rows
from repro.market.market import Market
from repro.service import SimulationSpec
from repro.service.manager import MarketPool
from repro.service.simulation import backing_market_spec

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")
CACHE_ENV = "/pinned/oracle-cache"

TITANIC_CACHED = "9216a912dabee341"
TITANIC_UNCACHED = "1362f319c9ad72d0"
TITANIC_REL_DIR = "526c21fc18a230e9"
TITANIC_JOBS_3 = "0dff068e5c3c22d8"

#: CLI arguments -> digest of the market the command trades on.
CLI_PINS = {
    ("bargain",): TITANIC_CACHED,
    ("bargain", "--no-cache"): TITANIC_UNCACHED,
    ("bargain", "--cache-dir", "rel/dir"): TITANIC_REL_DIR,
    ("bargain", "--jobs", "3"): TITANIC_JOBS_3,
    ("simulate", "--dataset", "titanic"): TITANIC_CACHED,
    ("simulate", "--dataset", "titanic", "--no-cache"): TITANIC_UNCACHED,
    ("simulate", "--dataset", "titanic", "--cache-dir", "rel/dir"): TITANIC_REL_DIR,
    ("simulate", "--dataset", "titanic", "--jobs", "3"): TITANIC_JOBS_3,
}

#: Tier -> digest of ``backing_market_spec(SimulationSpec(dataset="titanic"))``.
BACKING_PINS = {"quick": TITANIC_CACHED, "full": "0f5a8ef8c89d3f45"}

#: Paper artifact -> digest of the market its builder reads.
ARTIFACT_PINS = {
    "table3": TITANIC_UNCACHED,
    "table4-mlp": "f475f29a3e0f6142",
    "figure3": "3391454b5e946836",
    "figure4": "3b880abe4a7f2a57",
}

#: Example script -> digest of the market it builds.
EXAMPLE_PINS = {
    "quickstart.py": "442b65d55b522dc8",
    "bank_joint_antifraud.py": "b748e208d819dbc4",
    "advertiser_user_modeling.py": "4d0fae14e5462ebb",
}

ARTIFACTS = {
    "table3": lambda: table3_rows("titanic", seed=0),
    "table4-mlp": lambda: table4_rows("credit", "mlp", seed=0),
    "figure3": lambda: figure23_series("titanic", "mlp", seed=0),
    "figure4": lambda: figure4_series("adult", "random_forest", seed=0),
}


class _Named(BaseException):
    """Raised the moment an entry point names its market (passes
    through the service's ``except Exception`` error envelopes)."""


@pytest.fixture(autouse=True)
def pinned_env(monkeypatch):
    monkeypatch.delenv("REPRO_FULL", raising=False)
    monkeypatch.setenv("REPRO_ORACLE_CACHE", CACHE_ENV)


@pytest.fixture
def pool_requests(monkeypatch):
    """Digests of the specs asked of any :class:`MarketPool`."""
    named = []

    def spy(self, spec):
        named.append(spec.digest())
        raise _Named

    monkeypatch.setattr(MarketPool, "get", spy)
    return named


@pytest.mark.parametrize("argv", sorted(CLI_PINS), ids=" ".join)
def test_cli_market(argv, pool_requests, capsys):
    with pytest.raises(_Named):
        main([*argv, "--seed", "0"])
    assert pool_requests == [CLI_PINS[argv]]


@pytest.mark.parametrize("tier", sorted(BACKING_PINS))
def test_backing_market_spec(tier, monkeypatch):
    if tier == "full":
        monkeypatch.setenv("REPRO_FULL", "1")
    spec = backing_market_spec(SimulationSpec(dataset="titanic"))
    assert spec.digest() == BACKING_PINS[tier]


@pytest.mark.parametrize("artifact", sorted(ARTIFACT_PINS))
def test_paper_artifact_market(artifact, pool_requests):
    with pytest.raises(_Named):
        ARTIFACTS[artifact]()
    assert pool_requests == [ARTIFACT_PINS[artifact]]


@pytest.mark.parametrize("script", sorted(EXAMPLE_PINS))
def test_example_market(script, monkeypatch, capsys):
    named = []

    def spy(cls, spec, **kwargs):
        named.append(spec.digest())
        raise _Named

    monkeypatch.setattr(Market, "from_spec", classmethod(spy))
    with pytest.raises(_Named):
        runpy.run_path(os.path.join(EXAMPLES, script), run_name="__main__")
    assert named == [EXAMPLE_PINS[script]]


def test_simulate_builds_its_market_once(monkeypatch, capsys):
    pool = MarketPool()
    monkeypatch.setattr(manager_module, "_SHARED_POOL", pool)
    assert main(["simulate", "--sessions", "16", "--seed", "0",
                 "--dataset", "titanic", "--no-cache"]) == 0
    assert "oracle build:" in capsys.readouterr().out
    assert pool.builds == 1
