"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bargain_defaults(self):
        args = build_parser().parse_args(["bargain"])
        assert args.dataset == "titanic"
        assert args.task == "strategic"
        assert args.runs == 1

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])

    def test_figure_csv_dir(self):
        args = build_parser().parse_args(["figure", "1", "--csv-dir", "/tmp/x"])
        assert args.csv_dir == "/tmp/x"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bargain", "--dataset", "mnist"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.sessions == 1000
        assert args.preset is None  # resolved to dataset name or synthetic
        assert args.dataset is None
        assert args.batch_size == 1024
        assert args.jobs == 1
        assert not args.no_cache

    def test_oracle_options_parse(self):
        args = build_parser().parse_args(
            ["bargain", "--jobs", "4", "--no-cache", "--cache-dir", "/tmp/c"]
        )
        assert args.jobs == 4
        assert args.no_cache
        assert args.cache_dir == "/tmp/c"
        args = build_parser().parse_args(
            ["simulate", "--dataset", "credit", "--base-model", "mlp", "--jobs", "2"]
        )
        assert args.dataset == "credit"
        assert args.base_model == "mlp"
        assert args.jobs == 2

    def test_simulate_oracle_flags_require_dataset(self):
        # Oracle knobs on the synthetic path would be silently inert.
        for argv in (["simulate", "--sessions", "5", "--jobs", "4"],
                     ["simulate", "--sessions", "5", "--no-cache"],
                     ["simulate", "--sessions", "5", "--cache-dir", "/tmp/c"],
                     ["simulate", "--sessions", "5", "--base-model", "mlp"]):
            with pytest.raises(SystemExit, match="only apply with --dataset"):
                main(argv)

    def test_simulate_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--preset", "mnist"])

    def test_simulate_malformed_mix_exits_cleanly(self):
        with pytest.raises(SystemExit, match="not a number"):
            main(["simulate", "--sessions", "5",
                  "--mix", "strategic:strategic=abc"])
        with pytest.raises(SystemExit, match="invalid population spec"):
            main(["simulate", "--sessions", "5", "--cost", "frobnicate:2=1.0"])
        with pytest.raises(SystemExit, match="invalid population spec"):
            main(["simulate", "--sessions", "5", "--mix", "alien:strategic=1"])

    def test_simulate_cost_without_parameter_rejected(self):
        # 'constant=0.3' (missing ':a') must not silently become
        # ConstantCost(0), which would flip on Eq. 6/7 acceptance.
        with pytest.raises(SystemExit, match="needs a parameter"):
            main(["simulate", "--sessions", "5", "--cost", "constant=0.3"])

    def test_simulate_none_cost_with_parameter_rejected(self):
        # 'none:0.7' (colon for '=') must not silently default weight 1.
        with pytest.raises(SystemExit, match="takes no parameter"):
            main(["simulate", "--sessions", "5", "--cost", "none:0.7"])

    def test_simulate_bad_counts_exit_cleanly(self):
        for argv in (["simulate", "--sessions", "0"],
                     ["simulate", "--batch-size", "0"],
                     ["simulate", "--bins", "0"]):
            with pytest.raises(SystemExit, match="must be >= 1"):
                main(argv)


    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port) == ("127.0.0.1", 8765)
        assert args.idle_ttl == 900.0
        assert args.eviction_interval is None
        assert args.http_workers == 8
        assert args.join is None

    def test_serve_help_lists_one_server(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--http-workers" in out
        assert "--async" not in out
        assert "--coalesce-window" not in out

    @pytest.mark.parametrize("argv", [
        ["--async"], ["--coalesce-window", "0.01"],
    ])
    def test_serve_rejects_removed_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", *argv])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_figure1_runs_without_market(self, capsys):
        assert main(["figure", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1a" in out and "Figure 1b" in out

    def test_figure1_writes_csv(self, tmp_path, capsys):
        assert main(["figure", "1", "--csv-dir", str(tmp_path)]) == 0
        assert (tmp_path / "fig1.csv").exists()

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "Titanic" in out and "48842" in out

    def test_simulate_prints_report(self, capsys):
        assert main(["simulate", "--sessions", "60", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "population: 60 sessions" in out
        assert "Outcomes" in out and "accepted" in out

    def test_simulate_json_and_digest_guard(self, tmp_path, capsys):
        path = str(tmp_path / "report.json")
        assert main(["simulate", "--sessions", "40", "--seed", "2",
                     "--json", path]) == 0
        import json

        def _reject_constant(token):  # NaN/Infinity are not valid JSON
            raise AssertionError(f"spec-invalid JSON token {token!r} in export")

        payload = json.loads((tmp_path / "report.json").read_text(),
                             parse_constant=_reject_constant)
        assert payload["n_sessions"] == 40
        digest = payload["digest"]
        capsys.readouterr()
        # Matching digest passes; a wrong one fails the process.
        assert main(["simulate", "--sessions", "40", "--seed", "2",
                     "--expect-digest", digest]) == 0
        assert main(["simulate", "--sessions", "40", "--seed", "2",
                     "--expect-digest", "deadbeefdeadbeef"]) == 1

    def test_simulate_mix_parsing(self, capsys):
        assert main(["simulate", "--sessions", "30", "--seed", "3",
                     "--mix", "strategic:strategic=0.7,increase_price:strategic=0.3",
                     "--cost", "none=0.8,linear:0.02=0.2"]) == 0
        out = capsys.readouterr().out
        assert "Strategy mix" in out
        assert "increase_price/strategic" in out

    def test_bargain_prints_summary(self, capsys):
        # Uses the cached market from other tests when available; still
        # bounded by quick-mode market construction otherwise.
        assert main(["bargain", "--runs", "2", "--seed", "1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "market: titanic/random_forest" in out
        assert "run 0:" in out and "run 1:" in out

    def test_simulate_with_real_dataset_oracle(self, tmp_path, capsys):
        """End-to-end: --dataset routes the population through a
        factory-built oracle (and the preset anchors to the dataset)."""
        from repro.service import shared_pool

        argv = ["simulate", "--sessions", "40", "--seed", "1",
                "--dataset", "titanic", "--cache-dir", str(tmp_path)]
        shared_pool().clear()  # force a cold factory build
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "oracle build:" in out
        assert "population: 40 sessions" in out
        # A fresh process (simulated by dropping the in-process market
        # cache) replays every course from the persistent gain cache.
        shared_pool().clear()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 courses run" in out
