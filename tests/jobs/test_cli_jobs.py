"""The ``python -m repro jobs`` front door: run, interrupt, resume."""

import re
import socket

import pytest

from repro.cli import build_parser, main
from repro.jobs import default_store_path
from repro.service import SimulationSpec, run_simulation

ARGS = ["--sessions", "40", "--seed", "5", "--batch-size", "16"]
SPEC = SimulationSpec(sessions=40, seed=5, batch_size=16)


@pytest.fixture(scope="module")
def reference_digest():
    _, _, report = run_simulation(SPEC)
    return report.digest()


def _store_args(tmp_path):
    return ["--store", str(tmp_path / "jobs.sqlite3")]


def _job_id(output: str) -> str:
    match = re.search(r"job (j[0-9a-f]{16})", output)
    assert match, output
    return match.group(1)


class TestParser:
    def test_jobs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["jobs"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["jobs", "run"])
        assert args.jobs_command == "run"
        assert args.sessions == 1000
        assert args.shards == 2
        assert args.chunks is None and args.store is None

    def test_resume_takes_job_id(self):
        args = build_parser().parse_args(["jobs", "resume", "jabc"])
        assert args.job_id == "jabc"

    @pytest.mark.parametrize("argv", [
        ["jobs", "run", "--workers", "http://a:1"],
        ["jobs", "resume", "jabc", "--workers", "http://a:1"],
    ], ids=["run", "resume"])
    def test_workers_option_is_rejected(self, argv, capsys):
        """Chunks leave the process only through the fleet (``--fleet``);
        there is no static worker list to push them to."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestRunResume:
    def test_run_to_completion_with_digest_guard(
        self, tmp_path, capsys, reference_digest
    ):
        code = main(["jobs", "run", *ARGS, "--shards", "2", "--chunks", "4",
                     *_store_args(tmp_path),
                     "--expect-digest", reference_digest])
        out = capsys.readouterr().out
        assert code == 0
        assert f"digest {reference_digest}" in out
        assert "population: 40 sessions" in out  # full report re-rendered

    def test_wrong_digest_fails(self, tmp_path, capsys):
        code = main(["jobs", "run", *ARGS, "--chunks", "2",
                     *_store_args(tmp_path), "--expect-digest", "0" * 16])
        assert code == 1
        assert "digest mismatch" in capsys.readouterr().out

    def test_interrupt_then_resume(self, tmp_path, capsys, reference_digest):
        """--max-chunks leaves a resumable job; resume completes it to
        the single-process digest."""
        code = main(["jobs", "run", *ARGS, "--chunks", "4",
                     "--max-chunks", "1", *_store_args(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "interrupted" in out and "resume with" in out
        job_id = _job_id(out)

        code = main(["jobs", "status", job_id, *_store_args(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0 and "interrupted" in out

        code = main(["jobs", "resume", job_id, *_store_args(tmp_path),
                     "--expect-digest", reference_digest])
        out = capsys.readouterr().out
        assert code == 0
        assert "done" in out and f"digest {reference_digest}" in out

    def test_unfinished_job_fails_digest_guard(self, tmp_path, capsys):
        code = main(["jobs", "run", *ARGS, "--chunks", "4", "--max-chunks",
                     "1", *_store_args(tmp_path), "--expect-digest", "f" * 16])
        assert code == 1
        assert "cannot verify" in capsys.readouterr().out

    def test_list_and_status(self, tmp_path, capsys):
        main(["jobs", "run", *ARGS, "--chunks", "2", *_store_args(tmp_path)])
        job_id = _job_id(capsys.readouterr().out)
        code = main(["jobs", "list", *_store_args(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0 and job_id in out
        code = main(["jobs", "status", job_id, "--report",
                     *_store_args(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0 and "population: 40 sessions" in out

    def test_unknown_job_id(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown job"):
            main(["jobs", "status", "jdeadbeef", *_store_args(tmp_path)])
        with pytest.raises(SystemExit, match="unknown job"):
            main(["jobs", "resume", "jdeadbeef", *_store_args(tmp_path)])

    def test_empty_store_list(self, tmp_path, capsys):
        code = main(["jobs", "list", *_store_args(tmp_path)])
        assert code == 0
        assert "no jobs recorded" in capsys.readouterr().out


class TestDefaultStore:
    """Without ``--store`` the jobs commands use ``default_store_path``."""

    def test_env_variable_names_the_store(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.sqlite3")
        monkeypatch.setenv("REPRO_JOB_STORE", path)
        assert default_store_path() == path

    def test_falls_back_to_the_user_cache(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_JOB_STORE", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert default_store_path() == str(
            tmp_path / ".cache" / "repro" / "jobs.sqlite3"
        )

    def test_jobs_commands_use_it(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "env.sqlite3"
        monkeypatch.setenv("REPRO_JOB_STORE", str(path))
        assert main(["jobs", "run", *ARGS, "--chunks", "2"]) == 0
        job_id = _job_id(capsys.readouterr().out)
        assert path.exists()
        assert main(["jobs", "list", *_store_args(tmp_path)]) == 0
        assert "no jobs recorded" in capsys.readouterr().out
        assert main(["jobs", "list"]) == 0
        assert job_id in capsys.readouterr().out


def _dead_url() -> str:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return "http://127.0.0.1:%d" % sock.getsockname()[1]


class TestRemoteRejectsLocalFlags:
    """Against ``--server`` the server owns the store and the execution,
    so the local-only flags are refused by name before any request."""

    @pytest.mark.parametrize("argv, flag", [
        (["jobs", "run", *ARGS, "--max-chunks", "1"], "--max-chunks"),
        (["jobs", "resume", "j0", "--max-chunks", "0"], "--max-chunks"),
        (["jobs", "run", *ARGS, "--store", "x.sqlite3"], "--store"),
        (["jobs", "resume", "j0", "--store", "x.sqlite3"], "--store"),
        (["jobs", "status", "j0", "--store", "x.sqlite3"], "--store"),
        (["jobs", "list", "--store", "x.sqlite3"], "--store"),
    ])
    def test_flag_is_named(self, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--server", _dead_url()])
        assert flag in str(excinfo.value.code)
        assert "--server" in str(excinfo.value.code)
