"""``repro serve`` under a client flood: absolute session throughput.

The claim under test: one asyncio event loop holds thousands of
keep-alive clients, completes every session it is asked for without a
single connection error, and still drains to exit code 0 on SIGTERM.

Method: the server is launched as a real ``python -m repro serve``
subprocess; ``REPRO_BENCH_PROCS`` asyncio load-generator processes
(``benchmarks/_serve_load.py``) drive ``REPRO_BENCH_CLIENTS`` total
keep-alive connections, draining a fixed budget of
``REPRO_BENCH_SESSIONS`` full sessions (open → step-per-round →
delete).  Fixed work, drain-to-empty, every completion counted.
Sessions use a transport-bound market config (``n_price_samples=2,
max_rounds=16``) so the number measures the serving path, not the
engine.  The server is then SIGTERMed and must drain to exit code 0.

The result is an absolute sessions/s figure, printed with the core
count and Python version it was measured on, and written to
``benchmarks/results/async_serve.json``/``.csv``.
"""

import json
import os
import platform
import signal
import socket
import subprocess
import sys
import time

from conftest import run_once

from repro.experiments import write_csv

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
LOADGEN = os.path.join(HERE, "_serve_load.py")

FULL = os.environ.get("REPRO_FULL", "0") == "1"
PROCS = int(os.environ.get("REPRO_BENCH_PROCS", "8"))
CLIENTS = int(os.environ.get("REPRO_BENCH_CLIENTS", "8192"))
SESSIONS = int(
    os.environ.get("REPRO_BENCH_SESSIONS", "16384" if FULL else "8192")
)

#: Transport-bound sessions: a couple of candidate draws and a tight
#: round cap keep the engine share of each request small, so the
#: measured rate is the serving path's.
MARKET_SPEC = {
    "dataset": "synthetic",
    "seed": 0,
    "config_overrides": {"n_price_samples": 2, "max_rounds": 16},
}


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _launch_server(store_path):
    env = {**os.environ, "PYTHONPATH": SRC}
    port = _free_port()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port),
            "--job-store", store_path,
            "--max-sessions", str(max(32768, 4 * CLIENTS)),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    import urllib.request

    deadline = time.time() + 60
    while time.time() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited early: {proc.returncode}")
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/healthz", timeout=1
            ):
                return proc, port
        except Exception:
            time.sleep(0.05)
    raise RuntimeError("server did not become healthy")


def _warm_market(port: int) -> str:
    import urllib.request

    raw = urllib.request.urlopen(
        urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/markets",
            data=json.dumps(MARKET_SPEC).encode(),
            method="POST",
        ),
        timeout=120,
    ).read()
    return json.loads(raw)["market"]


def _flood(store_path: str) -> dict:
    """One server, one client flood; sessions/s plus a drain verdict."""
    proc, port = _launch_server(store_path)
    try:
        digest = _warm_market(port)
        clients_per = max(1, CLIENTS // PROCS)
        sessions_per = max(1, SESSIONS // PROCS)
        start = time.perf_counter()
        generators = [
            subprocess.Popen(
                [
                    sys.executable, LOADGEN, str(port), digest,
                    str(clients_per), str(sessions_per),
                    str(index * sessions_per),
                ],
                stdout=subprocess.PIPE,
            )
            for index in range(PROCS)
        ]
        completed = conn_errors = 0
        for generator in generators:
            out, _ = generator.communicate(timeout=540)
            parts = out.split()
            completed += int(parts[0])
            conn_errors += int(parts[2])
        elapsed = time.perf_counter() - start
    finally:
        proc.send_signal(signal.SIGTERM)
        drain_exit = proc.wait(timeout=90)
    return {
        "clients": clients_per * PROCS,
        "session_budget": sessions_per * PROCS,
        "sessions": completed,
        "elapsed": elapsed,
        "sessions_per_sec": completed / elapsed,
        "conn_errors": conn_errors,
        "drain_exit": drain_exit,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
    }


def test_serve_session_throughput(benchmark, results_dir, tmp_path):
    row = run_once(benchmark, _flood, str(tmp_path / "jobs.sqlite3"))

    print()
    print(
        f"repro serve: {row['sessions_per_sec']:.1f} sessions/s "
        f"({row['sessions']} sessions, {row['clients']} clients, "
        f"{row['elapsed']:.1f}s, {row['conn_errors']} conn errors, "
        f"drained with exit {row['drain_exit']}; "
        f"{row['cores']} cores, Python {row['python']})"
    )

    with open(
        os.path.join(results_dir, "async_serve.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(row, fh, indent=2)
    columns = ["clients", "sessions", "sessions_per_sec", "conn_errors",
               "drain_exit", "cores", "python"]
    write_csv(
        os.path.join(results_dir, "async_serve.csv"),
        columns,
        [[row[name]] for name in columns],
    )

    # No client was ever refused or reset...
    assert row["conn_errors"] == 0
    # ...every session in the budget completed...
    assert row["sessions"] == row["session_budget"]
    # ...and SIGTERM drained the server to a clean exit.
    assert row["drain_exit"] == 0
