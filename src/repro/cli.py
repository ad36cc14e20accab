"""Command-line interface: ``python -m repro <command> ...``.

Every command is a thin spec-constructor over the client SDK
(:mod:`repro.client`): choices come from the live registries, the
arguments become a typed :class:`~repro.service.specs.MarketSpec` /
:class:`~repro.service.specs.SessionSpec` /
:class:`~repro.service.specs.SimulationSpec`, and execution drives a
:class:`~repro.client.MarketplaceClient` — in-process by default
(:class:`~repro.client.LocalTransport` over the shared market pool),
or against any ``python -m repro serve`` deployment with
``--server URL`` (:class:`~repro.client.HttpTransport`, keep-alive
HTTP/1.1 with retries), with identical report digests either way.

Commands
--------
``bargain``
    Play bargaining games on one of the registered markets and print
    the outcome summary (the quickstart example, parameterised).
``simulate``
    Run a population of heterogeneous bargaining sessions through the
    :class:`repro.simulate.SessionPool` scheduler and print the
    aggregate report (acceptance rate, rounds, payment/net-profit
    histograms, throughput).
``serve``
    Serve the marketplace as a JSON HTTP API (markets, sessions,
    stepping, simulation jobs) on top of one warm market pool.
``jobs``
    Durable sharded simulation jobs: ``run`` fans a population across
    worker-process shards with chunk-level progress in a SQLite store,
    ``resume`` re-attaches after a crash (or ``kill -9``) and finishes
    only the pending chunks, ``status``/``list`` inspect the store.
    The merged report is bit-identical to ``simulate`` for any shard
    count.
``obs``
    Pretty-print a live server's telemetry: the ``/v1/metrics``
    Prometheus exposition, optionally with its recent trace spans.
``lint``
    Determinism + concurrency static analysis over the source tree
    (:mod:`repro.analysis`): unseeded RNG, wall-clock in digest-bearing
    modules, non-canonical serialisation, set-iteration order, spec
    shape, lock-order cycles, unlocked loop/thread shared state.
    Exit codes: 0 clean, 1 findings, 2 internal error.
``table``
    Regenerate one of the paper's tables (2, 3 or 4).
``figure``
    Regenerate one of the paper's figures (1, 2, 3 or 4) as an ASCII
    chart (optionally dumping the CSV series).

Examples
--------
::

    python -m repro bargain --dataset titanic --runs 5
    python -m repro bargain --dataset credit --task increase_price --jobs 4
    python -m repro simulate --sessions 10000 --preset titanic
    python -m repro simulate --sessions 2000 --dataset credit --jobs 4
    python -m repro simulate --sessions 1000 --mix "strategic:strategic=0.8,increase_price:strategic=0.2"
    python -m repro simulate --sessions 5000 --server http://localhost:8765
    python -m repro bargain --runs 3 --server http://localhost:8765
    python -m repro jobs run --sessions 20000 --shards 4 --store sweeps.sqlite3
    python -m repro jobs run --sessions 20000 --server http://localhost:8765
    python -m repro jobs run --sessions 20000 --fleet --store sweeps.sqlite3
    python -m repro jobs resume j0123abcd4567ef89 --store sweeps.sqlite3
    python -m repro serve --port 8765
    python -m repro simulate --sessions 120 --trace sim-trace.ndjson
    python -m repro obs --server http://localhost:8765 --traces 10
    python -m repro lint --format json
    python -m repro lint src/repro/service --select CON001,CON002
    python -m repro table 3 --dataset adult
    python -m repro figure 2 --dataset titanic --csv-dir results/
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from repro.service import registry

__all__ = ["build_parser", "main"]


def _add_oracle_options(parser: argparse.ArgumentParser) -> None:
    """Oracle-factory knobs shared by commands that build real oracles."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for pre-bargaining VFL courses "
                             "(0 = all cores; results are identical)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="gain-cache directory (default: "
                             "$REPRO_ORACLE_CACHE or ~/.cache/repro/oracle)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent gain cache")


def _add_secure_options(parser: argparse.ArgumentParser) -> None:
    """Flags for the §3.6 secure-bargaining settlement path."""
    parser.add_argument("--secure", action="store_true",
                        help="settle accepted payments through the batched "
                             "Paillier path (value-identical to the serial "
                             "secure protocol; shard-invariant)")
    parser.add_argument("--key-bits", type=int, default=256, metavar="BITS",
                        help="Paillier key size for --secure (default 256; "
                             "the keypair derives deterministically from "
                             "--seed)")


def _add_client_option(parser: argparse.ArgumentParser) -> None:
    """The local-vs-remote switch every client-driven command shares."""
    parser.add_argument("--server", default=None, metavar="URL",
                        help="drive a remote `repro serve` deployment at "
                             "this base URL instead of running in-process "
                             "(identical report digests either way)")


def _add_trace_option(parser: argparse.ArgumentParser) -> None:
    """The trace-capture flag shared by the workload commands."""
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="run the command under a root span and append "
                             "every finished span to FILE as JSON lines "
                             "(telemetry only; report digests are unchanged)")


@contextlib.contextmanager
def _tracing(args: argparse.Namespace, name: str):
    """Root span + NDJSON sink for a ``--trace FILE`` invocation."""
    trace = getattr(args, "trace", None)
    if not trace:
        yield
        return
    from repro import obs

    obs.TRACER.set_sink(trace)
    try:
        with obs.span(name, command=name):
            yield
    finally:
        obs.TRACER.set_sink(None)
        print(f"trace written to {trace}")


def _client(args: argparse.Namespace):
    """The MarketplaceClient the command should drive."""
    from repro.client import MarketplaceClient

    if args.server:
        return MarketplaceClient.connect(args.server)
    return MarketplaceClient.local()


def build_parser() -> argparse.ArgumentParser:
    """The repro argument parser (exposed for tests and docs).

    All ``choices=`` tuples are sourced from the service registries —
    registering a dataset, base model, strategy or cost kind makes it
    appear here (and in spec validation, and in the simulator's mix
    parser) with no CLI changes.
    """
    datasets = registry.dataset_names()
    vfl_datasets = registry.dataset_names(include_synthetic=False)
    base_models = registry.base_model_names()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bargaining-based VFL feature market (Cui et al., ICDE 2025).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bargain = sub.add_parser("bargain", help="play bargaining games on a market")
    bargain.add_argument("--dataset", default="titanic", choices=datasets)
    bargain.add_argument("--model", default="random_forest", choices=base_models)
    bargain.add_argument("--task", default="strategic",
                         choices=registry.task_strategy_names())
    bargain.add_argument("--data", default="strategic",
                         choices=registry.data_strategy_names())
    bargain.add_argument("--information", default="perfect",
                         choices=("perfect", "imperfect"))
    bargain.add_argument("--runs", type=int, default=1)
    bargain.add_argument("--seed", type=int, default=0)
    _add_secure_options(bargain)
    _add_oracle_options(bargain)
    _add_client_option(bargain)
    _add_trace_option(bargain)

    def _add_population_options(parser: argparse.ArgumentParser) -> None:
        """Simulation-describing flags shared by simulate and jobs run."""
        parser.add_argument("--sessions", type=int, default=1000,
                            help="population size (default 1000)")
        parser.add_argument("--preset", default=None,
                            choices=registry.preset_names(),
                            help="calibration anchor for the population "
                                 "(default: the --dataset name, else synthetic)")
        parser.add_argument("--dataset", default=None, choices=vfl_datasets,
                            help="anchor the catalogue on a real pre-bargaining "
                                 "oracle: the factory runs one VFL course per "
                                 "bundle on this dataset")
        parser.add_argument("--base-model", default="random_forest",
                            choices=base_models,
                            help="base model for the --dataset oracle courses")
        parser.add_argument("--seed", type=int, default=0)
        _add_oracle_options(parser)
        parser.add_argument("--batch-size", type=int, default=1024,
                            help="scheduler batch width (outcomes are invariant)")
        parser.add_argument("--mix", default=None, metavar="PAIRS",
                            help="strategy mix, e.g. "
                                 "'strategic:strategic=0.8,increase_price:strategic=0.2'")
        parser.add_argument("--cost", default=None, metavar="COSTS",
                            help="bargaining-cost mix, e.g. 'none=0.7,linear:0.05=0.3'")
        parser.add_argument("--bins", type=int, default=16,
                            help="histogram bins in the report")
        _add_secure_options(parser)

    simulate = sub.add_parser(
        "simulate", help="run a population of concurrent bargaining sessions"
    )
    _add_population_options(simulate)
    _add_client_option(simulate)
    _add_trace_option(simulate)
    simulate.add_argument("--json", default=None, metavar="PATH",
                          help="also dump the report as JSON here")
    simulate.add_argument("--expect-digest", default=None, metavar="HEX",
                          help="fail unless the report digest matches (CI guard)")

    serve = sub.add_parser(
        "serve", help="serve the marketplace as a JSON HTTP API"
    )
    from repro.service.server import add_serve_arguments

    add_serve_arguments(serve)

    jobs = sub.add_parser(
        "jobs", help="durable, sharded simulation jobs (submit, kill, resume)"
    )
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)

    def _add_store_option(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--store", default=None, metavar="PATH",
                            help="durable job store (default: $REPRO_JOB_STORE "
                                 "or ~/.cache/repro/jobs.sqlite3)")

    def _add_execution_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--shards", type=int, default=2, metavar="N",
                            help="worker-process shards (default 2; 0 = all "
                                 "cores; the merged report is identical for "
                                 "every value)")
        parser.add_argument("--fleet", action="store_true",
                            help="run through the fleet lease queue: joined "
                                 "workers (`repro serve --join`) pull the "
                                 "chunks instead of this process executing "
                                 "them (the merged report is still "
                                 "identical)")
        parser.add_argument("--max-chunks", type=int, default=None,
                            metavar="K",
                            help="return once K chunks have completed in "
                                 "this invocation, leaving the job "
                                 "interrupted and resumable; chunks still "
                                 "in flight are recorded too "
                                 "(testing/drills)")
        parser.add_argument("--expect-digest", default=None, metavar="HEX",
                            help="fail unless the merged report digest "
                                 "matches (CI guard)")
        _add_client_option(parser)
        _add_trace_option(parser)

    jobs_run = jobs_sub.add_parser(
        "run", help="submit a simulation job and execute it shard-parallel"
    )
    _add_population_options(jobs_run)
    jobs_run.add_argument("--chunks", type=int, default=None, metavar="M",
                          help="progress granularity: sessions are recorded "
                               "to the store in M chunks (default: up to 16)")
    _add_store_option(jobs_run)
    _add_execution_options(jobs_run)

    jobs_resume = jobs_sub.add_parser(
        "resume", help="re-attach to a job and run its pending chunks"
    )
    jobs_resume.add_argument("job_id")
    _add_store_option(jobs_resume)
    _add_execution_options(jobs_resume)

    jobs_status = jobs_sub.add_parser("status", help="one job's progress")
    jobs_status.add_argument("job_id")
    jobs_status.add_argument("--report", action="store_true",
                             help="also print the stored report of a "
                                  "finished job")
    _add_store_option(jobs_status)
    _add_client_option(jobs_status)

    jobs_list = jobs_sub.add_parser("list", help="every recorded job")
    _add_store_option(jobs_list)
    _add_client_option(jobs_list)

    fleet = sub.add_parser(
        "fleet", help="inspect a coordinator's elastic worker fleet"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_status = fleet_sub.add_parser(
        "status", help="workers, active leases, and queue depth "
                       "(GET /v1/fleet)"
    )
    _add_client_option(fleet_status)

    obs_cmd = sub.add_parser(
        "obs", help="inspect a live server's telemetry (GET /v1/metrics)"
    )
    _add_client_option(obs_cmd)
    obs_cmd.add_argument("--raw", action="store_true",
                         help="print the raw Prometheus text exposition "
                              "instead of the pretty summary")
    obs_cmd.add_argument("--traces", type=int, default=0, metavar="N",
                         help="also print the server's last N finished "
                              "trace spans (GET /v1/traces)")

    lint = sub.add_parser(
        "lint",
        help="determinism + concurrency static analysis "
             "(exit 0 clean / 1 findings / 2 internal error)",
        add_help=False,
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                      help="arguments for the lint driver "
                           "(see `repro lint --help`)")

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=(2, 3, 4))
    table.add_argument("--dataset", default="titanic", choices=vfl_datasets)
    table.add_argument("--model", default="random_forest", choices=base_models)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=(1, 2, 3, 4))
    figure.add_argument("--dataset", default="titanic", choices=vfl_datasets)
    figure.add_argument("--csv-dir", default=None,
                        help="also write the series as CSV files here")
    return parser


def _cmd_bargain(args: argparse.Namespace) -> int:
    from repro.experiments import spec_for
    from repro.market.pricing import QuotedPrice
    from repro.service import SessionSpec

    if not args.secure and args.key_bits != 256:
        raise SystemExit("--key-bits only applies with --secure")
    spec = spec_for(
        args.dataset,
        args.model,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
    )
    with _client(args) as client:
        market = client.build_market(spec)
        # Only a build that happened in this call has a report describing
        # it; a market reused from the serving pool would misreport — the
        # wire payload carries the summary exactly when this call built.
        if market["build_report"]:
            print(market["build_report"])
        print(f"market: {market['name']} | catalogue {market['n_bundles']} "
              f"bundles | target dG* = {market['target_gain']:.4f}")
        if args.secure:
            print(f"secure bargaining: Paillier {args.key_bits}-bit "
                  f"(batched, seed-derived keypair)")
        outcomes = []
        for i in range(args.runs):
            opened = client.open_session(SessionSpec(
                market=spec,
                task=args.task,
                data=args.data,
                information=args.information,
                seed=args.seed,
                run=i,
                secure=args.secure,
                key_bits=args.key_bits,
            ))
            state = client.run_session(opened["session"])
            outcomes.append(state["outcome"])
            client.close_session(opened["session"])
    accepted = [o for o in outcomes if o["accepted"]]
    for i, o in enumerate(outcomes):
        line = (f"run {i}: {o['status']:<10} rounds={o['n_rounds']:<4}")
        if o["accepted"]:
            quote = QuotedPrice.from_dict(o["quote"])
            line += (f" dG={o['delta_g']:.4f} payment={o['payment']:.3f} "
                     f"net={o['net_profit']:.2f} quote={quote}")
        print(line)
    if accepted:
        print(f"summary: {len(accepted)}/{len(outcomes)} accepted | "
              f"mean net profit "
              f"{np.mean([o['net_profit'] for o in accepted]):.2f} | "
              f"mean payment {np.mean([o['payment'] for o in accepted]):.3f}")
    return 0


def _float(text: str, context: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SystemExit(f"bad {context}: {text!r} is not a number") from None


def _parse_mix(text: str) -> tuple[tuple[str, str, float], ...]:
    """``'strategic:strategic=0.8,...'`` -> strategy_mix triples."""
    entries = []
    for part in text.split(","):
        pair, _, weight = part.strip().partition("=")
        task, _, data = pair.partition(":")
        if not (task and data):
            raise SystemExit(f"bad --mix entry {part!r}; expected task:data=weight")
        entries.append((task.strip(), data.strip(),
                        _float(weight, f"--mix weight in {part!r}") if weight
                        else 1.0))
    return tuple(entries)


def _parse_cost(text: str) -> tuple[tuple[str, float, float], ...]:
    """``'none=0.7,linear:0.05=0.3'`` -> cost_mix triples.

    Whether a kind takes a parameter comes from the cost registry;
    unknown kinds are parsed permissively here and rejected by spec
    validation with the full list of registered kinds.
    """
    entries = []
    for part in text.split(","):
        spec, _, weight = part.strip().partition("=")
        kind, _, a = spec.partition(":")
        kind = kind.strip()
        if kind not in registry.COSTS:
            # Pass unknown kinds straight through so spec validation
            # rejects them by name (with the registered-kind list)
            # instead of a misleading parameter-shape complaint here.
            entries.append((kind,
                            _float(a, f"--cost parameter in {part!r}") if a
                            else 0.0,
                            _float(weight, f"--cost weight in {part!r}")
                            if weight else 1.0))
            continue
        takes_parameter = registry.COSTS.get(kind).takes_parameter
        if takes_parameter and not a:
            # Defaulting a missing parameter would silently flip the
            # sessions into cost-aware (Eq. 6/7) acceptance mode.
            raise SystemExit(
                f"bad --cost entry {part!r}: {kind!r} needs a parameter "
                f"(expected {kind}:a=weight)"
            )
        if not takes_parameter and a:
            # 'none:0.7' is the natural typo for 'none=0.7' — storing
            # 0.7 as an ignored parameter would silently skew the mix.
            raise SystemExit(
                f"bad --cost entry {part!r}: {kind!r} takes no parameter "
                f"(expected {kind}=weight)"
            )
        entries.append((kind,
                        _float(a, f"--cost parameter in {part!r}") if a else 0.0,
                        _float(weight, f"--cost weight in {part!r}") if weight
                        else 1.0))
    return tuple(entries)


def _simulation_spec(args: argparse.Namespace):
    """The validated ``SimulationSpec`` described by simulate-style flags
    (shared by ``simulate`` and ``jobs run``)."""
    from repro.service import SimulationSpec

    for name, value in (("--sessions", args.sessions),
                        ("--batch-size", args.batch_size),
                        ("--bins", args.bins)):
        if value < 1:
            raise SystemExit(f"{name} must be >= 1, got {value}")
    try:
        sim = SimulationSpec(
            sessions=args.sessions,
            preset=args.preset,
            dataset=args.dataset,
            base_model=args.base_model,
            seed=args.seed,
            batch_size=args.batch_size,
            bins=args.bins,
            strategy_mix=_parse_mix(args.mix) if args.mix else None,
            cost_mix=_parse_cost(args.cost) if args.cost else None,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            no_cache=args.no_cache,
            secure=args.secure,
            key_bits=args.key_bits,
        )
    except ValueError as exc:  # unknown strategy/cost kind, bad weight, ...
        raise SystemExit(f"invalid population spec: {exc}") from None
    if not args.secure and args.key_bits != 256:
        # A dangling key size would be silently recorded in the spec
        # (changing its digest) without ever being used.
        raise SystemExit("--key-bits only applies with --secure")
    if not args.dataset:
        # These knobs only affect the pre-bargaining oracle build;
        # silently ignoring them would let users believe they took
        # effect on the synthetic-catalogue path.
        ignored = []
        if args.jobs != 1:
            ignored.append("--jobs")
        if args.cache_dir:
            ignored.append("--cache-dir")
        if args.no_cache:
            ignored.append("--no-cache")
        if args.base_model != "random_forest":
            ignored.append("--base-model")
        if ignored:
            raise SystemExit(
                f"{', '.join(ignored)} only apply with --dataset "
                f"(no oracle is built for synthetic catalogues)"
            )
    return sim


def _cmd_simulate(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    sim = _simulation_spec(args)
    if args.dataset and not args.server:
        # A real pre-bargaining oracle: the factory runs (or replays
        # from cache) one VFL course per catalogued bundle.  With
        # --server the remote deployment resolves and builds it.
        from repro.service import shared_pool
        from repro.service.simulation import backing_market_spec

        market_spec = backing_market_spec(sim)
        fresh_build = not shared_pool().contains(market_spec)
        market = shared_pool().get(market_spec)
        build_report = getattr(market.oracle, "build_report", None)
        if fresh_build and build_report is not None:
            print(build_report.summary())
    with _client(args) as client:
        report = client.simulate(sim)
    print(report.to_text())
    if args.json:
        import json
        import os

        from repro.utils.canonical import json_safe

        payload = json_safe(asdict(report))
        payload["digest"] = report.digest()
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
        print(f"report written to {args.json}")
    if args.expect_digest and report.digest() != args.expect_digest:
        print(f"digest mismatch: got {report.digest()}, "
              f"expected {args.expect_digest}")
        return 1
    return 0


def _job_store(args: argparse.Namespace):
    from repro.jobs import JobStore, default_store_path

    return JobStore(args.store or default_store_path())


def _print_job(record) -> None:
    line = (f"job {record.job_id}: {record.status} | kind {record.kind} | "
            f"chunks {record.done_chunks}/{record.n_chunks}")
    if record.digest:
        line += f" | digest {record.digest}"
    print(line)


def _print_job_report(record) -> None:
    """The stored report of a finished simulation job."""
    from repro.simulate.report import report_from_dict

    print(report_from_dict(record.report).to_text())


def _finish_job_command(record, expect_digest: str | None,
                        resume_suffix: str = "") -> int:
    """Shared run/resume epilogue: report, digest guard, exit code.

    ``record`` is a :class:`~repro.jobs.store.JobRecord` or the
    duck-typed :class:`_WireJobView` over a /v1 payload, so the local
    and ``--server`` paths render identically; ``resume_suffix`` tails
    the resume hints (e.g. ``" --server URL"``).
    """
    _print_job(record)
    if record.finished:
        _print_job_report(record)
    if expect_digest:
        if not record.finished:
            print(f"job not finished (status {record.status}); cannot verify "
                  f"digest — resume it with: repro jobs resume "
                  f"{record.job_id}{resume_suffix}")
            return 1
        if record.digest != expect_digest:
            print(f"digest mismatch: got {record.digest}, "
                  f"expected {expect_digest}")
            return 1
    if not record.finished:
        print(f"resume with: python -m repro jobs resume "
              f"{record.job_id}{resume_suffix}")
    return 0


class _WireJobView:
    """A /v1 job payload duck-typed as the JobRecord fields the jobs
    epilogue renders, so local and remote output share one code path."""

    def __init__(self, payload: dict):
        self.job_id = payload["job"]
        self.kind = payload["kind"]
        self.status = payload["status"]
        self.done_chunks = payload["chunks_done"]
        self.n_chunks = payload["chunks"]
        self.digest = payload.get("digest")
        self.report = payload.get("report")

    @property
    def finished(self) -> bool:
        return self.status == "done"


def _cmd_jobs_remote(args: argparse.Namespace) -> int:
    """The jobs subcommands against a remote server's durable store."""
    from repro.client import ClientError

    for flag in ("store", "max_chunks"):  # the server owns both
        if getattr(args, flag, None) is not None:
            raise SystemExit(f"--{flag.replace('_', '-')} only applies "
                             "without --server")

    def on_event(event: dict) -> None:
        if event.get("event") == "progress":
            print(f"  chunks {event['chunks_done']}/{event['chunks']} "
                  f"({event['status']})")

    try:
        with _client(args) as client:
            if args.jobs_command == "list":
                shown = 0
                for payload in client.iter_jobs():
                    _print_job(_WireJobView(payload))
                    shown += 1
                if not shown:
                    print(f"no jobs recorded on {args.server}")
                return 0
            if args.jobs_command == "status":
                record = _WireJobView(client.job(args.job_id))
                _print_job(record)
                if args.report and record.finished:
                    _print_job_report(record)
                return 0
            if args.jobs_command == "run":
                spec = _simulation_spec(args)
                submitted = client.submit_simulation(
                    spec, shards=args.shards, chunks=args.chunks,
                    fleet=args.fleet,
                )
                where = "fleet queue" if args.fleet else args.server
                print(f"submitted job {submitted['job']} "
                      f"({submitted['chunks']} chunks, on {where})")
                job_id = submitted["job"]
            else:  # resume
                client.resume_job(args.job_id, shards=args.shards,
                                  fleet=args.fleet)
                job_id = args.job_id
            # Server-side jobs can legitimately run for hours; the wait
            # mirrors the local executor's behaviour (block until done).
            final = client.wait_job(job_id, timeout=86400.0,
                                    on_event=on_event)
    except TimeoutError:
        print(f"job {job_id} is still running on {args.server}; check it "
              f"with: python -m repro jobs status {job_id} "
              f"--server {args.server}")
        return 1
    except ClientError as exc:
        raise SystemExit(str(exc)) from None
    return _finish_job_command(_WireJobView(final), args.expect_digest,
                               resume_suffix=f" --server {args.server}")


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.jobs import FleetExecutor, ShardedExecutor

    fleet = getattr(args, "fleet", False)
    if args.server:
        return _cmd_jobs_remote(args)

    store = _job_store(args)
    if args.jobs_command == "list":
        records = store.jobs()
        if not records:
            print(f"no jobs recorded in {store.path}")
        for record in records:
            _print_job(record)
        return 0
    if args.jobs_command == "status":
        try:
            record = store.get(args.job_id)
        except KeyError as exc:
            raise SystemExit(str(exc).strip("'\"")) from None
        _print_job(record)
        if args.report and record.finished:
            _print_job_report(record)
        return 0

    if fleet:
        # Coordinate through the shared store file: a `repro serve
        # --job-store` process on the same path serves the lease routes,
        # so this CLI invocation only watches the queue drain and merges.
        executor = FleetExecutor(store, max_chunks=args.max_chunks)
    else:
        executor = ShardedExecutor(
            store, shards=args.shards, max_chunks=args.max_chunks
        )
    if args.jobs_command == "run":
        spec = _simulation_spec(args)
        record = executor.submit(spec, chunks=args.chunks)
        where = "fleet queue" if fleet else f"{args.shards or 'all'} shards"
        print(f"submitted job {record.job_id} "
              f"({record.n_chunks} chunks, {where}, "
              f"store {store.path})")
        job_id = record.job_id
    else:  # resume
        job_id = args.job_id
    try:
        record = executor.run(job_id)
    except KeyError as exc:
        raise SystemExit(str(exc).strip("'\"")) from None
    return _finish_job_command(record, args.expect_digest)


def _parse_prometheus(text: str) -> list[dict]:
    """Group a Prometheus text exposition into renderable families."""
    families: dict[str, dict] = {}

    def family(name: str) -> dict:
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base.removesuffix(suffix) in families:
                base = base.removesuffix(suffix)
                break
        return families.setdefault(
            base, {"name": base, "help": "", "kind": "", "series": []}
        )

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            family(name)["help"] = help_text
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            family(name)["kind"] = kind
        elif not line.startswith("#"):
            sample, _, value = line.rpartition(" ")
            name = sample.partition("{")[0]
            family(name)["series"].append((sample, value))
    return list(families.values())


def _cmd_obs(args: argparse.Namespace) -> int:
    if not args.server:
        raise SystemExit(
            "repro obs inspects a live deployment; pass --server URL "
            "(an in-process registry would only describe this one-shot "
            "CLI process)"
        )
    with _client(args) as client:
        text = client.metrics_text()
        spans = client.traces(limit=10000) if args.traces > 0 else []
    if args.raw:
        print(text, end="")
    else:
        print(f"metrics from {args.server}:")
        for fam in _parse_prometheus(text):
            if not fam["series"]:
                continue
            line = f"\n{fam['name']} ({fam['kind'] or 'untyped'})"
            if fam["help"]:
                line += f" — {fam['help']}"
            print(line)
            for sample, value in fam["series"]:
                print(f"  {sample}  {value}")
    if args.traces > 0:
        print(f"\nlast {min(args.traces, len(spans))} of {len(spans)} "
              f"buffered spans:")
        for record in spans[-args.traces:]:
            attrs = ",".join(f"{k}={v}" for k, v in
                             sorted(record.get("attrs", {}).items()))
            print(f"  seq={record['seq']} {record['name']} "
                  f"trace={record['trace_id']} "
                  f"duration={record['duration']:.6f}s"
                  + (f" [{attrs}]" if attrs else ""))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import run_server

    return run_server(
        args.host,
        args.port,
        idle_ttl=args.idle_ttl,
        max_sessions=args.max_sessions,
        job_store=args.job_store,
        shards=args.shards,
        drain_timeout=args.drain_timeout,
        eviction_interval=args.eviction_interval,
        http_workers=args.http_workers,
        verbose=args.verbose,
        join=args.join,
        capacity=args.capacity,
        worker_url=args.worker_url,
        lease_ttl=args.lease_ttl,
        heartbeat_ttl=args.heartbeat_ttl,
    )


def _cmd_fleet(args: argparse.Namespace) -> int:
    """``repro fleet status`` — the coordinator's elastic-worker view."""
    if not args.server:
        raise SystemExit(
            "repro fleet status inspects a live coordinator; pass "
            "--server URL"
        )
    with _client(args) as client:
        status = client.fleet_status()
    workers = status["workers"]
    leases = status["leases"]
    print(f"fleet at {args.server}: {len(workers)} worker(s), "
          f"{len(leases)} active lease(s), queue depth {status['queue']} "
          f"(lease_ttl {status['lease_ttl']}s, "
          f"heartbeat_ttl {status['heartbeat_ttl']}s)")
    for row in workers:
        load = row.get("load") or {}
        labels = ",".join(f"{k}={v}" for k, v in
                          sorted(row.get("labels", {}).items()))
        print(f"  {row['worker']} {row['status']:<5} {row['url']} "
              f"capacity={row['capacity']} "
              f"load={load.get('chunks', '?')} chunk(s)"
              + (f" [{labels}]" if labels else ""))
    for lease in leases:
        print(f"  lease {lease['job']}#{lease['chunk']} -> "
              f"{lease['worker']} (deadline {lease['deadline']:.0f})")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments import format_table, table2_rows, table3_rows, table4_rows

    if args.number == 2:
        headers, rows = table2_rows()
        title = "Table 2: dataset statistics"
    elif args.number == 3:
        headers, rows = table3_rows(args.dataset)
        title = f"Table 3: bargaining cost ({args.dataset}, RF)"
    else:
        headers, rows = table4_rows(args.dataset, args.model)
        title = f"Table 4: imperfect vs perfect ({args.dataset}, {args.model})"
    print(format_table(headers, rows, title=title))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ascii_chart,
        figure1_series,
        figure23_series,
        figure4_series,
        write_figure_csvs,
    )

    if args.number == 1:
        fig = figure1_series()
        print(ascii_chart({"payment": fig["payment"]},
                          title="Figure 1a: payment vs dG", x_label="dG"))
        print(ascii_chart({"net profit": fig["net_profit"]},
                          title="Figure 1b: net profit vs dG", x_label="dG"))
    elif args.number in (2, 3):
        model = "random_forest" if args.number == 2 else "mlp"
        fig = figure23_series(args.dataset, model)
        for field in ("net_profit", "payment", "delta_g"):
            series = {
                label: variant["curves"][field]["mean"]
                for label, variant in fig["variants"].items()
            }
            print(ascii_chart(
                series,
                title=f"Figure {args.number} ({args.dataset}, {model}): {field}",
            ))
    else:
        fig = figure4_series(args.dataset, "random_forest")
        print(ascii_chart(
            {"Task Party": fig["task_mse"], "Data Party": fig["data_mse"]},
            title=f"Figure 4 ({args.dataset}, RF): estimator MSE",
        ))
    if args.csv_dir:
        write_figure_csvs(args.number, fig, args.csv_dir)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw[:1] == ["lint"]:
        # Hand everything after `lint` to the lint driver verbatim.
        # argparse's REMAINDER refuses option-like first tokens
        # (`repro lint --select ...`), so the passthrough cannot go
        # through the main parser.
        from repro.analysis import main as lint_main

        return lint_main(raw[1:])
    args = build_parser().parse_args(argv)
    if args.command == "bargain":
        with _tracing(args, "cli:bargain"):
            return _cmd_bargain(args)
    if args.command == "simulate":
        with _tracing(args, "cli:simulate"):
            return _cmd_simulate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "jobs":
        with _tracing(args, f"cli:jobs-{args.jobs_command}"):
            return _cmd_jobs(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "obs":
        try:
            return _cmd_obs(args)
        except BrokenPipeError:
            return 0  # scrape piped into head/grep closed early
    if args.command == "lint":
        from repro.analysis import main as lint_main

        return lint_main(args.lint_args)
    if args.command == "table":
        return _cmd_table(args)
    return _cmd_figure(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
