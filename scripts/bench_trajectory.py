#!/usr/bin/env python
"""Fold benchmarks/results/*.json into the PR-gating BENCH_trajectory.json.

Usage::

    # After running the benchmarks (pytest benchmarks/ ...):
    python scripts/bench_trajectory.py --label pr9

    # CI regression gate (read-only; exits 1 on a violated floor or a
    # regression beyond the noise band vs the previous entry):
    python scripts/bench_trajectory.py --check

Each fold appends (or, for an existing label, replaces) one entry in
``BENCH_trajectory.json`` at the repo root.  An entry records the four
pinned architectural floors the ROADMAP gates PRs on —

========  ==========================  =====================  ======
name      source result               claim                  floor
========  ==========================  =====================  ======
sim       population_sim.json         SessionPool vs naive   >= 20x
oracle    oracle_build.json           factory vs serial      >=  3x
sessions  service_sessions.json       SessionManager vs      >=  5x
                                      per-session build
shards    sharded_jobs.json           4-shard jobs vs        >=  2x
                                      single process         (cores)
========  ==========================  =====================  ======

— plus every ``benchmarks/results/*.json`` reduced to its scalar
fields (a floor result minus its speedup and floor), under
``extras``.  The file is schema-stable: fixed field set, keys sorted,
2-space indent, trailing newline, so a re-fold with identical inputs
is byte-identical.

The label is an argument, never a timestamp: this script is covered by
the determinism lint (``repro lint``) and deliberately reads no clock.
CI passes the commit SHA; local runs pass whatever they like.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
TRAJECTORY = REPO_ROOT / "BENCH_trajectory.json"
SCHEMA_VERSION = 1

#: The four pinned floors: name -> (results file, speedup key, floor key).
#: A ``None`` floor recorded in the result (sharded jobs on a 1-core
#: box) means the floor is not asserted on that hardware.
FLOORS = {
    "sim": ("population_sim.json", "speedup", "floor"),
    "oracle": ("oracle_build.json", "speedup", "speedup_floor"),
    "sessions": ("service_sessions.json", "speedup", "floor"),
    "shards": ("sharded_jobs.json", "speedup", "floor"),
}

#: Default tolerated speedup drop vs the previous entry before --check
#: calls it a regression.  Speedups are ratios of two timed runs on
#: shared runners, so run-to-run scatter is real; the floors stay the
#: hard lower bound regardless.
DEFAULT_NOISE_BAND = 0.35


def _load(path: pathlib.Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise SystemExit(f"{path}: expected a JSON object")
    return payload


def _scalars(payload: dict) -> dict:
    return {
        key: value
        for key, value in payload.items()
        if isinstance(value, (int, float, str, bool)) or value is None
    }


def build_entry(label: str, results_dir: pathlib.Path) -> dict:
    """One trajectory entry from whatever results are on disk."""
    floors: dict = {}
    extras = {
        path.stem: _scalars(_load(path))
        for path in sorted(results_dir.glob("*.json"))
    }
    for name, (filename, speedup_key, floor_key) in sorted(FLOORS.items()):
        path = results_dir / filename
        if not path.exists():
            continue
        payload = extras.pop(path.stem)
        floors[name] = {
            "floor": payload.pop(floor_key, None),
            "source": filename,
            "speedup": float(payload.pop(speedup_key)),
        }
        if payload:  # absolute figures recorded beside the ratio
            extras[path.stem] = payload
    return {"extras": extras, "floors": floors, "label": label}


def load_trajectory(path: pathlib.Path) -> dict:
    if not path.exists():
        return {"entries": [], "schema": SCHEMA_VERSION}
    trajectory = _load(path)
    trajectory.setdefault("entries", [])
    trajectory.setdefault("schema", SCHEMA_VERSION)
    return trajectory


def fold(label: str, results_dir: pathlib.Path, target: pathlib.Path) -> dict:
    entry = build_entry(label, results_dir)
    if not entry["floors"]:
        raise SystemExit(
            f"no floor results under {results_dir} — run the benchmarks "
            "first (pytest benchmarks/bench_population_sim.py "
            "benchmarks/bench_oracle_build.py "
            "benchmarks/bench_service_sessions.py "
            "benchmarks/bench_sharded_jobs.py -s)"
        )
    trajectory = load_trajectory(target)
    entries = [e for e in trajectory["entries"] if e.get("label") != label]
    entries.append(entry)
    trajectory["entries"] = entries
    target.write_text(
        json.dumps(trajectory, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return entry


def check(target: pathlib.Path, noise_band: float) -> list[str]:
    """Gate the latest entry; returns human-readable violations."""
    trajectory = load_trajectory(target)
    entries = trajectory["entries"]
    if not entries:
        return [f"{target.name}: no entries — fold a benchmark run first"]
    latest = entries[-1]
    previous = entries[-2] if len(entries) > 1 else None
    problems = []
    for name in sorted(FLOORS):
        record = latest["floors"].get(name)
        if record is None:
            problems.append(
                f"{latest['label']}: floor '{name}' missing "
                f"(no {FLOORS[name][0]} in the folded run)"
            )
            continue
        speedup, floor = record["speedup"], record["floor"]
        if floor is not None and speedup < float(floor):
            problems.append(
                f"{latest['label']}: {name} speedup {speedup:.2f}x is "
                f"below its pinned {float(floor):.1f}x floor"
            )
        if previous is None:
            continue
        prior = previous["floors"].get(name)
        if prior is None:
            continue
        allowed = prior["speedup"] * (1.0 - noise_band)
        if speedup < allowed:
            problems.append(
                f"{latest['label']}: {name} speedup {speedup:.2f}x regressed "
                f"beyond the {noise_band:.0%} noise band vs "
                f"{previous['label']} ({prior['speedup']:.2f}x; "
                f"allowed >= {allowed:.2f}x)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fold benchmark results into BENCH_trajectory.json "
        "and/or gate it"
    )
    parser.add_argument("--label",
                        help="entry label (e.g. the commit SHA); required "
                        "unless --check runs alone")
    parser.add_argument("--results-dir", default=str(RESULTS_DIR),
                        help="directory of benchmark result JSON files")
    parser.add_argument("--output", default=str(TRAJECTORY),
                        help="trajectory file to append to / gate")
    parser.add_argument("--check", action="store_true",
                        help="gate the latest entry against the pinned "
                        "floors and the previous entry's noise band")
    parser.add_argument("--noise-band", type=float,
                        default=DEFAULT_NOISE_BAND,
                        help="tolerated fractional speedup drop vs the "
                        "previous entry (default %(default)s)")
    args = parser.parse_args(argv)

    target = pathlib.Path(args.output)
    if args.label:
        entry = fold(args.label, pathlib.Path(args.results_dir), target)
        for name in sorted(entry["floors"]):
            record = entry["floors"][name]
            floor = record["floor"]
            floor_text = (
                f"{float(floor):.1f}x floor" if floor is not None
                else "floor not asserted"
            )
            print(f"folded {name:<8} {record['speedup']:6.2f}x "
                  f"({floor_text}; {record['source']})")
        print(f"wrote {target} ({len(load_trajectory(target)['entries'])} "
              "entries)")
    elif not args.check:
        parser.error("nothing to do: pass --label to fold, --check to gate")

    if args.check:
        problems = check(target, args.noise_band)
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        if problems:
            return 1
        latest = load_trajectory(target)["entries"][-1]
        print(f"trajectory gate ok: entry '{latest['label']}' holds all "
              f"{len(latest['floors'])} recorded floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
