"""Lint driver: discovery, baselines, deterministic output, exit codes.

The contract CI and pre-commit hooks rely on:

* exit ``0`` — no findings (clean tree, or everything baselined);
* exit ``1`` — at least one non-baselined finding;
* exit ``2`` — the linter itself failed (unreadable baseline, crashing
  rule, bad arguments) — distinct from ``1`` so a hook can tell "fix
  your code" from "fix the linter".

Output is byte-stable across runs: findings sort by
``(path, line, col, rule)``, JSON serialises with sorted keys, and
nothing emits a timestamp, hostname or absolute path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

from repro.analysis.core import (
    Finding,
    LintRule,
    ModuleContext,
    RULES,
    resolve_selection,
    run_rules,
)

__all__ = [
    "Baseline",
    "LintResult",
    "discover_files",
    "lint_paths",
    "main",
    "render_json",
    "render_text",
]

#: Directories never descended into.  ``tests`` is excluded because
#: test fixtures *deliberately* violate rules (the lock-cycle fixture
#: package exists to be caught); lint them explicitly when needed.
EXCLUDED_DIRS = frozenset({
    ".git", "__pycache__", ".pytest_cache", ".mypy_cache", ".ruff_cache",
    "node_modules", ".venv", "venv", "build", "dist", "tests",
    ".oracle-cache", "results",
})

#: Default lint surface, relative to the repo root: everything that
#: ships or measures behaviour.  (``tests/`` is linted by its own
#: suite's fixtures, not by default.)
DEFAULT_PATHS = ("src", "benchmarks", "examples", "scripts")


class LintInternalError(Exception):
    """A failure of the linter itself (exit code 2)."""


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    rules: tuple[str, ...] = ()


@dataclass(frozen=True)
class Baseline:
    """A committed set of accepted-for-now finding fingerprints.

    The file is JSON: ``{"version": 1, "findings": [{"fingerprint":
    ..., "rule": ..., "path": ..., "message": ...}, ...]}`` — the
    redundant fields exist so a reviewer can read what was waived
    without recomputing hashes.  An empty baseline is the goal state;
    this repo ships one.
    """

    fingerprints: frozenset[str] = frozenset()

    @classmethod
    def load(cls, path: str) -> "Baseline":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            raise LintInternalError(f"baseline file {path!r} does not exist") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise LintInternalError(f"unreadable baseline {path!r}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("version") != 1:
            raise LintInternalError(
                f"baseline {path!r} is not a version-1 baseline file"
            )
        entries = payload.get("findings", [])
        if not isinstance(entries, list):
            raise LintInternalError(f"baseline {path!r}: findings must be a list")
        prints: set[str] = set()
        for entry in entries:
            if not isinstance(entry, dict) or "fingerprint" not in entry:
                raise LintInternalError(
                    f"baseline {path!r}: every entry needs a fingerprint"
                )
            prints.add(str(entry["fingerprint"]))
        return cls(fingerprints=frozenset(prints))

    @staticmethod
    def render(findings: Iterable[Finding]) -> str:
        """Serialise ``findings`` as a baseline file (sorted, stable)."""
        entries = sorted(
            (
                {
                    "fingerprint": f.fingerprint(),
                    "rule": f.rule,
                    "path": f.path,
                    "message": f.message,
                }
                for f in findings
            ),
            key=lambda e: (str(e["path"]), str(e["rule"]), str(e["fingerprint"])),
        )
        return json.dumps(
            {"version": 1, "findings": entries}, indent=2, sort_keys=True
        ) + "\n"


def discover_files(paths: Sequence[str], root: str = ".") -> list[str]:
    """Every ``.py`` file under ``paths`` (repo-relative, sorted).

    A path may be a file or a directory; missing paths are an internal
    error (a CI job pointing at a renamed directory must fail loudly,
    not silently lint nothing).
    """
    files: set[str] = set()
    for path in paths:
        full = os.path.join(root, path)
        if os.path.isfile(full):
            files.add(os.path.normpath(full))
            continue
        if not os.path.isdir(full):
            raise LintInternalError(f"lint path {path!r} does not exist")
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = sorted(
                d for d in dirnames if d not in EXCLUDED_DIRS
            )
            for name in filenames:
                if name.endswith(".py"):
                    files.add(os.path.normpath(os.path.join(dirpath, name)))
    return sorted(files)


def _relative(path: str, root: str) -> str:
    rel = os.path.relpath(path, root)
    return rel.replace(os.sep, "/")


def lint_paths(
    paths: Sequence[str] | None = None,
    *,
    root: str = ".",
    select: Iterable[str] | None = None,
    baseline: Baseline | None = None,
) -> LintResult:
    """Lint ``paths`` (default: the standard surface) under ``root``."""
    try:
        selection = resolve_selection(select)
    except ValueError as exc:
        raise LintInternalError(str(exc)) from exc
    result = LintResult(rules=selection)
    findings: list[Finding] = []
    for filename in discover_files(paths or DEFAULT_PATHS, root):
        rel = _relative(filename, root)
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise LintInternalError(f"cannot read {rel}: {exc}") from exc
        result.files_checked += 1
        try:
            ctx = ModuleContext.from_source(source, rel)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=rel,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule="LNT001",
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        try:
            findings.extend(run_rules(ctx, selection))
        except RecursionError as exc:  # pragma: no cover - defensive
            raise LintInternalError(f"rule crashed on {rel}: {exc}") from exc
    if baseline is not None:
        kept: list[Finding] = []
        for finding in findings:
            if finding.fingerprint() in baseline.fingerprints:
                result.suppressed += 1
            else:
                kept.append(finding)
        findings = kept
    result.findings = sorted(findings)
    return result


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_text(result: LintResult) -> str:
    lines = [finding.render() for finding in result.findings]
    summary = (
        f"{len(result.findings)} finding(s) in {result.files_checked} "
        f"file(s) [{len(result.rules)} rule(s)"
    )
    if result.suppressed:
        summary += f", {result.suppressed} baselined"
    summary += "]"
    lines.append(summary)
    return "\n".join(lines) + "\n"


def render_json(result: LintResult) -> str:
    payload = {
        "version": 1,
        "files_checked": result.files_checked,
        "rules": list(result.rules),
        "suppressed": result.suppressed,
        "findings": [finding.to_dict() for finding in result.findings],
        "count": len(result.findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _rule_table() -> str:
    lines = []
    for rule_id in RULES.names():
        rule = RULES.get(rule_id)
        assert isinstance(rule, LintRule)
        lines.append(f"{rule.id}  {rule.name:28s} {rule.summary}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Determinism + concurrency static analysis over the repro "
            "source tree (exit 0 clean / 1 findings / 2 internal error)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is byte-stable for CI artifacts)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="suppress findings whose fingerprints appear in this file",
    )
    parser.add_argument(
        "--write-baseline", metavar="FILE", default=None,
        help="write the current findings as a baseline file and exit 0",
    )
    parser.add_argument(
        "--select", metavar="RULE[,RULE...]", default=None,
        help="run only these rules (ids like DET001 or names like "
             "unseeded-rng)",
    )
    parser.add_argument(
        "--root", metavar="DIR", default=".",
        help="repository root paths are resolved against (default: cwd)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None, *, stdout: TextIO | None = None,
         stderr: TextIO | None = None) -> int:
    """Entry point behind ``python -m repro lint``; returns 0/1/2."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = build_parser().parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches our contract;
        # --help exits 0.
        return int(exc.code or 0)
    if args.list_rules:
        out.write(_rule_table())
        return 0
    select = args.select.split(",") if args.select else None
    try:
        baseline = Baseline.load(args.baseline) if args.baseline else None
        result = lint_paths(
            args.paths or None,
            root=args.root,
            select=select,
            baseline=baseline,
        )
    except LintInternalError as exc:
        err.write(f"repro lint: error: {exc}\n")
        return 2
    except Exception as exc:  # pragma: no cover - defensive catch-all
        err.write(f"repro lint: internal error: {exc!r}\n")
        return 2
    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            handle.write(Baseline.render(result.findings))
        out.write(
            f"wrote {len(result.findings)} finding(s) to "
            f"{args.write_baseline}\n"
        )
        return 0
    out.write(render_text(result) if args.format == "text"
              else render_json(result))
    return 1 if result.findings else 0
