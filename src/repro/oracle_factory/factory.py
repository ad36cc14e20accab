"""The oracle build scheduler: shared binning, workers, cache, report.

:func:`build_oracle` is the fast engine behind
:meth:`repro.market.oracle.PerformanceOracle.build`.  It plans the
``(bundle, repeat)`` course grid, answers what it can from the
persistent :class:`~repro.oracle_factory.cache.GainCache`, executes the
rest — serially in-process, or fanned out over a
:class:`~concurrent.futures.ProcessPoolExecutor` at **per-bundle
granularity** (each task carries its bundle's missing repeats, so one
worker amortises the course design over them; the few isolated
baselines run in the parent) — and assembles the oracle plus a
:class:`BuildReport` with per-bundle timings and cache accounting.

Course seeds are derived per ``(seed, repeat)`` exactly as the serial
reference path derives them, and each course's RNG stream is keyed by
its bundle, so results are independent of execution order and worker
count: ``jobs=8`` produces the same oracle as ``jobs=1``, which
produces the same oracle as the seed serial loop.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.data.partition import PartitionedDataset
from repro.market.bundle import FeatureBundle
from repro.market.oracle import PerformanceOracle, repeat_course_seeds
from repro.oracle_factory.cache import CacheStats, DatasetRecipe, GainCache
from repro.oracle_factory.course import FastForestCourse
from repro.oracle_factory.designs import SharedDesigns
from repro.utils.rng import spawn
from repro.utils.validation import require
from repro.vfl.runner import resolve_model_params, run_vfl

__all__ = ["BuildReport", "CourseRunner", "build_oracle", "resolve_jobs"]

#: Build telemetry: course-level cache effectiveness and end-to-end
#: build latency.  Mirrors the per-build :class:`CacheStats`/
#: :class:`BuildReport` accounting as process-lifetime aggregates a
#: scrape can watch.
_CACHE_COURSES = obs.REGISTRY.counter(
    "repro_oracle_cache_courses_total",
    "Course lookups against the persistent gain cache, by result.",
    ("result",),
)
_BUILD_SECONDS = obs.REGISTRY.histogram(
    "repro_oracle_build_seconds",
    "End-to-end build_oracle latency (monotonic, seconds).",
)


def resolve_jobs(jobs: int | None) -> int:
    """``None``/``0`` -> all cores; otherwise at least 1 worker.

    Deliberately not clamped to the core count: oversubscription is
    harmless (results are identical for every ``jobs``), and the pool
    path stays exercisable on single-core machines.
    """
    if not jobs:
        return os.cpu_count() or 1
    return max(1, int(jobs))


@dataclass
class BuildReport:
    """What one oracle build did and how long each part took."""

    base_model: str
    n_bundles: int
    n_repeats: int
    jobs: int
    elapsed: float = 0.0
    courses_run: int = 0
    courses_cached: int = 0
    cache_stats: CacheStats | None = None
    bundle_seconds: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form (CI uploads this as a perf artifact)."""
        payload = {
            "base_model": self.base_model,
            "n_bundles": self.n_bundles,
            "n_repeats": self.n_repeats,
            "jobs": self.jobs,
            "elapsed_seconds": self.elapsed,
            "courses_run": self.courses_run,
            "courses_cached": self.courses_cached,
            "bundle_seconds": dict(self.bundle_seconds),
        }
        if self.cache_stats is not None:
            payload["cache"] = self.cache_stats.as_dict()
        return payload

    def summary(self) -> str:
        """One-line human-readable digest."""
        parts = [
            f"oracle build: {self.n_bundles} bundles x {self.n_repeats} repeats",
            f"{self.courses_run} courses run",
            f"{self.courses_cached} cached",
            f"jobs={self.jobs}",
            f"{self.elapsed:.2f}s",
        ]
        if self.cache_stats is not None:
            parts.append(
                f"cache {self.cache_stats.hits} hits / "
                f"{self.cache_stats.misses} misses"
            )
        return " | ".join(parts)


class CourseRunner:
    """Executes individual courses for one build configuration.

    Shared by the in-process serial path and by each pool worker (one
    instance per process, built once, amortising the shared binning over
    every course the process runs).
    """

    def __init__(
        self,
        dataset: PartitionedDataset,
        base_model: str,
        params: dict,
        repeat_seeds: list[object],
    ):
        self.dataset = dataset
        self.base_model = base_model
        self.params = dict(params)
        self.repeat_seeds = list(repeat_seeds)
        self.shared: SharedDesigns | None = None
        if base_model == "random_forest":
            self.shared = SharedDesigns(dataset, max_bins=params["max_bins"])

    # ------------------------------------------------------------------
    def _fast_course(self, bundle: tuple[int, ...] | None, seed: object) -> float:
        """Run one forest course on the shared designs; returns accuracy."""
        assert self.shared is not None
        role = "isolated" if bundle is None else "joint"
        keys = (seed, self.dataset.name, self.base_model, role)
        if bundle is not None:
            keys = (*keys, bundle)
        course = FastForestCourse(
            self.shared.course_design(bundle),
            self.shared.y_train,
            n_estimators=self.params["n_estimators"],
            max_depth=self.params["max_depth"],
            min_samples_leaf=self.params["min_samples_leaf"],
            max_features=self.params["max_features"],
            rng=spawn(*keys),
        )
        course.fit()
        return course.score_binned(
            self.shared.course_test_codes(bundle), self.shared.y_test
        )

    def isolated(self, repeat: int) -> float:
        """M0 of one repeat (the task party training alone)."""
        seed = self.repeat_seeds[repeat]
        if self.shared is not None:
            return self._fast_course(None, seed)
        from repro.vfl.runner import isolated_performance

        return isolated_performance(
            self.dataset,
            base_model=self.base_model,
            model_params=self.params,
            seed=seed,
        )

    def joint(self, bundle: tuple[int, ...], repeat: int) -> float:
        """Joint accuracy M of one ``(bundle, repeat)`` course."""
        seed = self.repeat_seeds[repeat]
        if self.shared is not None:
            return self._fast_course(tuple(bundle), seed)
        result = run_vfl(
            self.dataset,
            bundle,
            base_model=self.base_model,
            model_params=self.params,
            seed=seed,
            m0=1.0,  # ΔG is recomputed by the factory; only M is used
        )
        return result.performance_joint


# ----------------------------------------------------------------------
# Process-pool plumbing: one CourseRunner per worker process.
# ----------------------------------------------------------------------
_WORKER_RUNNER: CourseRunner | None = None


def _worker_init(
    dataset: PartitionedDataset,
    base_model: str,
    params: dict,
    repeat_seeds: list[object],
) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = CourseRunner(dataset, base_model, params, repeat_seeds)


def _worker_courses(job: tuple[tuple[int, ...], list[int]]):
    bundle, repeats = job
    assert _WORKER_RUNNER is not None
    start = time.perf_counter()
    values = {r: _WORKER_RUNNER.joint(bundle, r) for r in repeats}
    return bundle, values, time.perf_counter() - start


def _label(key: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in key)


def _complete(entry: dict, bundles: list[FeatureBundle], n_repeats: int) -> bool:
    """Whether ``entry`` holds every course of the build (nothing to run)."""
    repeats = [str(r) for r in range(n_repeats)]
    stored = [entry["isolated"]] + [
        entry["bundles"].get(_label(b.indices), {}) for b in bundles
    ]
    return all(r in courses for courses in stored for r in repeats)


def build_oracle(
    dataset: PartitionedDataset | DatasetRecipe,
    bundles: list[FeatureBundle],
    *,
    base_model: str = "random_forest",
    model_params: dict | None = None,
    seed: object = 0,
    n_repeats: int = 1,
    jobs: int = 1,
    cache: GainCache | None = None,
) -> tuple[PerformanceOracle, BuildReport]:
    """Build a :class:`PerformanceOracle`, fast.

    Parameters beyond the reference path:

    jobs:
        Worker processes for course execution (``None``/``0`` = all
        cores).  Results are identical for every value.
    cache:
        A :class:`GainCache`, or ``None`` to disable persistence.
        Cached courses are never re-run.

    ``dataset`` may be a :class:`DatasetRecipe`: a fully cached build
    then takes its digest from the recipe index and never builds a row.
    A build with courses to run hashes the real rows first and keys the
    cache by that digest.
    """
    require(bool(bundles), "oracle needs at least one bundle")
    require(n_repeats >= 1, "n_repeats must be >= 1")
    start = time.perf_counter()
    # Resolving params validates base_model against the registry, so
    # registered custom models build oracles exactly like the built-ins
    # (they take the run_vfl course path; the fused fast path is RF's).
    params = resolve_model_params(base_model, model_params)
    seeds = repeat_course_seeds(seed, n_repeats)
    jobs = resolve_jobs(jobs)
    stats = CacheStats() if cache is not None else None
    source = (
        dataset if isinstance(dataset, DatasetRecipe) else DatasetRecipe.of(dataset)
    )
    entry = None
    fingerprint = None
    if cache is not None:
        facts = source.describe(cache)
        fingerprint = cache.fingerprint(
            facts, base_model=base_model, model_params=params, seed=seed
        )
        entry = cache.load(fingerprint)
        if not _complete(entry, bundles, n_repeats):
            # Courses will run and be stored: key them by the rows' own
            # digest, never by an index entry that may be stale.
            verified = source.verify(cache)
            if verified != facts:
                fingerprint = cache.fingerprint(
                    verified, base_model=base_model, model_params=params,
                    seed=seed,
                )
                entry = cache.load(fingerprint)

    runner: CourseRunner | None = None

    def get_runner() -> CourseRunner:
        nonlocal runner
        if runner is None:
            runner = CourseRunner(source.dataset, base_model, params, seeds)
        return runner

    report = BuildReport(
        base_model=base_model,
        n_bundles=len(bundles),
        n_repeats=n_repeats,
        jobs=jobs,
    )

    # The cache entry is updated per finished course and persisted in
    # the ``finally`` block below, so an interrupt or worker crash
    # mid-build loses only in-flight courses — never finished ones.
    def record(key: tuple[int, ...], values: dict[int, float], secs: float) -> None:
        joint[key].update(values)
        label = _label(key)
        report.bundle_seconds[label] = secs
        report.courses_run += len(values)
        if entry is not None:
            stored = entry["bundles"].setdefault(label, {})
            for r, value in values.items():
                stored[str(r)] = value

    m0s: list[float] = []
    joint: dict[tuple[int, ...], dict[int, float]] = {}
    try:
        # --- isolated baselines (one per repeat, shared by all bundles) --
        for r in range(n_repeats):
            cached = entry["isolated"].get(str(r)) if entry is not None else None
            if cached is not None:
                stats.hits += 1
                report.courses_cached += 1
                m0s.append(float(cached))
                continue
            if stats is not None:
                stats.misses += 1
            value = get_runner().isolated(r)
            report.courses_run += 1
            m0s.append(value)
            if entry is not None:
                entry["isolated"][str(r)] = value

        # --- plan the (bundle, repeat) course grid -----------------------
        todo: list[tuple[tuple[int, ...], list[int]]] = []
        for bundle in bundles:
            key = bundle.indices
            label = _label(key)
            cached_repeats = (
                entry["bundles"].get(label, {}) if entry is not None else {}
            )
            values: dict[int, float] = {}
            missing: list[int] = []
            for r in range(n_repeats):
                cached = cached_repeats.get(str(r))
                if cached is not None:
                    stats.hits += 1
                    report.courses_cached += 1
                    values[r] = float(cached)
                else:
                    if stats is not None:
                        stats.misses += 1
                    missing.append(r)
            joint[key] = values
            report.bundle_seconds[label] = 0.0
            if missing:
                todo.append((key, missing))

        # --- execute the remaining courses -------------------------------
        if todo:
            if jobs > 1 and len(todo) > 1:
                with ProcessPoolExecutor(
                    max_workers=min(jobs, len(todo)),
                    initializer=_worker_init,
                    initargs=(source.dataset, base_model, params, seeds),
                ) as pool:
                    for key, values, secs in pool.map(_worker_courses, todo):
                        record(key, values, secs)
            else:
                for key, missing in todo:
                    course_runner = get_runner()
                    t0 = time.perf_counter()
                    values = {r: course_runner.joint(key, r) for r in missing}
                    record(key, values, time.perf_counter() - t0)
    finally:
        if cache is not None and fingerprint is not None and report.courses_run:
            cache.store(fingerprint, entry)

    # --- assemble gains exactly like the serial reference path ----------
    gains: dict[FeatureBundle, float] = {}
    for bundle in bundles:
        values = [
            (joint[bundle.indices][r] - m0s[r]) / max(m0s[r], 1e-12)
            for r in range(n_repeats)
        ]
        gains[bundle] = float(np.mean(values))
    oracle = PerformanceOracle(
        bundles, gains, isolated=float(np.mean(m0s)), base_model=base_model
    )
    report.cache_stats = stats
    report.elapsed = time.perf_counter() - start
    oracle.build_report = report
    if stats is not None:
        if stats.hits:
            _CACHE_COURSES.inc(stats.hits, result="hit")
        if stats.misses:
            _CACHE_COURSES.inc(stats.misses, result="miss")
    _BUILD_SECONDS.observe(report.elapsed)
    return oracle, report
