"""Persistent, content-addressed cache of pre-bargaining course results.

The platform's courses are pure functions of ``(data, base model,
resolved params, seed, repeat, bundle)``.  The cache keys a JSON file
per *configuration* — a SHA-256 fingerprint of the dataset name + data
digest, base model, resolved model params, root seed and library cache
version — and stores raw per-repeat performances inside it:

* ``isolated``: repeat index -> M0 (the task party's solo accuracy);
* ``bundles``: bundle label -> repeat index -> joint accuracy M.

Storing raw ``M`` values (not ΔG) keys repeats individually, so a
re-run with a larger ``n_repeats`` reuses every finished repeat and
only trains the new ones.  Floats survive the JSON round-trip exactly
(shortest-repr), so warm-cache oracles are bit-identical to cold ones.

Any change to a key component changes the fingerprint and lands in a
different file — that *is* the invalidation story.  Corrupted or
incompatible files are treated as empty and rewritten.  Writes are
atomic (temp file + ``os.replace``).

**Recipe index.**  The fingerprint needs the data digest, and hashing
rows means synthesising them — for ``adult`` that is ~90% of a warm
market build.  The built-in generators are pure functions of their
recipe, so ``recipes/<key>.json`` beside the course files maps a recipe
to ``{"version", "digest"}``.  The key hashes the cache version, dataset
name, :data:`repro.data.synthetic.GENERATOR_VERSION`, ``repr(seed)``,
the prepared row count and ``numpy.__version__``; changing any of them
misses the index, which then re-synthesises and rewrites the entry.  A
:class:`DatasetRecipe` answers a warm build from the index without
building a row; the data width it needs for the catalogue comes from
the dataset's schema, never from the index.

The content digest stays authoritative: before any course runs, the
build hashes the real rows (:meth:`DatasetRecipe.verify`) and repairs
an index entry that disagrees, so no course is ever stored under a
digest its rows were not hashed to.  Only a registered dataset whose
loader *is* the built-in generator of that name is indexed; every other
loader's builds always hash the rows.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.data import synthetic
from repro.data.partition import PartitionedDataset
from repro.utils.canonical import content_digest

try:  # POSIX-only; on other platforms stores fall back to unlocked merges
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None


@contextlib.contextmanager
def _entry_lock(path: str):
    """Advisory exclusive lock serialising writers of one cache entry."""
    if fcntl is None:
        yield
        return
    lock_path = path + ".lock"
    with open(lock_path, "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)

__all__ = [
    "CacheStats",
    "DatasetFacts",
    "DatasetRecipe",
    "GainCache",
    "dataset_digest",
    "default_cache_dir",
]

# v2: fingerprints hash the library-wide canonical JSON form
# (repro.utils.canonical — compact separators), replacing the ad-hoc
# json.dumps serialisation of v1.  The bump makes the invalidation of
# v1 entries deliberate rather than a silent byproduct.
_CACHE_VERSION = 2


def _well_typed(repeats: object) -> bool:
    """``{repeat_index: numeric course result}`` — nothing else."""
    return isinstance(repeats, dict) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in repeats.values()
    )


def default_cache_dir() -> str:
    """``$REPRO_ORACLE_CACHE`` or ``~/.cache/repro/oracle``."""
    env = os.environ.get("REPRO_ORACLE_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "oracle")


def dataset_digest(dataset: PartitionedDataset) -> str:
    """SHA-256 over the arrays a course actually consumes.

    Covers the party matrices, labels and the train/test row split —
    regenerating a dataset with different rows, preprocessing or
    partitioning changes the digest and therefore the cache key.
    """
    h = hashlib.sha256()
    for arr in (
        dataset.X_task,
        dataset.X_data,
        dataset.y,
        dataset.train_idx,
        dataset.test_idx,
    ):
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class DatasetFacts(NamedTuple):
    """What the gain-cache fingerprint needs to know of a dataset."""

    name: str
    digest: str

    @classmethod
    def of(cls, dataset: PartitionedDataset) -> "DatasetFacts":
        """Facts read off materialised rows (hashes them)."""
        return cls(dataset.name, dataset_digest(dataset))


def _write_json_atomic(path: str, payload: dict) -> None:
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class CacheStats:
    """Hit/miss accounting for one build."""

    hits: int = 0
    misses: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form for reports and JSON artifacts."""
        return {"hits": self.hits, "misses": self.misses}


@dataclass
class GainCache:
    """On-disk course-result cache rooted at ``directory``."""

    directory: str = field(default_factory=default_cache_dir)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def fingerprint(
        dataset: PartitionedDataset | DatasetFacts,
        *,
        base_model: str,
        model_params: dict,
        seed: object,
    ) -> str:
        """Configuration fingerprint (bundle and repeat live inside the file).

        Hashed through the same :func:`repro.utils.canonical.content_digest`
        canonical form as the service layer's spec digests, so every
        content-addressed key in the stack shares one serialisation rule.
        ``dataset`` may be its :class:`DatasetFacts` (a digest already
        known, e.g. from the recipe index): the key is the same.
        """
        if not isinstance(dataset, DatasetFacts):
            dataset = DatasetFacts.of(dataset)
        key = {
            "version": _CACHE_VERSION,
            "dataset": dataset.name,
            "digest": dataset.digest,
            "base_model": base_model,
            "model_params": {k: model_params[k] for k in sorted(model_params)},
            "seed": repr(seed),
        }
        return content_digest(key, length=64)

    @staticmethod
    def recipe_key(name: str, *, seed: object, n_samples: int | None) -> str:
        """Recipe-index key of a built-in dataset (see the module notes)."""
        key = {
            "version": _CACHE_VERSION,
            "dataset": name,
            "generator": synthetic.GENERATOR_VERSION,
            "seed": repr(seed),
            "n_samples": n_samples,
            "numpy": np.__version__,
        }
        return content_digest(key, length=64)

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.directory, fingerprint[:2], f"{fingerprint}.json")

    def _recipe_path(self, key: str) -> str:
        return os.path.join(self.directory, "recipes", f"{key}.json")

    # ------------------------------------------------------------------
    # IO
    # ------------------------------------------------------------------
    def load(self, fingerprint: str) -> dict:
        """The stored entry for ``fingerprint`` (empty skeleton if absent).

        Unreadable, corrupted, version-mismatched, or wrongly-typed
        files are treated as empty — the next :meth:`store` rewrites
        them wholesale.  Validation goes down to the course values, so
        a half-rotted-but-valid-JSON file cannot crash later builds.
        """
        empty = {"version": _CACHE_VERSION, "isolated": {}, "bundles": {}}
        path = self._path(fingerprint)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return empty
        if (
            not isinstance(entry, dict)
            or entry.get("version") != _CACHE_VERSION
            or not _well_typed(entry.get("isolated"))
            or not isinstance(entry.get("bundles"), dict)
            or not all(_well_typed(v) for v in entry["bundles"].values())
        ):
            return empty
        return entry

    def store(self, fingerprint: str, entry: dict) -> None:
        """Atomically persist ``entry``, merging with what is on disk.

        Concurrent builds under the same fingerprint each write only
        courses they ran; merging the current file's results first
        (ours win on overlap — course results are deterministic, so
        overlapping values are equal anyway) keeps last-writer-wins
        from discarding another process's finished courses.  An
        advisory file lock (where the platform provides one) closes the
        load-merge-replace window between concurrent writers.
        """
        path = self._path(fingerprint)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with _entry_lock(path):
            self._merge_and_replace(fingerprint, entry)

    def _merge_and_replace(self, fingerprint: str, entry: dict) -> None:
        current = self.load(fingerprint)
        merged_isolated = {**current["isolated"], **entry["isolated"]}
        merged_bundles = {
            label: {**current["bundles"].get(label, {}), **repeats}
            for label, repeats in entry["bundles"].items()
        }
        for label, repeats in current["bundles"].items():
            merged_bundles.setdefault(label, repeats)
        entry = {
            "version": _CACHE_VERSION,
            "isolated": merged_isolated,
            "bundles": merged_bundles,
        }
        _write_json_atomic(self._path(fingerprint), entry)

    def lookup_recipe(self, key: str) -> str | None:
        """The dataset digest indexed under recipe ``key``, or ``None``.

        A missing, unreadable or malformed entry is a miss: the caller
        re-synthesises and :meth:`store_recipe` rewrites it.
        """
        try:
            with open(self._recipe_path(key), encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(entry, dict) or entry.get("version") != _CACHE_VERSION:
            return None
        digest = entry.get("digest")
        if not isinstance(digest, str) or len(digest) != 64:
            return None
        return digest

    def store_recipe(self, key: str, digest: str) -> None:
        """Atomically record the digest of what recipe ``key`` synthesises."""
        path = self._recipe_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _write_json_atomic(path, {"version": _CACHE_VERSION, "digest": digest})


@dataclass(eq=False)
class DatasetRecipe:
    """A prepared dataset named by how it is made; rows are built on demand.

    ``loader(seed=seed)`` synthesises the raw table and ``prepare`` keeps
    ``n_samples`` rows of it (all when ``None``).  When ``loader`` is the
    built-in generator registered under ``name`` — the only rows
    :data:`repro.data.synthetic.GENERATOR_VERSION` vouches for — the
    recipe is indexed: its width comes from the schema and
    :meth:`describe` answers from the gain cache's recipe index, neither
    synthesising a row.  Two threads reading :attr:`dataset` at once may
    both build it; the rows are identical, so either result serves.
    """

    name: str
    loader: Callable | None
    seed: object = 0
    n_samples: int | None = None
    _dataset: PartitionedDataset | None = field(default=None, repr=False)
    _digest: str | None = field(default=None, repr=False)
    _width: int | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._width = synthetic.builtin_data_width(self.name, self.loader)

    @classmethod
    def of(cls, dataset: PartitionedDataset) -> "DatasetRecipe":
        """Already materialised rows (the content path, never indexed)."""
        return cls(dataset.name, None, _dataset=dataset)

    @property
    def dataset(self) -> PartitionedDataset:
        """The prepared rows, synthesised on first read."""
        if self._dataset is None:
            assert self.loader is not None  # of() always sets _dataset
            raw = self.loader(seed=self.seed)
            self._dataset = raw.prepare(seed=self.seed, n_subsample=self.n_samples)
        return self._dataset

    @property
    def d_data(self) -> int:
        """Data-party width: the schema's when indexed, else the rows'."""
        return self._width if self._width is not None else self.dataset.d_data

    def _key(self) -> str:
        return GainCache.recipe_key(
            self.name, seed=self.seed, n_samples=self.n_samples
        )

    def describe(self, cache: GainCache | None) -> DatasetFacts:
        """The dataset's facts: indexed when known, else hashed from rows."""
        if self._digest is None and self._width is not None and cache is not None:
            digest = cache.lookup_recipe(self._key())
            if digest is not None:
                return DatasetFacts(self.name, digest)
        return self.verify(cache)

    def verify(self, cache: GainCache | None) -> DatasetFacts:
        """Facts hashed from the real rows; the index is made to agree."""
        if self._digest is None:
            self._digest = dataset_digest(self.dataset)
            if self._width is not None and cache is not None:
                key = self._key()
                if cache.lookup_recipe(key) != self._digest:
                    cache.store_recipe(key, self._digest)
        return DatasetFacts(self.name, self._digest)
