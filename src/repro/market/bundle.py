"""Feature bundles: the goods traded on the VFL market (Def. 2.1).

A bundle is a subset of the data party's (encoded) features.  The set
of bundles on sale ``F`` is a size-stratified random sample (the data
party curates its catalogue — enumerating all ``2^d`` subsets of e.g.
36 features is neither tractable nor commercially sensible).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.rng import as_generator
from repro.utils.validation import require

__all__ = ["FeatureBundle", "sample_bundles"]


@dataclass(frozen=True, order=True)
class FeatureBundle:
    """An immutable, sorted set of data-party feature indices."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        require(len(self.indices) >= 1, "bundle must contain at least one feature")
        ordered = tuple(sorted(int(i) for i in self.indices))
        require(
            len(set(ordered)) == len(ordered), "bundle has duplicate feature indices"
        )
        require(ordered[0] >= 0, "feature indices must be non-negative")
        object.__setattr__(self, "indices", ordered)

    @classmethod
    def of(cls, indices: object) -> "FeatureBundle":
        """Build a bundle from any iterable of indices."""
        return cls(tuple(indices))

    @property
    def size(self) -> int:
        """Number of features in the bundle."""
        return len(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, index: int) -> bool:
        return index in self.indices

    def union(self, other: "FeatureBundle") -> "FeatureBundle":
        """Bundle containing both operands' features."""
        return FeatureBundle.of(set(self.indices) | set(other.indices))

    def label(self) -> str:
        """Compact display label, e.g. ``{0,3,7}``."""
        return "{" + ",".join(str(i) for i in self.indices) + "}"


def sample_bundles(
    n_features: int,
    n_bundles: int,
    *,
    rng: object = None,
) -> list[FeatureBundle]:
    """Size-stratified random catalogue of distinct bundles.

    The first bundle holds every feature (the party-level trade current
    practice would sell, §1); the others draw their size uniformly from
    ``[1, n_features]``, so the catalogue spans cheap single-feature
    offers through rich bundles.
    """
    require(n_features >= 1, "n_features must be >= 1")
    require(n_bundles >= 1, "n_bundles must be >= 1")
    gen = as_generator(rng)
    full = FeatureBundle.of(range(n_features))
    seen: set[tuple[int, ...]] = {full.indices}
    bundles: list[FeatureBundle] = [full]
    attempts = 0
    while len(bundles) < n_bundles and attempts < 200 * n_bundles:
        attempts += 1
        size = int(gen.integers(1, n_features + 1))
        combo = tuple(sorted(gen.choice(n_features, size=size, replace=False)))
        if combo in seen:
            continue
        seen.add(combo)
        bundles.append(FeatureBundle(combo))
    require(
        len(bundles) >= min(n_bundles, 2),
        "could not sample enough distinct bundles; shrink n_bundles",
    )
    return bundles
