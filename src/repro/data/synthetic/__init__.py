"""Schema-faithful synthetic generators for the paper's three datasets."""

from repro.data.synthetic.adult import _DATA_COLUMNS as _ADULT_DATA_COLUMNS
from repro.data.synthetic.adult import ADULT_SCHEMA, load_adult
from repro.data.synthetic.base import RawDataset
from repro.data.synthetic.credit import _DATA_COLUMNS as _CREDIT_DATA_COLUMNS
from repro.data.synthetic.credit import CREDIT_SCHEMA, load_credit
from repro.data.synthetic.titanic import _DATA_COLUMNS as _TITANIC_DATA_COLUMNS
from repro.data.synthetic.titanic import TITANIC_SCHEMA, load_titanic

__all__ = [
    "ADULT_SCHEMA",
    "CREDIT_SCHEMA",
    "GENERATOR_VERSION",
    "TITANIC_SCHEMA",
    "RawDataset",
    "builtin_data_width",
    "load_adult",
    "load_credit",
    "load_dataset",
    "load_titanic",
]

#: Version of what the built-in generators produce.  It is part of the
#: gain cache's recipe-index key (:mod:`repro.oracle_factory.cache`), which
#: trusts a recipe to name the same rows for as long as this number holds.
#: Bump it whenever a generator or :meth:`RawDataset.prepare` changes the
#: rows a recipe yields; ``tests/oracle_factory/test_recipe_index.py``
#: pins each built-in dataset's content digest under this number, so such
#: drift fails loudly until the number moves.
GENERATOR_VERSION = 1

_LOADERS = {
    "titanic": load_titanic,
    "credit": load_credit,
    "adult": load_adult,
}

_DATA_PARTIES = {
    "titanic": TITANIC_SCHEMA.select(_TITANIC_DATA_COLUMNS),
    "credit": CREDIT_SCHEMA.select(_CREDIT_DATA_COLUMNS),
    "adult": ADULT_SCHEMA.select(_ADULT_DATA_COLUMNS),
}


def builtin_data_width(name: str, loader: object) -> int | None:
    """Data-party width of built-in ``name`` when ``loader`` generates it.

    Read off the schema alone (an indicator-encoded column is as wide as
    its category list), so no row is synthesised.  ``None`` for every
    other loader: :data:`GENERATOR_VERSION` vouches for nothing else.
    """
    if loader is None or _LOADERS.get(name) is not loader:
        return None
    return _DATA_PARTIES[name].n_encoded_features


def load_dataset(name: str, n_samples: int | None = None, *, seed: int = 0) -> RawDataset:
    """Load one of the paper's datasets by name.

    ``n_samples=None`` uses each dataset's real-world row count
    (891 / 30 000 / 48 842).
    """
    try:
        loader = _LOADERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; choose from {sorted(_LOADERS)}"
        ) from None
    if n_samples is None:
        return loader(seed=seed)
    return loader(n_samples, seed=seed)
