"""The stepwise engine as the kernel tests' reference.

``population.build_engine(i).run()`` is the one statement of the
bargaining rules; the vectorised kernel must reproduce each session's
record bit for bit, NaNs included, on all eleven
:class:`~repro.simulate.pool.PoolResult` fields.
"""

import numpy as np

from repro.simulate.pool import SessionPool, session_record_arrays

FIELDS = tuple(session_record_arrays(0))


def engine_records(pop, indices):
    """Each of ``pop``'s sessions at ``indices`` played alone by the
    stepwise engine, in record arrays over the whole population."""
    arrays = session_record_arrays(pop.n_sessions)
    for i in indices:
        SessionPool._record(arrays, int(i), pop.build_engine(int(i)).run())
    return arrays


def pool_records(result):
    """A :class:`~repro.simulate.pool.PoolResult`'s record arrays."""
    return {key: getattr(result, key) for key in FIELDS}


def assert_rows_equal(got, want, rows_got, rows_want=None):
    """``got[rows_got]`` and ``want[rows_want]`` hold the same bits."""
    rows_want = rows_got if rows_want is None else rows_want
    for key in FIELDS:
        a, b = np.asarray(got[key])[rows_got], np.asarray(want[key])[rows_want]
        assert a.dtype == b.dtype, key
        assert np.array_equal(a, b, equal_nan=True), key


def assert_kernel_equals_engine(got, pop, indices):
    """``got``, the kernel's records of ``indices`` in that order, equals
    each session's engine record."""
    indices = np.asarray(indices)
    assert_rows_equal(got, engine_records(pop, indices),
                      np.arange(indices.size), indices)
