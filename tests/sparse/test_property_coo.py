"""Property tests for ``CsrMatrix.from_coo``: skipping the sort for
row-major input and counting rows with ``bincount`` must build the same
arrays, bit for bit, as always sorting with ``lexsort``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.csr import CsrMatrix


def _from_coo_lexsort(rows, cols, vals, shape, sum_duplicates):
    """The always-sort construction: lexsort, ``np.unique`` + ``add.at``
    for duplicates, and ``add.at`` row counts."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    n_rows, n_cols = shape
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if sum_duplicates and len(rows):
        keys = rows * np.int64(n_cols) + cols
        uniq, inverse = np.unique(keys, return_inverse=True)
        summed = np.zeros(len(uniq))
        np.add.at(summed, inverse, vals)
        rows, cols, vals = uniq // n_cols, uniq % n_cols, summed
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, cols, vals


values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.5]),
                   st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def triplets(draw):
    """``(rows, cols, vals, shape, order)`` with ``order`` one of
    ``sorted`` (row-major, duplicates allowed), ``unsorted`` or
    ``duplicates`` (a key space small enough to repeat keys)."""
    order = draw(st.sampled_from(["sorted", "unsorted", "duplicates"]))
    n_rows = draw(st.integers(1, 3 if order == "duplicates" else 12))
    n_cols = draw(st.integers(1, 3 if order == "duplicates" else 12))
    n = draw(st.integers(0, 40))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=n,
                         max_size=n))
    cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=n,
                         max_size=n))
    vals = draw(st.lists(values, min_size=n, max_size=n))
    if order == "sorted":
        rows, cols = zip(*sorted(zip(rows, cols))) if n else ((), ())
    return rows, cols, vals, (n_rows, n_cols), order


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8).tobytes()


@given(triplets(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_from_coo_matches_the_lexsort_path(case, sum_duplicates):
    rows, cols, vals, shape, _ = case
    got = CsrMatrix.from_coo(rows, cols, vals, shape,
                             sum_duplicates=sum_duplicates)
    indptr, indices, data = _from_coo_lexsort(rows, cols, vals, shape,
                                              sum_duplicates)
    assert _bits(got.indptr) == _bits(indptr)
    assert _bits(got.indices) == _bits(indices)
    assert _bits(got.data) == _bits(data)


def test_row_major_input_skips_the_sort(monkeypatch):
    def no_sort(*args, **kwargs):
        raise AssertionError("lexsort called on row-major input")

    dense = np.array([[0.0, 2.0, 0.0], [-0.0, 0.0, 3.0], [4.0, 5.0, 0.0]])
    monkeypatch.setattr(np, "lexsort", no_sort)
    a = CsrMatrix.from_dense(dense)
    assert a.indptr.tolist() == [0, 1, 2, 4]
    b = CsrMatrix.from_coo([0, 0, 1, 1], [1, 1, 0, 2], [1.0, 2.0, 3.0, 4.0],
                           (2, 3))
    assert b.data.tolist() == [3.0, 3.0, 4.0]
    with pytest.raises(AssertionError, match="lexsort"):
        CsrMatrix.from_coo([1, 0], [0, 0], [1.0, 2.0], (2, 1))
