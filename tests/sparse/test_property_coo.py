"""Property tests for ``CsrMatrix.from_coo``: one stable sort on the
row-major key (skipped for row-major input), duplicates found from the
sorted runs and row pointers searched in the sorted keys must build the
same arrays, bit for bit, as always sorting with ``lexsort``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import csr as csr_mod
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


@st.composite
def wide_triplets(draw):
    """Like :func:`triplets`, on shapes whose key space
    ``n_rows * n_cols`` exceeds ``2**31``: a 32-bit key would wrap.
    Positions repeat from a small pool that favours the first and last
    row and column."""
    n_rows = draw(st.integers(1, 1 << 17))
    n_cols = draw(st.integers((1 << 31) // n_rows + 1, 1 << 44))

    def coord(n):
        return st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1))

    pool = draw(st.lists(st.tuples(coord(n_rows), coord(n_cols)),
                         min_size=1, max_size=6))
    n = draw(st.integers(0, 30))
    picks = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    rows, cols = zip(*picks) if n else ((), ())
    vals = draw(st.lists(values, min_size=n, max_size=n))
    return rows, cols, vals, (n_rows, n_cols), "wide"


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8).tobytes()


@given(st.one_of(triplets(), wide_triplets()), st.booleans())
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


@given(st.lists(st.integers(0, 40), max_size=300),
       st.sampled_from([41, 1 << 40, 1 << 62]))
@settings(max_examples=200, deadline=None)
def test_sort_stable_is_a_stable_argsort(keys, span):
    # keys spread over the span; 2**62 leaves no room for the position
    # bits beyond one key, so it drives the argsort fallback
    key = np.array(keys, dtype=np.int64) * np.int64(span // 41)
    before = key.copy()
    order = np.argsort(key, kind="stable")
    got_key, got_order = csr_mod._sort_stable(key, span)
    assert got_order.tolist() == order.tolist()
    assert got_key.tolist() == key[order].tolist()
    assert key.tolist() == before.tolist()    # the input is left as is


def test_row_major_input_skips_the_sort(monkeypatch):
    def no_sort(*args, **kwargs):
        raise AssertionError("sort called on row-major input")

    dense = np.array([[0.0, 2.0, 0.0], [-0.0, 0.0, 3.0], [4.0, 5.0, 0.0]])
    monkeypatch.setattr(csr_mod, "_sort_stable", no_sort)
    a = CsrMatrix.from_dense(dense)
    assert a.indptr.tolist() == [0, 1, 2, 4]
    b = CsrMatrix.from_coo([0, 0, 1, 1], [1, 1, 0, 2], [1.0, 2.0, 3.0, 4.0],
                           (2, 3))
    assert b.data.tolist() == [3.0, 3.0, 4.0]
    with pytest.raises(AssertionError, match="sort called"):
        CsrMatrix.from_coo([1, 0], [0, 0], [1.0, 2.0], (2, 1))
