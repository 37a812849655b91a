"""Property tests for the sparse error reduction of the accuracy study.

Two CSR outputs are compared without densifying them; every
``(average, maximum, samples)`` triple must equal, bit for bit, the
dense computation on the densified matrices — across disjoint,
overlapping and identical patterns, explicit zeros, ``-0.0`` and
matrices with no entries — and the reused error buffer must come back
all zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.accuracy import _errors, _flatten, error_metrics
from repro.sparse.csr import CsrMatrix

values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300]),
                   st.floats(-1e6, 1e6, allow_nan=False))


def _matrix(keys, vals, shape):
    keys = np.asarray(sorted(keys), dtype=np.int64)
    return CsrMatrix.from_coo(keys // shape[1], keys % shape[1],
                              np.asarray(vals, dtype=np.float64), shape,
                              sum_duplicates=False)


def _keys(draw, relation, ref_keys, size):
    if relation == "identical":
        return set(ref_keys)
    if relation == "disjoint":
        return draw(st.sets(st.integers(0, size - 1).filter(
            lambda k: k not in ref_keys), max_size=size))
    return draw(st.sets(st.integers(0, size - 1), max_size=size))


def _values(draw, n):
    return draw(st.lists(values, min_size=n, max_size=n))


@st.composite
def comparisons(draw, n_outputs=1):
    """``(outputs, ref)``: CSR matrices of one shape, each output's
    pattern disjoint from, overlapping or identical to the reference's."""
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    size = shape[0] * shape[1]
    ref_keys = draw(st.sets(st.integers(0, size - 1), max_size=size))
    ref = _matrix(ref_keys, _values(draw, len(ref_keys)), shape)
    outputs = []
    for _ in range(n_outputs):
        relation = draw(st.sampled_from(["disjoint", "overlapping",
                                         "identical"]))
        keys = _keys(draw, relation, ref_keys, size)
        outputs.append(_matrix(keys, _values(draw, len(keys)), shape))
    return outputs, ref


def _dense_metrics(got, ref):
    err = np.abs(got.to_dense().ravel() - ref.to_dense().ravel())
    return float(err.mean()), float(err.max()), int(err.size)


def _bits(metrics):
    avg, mx, n = metrics
    return np.array([avg, mx]).tobytes(), n


@given(comparisons())
@settings(max_examples=400, deadline=None)
def test_sparse_reduction_is_bit_identical_to_dense(case):
    (got,), ref = case
    expected = _bits(_dense_metrics(got, ref))
    assert _bits(error_metrics(got, ref)) == expected
    assert _bits(error_metrics(got.to_dense(), ref.to_dense())) == expected


@given(comparisons(n_outputs=3))
@settings(max_examples=200, deadline=None)
def test_reused_buffer_comes_back_zero(case):
    """The Table 6 loop: several outputs against one reference through
    one buffer."""
    outputs, ref = case
    flat_ref = _flatten(ref)
    err = np.zeros(flat_ref.size)
    for out in outputs:
        assert _bits(_errors(_flatten(out), flat_ref, err)) == \
            _bits(_dense_metrics(out, ref))
        assert not err.any()


def test_dense_output_against_sparse_reference():
    ref = _matrix([1, 4], [2.0, -0.0], (2, 3))
    got = np.array([[1.0, 2.5, 0.0], [-0.0, 3.0, 0.0]])
    flat_ref = _flatten(ref)
    err = np.zeros(flat_ref.size)
    assert _bits(_errors(_flatten(got), flat_ref, err)) == _bits(
        _dense_metrics(CsrMatrix.from_dense(got), ref))
    assert not err.any()   # the buffer a sparse reference relies on


def test_matrices_without_entries():
    empty = CsrMatrix.from_coo([], [], [], (3, 4))
    assert _bits(error_metrics(empty, empty)) == (
        np.array([0.0, 0.0]).tobytes(), 12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_zero_size_matrices_have_no_maximum():
    empty = CsrMatrix.from_coo([], [], [], (0, 4))
    for got, ref in ((empty, empty), (empty.to_dense(), empty.to_dense())):
        with pytest.raises(ValueError):
            error_metrics(got, ref)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        error_metrics(CsrMatrix.from_coo([], [], [], (2, 2)),
                      CsrMatrix.from_coo([], [], [], (2, 3)))
