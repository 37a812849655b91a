"""Tests for the CSR substrate, cross-checked against scipy.sparse."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.csr import CsrMatrix


def random_csr(n_rows=50, n_cols=40, density=0.1, seed=0):
    rng = np.random.default_rng(seed)
    mask = rng.random((n_rows, n_cols)) < density
    dense = np.where(mask, rng.uniform(-2, 2, (n_rows, n_cols)), 0.0)
    return CsrMatrix.from_dense(dense), dense


class TestConstruction:
    def test_from_dense_roundtrip(self):
        a, dense = random_csr()
        np.testing.assert_array_equal(a.to_dense(), dense)

    def test_from_coo_sums_duplicates(self):
        a = CsrMatrix.from_coo([0, 0, 1], [1, 1, 0], [1.0, 2.0, 5.0], (2, 2))
        assert a.nnz == 2
        assert a.to_dense()[0, 1] == 3.0

    def test_from_coo_matches_scipy(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 30, 200)
        cols = rng.integers(0, 25, 200)
        vals = rng.uniform(-1, 1, 200)
        ours = CsrMatrix.from_coo(rows, cols, vals, (30, 25))
        theirs = sp.coo_matrix((vals, (rows, cols)), shape=(30, 25)).tocsr()
        np.testing.assert_allclose(ours.to_dense(), theirs.toarray(),
                                   atol=1e-15)

    def test_empty_matrix(self):
        a = CsrMatrix.from_coo([], [], [], (5, 5))
        assert a.nnz == 0
        np.testing.assert_array_equal(a.to_dense(), np.zeros((5, 5)))
        y = a.spmv_serial(np.ones(5))
        assert y.dtype == np.float64 and y.tolist() == [0.0] * 5

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            CsrMatrix(np.array([0, 1]), np.array([0]), np.array([1.0]), (5, 5))
        with pytest.raises(ValueError):
            CsrMatrix(np.array([0, 2, 1]), np.array([0, 0]),
                      np.array([1.0, 1.0]), (2, 2))
        with pytest.raises(ValueError):
            CsrMatrix.from_coo([0], [9], [1.0], (3, 3))
        with pytest.raises(ValueError):
            CsrMatrix.from_coo([5], [0], [1.0], (3, 3))
        with pytest.raises(ValueError):
            CsrMatrix.from_coo([0, 1], [0], [1.0], (3, 3))

    def test_row_lengths_and_entry_rows(self):
        a = CsrMatrix.from_coo([0, 0, 2], [0, 1, 2], [1, 1, 1], (3, 3))
        np.testing.assert_array_equal(a.row_lengths(), [2, 0, 1])
        np.testing.assert_array_equal(a.row_of_entry(), [0, 0, 2])


class TestTranspose:
    def test_transpose_matches_scipy(self):
        a, dense = random_csr(seed=4)
        np.testing.assert_allclose(a.transpose().to_dense(), dense.T,
                                   atol=1e-15)

    def test_double_transpose_identity(self):
        a, dense = random_csr(seed=5)
        np.testing.assert_array_equal(a.transpose().transpose().to_dense(),
                                      dense)


class TestSpmvOrders:
    def test_serial_matches_python_loop(self):
        # np.add.reduceat must reproduce a strict left-to-right sum
        a, dense = random_csr(n_rows=30, n_cols=30, density=0.3, seed=6)
        x = np.random.default_rng(7).uniform(-2, 2, 30)
        expected = np.zeros(30)
        for r in range(30):
            acc = 0.0
            for p in range(a.indptr[r], a.indptr[r + 1]):
                acc = acc + a.data[p] * x[a.indices[p]]
            expected[r] = acc
        np.testing.assert_array_equal(a.spmv_serial(x), expected)

    def test_warp_tree_matches_reference_value(self):
        a, dense = random_csr(n_rows=64, n_cols=64, density=0.4, seed=8)
        x = np.random.default_rng(9).uniform(-2, 2, 64)
        np.testing.assert_allclose(a.spmv_warp_tree(x), dense @ x,
                                   rtol=1e-12)

    def test_warp_tree_order_differs_from_serial(self):
        # with enough elements per row the rounding orders must diverge
        rng = np.random.default_rng(10)
        dense = rng.uniform(-2, 2, (16, 512))
        a = CsrMatrix.from_dense(dense)
        x = rng.uniform(-2, 2, 512)
        serial = a.spmv_serial(x)
        tree = a.spmv_warp_tree(x)
        np.testing.assert_allclose(serial, tree, rtol=1e-10)
        assert not np.array_equal(serial, tree)

    def test_warp_tree_explicit_small_case(self):
        # row of 3 with width 2: lanes get [p0+p2, p1], tree adds them
        a = CsrMatrix.from_coo([0, 0, 0], [0, 1, 2],
                               [1e16, 1.0, -1e16], (1, 3))
        x = np.ones(3)
        assert a.spmv_warp_tree(x, width=2)[0] == (1e16 + (-1e16)) + 1.0
        assert a.spmv_serial(x)[0] == (1e16 + 1.0) + -1e16  # = 0.0

    def test_empty_rows(self):
        a = CsrMatrix.from_coo([1], [1], [3.0], (4, 4))
        x = np.ones(4)
        np.testing.assert_array_equal(a.spmv_serial(x), [0, 3, 0, 0])
        np.testing.assert_array_equal(a.spmv_warp_tree(x), [0, 3, 0, 0])

    def test_x_shape_validated(self):
        a, _ = random_csr()
        with pytest.raises(ValueError):
            a.spmv_serial(np.ones(3))

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_property_spmv_matches_dense(self, seed):
        a, dense = random_csr(n_rows=20, n_cols=20, density=0.25, seed=seed)
        x = np.random.default_rng(seed + 1).uniform(-2, 2, 20)
        np.testing.assert_allclose(a.spmv_serial(x), dense @ x, atol=1e-12)
        np.testing.assert_allclose(a.spmv_warp_tree(x), dense @ x, atol=1e-12)


class TestSpgemm:
    def test_matches_scipy(self):
        a, da = random_csr(30, 40, 0.15, seed=11)
        b, db = random_csr(40, 35, 0.15, seed=12)
        c = a.spgemm(b)
        np.testing.assert_allclose(c.to_dense(), da @ db, atol=1e-12)

    def test_chunking_invariant(self):
        a, da = random_csr(100, 100, 0.1, seed=13)
        c1 = a.spgemm(a, chunk_rows=7)
        c2 = a.spgemm(a, chunk_rows=10000)
        np.testing.assert_array_equal(c1.to_dense(), c2.to_dense())

    @pytest.mark.parametrize("chunk_rows", [1, 3])
    def test_wide_keys_take_the_stable_sort(self, chunk_rows):
        # 2**60 columns leave no room to pack expansion positions into
        # the sort key, so every chunk falls back to a stable argsort
        n = 1 << 60
        a = CsrMatrix.from_coo([0, 0, 1, 1, 1, 2], [0, 2, 0, 1, 2, 1],
                               [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], (3, 3))
        b = CsrMatrix.from_coo([0, 0, 1, 2, 2], [n - 1, 3, 3, 0, n - 1],
                               [1.5, 2.0, 3.0, 4.0, 5.0], (3, n))
        want: dict[tuple[int, int], float] = {}
        for r, k, av in zip(a.row_of_entry(), a.indices, a.data):
            for pos in range(b.indptr[k], b.indptr[k + 1]):
                rc = (int(r), int(b.indices[pos]))
                want[rc] = want.get(rc, 0.0) + av * b.data[pos]
        c = a.spgemm(b, chunk_rows=chunk_rows)
        got = dict(zip(zip(c.row_of_entry().tolist(), c.indices.tolist()),
                       c.data.tolist()))
        assert list(got) == sorted(want)
        assert got == want

    def test_identity(self):
        a, da = random_csr(20, 20, 0.3, seed=14)
        eye = CsrMatrix.from_dense(np.eye(20))
        np.testing.assert_allclose(a.spgemm(eye).to_dense(), da, atol=1e-15)

    def test_empty_result(self):
        a = CsrMatrix.from_coo([0], [1], [1.0], (2, 2))
        b = CsrMatrix.from_coo([0], [0], [1.0], (2, 2))  # b row 1 empty
        c = a.spgemm(b)
        assert c.nnz == 0

    def test_dimension_mismatch(self):
        a, _ = random_csr(5, 6)
        b, _ = random_csr(5, 6)
        with pytest.raises(ValueError):
            a.spgemm(b)

    @given(st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_property_spgemm_matches_dense(self, seed):
        a, da = random_csr(15, 18, 0.2, seed=seed)
        b, db = random_csr(18, 12, 0.2, seed=seed + 1)
        np.testing.assert_allclose(a.spgemm(b).to_dense(), da @ db,
                                   atol=1e-12)
