"""Compressed Sparse Row matrices, built from scratch.

This is the package's own CSR substrate (scipy.sparse appears only in tests,
as an independent cross-check).  Besides construction and conversion it
provides the *accumulation-order-controlled* SpMV flavours that the accuracy
study (Table 6) depends on:

* :meth:`CsrMatrix.spmv_serial` — strictly left-to-right per-row sums, the
  paper's "naive CPU serial" ground truth;
* :meth:`CsrMatrix.spmv_warp_tree` — cuSPARSE-CSR-vector-style order: 32-wide
  strided partial sums followed by a binary reduction tree.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = ["CsrMatrix", "accumulate_sequential"]


def _sort_stable(key: np.ndarray,
                 span: int) -> tuple[np.ndarray, np.ndarray]:
    """``(key[order], order)`` for the stable ascending order of ``key``,
    whose values lie in ``[0, span)``.

    When ``span`` leaves room, each key carries its position in the low
    bits: the keys become unique, so numpy's unstable (SIMD) sort yields
    the stable order, and the sorted keys with it, in one pass."""
    shift = (len(key) - 1).bit_length()
    if span >> (63 - shift):
        order = np.argsort(key, kind="stable")
        return key[order], order
    packed = key << shift
    packed |= np.arange(len(key), dtype=np.int64)
    packed.sort()
    order = packed & ((1 << shift) - 1)
    packed >>= shift
    return packed, order


def accumulate_sequential(vals: np.ndarray,
                          starts: np.ndarray) -> np.ndarray:
    """The sequential twin of ``np.add.reduceat(vals, starts)``: the sum
    of each run ``vals[starts[i]:starts[i + 1]]``, accumulated strictly
    first-to-last from ``+0.0`` — the CPU-serial order of the SpGEMM
    reference and of COO duplicate sums.  ``starts`` must rise strictly
    from 0 (run starts).

    ``np.bincount`` with weights is a C loop ``out[g[i]] += w[i]`` in
    input order, so it is bit-identical to an explicit Python loop,
    unlike ``np.add.reduceat``'s pairwise summation of long runs."""
    if len(vals) == 0:   # bincount of nothing comes back as int64
        return np.empty(0)
    group = np.repeat(np.arange(len(starts)),
                      np.diff(np.r_[starts, len(vals)]))
    return np.bincount(group, weights=vals)


@dataclass
class CsrMatrix:
    """A CSR matrix with int64 indexing and float64 values."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        n_rows, n_cols = self.shape
        if len(self.indptr) != n_rows + 1:
            raise ValueError(
                f"indptr length {len(self.indptr)} != n_rows+1 ({n_rows + 1})")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data lengths differ")
        if len(self.indices) and (self.indices.min() < 0
                                  or self.indices.max() >= n_cols):
            raise ValueError("column index out of range")

    # ------------------------------------------------------------ builders
    @classmethod
    def from_coo(cls, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 shape: tuple[int, int], *, sum_duplicates: bool = True
                 ) -> "CsrMatrix":
        """Build from COO triplets; duplicates are summed by default.

        One row-major key ``row * n_cols + col`` (so ``n_rows * n_cols``
        must stay below ``2**63``) drives the whole build: the sorted
        check, one stable sort (:func:`_sort_stable`) when the input is
        not already row-major, the duplicate runs and the row pointers.
        Duplicates are summed first-to-last in input order from ``+0.0``
        (:func:`accumulate_sequential`), so a lone ``-0.0`` comes out as
        ``+0.0``."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (len(rows) == len(cols) == len(vals)):
            raise ValueError("COO arrays must have equal length")
        n_rows, n_cols = shape
        if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("row index out of range")
        if len(cols) and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("column index out of range")
        key = rows * np.int64(n_cols) + cols
        if not np.all(key[1:] >= key[:-1]):
            key, order = _sort_stable(key, int(n_rows) * int(n_cols))
            cols, vals = cols[order], vals[order]
        if sum_duplicates:
            starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]][:len(key)])
            key, cols = key[starts], cols[starts]
            vals = accumulate_sequential(vals, starts)
        indptr = np.searchsorted(
            key, np.arange(n_rows + 1, dtype=np.int64) * np.int64(n_cols))
        return cls(indptr, cols, vals, shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CsrMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("dense input must be 2-D")
        rows, cols = np.nonzero(dense)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape,
                            sum_duplicates=False)

    # ------------------------------------------------------------ basics
    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_of_entry(self) -> np.ndarray:
        """Row id of every stored entry (expanded indptr)."""
        return np.repeat(np.arange(self.n_rows, dtype=np.int64),
                         self.row_lengths())

    def to_dense(self) -> np.ndarray:
        """Dense copy."""
        dense = np.zeros(self.shape)
        dense[self.row_of_entry(), self.indices] = self.data
        return dense

    def transpose(self) -> "CsrMatrix":
        """CSR of A^T: the entries re-keyed column-major and sorted once
        by :meth:`from_coo`."""
        return CsrMatrix.from_coo(self.indices, self.row_of_entry(),
                                  self.data, (self.n_cols, self.n_rows),
                                  sum_duplicates=False)

    # -------------------------------------------------------------- SpMV
    def spmv_serial(self, x: np.ndarray) -> np.ndarray:
        """Ground-truth SpMV: per-row strictly left-to-right accumulation.

        One ``np.bincount`` over the entries' rows adds each product into
        its row in entry order, starting from ``+0.0`` (``np.add.reduceat``
        cannot be used: it switches to pairwise summation for long
        segments).  A unit test checks bit-equality against an explicit
        Python loop.
        """
        x = self._check_x(x)
        if self.nnz == 0:   # bincount of nothing comes back as int64
            return np.zeros(self.n_rows)
        return np.bincount(self.row_of_entry(),
                           weights=self.data * x[self.indices],
                           minlength=self.n_rows)

    def spmv_warp_tree(self, x: np.ndarray, width: int = 32) -> np.ndarray:
        """cuSPARSE CSR-vector-style SpMV order.

        Each row's products are first accumulated into ``width`` strided
        partial sums (lane ``l`` sums elements ``l, l+width, ...``
        sequentially), then combined by a binary shuffle-reduction tree —
        the classic warp-per-row GPU kernel.  Same mathematical result as
        :meth:`spmv_serial`, different rounding.
        """
        x = self._check_x(x)
        products = self.data * x[self.indices]
        lengths = self.row_lengths()
        out = np.zeros(self.n_rows)
        if self.nnz == 0:
            return out
        max_len = int(lengths.max())
        steps = (max_len + width - 1) // width
        # lane-partial accumulation: partials[r, l] built sequentially over
        # strided chunks, vectorized across rows
        partials = np.zeros((self.n_rows, width))
        offs = np.arange(width, dtype=np.int64)
        starts = self.indptr[:-1]
        for s in range(steps):
            pos = s * width + offs[np.newaxis, :]          # (rows, width)
            valid = pos < lengths[:, np.newaxis]
            idx = np.minimum(starts[:, np.newaxis] + pos, self.nnz - 1)
            contrib = np.where(valid, products[idx], 0.0)
            partials += contrib
        # binary reduction tree across lanes
        w = width
        while w > 1:
            half = w // 2
            partials[:, :half] = partials[:, :half] + partials[:, half:w]
            w = half
        out[:] = partials[:, 0]
        return out

    # ------------------------------------------------------------ SpGEMM
    def spgemm(self, other: "CsrMatrix", *, chunk_rows: int = 2048
               ) -> "CsrMatrix":
        """Row-merge SpGEMM ``self @ other`` (expansion + sort + compress),
        processed in row chunks to bound memory; duplicates are compressed
        by ``np.add.reduceat`` (pairwise for long runs, like a GPU
        compaction)."""
        keys, sums = [], []
        for key, val in self.spgemm_expansion(other, chunk_rows=chunk_rows):
            starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            keys.append(key[starts])
            sums.append(np.add.reduceat(val, starts))
        return CsrMatrix.from_sorted_keys(keys, sums,
                                          (self.n_rows, other.n_cols))

    def spgemm_expansion(self, other: "CsrMatrix", *,
                         chunk_rows: int = 2048
                         ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The scalar products of ``self @ other`` as sorted chunks.

        Yields ``(key, value)`` per non-empty row chunk, where ``key`` is
        the row-major output position ``row * other.n_cols + col``,
        stable-sorted, so each output entry's products keep their
        row-then-k expansion order.  Rows never straddle a chunk and
        output groups live within one row, so chunks are key-disjoint and
        ascending, and any row-aligned chunking reduces bit-identically
        (tested)."""
        if self.n_cols != other.n_rows:
            raise ValueError(
                f"dimension mismatch: {self.shape} @ {other.shape}")
        # per-entry expansion counts and cumulative product offsets
        expand_all = other.row_lengths()[self.indices]
        segx = np.r_[0, np.cumsum(expand_all)]
        row_prod = segx[self.indptr]
        for r0, r1 in self._spgemm_cuts(row_prod, chunk_rows):
            lo, hi = int(self.indptr[r0]), int(self.indptr[r1])
            n_prod = int(row_prod[r1] - row_prod[r0])
            if n_prod == 0:
                continue
            # chunk-local: the B position of product j of entry e is
            # start[e] + j, and keys count from the chunk's first row
            expand = expand_all[lo:hi]
            start = other.indptr[self.indices[lo:hi]] \
                - (segx[lo:hi] - segx[lo])
            b_pos = np.repeat(start, expand) \
                + np.arange(n_prod, dtype=np.int64)
            rowkey = np.repeat(np.arange(r1 - r0) * other.n_cols,
                               np.diff(self.indptr[r0:r1 + 1]))
            key, order = _sort_stable(
                np.repeat(rowkey, expand) + other.indices[b_pos],
                (r1 - r0) * other.n_cols)
            val = np.repeat(self.data[lo:hi], expand) * other.data[b_pos]
            yield key + r0 * other.n_cols, val[order]

    @classmethod
    def from_sorted_keys(cls, keys: list[np.ndarray],
                         vals: list[np.ndarray],
                         shape: tuple[int, int]) -> "CsrMatrix":
        """Build from ascending, duplicate-free row-major key chunks (the
        reduced :meth:`spgemm_expansion` stream) without re-sorting."""
        n_rows, n_cols = shape
        key = np.concatenate([np.empty(0, dtype=np.int64), *keys])
        val = np.concatenate([np.empty(0), *vals])
        indptr = np.searchsorted(
            key, np.arange(n_rows + 1, dtype=np.int64) * np.int64(n_cols))
        return cls(indptr, key % n_cols, val, shape)

    @staticmethod
    def _spgemm_cuts(row_prod: np.ndarray,
                     chunk_rows: int) -> list[tuple[int, int]]:
        """Row-aligned chunk boundaries for :meth:`spgemm`: a cut every
        ``chunk_rows`` rows, refined wherever ~512K scalar products have
        accrued so each chunk's sort/gather working set stays
        cache-resident.  ``row_prod`` maps row boundary -> cumulative
        product count."""
        n_rows = len(row_prod) - 1
        targets = np.arange(1 << 19, int(row_prod[-1]), 1 << 19)
        cuts = np.unique(np.r_[np.arange(0, n_rows, chunk_rows),
                               np.searchsorted(row_prod, targets), n_rows])
        return list(zip(cuts[:-1].tolist(), cuts[1:].tolist()))

    # ------------------------------------------------------------ helpers
    def _check_x(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ValueError(
                f"x must have shape ({self.n_cols},), got {x.shape}")
        return x

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CsrMatrix(shape={self.shape}, nnz={self.nnz})")

