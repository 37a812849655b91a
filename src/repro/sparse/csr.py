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

from dataclasses import dataclass

import numpy as np

__all__ = ["CsrMatrix"]


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
        check, one stable ``argsort`` when the input is not already
        row-major, the duplicate runs and the row pointers.  Duplicates
        are summed first-to-last in input order with ``np.add.at`` into
        a zeroed buffer, so a lone ``-0.0`` comes out as ``+0.0``."""
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
            order = np.argsort(key, kind="stable")
            # one gather at a time: the unsorted key is freed first
            key = key[order]
            cols = cols[order]
            vals = vals[order]
        if sum_duplicates and len(key):
            first = np.empty(len(key), dtype=bool)
            first[0] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
            group = np.cumsum(first)
            group -= 1
            summed = np.zeros(int(group[-1]) + 1)
            np.add.at(summed, group, vals)
            key, cols, vals = key[first], cols[first], summed
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

        The loop is vectorized *across rows* while staying strictly
        sequential *within* each row (``np.add.reduceat`` cannot be used: it
        switches to pairwise summation for long segments).  A unit test
        checks bit-equality against an explicit Python loop.
        """
        x = self._check_x(x)
        out = np.zeros(self.n_rows)
        if self.nnz == 0:
            return out
        products = self.data * x[self.indices]
        lengths = self.row_lengths()
        starts = self.indptr[:-1]
        for i in range(int(lengths.max())):
            valid = i < lengths
            idx = np.minimum(starts + i, self.nnz - 1)
            out = np.where(valid, out + products[idx], out)
        return out

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
        processed in row chunks to bound memory."""
        if self.n_cols != other.n_rows:
            raise ValueError(
                f"dimension mismatch: {self.shape} @ {other.shape}")
        out_rows: list[np.ndarray] = []
        out_cols: list[np.ndarray] = []
        out_vals: list[np.ndarray] = []
        b_lengths = other.row_lengths()
        # per-entry expansion counts and cumulative product offsets; rows
        # never straddle a chunk and output groups live within one row, so
        # any row-aligned chunking yields bit-identical results (tested)
        expand_all = b_lengths[self.indices]
        segx = np.r_[0, np.cumsum(expand_all)]
        row_prod = segx[self.indptr]
        # a 32-bit sort key halves the radix passes when it fits
        small = self.n_rows * other.n_cols < 2 ** 31
        for r0, r1 in self._spgemm_cuts(row_prod, chunk_rows):
            lo, hi = int(self.indptr[r0]), int(self.indptr[r1])
            n_prod = int(row_prod[r1] - row_prod[r0])
            if n_prod == 0:
                continue
            a_cols = self.indices[lo:hi]
            a_vals = self.data[lo:hi]
            rowkey = np.repeat(
                np.arange(r0, r1, dtype=np.int64),
                np.diff(self.indptr[r0:r1 + 1])) * np.int64(other.n_cols)
            # one repeat builds the entry map; everything else is a single
            # gather through it (the B position of product j of entry e is
            # start[e] + j, chunk-local)
            start = other.indptr[a_cols] - (segx[lo:hi] - segx[lo])
            entry = np.repeat(np.arange(hi - lo, dtype=np.int64),
                              expand_all[lo:hi])
            b_pos = start[entry] + np.arange(n_prod, dtype=np.int64)
            key = rowkey[entry] + other.indices[b_pos]
            prod_val = a_vals[entry] * other.data[b_pos]
            # compress duplicates
            order = np.argsort(key.astype(np.int32) if small else key,
                               kind="stable")
            key_s = key[order]
            val_s = prod_val[order]
            boundaries = np.flatnonzero(np.r_[True, key_s[1:] != key_s[:-1]])
            sums = np.add.reduceat(val_s, boundaries)
            keys_u = key_s[boundaries]
            out_rows.append((keys_u // other.n_cols).astype(np.int64))
            out_cols.append((keys_u % other.n_cols).astype(np.int64))
            out_vals.append(sums)
        if not out_rows:
            return CsrMatrix(np.zeros(self.n_rows + 1, dtype=np.int64),
                             np.empty(0, dtype=np.int64), np.empty(0),
                             (self.n_rows, other.n_cols))
        return CsrMatrix.from_coo(
            np.concatenate(out_rows), np.concatenate(out_cols),
            np.concatenate(out_vals), (self.n_rows, other.n_cols),
            sum_duplicates=False)

    @staticmethod
    def _spgemm_cuts(row_prod: np.ndarray,
                     chunk_rows: int) -> list[tuple[int, int]]:
        """Row-aligned chunk boundaries for :meth:`spgemm`: a cut every
        ``chunk_rows`` rows, refined wherever ~512K scalar products have
        accrued so each chunk's sort/gather working set stays
        cache-resident.  ``row_prod`` maps row boundary -> cumulative
        product count."""
        n_rows = len(row_prod) - 1
        cuts = set(range(0, n_rows, chunk_rows))
        cuts.add(n_rows)
        prod_chunk = 1 << 19
        total = int(row_prod[-1])
        if total > prod_chunk:
            targets = np.arange(1, total // prod_chunk + 1,
                                dtype=np.int64) * prod_chunk
            cuts.update(np.searchsorted(row_prod, targets).tolist())
        ordered = sorted(cuts)
        return list(zip(ordered[:-1], ordered[1:]))

    # ------------------------------------------------------------ helpers
    def _check_x(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_cols,):
            raise ValueError(
                f"x must have shape ({self.n_cols},), got {x.shape}")
        return x

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CsrMatrix(shape={self.shape}, nnz={self.nnz})")

