"""SpGEMM workload (Quadrant IV, sparse linear algebra dwarf).

The TC implementation follows AmgT (Lu et al., SC'24): both operands are
stored as mBSR 4x4 blocks (:class:`repro.sparse.mbsr.MbsrMatrix`); block
pairs stack into 8x4 MMA operands so one ``mma_m8n8k4`` evaluates four
4x4 block products, and results accumulate into the *diagonal 4x4 tiles*
of the 8x8 output — full input, half-useful output (Quadrant IV, "slightly
higher utilization" per Figure 2).

The baseline models cuSPARSE SpGEMM's expand-sort-compress pipeline on
scalar CSR entries (irregular gathers, pairwise compaction sums).  CC-E
performs the essential scalar block products on the mBSR layout with a
tree-ordered k accumulation.

Functional execution computes C = A @ A on the Table 4 matrices at a
reduced ``scale`` (full-scale block expansion exceeds a Python session's
memory budget; the analytic path runs symbolically at any scale).
"""

from __future__ import annotations

import functools

import numpy as np

from ..datasets.suitesparse import SPMV_MATRICES, generate_matrix
from ..gpu import warp_events
from ..gpu.counters import KernelStats
from ..gpu.device import Device, KernelResult
from ..gpu.launch import LaunchPlan, execute_plan
from ..sparse.csr import CsrMatrix, accumulate_sequential
from ..sparse.mbsr import BLOCK, MbsrMatrix
from .base import (
    CC_EFF,
    CC_EFF_MMA,
    MLP_IRREGULAR,
    MLP_MMA_CC,
    TC_EFF,
    Quadrant,
    Variant,
    Workload,
    WorkloadCase,
)

__all__ = ["SpgemmWorkload", "accumulate_sequential"]

#: default matrix scale for functional execution
EXEC_SCALE = 0.25
#: block products per CC-E accumulation chunk (cut at output-block
#: boundaries, so chunks own disjoint blocks)
CHUNK = 1 << 13
#: fraction of repeated B-block reads that miss L2 (mBSR streams block
#: rows in 128-byte units with good spatial reuse)
TC_REUSE = 0.70
#: fraction of the baseline's scalar B-row re-reads that miss L2 (the
#: expand phase revisits rows hash-scattered, but hot rows stay cached)
BASE_REUSE = 0.15


@functools.lru_cache(maxsize=32)
def _analytic_matrix(name: str, scale: float,
                     seed: int) -> tuple[CsrMatrix, MbsrMatrix]:
    """Cache the (deterministic) analytic matrix and its mBSR conversion so
    the four variants of a case do not regenerate them: a stats row
    computes all four in one process.  Without this cache the five rows
    take 1.7 s instead of 0.6 s (2-vCPU x86 host)."""
    a = generate_matrix(name, scale=scale, seed=seed)
    return a, MbsrMatrix.from_csr(a)


class SpgemmWorkload(Workload):
    """Sparse matrix-matrix multiplication C = A @ A (AmgT vs cuSPARSE)."""

    name = "spgemm"
    quadrant = Quadrant.IV
    dwarf = "Sparse linear algebra"
    baseline_name = "cuSPARSE SpGEMM v12.8"
    has_cce = True
    edp_repeats = 5_000

    def __init__(self, scale: float = 1.0,
                 exec_scale: float = EXEC_SCALE) -> None:
        self.scale = scale
        self.exec_scale = exec_scale

    # ------------------------------------------------------------------
    def cases(self) -> list[WorkloadCase]:
        return [WorkloadCase(label=m.name, params={"matrix": m.name})
                for m in SPMV_MATRICES]

    def matrix_args(self, case: WorkloadCase, seed: int | None = None
                    ) -> tuple[str, float, int]:
        # analytic stats read the matrix at ``scale``, execution at
        # ``exec_scale``
        if seed is None:
            return case["matrix"], self.scale, 1325
        return case["matrix"], self.exec_scale, seed

    # ------------------------------------------------------------------
    def prepare(self, case: WorkloadCase, seed: int = 1325) -> dict:
        a = generate_matrix(*self.matrix_args(case, seed))
        return {"a": a, "mbsr": MbsrMatrix.from_csr(a)}

    def reference(self, data: dict) -> CsrMatrix:
        """Serial ground truth: scalar expansion in row-k order with
        strictly sequential duplicate accumulation.

        The baseline compresses the very same sorted product stream
        (:meth:`CsrMatrix.spgemm_expansion`) with pairwise sums, so each
        chunk is reduced both ways here and the baseline's output is
        stashed in ``data`` for :meth:`execute` to take.  Both outputs
        have the same entries and share ``indptr`` and ``indices``."""
        a: CsrMatrix = data["a"]
        keys, serial, pairwise = [], [], []
        for key, val in a.spgemm_expansion(a):
            starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            keys.append(key[starts])
            serial.append(accumulate_sequential(val, starts))
            pairwise.append(np.add.reduceat(val, starts))
        ref = CsrMatrix.from_sorted_keys(keys, serial, a.shape)
        data["_baseline_out"] = CsrMatrix(
            ref.indptr, ref.indices,
            np.concatenate([np.empty(0), *pairwise]), a.shape)
        return ref

    # ------------------------------------------------------------------
    def execute(self, variant: Variant, data: dict,
                device: Device) -> KernelResult:
        a: CsrMatrix = data["a"]
        if variant is Variant.BASELINE:
            # the reference's stash, taken once; the warp sanitizer
            # replays the baseline's own traffic
            out = data.pop("_baseline_out", None)
            if out is None or warp_events.TRACER is not None:
                out = a.spgemm(a)
        else:
            # TC and CC run the identical block sweep (bit-identity by
            # construction), so within one prepared case the second
            # variant reuses the first's output — except under the warp
            # sanitizer, where each variant must replay its own traffic
            tree = variant is Variant.CCE
            cache_key = "_block_out_tree" if tree else "_block_out"
            audited = warp_events.TRACER is not None
            out = None if audited else data.get(cache_key)
            if out is None:
                out = self._block_spgemm(data["mbsr"], tree=tree)
                if not audited:
                    data[cache_key] = out
        stats = self._stats(variant, a, data["mbsr"])
        return device.resolve(stats, output=out)

    @staticmethod
    def _block_products(m: MbsrMatrix
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Block-level expansion of C = M @ M: for every pair of blocks
        (i,k) x (k,j) returns (out block row, out block col, A block index,
        B block index)."""
        b_len = np.diff(m.block_indptr)
        expand = b_len[m.block_indices]
        seg = np.cumsum(expand) - expand
        # B position of product j of block entry e is start[e] + j, so one
        # gather through the entry map replaces the double gather
        start = m.block_indptr[m.block_indices] - seg
        ablk = np.repeat(np.arange(m.n_blocks, dtype=np.int64), expand)
        b_pos = start[ablk] + np.arange(len(ablk), dtype=np.int64)
        return (m.block_row_of_block()[ablk], m.block_indices[b_pos],
                ablk, b_pos)

    def _block_spgemm(self, m: MbsrMatrix, tree: bool) -> CsrMatrix:
        """TC/CC (``tree=False``) or CC-E (``tree=True``) block SpGEMM."""
        brow, bcol, ablk, bblk = self._block_products(m)
        nbc = m.n_block_cols + 1
        key = brow * np.int64(nbc) + bcol
        order = np.argsort(key, kind="stable")
        key, ablk, bblk = key[order], ablk[order], bblk[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]][:len(key)])
        bounds = np.r_[starts, len(key)]
        n_out = len(starts)
        if not tree:
            # TC/CC: each output block's duplicate run is one chain; the
            # sorted order makes runs contiguous, so the whole product set
            # is one ragged launch plan (bucketed by duplicate count) with
            # the same sequential per-block accumulation order as the
            # round-by-round loop it replaces.
            plan = LaunchPlan()
            h = plan.ragged(m.blocks[ablk], m.blocks[bblk], np.diff(bounds),
                            starts)
            acc = execute_plan(plan, label="spgemm")[h]
        else:
            # CC-E: each block product combines its k pairs by a binary
            # tree; each output block then sums its products first-to-last
            # from +0.0, by one ordered bincount per chunk of whole blocks
            # (cell-major, so every multiply streams over the chunk)
            cuts = np.unique(np.r_[0, np.searchsorted(
                bounds, np.arange(CHUNK, len(key), CHUNK)), n_out])
            acc = np.empty((n_out, BLOCK * BLOCK))
            for g0, g1 in zip(cuts[:-1], cuts[1:]):
                p0, p1, n = bounds[g0], bounds[g1], g1 - g0
                lhs = m.blocks[ablk[p0:p1]].transpose(1, 2, 0).copy()
                rhs = m.blocks[bblk[p0:p1]].transpose(1, 2, 0).copy()
                t = [lhs[:, k, np.newaxis] * rhs[np.newaxis, k]
                     for k in range(BLOCK)]
                step = (t[0] + t[2]) + (t[1] + t[3])    # (i, j, product)
                idx = np.arange(0, BLOCK * BLOCK * n, n)[:, np.newaxis] \
                    + np.repeat(np.arange(n), np.diff(bounds[g0:g1 + 1]))
                acc[g0:g1] = np.bincount(
                    idx.reshape(-1), weights=step.reshape(-1),
                    minlength=BLOCK * BLOCK * n).reshape(-1, n).T
        # expand accumulated blocks back to scalar CSR
        out_key = key[starts]
        out_brow = out_key // nbc
        out_bcol = out_key % nbc
        flat = acc.reshape(-1)
        nz = np.flatnonzero(flat)
        blk_idx, cell = np.divmod(nz, BLOCK * BLOCK)
        li, lj = np.divmod(cell, BLOCK)
        rows = out_brow[blk_idx] * BLOCK + li
        cols = out_bcol[blk_idx] * BLOCK + lj
        vals = flat[nz]
        keep = (rows < m.shape[0]) & (cols < m.shape[1])
        return CsrMatrix.from_coo(rows[keep], cols[keep], vals[keep],
                                  m.shape, sum_duplicates=False)

    # ------------------------------------------------------------------
    def analytic_stats(self, variant: Variant,
                       case: WorkloadCase) -> KernelStats:
        a, m = _analytic_matrix(*self.matrix_args(case))
        return self._stats(variant, a, m)

    def _stats(self, variant: Variant, a: CsrMatrix,
               m: MbsrMatrix) -> KernelStats:
        st = KernelStats()
        # scalar expansion size (essential multiply-adds)
        b_len = a.row_lengths()
        scalar_products = float(b_len[a.indices].sum())
        st.essential_flops = 2.0 * scalar_products
        # block expansion size
        blk_len = np.diff(m.block_indptr)
        block_products = float(blk_len[m.block_indices].sum())
        c_bytes_est = 12.0 * min(scalar_products, float(a.n_rows) * 512)
        if variant is Variant.BASELINE:
            st.add_fma(2.0 * scalar_products)
            st.cc_efficiency = CC_EFF
            st.mlp = MLP_IRREGULAR
            # expand: A streams once; every product gathers one B entry
            st.read_dram(12.0 * a.nnz, segment_bytes=1 << 12)
            st.read_dram(12.0 * scalar_products * BASE_REUSE,
                         segment_bytes=12)
        else:
            block_bytes = BLOCK * BLOCK * 8.0 + 12.0   # payload + indices
            # one 8x4 x 4x8 MMA evaluates 4 quadrant products of which the
            # two diagonal tiles are consumed ("half of the 8x8 output")
            mmas = block_products / 2.0
            if variant is Variant.TC:
                st.add_mma_fp64(mmas, output_useful=32.0 * mmas)
                st.tc_efficiency = TC_EFF
            elif variant is Variant.CC:
                st.add_mma_as_fma(mmas)
                st.cc_efficiency = CC_EFF_MMA
                st.mlp = MLP_MMA_CC
            else:  # CC-E: the 4x4x4 block products without the MMA padding
                st.add_fma(2.0 * block_products * BLOCK ** 3)
                st.cc_efficiency = CC_EFF
            st.read_dram(block_bytes * m.n_blocks, segment_bytes=128)
            st.read_dram(block_bytes * block_products * TC_REUSE,
                         segment_bytes=128)
        st.write_dram(c_bytes_est, segment_bytes=1 << 10)
        st.add_l1(16.0 * scalar_products)
        return st
