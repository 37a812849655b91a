"""Bit-identity pins for the vectorized inner loops: each rewritten loop
must perform the same adds in the same order as the scalar loop it
replaced, so outputs match bit-for-bit — not merely to tolerance."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernels.gemv import GemvWorkload
from repro.kernels.reduction import ReductionWorkload
from repro.kernels.scan import ScanWorkload
from repro.kernels.spgemm import accumulate_sequential


def _lane_tree_dot_scalar(a, x, lanes):
    """The original scalar reference: lane l accumulates columns
    l, l+lanes, ... one at a time, then a binary tree combine."""
    m, n = a.shape
    partial = np.zeros((m, lanes))
    for col in range(n):
        partial[:, col % lanes] += a[:, col] * x[col]
    w = lanes
    while w > 1:
        half = w // 2
        partial[:, :half] += partial[:, half:w]
        w = half
    return partial[:, 0].copy()


def _cub_block_reduce_scalar(x, lanes=32):
    nseg, seg = x.shape
    partial = np.zeros((nseg, lanes))
    for col in range(seg):
        partial[:, col % lanes] += x[:, col]
    w = lanes
    while w > 1:
        half = w // 2
        partial[:, :half] += partial[:, half:w]
        w = half
    return partial[:, 0].copy()


def _serial_block_carry(blk):
    """The original per-block serial carry chain of the MMA scan."""
    nseg, blocks = blk.shape[:2]
    out = blk.copy()
    carry = np.zeros(nseg)
    for b in range(blocks):
        out[:, b] += carry[:, np.newaxis, np.newaxis]
        carry = carry + blk[:, b, 7, 7]
    return out


RNG = np.random.default_rng(99)


class TestLaneTreeDot:
    @pytest.mark.parametrize("lanes", [2, 4])
    @pytest.mark.parametrize("n", [16, 17, 31, 32, 33])
    def test_matches_scalar_loop(self, lanes, n):
        a = RNG.uniform(-2, 2, (37, n))
        x = RNG.uniform(-2, 2, n)
        np.testing.assert_array_equal(
            GemvWorkload._lane_tree_dot(a, x, lanes),
            _lane_tree_dot_scalar(a, x, lanes))

    def test_short_rows(self):
        # n < lanes: only the tail slice contributes
        a = RNG.uniform(-2, 2, (5, 3))
        x = RNG.uniform(-2, 2, 3)
        np.testing.assert_array_equal(
            GemvWorkload._lane_tree_dot(a, x, 4),
            _lane_tree_dot_scalar(a, x, 4))


class TestCubBlockReduce:
    @pytest.mark.parametrize("seg", [32, 64, 65, 100, 1024])
    def test_matches_scalar_loop(self, seg):
        x = RNG.uniform(-2, 2, (11, seg))
        np.testing.assert_array_equal(
            ReductionWorkload._cub_block_reduce(x),
            _cub_block_reduce_scalar(x))


class TestScanCarry:
    @pytest.mark.parametrize("seg", [64, 128, 512, 1024])
    def test_mma_scan_carry_matches_serial_chain(self, seg):
        # run the full MMA scan and re-derive the block-carry step by the
        # serial chain it replaced: cumsum is ufunc accumulate (strictly
        # left-to-right), so both must agree bit-for-bit
        x = RNG.uniform(0, 1, (9, seg))
        got = ScanWorkload._mma_scan(x)
        nseg, blocks = x.shape[0], seg // 64
        v = x.reshape(nseg, blocks, 8, 8)
        from repro.gpu.mma import mma_fp64_batched
        from repro.kernels.scan import (
            ALL_ONES,
            LOWER_STRICT_ONES,
            UPPER_ONES,
        )
        p = mma_fp64_batched(v, np.broadcast_to(UPPER_ONES, v.shape))
        rowsum = mma_fp64_batched(v, np.broadcast_to(ALL_ONES, v.shape))
        offs = mma_fp64_batched(
            np.broadcast_to(LOWER_STRICT_ONES, v.shape), rowsum)
        blk = p + offs
        expect = _serial_block_carry(blk).reshape(nseg, seg)
        np.testing.assert_array_equal(got, expect)


def _sequential_runs(vals, starts):
    """Each run's sum by an explicit Python loop, first to last from
    +0.0 (Python floats are IEEE doubles: the same adds, one by one)."""
    bounds = [int(b) for b in starts] + [len(vals)]
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        total = 0.0
        for v in vals[lo:hi]:
            total += float(v)
        out.append(total)
    return np.array(out, dtype=np.float64)


specials = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                            -5e-324, 2.2250738585072014e-308, 1.0, 1e-16])
# run lengths straddle 128, numpy's pairwise-summation block
run_lengths = st.lists(st.one_of(st.integers(1, 9), st.integers(120, 300)),
                       max_size=5)


@st.composite
def runs(draw):
    lengths = draw(run_lengths)
    vals = draw(st.lists(st.one_of(specials, st.floats()),
                         min_size=sum(lengths), max_size=sum(lengths)))
    starts = np.cumsum([0] + lengths[:-1]) if lengths else []
    return (np.array(vals, dtype=np.float64),
            np.array(starts, dtype=np.int64))


class TestAccumulateSequential:
    @given(runs())
    @example((np.array([1.0] + [1e-16] * 200),
              np.array([0], dtype=np.int64)))
    @settings(max_examples=150, deadline=None)
    def test_matches_explicit_loop(self, case):
        # bit for bit, the sign of zero included; a pairwise
        # ``np.add.reduceat`` rounds the 201-term run differently.  IEEE
        # 754 leaves a NaN result's sign and payload open (they follow
        # the operand order the compiler picks), so NaNs match as NaNs.
        vals, starts = case
        got = accumulate_sequential(vals, starts)
        want = _sequential_runs(vals, starts)
        nan = np.isnan(want)
        assert got.dtype == np.float64
        assert np.isnan(got).tolist() == nan.tolist()
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_empty_input(self):
        got = accumulate_sequential(np.empty(0), np.empty(0, dtype=np.int64))
        assert got.dtype == np.float64 and got.size == 0
