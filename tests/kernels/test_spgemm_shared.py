"""SpGEMM's shared work: the reference reduces each sorted scalar product
chunk both ways and hands the baseline its output, and CC-E sums whole
output blocks per chunk.  Both must stay bit-identical to computing each
output on its own."""

import numpy as np
import pytest

from repro.gpu import warp_events
from repro.gpu.device import Device
from repro.kernels import spgemm as spgemm_mod
from repro.kernels.base import Variant
from repro.kernels.spgemm import SpgemmWorkload
from repro.sparse.csr import CsrMatrix
from repro.sparse.mbsr import BLOCK

STASH = "_baseline_out"


def _bits(m: CsrMatrix) -> tuple[bytes, bytes, bytes]:
    return m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes()


def _prepare(case: int) -> tuple[SpgemmWorkload, dict]:
    w = SpgemmWorkload(scale=0.08, exec_scale=0.02)
    return w, w.prepare(w.exec_case(w.cases()[case]), seed=7)


@pytest.fixture
def raefsky3():
    return _prepare(2)


def test_baseline_takes_the_references_output(raefsky3, monkeypatch):
    w, data = raefsky3
    a = data["a"]
    fresh = a.spgemm(a)
    ref = w.reference(data)
    assert STASH in data

    def no_spgemm(*args, **kwargs):
        raise AssertionError("the baseline expanded the product again")

    monkeypatch.setattr(CsrMatrix, "spgemm", no_spgemm)
    out = w.execute(Variant.BASELINE, data, Device("H200")).output
    assert _bits(out) == _bits(fresh)
    assert STASH not in data
    # the same entries, summed in two orders that do differ here
    assert _bits(out)[:2] == _bits(ref)[:2]
    assert out.data.tobytes() != ref.data.tobytes()


def test_traced_baseline_recomputes(raefsky3, monkeypatch):
    w, data = raefsky3
    a = data["a"]
    w.reference(data)
    real = CsrMatrix.spgemm
    calls = []

    def counting(self, other, **kwargs):
        calls.append(other)
        return real(self, other, **kwargs)

    monkeypatch.setattr(CsrMatrix, "spgemm", counting)
    monkeypatch.setattr(warp_events, "TRACER", object())
    out = w.execute(Variant.BASELINE, data, Device("H200")).output
    assert len(calls) == 1
    assert STASH not in data
    assert _bits(out) == _bits(real(a, a))


def test_baseline_without_reference_computes_its_own(raefsky3):
    w, data = raefsky3
    a = data["a"]
    out = w.execute(Variant.BASELINE, data, Device("H200")).output
    assert _bits(out) == _bits(a.spgemm(a))


def _cce_per_block(m) -> np.ndarray:
    """CC-E by an explicit loop: every block product's k pairs combined
    by the binary tree, added into its output block in expansion order
    from +0.0; returned dense."""
    brow, bcol, ablk, bblk = SpgemmWorkload._block_products(m)
    acc: dict[tuple[int, int], list[list[float]]] = {}
    for p in range(len(brow)):
        lhs = m.blocks[ablk[p]].tolist()
        rhs = m.blocks[bblk[p]].tolist()
        blk = acc.setdefault((int(brow[p]), int(bcol[p])),
                             [[0.0] * BLOCK for _ in range(BLOCK)])
        for i in range(BLOCK):
            for j in range(BLOCK):
                blk[i][j] += ((lhs[i][0] * rhs[0][j] + lhs[i][2] * rhs[2][j])
                              + (lhs[i][1] * rhs[1][j]
                                 + lhs[i][3] * rhs[3][j]))
    dense = np.zeros(m.shape)
    for (bi, bj), blk in acc.items():
        for i in range(BLOCK):
            for j in range(BLOCK):
                r, c = bi * BLOCK + i, bj * BLOCK + j
                if r < m.shape[0] and c < m.shape[1]:
                    dense[r, c] = blk[i][j]
    return dense


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_cce_chunks_match_a_per_block_loop(monkeypatch, chunk):
    # spmsrtls at this scale: ~3.3K block products into ~2.3K output
    # blocks, many with several products, so small chunks cut often
    w, data = _prepare(0)
    m = data["mbsr"]
    n_products = len(SpgemmWorkload._block_products(m)[0])
    assert n_products > 20 * chunk
    monkeypatch.setattr(spgemm_mod, "CHUNK", chunk)
    out = w._block_spgemm(m, tree=True)
    assert out.to_dense().tobytes() == _cce_per_block(m).tobytes()
