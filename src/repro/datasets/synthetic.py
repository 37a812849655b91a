"""Deterministic pseudo-random input generation.

The paper initializes inputs with "pseudo-random values distributed within
(-2, 2) using a linear congruential generator method, following the LINPACK
benchmark" (Section 8).  :class:`Lcg` implements a 48-bit LCG with the
classic ``drand48`` multiplier and reproduces the exact sequential sequence
through a vectorized leapfrog scheme, so generating millions of values does
not require a Python-level loop per value.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Lcg", "default_rng"]

_A = 0x5DEECE66D
_C = 0xB
_MOD_BITS = 48
_MASK = (1 << _MOD_BITS) - 1
#: streams used by the vectorized leapfrog
_LANES = 1024


def _lane_affine() -> tuple[np.ndarray, np.ndarray]:
    """Per-lane affine constants ``(a^i mod 2^48, c-sum_i)`` for
    ``i = 1.._LANES``."""
    a_pows = np.empty(_LANES, dtype=np.uint64)
    c_sums = np.empty(_LANES, dtype=np.uint64)
    a_i, c_i = 1, 0
    for i in range(_LANES):
        a_i, c_i = (_A * a_i) & _MASK, (_A * c_i + _C) & _MASK
        a_pows[i] = a_i
        c_sums[i] = c_i
    return a_pows, c_sums


#: the per-lane table, built once at import — it depends only on the LCG
#: constants, so every generator shares it and seeding needs no
#: Python-level loop
_LANE_AFFINE = _lane_affine()


class Lcg:
    """48-bit linear congruential generator, LINPACK style.

    ``state_{i+1} = (a * state_i + c) mod 2^48`` with the drand48 constants.
    ``uniform(n)`` returns exactly the values a scalar implementation would
    produce, in order (verified by a unit test), but computes them in
    vectorized lane batches.
    """

    def __init__(self, seed: int = 1325) -> None:
        # 1325 is the historical LINPACK matgen seed
        self.state = (int(seed) ^ _A) & _MASK
        # leapfrog constants: A_L = a^L, C_L = c * (a^{L-1} + ... + 1) —
        # the last row of the shared per-lane affine table
        a_pows, c_sums = _LANE_AFFINE
        self._a_lane = int(a_pows[-1])
        self._c_lane = int(c_sums[-1])

    # ------------------------------------------------------------------
    def _raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 48-bit states, exact sequential order."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        # seed the first min(n, LANES) states in one vectorized affine
        # step: state_i = a^i * s + c_i (mod 2^48).  uint64 wraparound is
        # harmless — only the low 48 bits of the product survive the mask,
        # and those are exact, so this matches the scalar loop bit-for-bit
        lanes = min(n, _LANES)
        a_pows, c_sums = _LANE_AFFINE
        with np.errstate(over="ignore"):
            first = (a_pows[:lanes] * np.uint64(self.state)
                     + c_sums[:lanes]) & np.uint64(_MASK)
        rows = (n + lanes - 1) // lanes
        out = np.empty((rows, lanes), dtype=np.uint64)
        out[0] = first
        if rows > 1:
            a = np.uint64(self._a_lane)
            c = np.uint64(self._c_lane)
            mask = np.uint64(_MASK)
            cur = first.copy()
            with np.errstate(over="ignore"):
                for r in range(1, rows):
                    cur = (a * cur + c) & mask
                    out[r] = cur
        flat = out.reshape(-1)[:n]
        # advance the scalar state to position n exactly
        a_n, c_n = 1, 0
        remaining = n
        a_step, c_step = _A, _C
        while remaining:
            if remaining & 1:
                a_n, c_n = (a_step * a_n) & _MASK, (a_step * c_n + c_step) & _MASK
            a_step, c_step = (a_step * a_step) & _MASK, \
                (a_step * c_step + c_step) & _MASK
            remaining >>= 1
        self.state = (a_n * self.state + c_n) & _MASK
        return flat

    # ------------------------------------------------------------------
    def uniform(self, n: int, low: float = -2.0, high: float = 2.0,
                shape: tuple[int, ...] | None = None) -> np.ndarray:
        """``n`` doubles uniform in ``[low, high)`` (paper default (-2, 2)).

        Two 48-bit draws are combined per value so the full 53-bit double
        mantissa is populated.  A single 48-bit draw would make every value
        a short dyadic rational whose partial sums are *exact* in FP64 —
        all accumulation orders would then agree bit-for-bit and the
        Table 6 accuracy study would degenerate to zeros.
        """
        raw = self._raw(2 * n).astype(np.float64)
        u = (raw[0::2] + raw[1::2] / float(1 << _MOD_BITS)) \
            / float(1 << _MOD_BITS)
        vals = low + (high - low) * u
        return vals.reshape(shape) if shape is not None else vals

    def uniform48(self, n: int, low: float = 0.0, high: float = 1.0,
                  shape: tuple[int, ...] | None = None) -> np.ndarray:
        """Single-draw 48-bit uniforms: the exact classical LCG sequence
        (one value per state step), used where sequence fidelity matters
        more than mantissa coverage."""
        u = self._raw(n).astype(np.float64) / float(1 << _MOD_BITS)
        vals = low + (high - low) * u
        return vals.reshape(shape) if shape is not None else vals

    def integers(self, n: int, low: int, high: int) -> np.ndarray:
        """``n`` integers uniform in ``[low, high)``."""
        if high <= low:
            raise ValueError("high must exceed low")
        span = high - low
        return (low + (self._raw(n) % np.uint64(span)).astype(np.int64))

    def choice_mask(self, n: int, p: float) -> np.ndarray:
        """Boolean mask with independent probability ``p`` per slot."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        return self._raw(n).astype(np.float64) / float(1 << _MOD_BITS) < p

    def permutation(self, n: int) -> np.ndarray:
        """A deterministic permutation of ``range(n)`` (sort of LCG keys)."""
        return np.argsort(self._raw(n), kind="stable").astype(np.int64)


def default_rng(seed: int = 1325) -> Lcg:
    """The package-wide default generator (LINPACK seed)."""
    return Lcg(seed)
