"""The per-prime 64/32 Barrett split, kept as a test reference.

WarpDrive uses Barrett reduction everywhere outside the NTT (§IV-A-4).
The library reduces with the backend's vectorized ``%`` kernels over the
whole residue matrix (:class:`repro.numtheory.BatchBarrettReducer`);
:class:`BarrettReducer` is the scalar/GPU discipline they are pinned to:
with ``mu = floor(2**62 / q)`` and ``q < 2**31``, ``approx = (t * mu) >> 62``
misses the true quotient by at most one, and the vectorized path splits
the product into 32-bit halves — the double-word trick a 32-bit GPU
kernel performs with ``__umulhi``. :func:`get_reducer` is the per-modulus
cache the looped baselines use.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.analysis.annotations import bounded
from repro.ntt.tables import TABLE_CACHE_SIZE
from repro.numtheory.barrett import _REDUCE_INPUT

_SHIFT = 62


class BarrettReducer:
    """Barrett arithmetic for a fixed modulus ``q < 2**31``."""

    def __init__(self, modulus: int):
        if not 2 < modulus < (1 << 31):
            raise ValueError(f"modulus must lie in (2, 2**31), got {modulus}")
        self.modulus = modulus
        #: mu = floor(2**62 / q); fits in 32+ bits but always below 2**62.
        self.mu = (1 << _SHIFT) // modulus
        self._q64 = np.uint64(modulus)
        self._mu_hi = np.uint64(self.mu >> 32)
        self._mu_lo = np.uint64(self.mu & 0xFFFFFFFF)

    # ---- scalar reference ------------------------------------------------

    def reduce(self, t: int) -> int:
        """Return ``t mod q`` for ``0 <= t < q**2`` (covers any 62-bit input)."""
        if t < 0:
            raise ValueError("Barrett reduction input must be non-negative")
        approx = (t * self.mu) >> _SHIFT
        r = t - approx * self.modulus
        while r >= self.modulus:
            r -= self.modulus
        return r

    def mulmod(self, a: int, b: int) -> int:
        """Return ``a * b mod q`` for operands already below ``q``."""
        return self.reduce((a % self.modulus) * (b % self.modulus))

    # ---- vectorized hot path ----------------------------------------------

    @bounded(assume=True, params={"t": {"ubound": _REDUCE_INPUT}},
             out_q=1)
    def reduce_vec(self, t: np.ndarray) -> np.ndarray:
        """Vectorized ``t mod q`` for uint64 inputs below ``q**2 < 2**62``.

        Computes ``(t * mu) >> 62`` without overflowing uint64 by splitting
        ``mu`` into 32-bit halves: ``t*mu = (t*mu_hi << 32) + t*mu_lo``. The
        splits mirror the two ``__umulhi``/``mul.lo`` pairs an INT32 CUDA
        core issues for the same reduction.
        """
        t = t.astype(np.uint64, copy=False)
        t_hi = t >> np.uint64(32)
        t_lo = t & np.uint64(0xFFFFFFFF)
        # (t * mu) >> 64, assembled from four 32x32 partial products.
        lo_lo = t_lo * self._mu_lo
        mid1 = t_hi * self._mu_lo
        mid2 = t_lo * self._mu_hi
        carry = (lo_lo >> np.uint64(32)) + (mid1 & np.uint64(0xFFFFFFFF)) + (
            mid2 & np.uint64(0xFFFFFFFF)
        )
        high = (
            t_hi * self._mu_hi
            + (mid1 >> np.uint64(32))
            + (mid2 >> np.uint64(32))
            + (carry >> np.uint64(32))
        )
        # (t*mu) >> 62 == (high << 2) | (top 2 bits of the low word).
        low_word = (carry << np.uint64(32)) | (lo_lo & np.uint64(0xFFFFFFFF))
        approx = (high << np.uint64(2)) | (low_word >> np.uint64(62))
        r = t - approx * self._q64
        r = np.where(r >= self._q64, r - self._q64, r)
        return np.where(r >= self._q64, r - self._q64, r)

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized ``a * b mod q`` for uint64 arrays with entries < q."""
        prod = a.astype(np.uint64, copy=False) * b.astype(np.uint64, copy=False)
        return self.reduce_vec(prod)

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def add_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized ``a + b mod q`` for entries < q."""
        s = a.astype(np.uint64, copy=False) + b.astype(np.uint64, copy=False)
        return np.where(s >= self._q64, s - self._q64, s)

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def sub_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized ``a - b mod q`` for entries < q."""
        a = a.astype(np.uint64, copy=False)
        b = b.astype(np.uint64, copy=False)
        return np.where(a >= b, a - b, a + self._q64 - b)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BarrettReducer(q={self.modulus})"


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def get_reducer(modulus: int) -> BarrettReducer:
    """Shared Barrett reducer per modulus, sized like the twiddle-table
    cache."""
    return BarrettReducer(modulus)


def reducer_cache_stats() -> dict:
    """Hit/miss counters of the per-modulus reducer cache."""
    info = get_reducer.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "maxsize": info.maxsize,
        "currsize": info.currsize,
    }
