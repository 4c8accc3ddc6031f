"""Barrett modular reduction for 32-bit moduli.

WarpDrive uses Barrett reduction everywhere outside the NTT (§IV-A-4):
element-wise ciphertext arithmetic does not enjoy the free Montgomery-domain
conversion that precomputed twiddles give the NTT, so Barrett's
single-constant form wins there.

We use the 64/32 split: with ``mu = floor(2**62 / q)`` and ``q < 2**31``,
``approx = (t * mu) >> 62`` misses the true quotient by at most one, so one
conditional subtraction corrects the remainder. To keep ``t * mu`` inside a
uint64 lane the vectorized path first splits the product — the same
double-word trick a 32-bit GPU kernel performs with ``__umulhi``.
"""

from __future__ import annotations

import numpy as np

from ..analysis.annotations import bounded, returns_view
from ..backend import active_backend

_SHIFT = 62

#: Exclusive input bound of the 64/32 split assembly: ``q**2 < 2**62``
#: plus the slack every caller is allowed (an extra accumulator term in
#: ``fma_``, the folded low word in ``wide_dot``) — still small enough
#: that the quotient approximation misses by at most two subtractions.
_REDUCE_INPUT = (1 << 62) + (1 << 53)


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


class BatchBarrettReducer:
    """Barrett arithmetic over a *stack* of moduli, one per matrix row.

    Where :class:`BarrettReducer` serves one modulus and 1-D vectors, this
    class serves the whole ``(num_primes, N)`` residue matrix of an RNS
    polynomial in a single numpy expression: the per-row constants are
    stored as arrays and broadcast down each row. Every elementwise
    operation is the exact uint64 sequence of the scalar class, so results
    are bit-identical to looping :class:`BarrettReducer` over the rows —
    the batched layout only removes the Python interpreter from the loop,
    the same way WarpDrive's kernels treat the limb dimension as one dense
    batch (§IV-A, §IV-B).
    """

    def __init__(self, moduli):
        self.moduli = tuple(moduli)
        if not self.moduli:
            raise ValueError("batch reducer needs at least one modulus")
        for q in self.moduli:
            if not 2 < q < (1 << 31):
                raise ValueError(
                    f"modulus must lie in (2, 2**31), got {q}"
                )
        mu = [(1 << _SHIFT) // q for q in self.moduli]
        self._q = np.array(self.moduli, dtype=np.uint64)
        self._mu_hi = np.array([m >> 32 for m in mu], dtype=np.uint64)
        self._mu_lo = np.array([m & 0xFFFFFFFF for m in mu], dtype=np.uint64)

    def __len__(self) -> int:
        return len(self.moduli)

    @returns_view
    @bounded(assume=True, out_q=1)
    def q_col(self, ndim: int = 2) -> np.ndarray:
        """The modulus vector shaped ``(num_primes, 1, ...)`` for
        broadcasting against ``ndim``-D residue arrays."""
        return self._q.reshape((-1,) + (1,) * (ndim - 1))

    @returns_view
    @bounded(assume=True, out_q=1)
    def q_row(self) -> np.ndarray:
        """The modulus vector as a flat ``(num_primes,)`` uint64 array —
        the per-row constant shape the backend kernels take."""
        return self._q

    @bounded(assume=True, params={"t": {"ubound": _REDUCE_INPUT}},
             out_q=1)
    def reduce_mat(self, t: np.ndarray) -> np.ndarray:
        """Row-wise ``t mod q_i`` for uint64 entries below ``q_i**2``.

        Delegates to :meth:`repro.backend.NumpyBackend.mod_reduce`, which
        returns the canonical residue bit-identical to
        :meth:`BarrettReducer.reduce_vec` with the row's own constants.
        """
        return active_backend().mod_reduce(t, self._q)

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def mul_mat(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise ``a * b mod q_i`` for entries below ``q_i``."""
        return active_backend().mod_mul(a, b, self._q)

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def add_mat(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise ``a + b mod q_i`` for entries below ``q_i``."""
        return active_backend().mod_add(a, b, self._q)

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def sub_mat(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise ``a - b mod q_i`` for entries below ``q_i``."""
        return active_backend().mod_sub(a, b, self._q)

    @bounded(assume=True, params={"a": {"q": 1}}, out_q=1)
    def neg_mat(self, a: np.ndarray) -> np.ndarray:
        """Row-wise ``-a mod q_i`` for entries below ``q_i``."""
        return active_backend().mod_neg(a, self._q)

    @bounded(assume=True, out_q=1)
    def reduce_scalar(self, value: int) -> np.ndarray:
        """``value mod q_i`` per row as a ``(num_primes, 1)`` uint64 column
        (accepts arbitrary-precision integers)."""
        return np.array(
            [value % q for q in self.moduli], dtype=np.uint64
        ).reshape(-1, 1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BatchBarrettReducer(L={len(self.moduli)})"
