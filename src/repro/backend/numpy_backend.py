"""Numpy reference backend — always available, always the oracle.

Every other backend is checked bit-for-bit against this one. It is also
where the small-size batched-arithmetic regression documented in
``BENCH_poly.json`` (PR 1: add/sub/mul at 0.56-0.87x vs the seed
per-prime loop at n=2048/4096) is fixed, by two changes to the
elementwise hot path:

* **Hardware-division reduce.** The row-wise Barrett partial-product
  assembly was ~17 ufunc passes with intermediate allocations; numpy's
  vectorized integer ``%`` (libdivide-style SIMD division since numpy
  1.26) computes the identical canonical residue in a *single* pass,
  4-5x faster at every measured size. The 64/32 Barrett split survives
  in :class:`repro.numtheory.barrett.BarrettReducer` as the scalar/GPU
  reference discipline and in the property tests that pin ``%`` to it.
* **Branchless min-trick add/sub.** ``np.subtract(..., where=mask)``
  allocates a bool mask and runs a slow masked inner loop. For
  ``s = a + b < 2q < 2**33`` the wrap-around trick ``min(s, s - q)``
  is exact (``s - q`` wraps past ``2**63`` when ``s < q``) and runs as
  two unmasked passes — ~6x faster than the masked form at n=2048.

The stacked Shoup NTT/INTT butterfly sweep moved here unchanged from
``repro.ntt.stacked`` (PR 2); it keeps its checked ``@bounded``
lazy-window contract.
"""

from __future__ import annotations

import numpy as np

from ..analysis.annotations import bounded
from .base import ArrayBackend

_U32 = np.uint64(32)
_LO32 = np.uint64(0xFFFFFFFF)


def _col(vec: np.ndarray, ndim: int) -> np.ndarray:
    """Shape a 1-D per-row constant to broadcast over ``ndim``-D arrays
    whose leading axis is the prime index."""
    return vec.reshape((-1,) + (1,) * (ndim - 1))


@bounded(in_q=2, max_q_multiple=4, out_q=2,
         params={"a": {"q": 2}, "omega": {"q": 1},
                 "omega_sh": {"shoup": 32}, "q": {"modulus": True}})
def _butterfly_stages(a: np.ndarray, omega: np.ndarray,
                      omega_sh: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Radix-2 DIT sweep over axis 1 of ``a`` (shape ``(P, N, G)``,
    bit-reversed input order, values ``< 2q``); natural order out, lazy
    ``< 2q`` values. Mutates and returns ``a``.

    Every stage runs through four preallocated half-size scratch buffers
    (reshaped per stage — each stage touches exactly ``P * N/2 * G``
    elements) so the sweep performs zero allocations, and the difference
    leg exploits uint64 wraparound: ``lo - hi`` either is already the
    canonical-lazy value or wraps past ``2**63``, so ``min(d, d + 2q)``
    folds the borrow in one pass instead of pre-biasing by ``2q``.
    """
    num_primes, n, g = a.shape
    q4 = q.reshape(-1, 1, 1, 1)
    two_q = q4 + q4
    half_elems = num_primes * (n // 2) * g
    buf_v = np.empty(half_elems, dtype=np.uint64)
    buf_t = np.empty(half_elems, dtype=np.uint64)
    buf_s = np.empty(half_elems, dtype=np.uint64)
    buf_d = np.empty(half_elems, dtype=np.uint64)
    length = 2
    while length <= n:
        half = length // 2
        shape = (num_primes, n // length, half, g)
        view = a.reshape(num_primes, n // length, length, g)
        lo = view[:, :, :half, :]
        hi = view[:, :, half:, :]
        s = buf_s.reshape(shape)
        d = buf_d.reshape(shape)
        if length == 2:
            # The length-2 stage multiplies by omega^0 = 1: no mul, no copy.
            np.add(lo, hi, out=s)
            np.subtract(lo, hi, out=d)
        else:
            stride = n // length
            w = omega[:, ::stride][:, :half].reshape(num_primes, 1, half, 1)
            wsh = omega_sh[:, ::stride][:, :half].reshape(
                num_primes, 1, half, 1
            )
            # Shoup lazy product: v ≡ hi*w (mod q), v < 2q for hi < 2**32.
            v = buf_v.reshape(shape)
            t = buf_t.reshape(shape)
            np.multiply(hi, wsh, out=t)
            t >>= _U32
            t *= q4
            np.multiply(hi, w, out=v)
            v -= t
            np.add(lo, v, out=s)
            np.subtract(lo, v, out=d)
        # Fold both legs into [0, 2q): s < 4q loses one conditional 2q; the
        # wrapped d either is correct (< 2q) or recovers via + 2q.
        t = buf_t.reshape(shape)
        np.subtract(s, two_q, out=t)
        np.minimum(s, t, out=s)
        np.add(d, two_q, out=t)
        np.minimum(d, t, out=d)
        view[:, :, :half, :] = s
        view[:, :, half:, :] = d
        length *= 2
    return a


class NumpyBackend(ArrayBackend):
    """Pure-numpy reference implementation of every backend op."""

    name = "numpy"

    # ---- elementwise modular arithmetic ---------------------------------

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def mod_add(self, a: np.ndarray, b: np.ndarray,
                q: np.ndarray) -> np.ndarray:
        s = a.astype(np.uint64, copy=False) + b.astype(np.uint64, copy=False)
        d = s - _col(q, s.ndim)
        # min-trick: d wrapped past 2**63 exactly when s < q.
        np.minimum(s, d, out=d)
        return d

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def mod_sub(self, a: np.ndarray, b: np.ndarray,
                q: np.ndarray) -> np.ndarray:
        d = a.astype(np.uint64, copy=False) - b.astype(np.uint64, copy=False)
        # a >= b: d < q is already canonical and d + q > d picks d;
        # a < b: d wrapped huge, d + q wraps again to a + q - b < q.
        t = d + _col(q, d.ndim)
        np.minimum(d, t, out=t)
        return t

    @bounded(assume=True, params={"a": {"q": 1}}, out_q=1)
    def mod_neg(self, a: np.ndarray, q: np.ndarray) -> np.ndarray:
        a = a.astype(np.uint64, copy=False)
        return np.where(a == 0, a, _col(q, a.ndim) - a)

    @bounded(assume=True, params={"t": {"ubound": 1 << 63}}, out_q=1)
    def mod_reduce(self, t: np.ndarray, q: np.ndarray) -> np.ndarray:
        # One SIMD integer-division pass; exact for any uint64 input, so
        # it covers the full Barrett range (q**2 plus accumulator slack).
        return t.astype(np.uint64, copy=False) % _col(q, t.ndim)

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def mod_mul(self, a: np.ndarray, b: np.ndarray,
                q: np.ndarray) -> np.ndarray:
        prod = a.astype(np.uint64, copy=False) * \
            b.astype(np.uint64, copy=False)
        np.remainder(prod, _col(q, prod.ndim), out=prod)
        return prod

    # ---- fused transform kernels ----------------------------------------

    @bounded(in_bits=32, out_q=1, out_q_lazy=2, max_q_multiple=4,
             params={"x": {"bits": 32},
                     "stack.psi_perm": {"q": 1},
                     "stack.psi_perm_sh": {"shoup": 32},
                     "stack.omega": {"q": 1},
                     "stack.omega_sh": {"shoup": 32},
                     "stack.q": {"modulus": True}})
    def ntt_forward(self, x: np.ndarray, stack, *, lazy: bool = False,
                    t_out: bool = False) -> np.ndarray:
        # Bit-reversal gather, then transpose to the digit-innermost
        # layout so every butterfly slice is contiguous over the G lanes.
        a = np.ascontiguousarray(
            x.astype(np.uint64, copy=False)[:, :, stack._perm]
            .transpose(0, 2, 1)
        )
        q3 = stack.q.reshape(-1, 1, 1)
        # Pre-twist by psi (permuted table) — also reduces lazy inputs
        # to < 2q.
        wt = stack.psi_perm[:, :, None]
        wsh = stack.psi_perm_sh[:, :, None]
        t = a * wsh
        t >>= _U32
        t *= q3
        a *= wt
        a -= t
        a = _butterfly_stages(a, stack.omega, stack.omega_sh, stack.q)
        if not lazy:
            np.subtract(a, q3, out=t)  # canonicalize: < 2q -> < q
            np.minimum(a, t, out=a)
        if t_out:
            return a
        return np.ascontiguousarray(a.transpose(0, 2, 1))

    @bounded(in_q=2, out_q=1, max_q_multiple=4,
             params={"x": {"q": 2},
                     "stack.omega_inv": {"q": 1},
                     "stack.omega_inv_sh": {"shoup": 32},
                     "stack.psi_inv_scale": {"q": 1},
                     "stack.psi_inv_scale_sh": {"shoup": 32},
                     "stack.q": {"modulus": True}})
    def ntt_inverse(self, x: np.ndarray, stack) -> np.ndarray:
        a = np.ascontiguousarray(
            x.astype(np.uint64, copy=False)[:, :, stack._perm]
            .transpose(0, 2, 1)
        )
        a = _butterfly_stages(a, stack.omega_inv, stack.omega_inv_sh,
                              stack.q)
        q3 = stack.q.reshape(-1, 1, 1)
        # Fused post-twist psi^{-j} * N^{-1}, then canonicalize.
        wt = stack.psi_inv_scale[:, :, None]
        wsh = stack.psi_inv_scale_sh[:, :, None]
        t = a * wsh
        t >>= _U32
        t *= q3
        a *= wt
        a -= t
        np.subtract(a, q3, out=t)
        np.minimum(a, t, out=a)
        return np.ascontiguousarray(a.transpose(0, 2, 1))

    @bounded(assume=True, out_q=1, max_lanes=1 << 20,
             params={"ext": {"bits": 32}, "rows": {"q": 1}})
    def wide_dot(self, ext: np.ndarray, rows: np.ndarray, q: np.ndarray,
                 *, lane_axis: int = -2) -> np.ndarray:
        # Each < 2**63 product splits into 32-bit halves which accumulate
        # exactly in uint64 over the digit axis (safe for G up to ~2**25);
        # the partial sums fold with (hi mod q) * (2**32 mod q) + lo.
        prod = ext * rows
        hi = (prod >> _U32).sum(axis=lane_axis)
        lo = (prod & _LO32).sum(axis=lane_axis)
        q_c = _col(q, hi.ndim)
        np.remainder(hi, q_c, out=hi)
        radix = (np.uint64(1) << _U32) % q_c
        hi *= radix
        hi += lo
        np.remainder(hi, q_c, out=hi)
        return hi
