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

The stacked NTT/INTT is the paper's GEMM four-step (§IV-A/B): two
exact float64 BLAS dgemms per (prime, digit) around a Shoup twiddle
product. Its float core is ``assume=True``; exactness is derived by
:func:`~repro.ntt.stacked.limb_split` and tested at worst-case inputs.
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


def _limbs(src: np.ndarray, limbs: int, width: int,
           axis: int) -> np.ndarray:
    """Float64 ``width``-bit limbs of ``src`` (uint64, ``< 2**32``),
    least significant first along a new ``axis``."""
    out = np.empty(src.shape[:axis] + (limbs,) + src.shape[axis:])
    dst = np.moveaxis(out, axis, 0)
    for limb in range(limbs):
        part = src >> np.uint64(width * limb) if limb else src
        dst[limb] = part & np.uint64((1 << width) - 1) \
            if limb < limbs - 1 else part
    return out


def _shifted_residue(v: np.ndarray, q_f: np.ndarray) -> np.ndarray:
    """In place ``v - (rint(v / q) - 1) * q`` for float64 integers with
    ``|v| + 2q <= 2**53``: congruent, and within ``q/2 + 2`` of ``q``."""
    c = v * (1.0 / q_f)
    np.rint(c, out=c)
    c -= 1.0
    c *= q_f
    v -= c
    return v


#: Input elements per tile of the GEMM four-step (1 MiB of uint64):
#: a tile's limb and product buffers then stay near a per-core L2 cache
#: instead of streaming ``(P, G, N)``-sized temporaries through memory.
_TILE = 1 << 17


def _four_step_tile(x: np.ndarray, tabs, rows: slice, q: np.ndarray,
                    out: np.ndarray, t_out: bool) -> None:
    """Transform the primes ``rows`` of a batch into ``out``, a
    ``(P, G, N2, N1)`` or (``t_out``) ``(P, N2, N1, G)`` view."""
    p, g, n = x.shape
    n1, n2 = tabs.n1, tabs.n2
    q_f = _col(q.astype(np.float64), 4)
    a = _limbs(x.reshape(p, g, n1, n2), tabs.limbs1, tabs.width1, 2)
    u = np.matmul(tabs.f1[rows, None], a.reshape(p, g, -1, n2))
    u = _shifted_residue(u, q_f).astype(np.uint64)
    t = u * tabs.t_sh[rows]
    t >>= _U32
    t *= _col(q, 4)
    u *= tabs.t[rows]
    u -= t
    # Drop each step's buffers once consumed: they set peak memory.
    del a, t
    w = _limbs(u, tabs.limbs2, tabs.width2, 3).reshape(p, g, n1, -1)
    del u
    z = _shifted_residue(
        np.matmul(tabs.f2[rows, None], w.transpose(0, 1, 3, 2)), q_f)
    del w
    out[...] = z.transpose(0, 2, 3, 1) if t_out else z
    np.minimum(out, out - _col(q, 4), out=out)


@bounded(assume=True, params={"x": {"bits": 32}}, out_q=1)
def _gemm_four_step(x: np.ndarray, tabs, q: np.ndarray,
                    t_out: bool) -> np.ndarray:
    """Exact GEMM four-step of a ``(P, G, N)`` batch below ``2**32``
    with one direction's :class:`~repro.ntt.stacked.GemmTables`:
    canonical, natural order, ``(P, N, G)`` layout for ``t_out``.

    Per (prime, digit), ``F1 @ X`` and ``F2 @ W.T`` are BLAS dgemms, so
    the four-step's transpose rides in the GEMM. Their float sums are
    exact (:func:`~repro.ntt.stacked.limb_split`); the first shifts into
    ``[0, 2**32)`` for the Shoup twiddle product (``< 2q``), the second
    into ``[0, 2q)`` for the min-trick. Primes run in tiles of about
    ``_TILE`` input elements.
    """
    p, g, n = x.shape
    grid = (tabs.n2, tabs.n1)
    out = np.empty((p, *grid, g) if t_out else (p, g, *grid), np.uint64)
    step = max(1, _TILE // (g * n))
    for lo in range(0, p, step):
        rows = slice(lo, lo + step)
        _four_step_tile(x[rows], tabs, rows, q[rows], out[rows], t_out)
    return out.reshape(p, n, g) if t_out else out.reshape(p, g, n)


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

    @bounded(assume=True, in_bits=32, out_q=1, out_q_lazy=2,
             params={"x": {"bits": 32}})
    def ntt_forward(self, x: np.ndarray, stack, *, lazy: bool = False,
                    t_out: bool = False) -> np.ndarray:
        # Always canonical: lazy=True permits, never requires, < 2q.
        return _gemm_four_step(x.astype(np.uint64, copy=False),
                               stack.forward, stack.q, t_out)

    @bounded(assume=True, in_q=2, out_q=1, params={"x": {"q": 2}})
    def ntt_inverse(self, x: np.ndarray, stack) -> np.ndarray:
        return _gemm_four_step(x.astype(np.uint64, copy=False),
                               stack.inverse, stack.q, False)

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
