"""Numpy kernels of the RNS/NTT hot path.

The elementwise hot path (add/sub/mul at n=2048/4096, ``BENCH_poly.json``)
rests on two choices:

* **Hardware-division reduce.** The row-wise Barrett partial-product
  assembly was ~17 ufunc passes with intermediate allocations; numpy's
  vectorized integer ``%`` (libdivide-style SIMD division since numpy
  1.26) computes the identical canonical residue in a *single* pass,
  4-5x faster at every measured size. These kernels are the only
  vector reduction in the library; the 64/32 Barrett split survives as
  the scalar/GPU reference discipline in ``tests/oracles/barrett.py``
  and the property tests that pin ``%`` to it.
* **Branchless min-trick add/sub.** ``np.subtract(..., where=mask)``
  allocates a bool mask and runs a slow masked inner loop. For
  ``s = a + b < 2q < 2**33`` the wrap-around trick ``min(s, s - q)``
  is exact (``s - q`` wraps past ``2**63`` when ``s < q``) and runs as
  two unmasked passes — ~6x faster than the masked form at n=2048.

The stacked NTT/INTT is the paper's GEMM four-step (§IV-A/B): two
exact float64 BLAS dgemms per (prime, digit) around a Shoup twiddle
product. Basis conversion (:func:`bconv_gemm`) is the same kind of
product and shares its limb split and reduction. The float cores are
``assume=True``; exactness is derived by
:func:`~repro.ntt.stacked.limb_split` and tested at worst-case inputs.
"""

from __future__ import annotations

import numpy as np

from ..analysis.annotations import bounded

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
                    out: np.ndarray) -> None:
    """Transform the primes ``rows`` of a batch into ``out``, a
    ``(P, G, N2, N1)`` view."""
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
    out[...] = z
    np.minimum(out, out - _col(q, 4), out=out)


@bounded(assume=True, params={"x": {"bits": 32}}, out_q=1)
def _gemm_four_step(x: np.ndarray, tabs, q: np.ndarray) -> np.ndarray:
    """Exact GEMM four-step of a ``(P, G, N)`` batch below ``2**32``
    with one direction's :class:`~repro.ntt.stacked.GemmTables`:
    canonical, natural order.

    Per (prime, digit), ``F1 @ X`` and ``F2 @ W.T`` are BLAS dgemms, so
    the four-step's transpose rides in the GEMM. Their float sums are
    exact (:func:`~repro.ntt.stacked.limb_split`); the first shifts into
    ``[0, 2**32)`` for the Shoup twiddle product (``< 2q``), the second
    into ``[0, 2q)`` for the min-trick. Primes run in tiles of about
    ``_TILE`` input elements.
    """
    p, g, n = x.shape
    out = np.empty((p, g, tabs.n2, tabs.n1), np.uint64)
    step = max(1, _TILE // (g * n))
    for lo in range(0, p, step):
        rows = slice(lo, lo + step)
        _four_step_tile(x[rows], tabs, rows, q[rows], out[rows])
    return out.reshape(p, g, n)


#: Output elements per column tile of :func:`bconv_gemm` (128 KiB of
#: float64): a tile's temporaries are recycled by the allocator instead
#: of being paged in afresh for every ``(T, G, M)``-sized pass.
_BCONV_TILE = 1 << 14


@bounded(assume=True, out_q=1, max_lanes=3 * 1365,
         params={"y": {"bits": 32}})
def bconv_gemm(y: np.ndarray, table: np.ndarray, limbs: int, width: int,
               q: np.ndarray) -> np.ndarray:
    """Basis conversion as an exact float64 GEMM: the canonical
    ``out[t, g] = sum_i y[g, i] * hat[g, t, i] mod q_t``, prime-major
    ``(T, G, M)``, for ``(G, alpha, M)`` digits ``y`` below ``2**32``.

    ``table`` is ``(G, T, limbs * alpha)``: the hats times each limb's
    ``2**(width * l)``, balanced into ``(-q/2, q/2]``, so with ``limbs``
    and ``width`` from :func:`~repro.ntt.stacked.limb_split` over the
    ``alpha`` rows every float sum is exact, and the four-step's
    reduction shifts it into ``[0, 2q)`` for the min-trick. Every digit
    rides one batched matmul per tile of ``_BCONV_TILE`` outputs.
    """
    g, alpha, m = y.shape
    q_f = _col(q.astype(np.float64), 2)
    out = np.empty((len(q), g, m), dtype=np.uint64)
    step = max(1, _BCONV_TILE // (g * len(q)))
    for lo in range(0, m, step):
        a = _limbs(y[:, :, lo:lo + step], limbs, width, 1)
        tile = out[:, :, lo:lo + step]
        tile.transpose(1, 0, 2)[...] = _shifted_residue(
            np.matmul(table, a.reshape(g, limbs * alpha, -1)), q_f)
        np.minimum(tile, tile - _col(q, 3), out=tile)
    return out


class NumpyBackend:
    """The hot kernels. Array arguments are uint64 with the prime index
    on axis 0; per-row moduli ``q`` arrive as 1-D ``(num_primes,)``
    uint64 arrays. Every method returns canonical residues (``< q`` per
    row) and leaves its inputs unchanged."""

    # ---- elementwise modular arithmetic ---------------------------------

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def mod_add(self, a: np.ndarray, b: np.ndarray,
                q: np.ndarray) -> np.ndarray:
        """Row-wise ``a + b mod q_i`` for entries below ``q_i``."""
        s = a.astype(np.uint64, copy=False) + b.astype(np.uint64, copy=False)
        d = s - _col(q, s.ndim)
        # min-trick: d wrapped past 2**63 exactly when s < q.
        np.minimum(s, d, out=d)
        return d

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def mod_sub(self, a: np.ndarray, b: np.ndarray,
                q: np.ndarray) -> np.ndarray:
        """Row-wise ``a - b mod q_i`` for entries below ``q_i``."""
        d = a.astype(np.uint64, copy=False) - b.astype(np.uint64, copy=False)
        # a >= b: d < q is already canonical and d + q > d picks d;
        # a < b: d wrapped huge, d + q wraps again to a + q - b < q.
        t = d + _col(q, d.ndim)
        np.minimum(d, t, out=t)
        return t

    @bounded(assume=True, params={"a": {"q": 1}}, out_q=1)
    def mod_neg(self, a: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Row-wise ``-a mod q_i`` for entries below ``q_i``."""
        a = a.astype(np.uint64, copy=False)
        return np.where(a == 0, a, _col(q, a.ndim) - a)

    @bounded(assume=True, params={"t": {"ubound": 1 << 63}}, out_q=1)
    def mod_reduce(self, t: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Row-wise ``t mod q_i`` for any uint64 ``t``."""
        # One SIMD integer-division pass; exact for any uint64 input, so
        # it covers the full Barrett range (q**2 plus accumulator slack).
        return t.astype(np.uint64, copy=False) % _col(q, t.ndim)

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def mod_mul(self, a: np.ndarray, b: np.ndarray,
                q: np.ndarray) -> np.ndarray:
        """Row-wise ``a * b mod q_i`` for entries below ``q_i``; operands
        broadcast against each other (numpy rules)."""
        prod = a.astype(np.uint64, copy=False) * \
            b.astype(np.uint64, copy=False)
        np.remainder(prod, _col(q, prod.ndim), out=prod)
        return prod

    # ---- fused transform kernels ----------------------------------------

    @bounded(assume=True, in_bits=32, out_q=1, params={"x": {"bits": 32}})
    def ntt_forward(self, x: np.ndarray, stack) -> np.ndarray:
        """Forward stacked negacyclic NTT of a ``(P, G, N)`` batch below
        ``2**32`` with a :class:`~repro.ntt.stacked.ShoupStack`'s tables."""
        return _gemm_four_step(x.astype(np.uint64, copy=False),
                               stack.forward, stack.q)

    @bounded(assume=True, in_q=2, out_q=1, params={"x": {"q": 2}})
    def ntt_inverse(self, x: np.ndarray, stack) -> np.ndarray:
        """Inverse stacked negacyclic NTT of a ``(P, G, N)`` batch below
        ``2q``."""
        return _gemm_four_step(x.astype(np.uint64, copy=False),
                               stack.inverse, stack.q)

    @bounded(assume=True, out_q=1, max_lanes=1 << 20,
             params={"ext": {"bits": 32}, "rows": {"q": 1}})
    def wide_dot(self, ext: np.ndarray, rows: np.ndarray,
                 q: np.ndarray) -> np.ndarray:
        """``sum_g ext[..., g, :] * rows[..., g, :] mod q_i`` over the
        digit axis ``-2``, for canonical ``rows`` and any ``ext`` below
        ``2**32``."""
        # Each < 2**63 product splits into 32-bit halves which accumulate
        # exactly in uint64, one digit slice at a time (G up to max_lanes);
        # the sums fold with (hi mod q) * (2**32 mod q) + lo.
        shape = np.broadcast_shapes(ext.shape, rows.shape)
        hi = np.zeros(shape[:-2] + shape[-1:], np.uint64)
        lo = np.zeros_like(hi)
        prod = np.empty_like(hi)
        half = np.empty_like(hi)
        for g in range(shape[-2]):
            np.multiply(ext[..., g, :], rows[..., g, :], out=prod)
            hi += np.right_shift(prod, _U32, out=half)
            lo += np.bitwise_and(prod, _LO32, out=prod)
        q_c = _col(q, hi.ndim)
        np.remainder(hi, q_c, out=hi)
        hi *= (np.uint64(1) << _U32) % q_c
        hi += lo
        np.remainder(hi, q_c, out=hi)
        return hi
