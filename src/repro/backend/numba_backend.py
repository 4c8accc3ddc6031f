"""Numba JIT backend: the hot kernels as single compiled passes.

Where the numpy reference expresses each kernel as a chain of whole-array
ufunc passes (every pass a fresh sweep over memory, most allocating an
intermediate), this backend fuses each kernel into one ``@njit`` loop
nest parallelized over the prime rows — the shape LibFHE (PAPERS.md)
demonstrates for CUDA-Python FHE kernels, here on the CPU threading
layer:

* the Barrett-range **reduce chains** become one in-place pass per
  product (hardware 64-bit division per lane);
* the stacked **NTT/INTT butterfly sweeps** run pre-twist, every radix-2
  stage and the final canonicalization in a single kernel — no per-stage
  scratch traffic at all;
* **wide_dot** accumulates the 32-bit split partial sums per output lane
  in registers instead of materializing the full product tensor.

Bit-exactness: every method returns exactly the numpy backend's values
(``self_check`` runs at construction — a backend that cannot prove
equality is discarded and selection falls back to numpy). ``lazy=True``
NTT representatives are backend-specific but congruent mod ``q`` and
below ``2**32``, per the interface contract.

This module imports ``numba`` at load time; it is only ever imported by
the selection machinery after a successful availability probe.
"""

from __future__ import annotations

import numpy as np
from numba import njit, prange

from ..analysis.annotations import bounded
from .numpy_backend import NumpyBackend

_U0 = np.uint64(0)
_U1 = np.uint64(1)
_U32 = np.uint64(32)
_MASK = np.uint64(0xFFFFFFFF)

# ---- compiled kernels ------------------------------------------------------


@njit(parallel=True, cache=True)
def _reduce_rows(t, q):  # pragma: no cover - requires numba
    """In-place row-wise ``t %= q[i]`` over a contiguous (rows, n) view."""
    rows, n = t.shape
    for i in prange(rows):
        qi = q[i]
        for j in range(n):
            t[i, j] = t[i, j] % qi


@njit(parallel=True, cache=True)
def _ntt_forward_rows(a, psi, psi_sh, omega, omega_sh, q,
                      lazy):  # pragma: no cover - requires numba
    """Fused forward sweep over ``a``: (P, N, G) uint64, bit-reversed
    order along axis 1, representatives < 2**32. Pre-twist, every DIT
    stage and (unless ``lazy``) the canonicalization run in one kernel;
    values stay in the lazy [0, 2q) window between stages."""
    num_primes, n, g = a.shape
    for p in prange(num_primes):
        qp = q[p]
        two_q = qp + qp
        for j in range(n):
            w = psi[p, j]
            wsh = psi_sh[p, j]
            for lane in range(g):
                x = a[p, j, lane]
                t = (x * wsh) >> _U32
                a[p, j, lane] = x * w - t * qp
        length = 2
        while length <= n:
            half = length >> 1
            stride = n // length
            for blk in range(n // length):
                base = blk * length
                for jj in range(half):
                    w = omega[p, jj * stride]
                    wsh = omega_sh[p, jj * stride]
                    ilo = base + jj
                    ihi = ilo + half
                    for lane in range(g):
                        lo = a[p, ilo, lane]
                        hi = a[p, ihi, lane]
                        t = (hi * wsh) >> _U32
                        v = hi * w - t * qp
                        s = lo + v
                        if s >= two_q:
                            s -= two_q
                        d = lo + two_q - v
                        if d >= two_q:
                            d -= two_q
                        a[p, ilo, lane] = s
                        a[p, ihi, lane] = d
            length <<= 1
        if not lazy:
            for j in range(n):
                for lane in range(g):
                    x = a[p, j, lane]
                    if x >= qp:
                        x -= qp
                    a[p, j, lane] = x


@njit(parallel=True, cache=True)
def _ntt_inverse_rows(a, omega_inv, omega_inv_sh, psi_inv_scale,
                      psi_inv_scale_sh, q):  # pragma: no cover
    """Fused inverse sweep: DIT stages with the inverse twiddles, then
    the fused psi^{-j} * N^{-1} post-twist and canonicalization."""
    num_primes, n, g = a.shape
    for p in prange(num_primes):
        qp = q[p]
        two_q = qp + qp
        length = 2
        while length <= n:
            half = length >> 1
            stride = n // length
            for blk in range(n // length):
                base = blk * length
                for jj in range(half):
                    w = omega_inv[p, jj * stride]
                    wsh = omega_inv_sh[p, jj * stride]
                    ilo = base + jj
                    ihi = ilo + half
                    for lane in range(g):
                        lo = a[p, ilo, lane]
                        hi = a[p, ihi, lane]
                        t = (hi * wsh) >> _U32
                        v = hi * w - t * qp
                        s = lo + v
                        if s >= two_q:
                            s -= two_q
                        d = lo + two_q - v
                        if d >= two_q:
                            d -= two_q
                        a[p, ilo, lane] = s
                        a[p, ihi, lane] = d
            length <<= 1
        for j in range(n):
            w = psi_inv_scale[p, j]
            wsh = psi_inv_scale_sh[p, j]
            for lane in range(g):
                x = a[p, j, lane]
                t = (x * wsh) >> _U32
                r = x * w - t * qp
                if r >= qp:
                    r -= qp
                a[p, j, lane] = r


@njit(parallel=True, cache=True)
def _wide_dot_rows(ext, rows, q, out):  # pragma: no cover - requires numba
    """``out[p, m] = sum_g ext[p, m, g] * rows[p, m, g] mod q[p]`` with
    the exact 32-bit split accumulation of the numpy reference."""
    num_primes, m_lanes, g = ext.shape
    for p in prange(num_primes):
        qp = q[p]
        radix = (_U1 << _U32) % qp
        for m in range(m_lanes):
            acc_hi = _U0
            acc_lo = _U0
            for lane in range(g):
                prod = ext[p, m, lane] * rows[p, m, lane]
                acc_hi += prod >> _U32
                acc_lo += prod & _MASK
            out[p, m] = ((acc_hi % qp) * radix + acc_lo) % qp


# ---- backend ---------------------------------------------------------------


class NumbaBackend(NumpyBackend):
    """JIT-fused backend; inherits the (already single-pass) min-trick
    add/sub/neg from numpy and overrides every multi-pass kernel."""

    name = "numba"

    # ---- reduce chains ---------------------------------------------------

    @bounded(assume=True, params={"t": {"ubound": 1 << 63}}, out_q=1)
    def mod_reduce(self, t: np.ndarray, q: np.ndarray) -> np.ndarray:
        # Materializing copy: keeps the out-of-place contract and turns
        # broadcast (stride-0) views into real buffers for the kernel.
        out = np.array(t, dtype=np.uint64, copy=True, order="C")
        _reduce_rows(out.reshape(out.shape[0], -1), q)
        return out

    @bounded(assume=True, params={"a": {"q": 1}, "b": {"q": 1}}, out_q=1)
    def mod_mul(self, a: np.ndarray, b: np.ndarray,
                q: np.ndarray) -> np.ndarray:
        prod = a.astype(np.uint64, copy=False) * \
            b.astype(np.uint64, copy=False)  # fresh, contiguous
        _reduce_rows(prod.reshape(prod.shape[0], -1), q)
        return prod

    # ---- fused transforms ------------------------------------------------

    @bounded(in_bits=32, out_q=1, out_q_lazy=2, max_q_multiple=4,
             assume=True, params={"x": {"bits": 32}})
    def ntt_forward(self, x: np.ndarray, stack, *,
                    lazy: bool = False) -> np.ndarray:
        tw = stack.shoup
        a = np.ascontiguousarray(
            x.astype(np.uint64, copy=False)[:, :, tw.perm]
            .transpose(0, 2, 1)
        )
        _ntt_forward_rows(a, tw.psi_perm, tw.psi_perm_sh,
                          tw.omega, tw.omega_sh, stack.q, lazy)
        return np.ascontiguousarray(a.transpose(0, 2, 1))

    @bounded(in_q=2, out_q=1, max_q_multiple=4, assume=True,
             params={"x": {"q": 2}})
    def ntt_inverse(self, x: np.ndarray, stack) -> np.ndarray:
        tw = stack.shoup
        a = np.ascontiguousarray(
            x.astype(np.uint64, copy=False)[:, :, tw.perm]
            .transpose(0, 2, 1)
        )
        _ntt_inverse_rows(a, tw.omega_inv, tw.omega_inv_sh,
                          tw.psi_inv_scale, tw.psi_inv_scale_sh,
                          stack.q)
        return np.ascontiguousarray(a.transpose(0, 2, 1))

    @bounded(assume=True, out_q=1, max_lanes=1 << 20,
             params={"ext": {"bits": 32}, "rows": {"q": 1}})
    def wide_dot(self, ext: np.ndarray, rows: np.ndarray,
                 q: np.ndarray) -> np.ndarray:
        ext_m = np.moveaxis(np.asarray(ext, dtype=np.uint64), -2, -1)
        rows_m = np.moveaxis(np.asarray(rows, dtype=np.uint64), -2, -1)
        ext_m, rows_m = np.broadcast_arrays(ext_m, rows_m)
        out_shape = ext_m.shape[:-1]
        num_primes = ext_m.shape[0]
        lanes = ext_m.shape[-1]
        ext2 = np.ascontiguousarray(ext_m).reshape(num_primes, -1, lanes)
        rows2 = np.ascontiguousarray(rows_m).reshape(num_primes, -1, lanes)
        out = np.empty(ext2.shape[:2], dtype=np.uint64)
        _wide_dot_rows(ext2, rows2, q, out)
        return out.reshape(out_shape)
