"""Iterative radix-2 Cooley-Tukey NTT, vectorized over batches.

The per-row reference for the library's stacked GEMM kernel
(:func:`repro.ntt.stacked_negacyclic_ntt`): a classic decimation-in-time
butterfly network with twiddles held in the Montgomery domain (one REDC
per modular product, per §IV-A-4 of the paper). It accepts arrays of
shape ``(..., N)`` and transforms the last axis. The Montgomery twiddle
tables are built here from the scalar roots of
:class:`~repro.ntt.NttTables` (:func:`mont_tables`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.ntt.tables import (TABLE_CACHE_SIZE, NttTables, _power_table,
                              get_tables)
from repro.numtheory import bit_reverse_permutation

from .montgomery import MontgomeryReducer


class MontTables:
    """Montgomery-domain twiddles of one ``(q, N)`` pair: the plain
    ``omega`` power tables and the ``psi``/``omega`` tables times ``R``,
    so a single REDC yields a plain-domain product."""

    def __init__(self, tables: NttTables):
        q, n = tables.modulus, tables.n
        self.mont = MontgomeryReducer(q)
        self.omega_pows = _power_table(tables.omega, n, q)
        self.omega_inv_pows = _power_table(tables.omega_inv, n, q)
        self.psi_pows_mont = self.mont.to_montgomery_vec(tables.psi_pows)
        self.psi_inv_pows_mont = self.mont.to_montgomery_vec(
            tables.psi_inv_pows)
        self.omega_pows_mont = self.mont.to_montgomery_vec(self.omega_pows)
        self.omega_inv_pows_mont = self.mont.to_montgomery_vec(
            self.omega_inv_pows)
        self.n_inv_mont = self.mont.to_montgomery(tables.n_inv)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _mont_tables(modulus: int, n: int) -> MontTables:
    return MontTables(get_tables(modulus, n))


def mont_tables(tables: NttTables) -> MontTables:
    """Cached :class:`MontTables` for ``tables``' ``(q, N)``."""
    return _mont_tables(tables.modulus, tables.n)


def cyclic_ntt(x: np.ndarray, tables: NttTables, *,
               inverse: bool = False) -> np.ndarray:
    """Cyclic (I)NTT over the last axis; natural order in and out.

    The inverse includes the ``1/N`` normalization.
    """
    n = tables.n
    if x.shape[-1] != n:
        raise ValueError(f"last axis must have length {n}, got {x.shape[-1]}")
    mt = mont_tables(tables)
    mont = mt.mont
    omega_table = mt.omega_inv_pows_mont if inverse else mt.omega_pows_mont

    perm = np.array(bit_reverse_permutation(n), dtype=np.intp)
    a = np.ascontiguousarray(x.astype(np.uint64, copy=True)[..., perm])
    q64 = np.uint64(tables.modulus)

    length = 2
    while length <= n:
        half = length // 2
        stride = n // length
        # Twiddles w^(stride*j) for j < half, already in Montgomery form.
        w = omega_table[:: stride][:half]
        view = a.reshape(*a.shape[:-1], n // length, length)
        lo = view[..., :half]
        hi = mont.mul_vec(view[..., half:], w)
        s = lo + hi
        np.subtract(s, q64, out=s, where=s >= q64)
        d = lo + q64 - hi
        np.subtract(d, q64, out=d, where=d >= q64)
        view[..., :half] = s
        view[..., half:] = d
        length *= 2

    if inverse:
        a = mont.mul_vec(a, np.uint64(mt.n_inv_mont))
    return a


def negacyclic_ntt(x: np.ndarray, tables: NttTables) -> np.ndarray:
    """Forward negacyclic NTT: pre-scale by ``psi^j`` then cyclic NTT."""
    mt = mont_tables(tables)
    scaled = mt.mont.mul_vec(
        x.astype(np.uint64, copy=False), mt.psi_pows_mont
    )
    return cyclic_ntt(scaled, tables)


def negacyclic_intt(x: np.ndarray, tables: NttTables) -> np.ndarray:
    """Inverse negacyclic NTT: cyclic INTT then post-scale by ``psi^-j``."""
    raw = cyclic_ntt(x, tables, inverse=True)
    mt = mont_tables(tables)
    return mt.mont.mul_vec(raw, mt.psi_inv_pows_mont)
