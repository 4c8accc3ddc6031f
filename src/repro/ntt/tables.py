"""Precomputed twiddle-factor tables for (negacyclic) NTTs.

One :class:`NttTables` instance caches what the NTT engines need for a
fixed ``(modulus, N)`` pair: the primitive roots, the ``psi`` power
tables, and the ``N^{-1}`` scaling constant for the inverse transform.
(The paper stores twiddles in Montgomery form so the domain conversion is
free, §IV-A-4; the simulator prices that, and the Montgomery-domain
radix-2 test reference builds its own tables from these roots.)

The WarpDrive initialization phase (§IV-D-1) precomputes these tables for
every prime in the modulus chain and ships them to the GPU once; the
functional layer mirrors that by building the tables eagerly and sharing
them across all NTT strategies.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..numtheory import is_power_of_two, modinv, root_of_unity


class NttTables:
    """Twiddle tables for the ring ``Z_q[X] / (X^N + 1)``.

    Attributes
    ----------
    psi, psi_inv:
        Primitive ``2N``-th root of unity and its inverse (the negacyclic
        "wrap" factor).
    omega, omega_inv:
        ``psi**2`` — a primitive ``N``-th root driving the cyclic core.
    psi_pows, psi_inv_pows:
        ``psi**j`` / ``psi**-j`` for ``j < N`` (uint64 arrays).
    n_inv:
        ``N^{-1} mod q`` for the inverse transform.
    """

    def __init__(self, modulus: int, n: int):
        if not is_power_of_two(n):
            raise ValueError(f"N must be a power of two, got {n}")
        if (modulus - 1) % (2 * n) != 0:
            raise ValueError(
                f"modulus {modulus} is not NTT-friendly for N={n} "
                f"(needs q ≡ 1 mod {2 * n})"
            )
        self.modulus = modulus
        self.n = n

        self.psi = root_of_unity(2 * n, modulus)
        self.psi_inv = modinv(self.psi, modulus)
        self.omega = (self.psi * self.psi) % modulus
        self.omega_inv = modinv(self.omega, modulus)
        self.n_inv = modinv(n, modulus)

        self.psi_pows = _power_table(self.psi, n, modulus)
        self.psi_inv_pows = _power_table(self.psi_inv, n, modulus)

    def omega_for_size(self, size: int, *, inverse: bool = False) -> int:
        """Primitive ``size``-th root for an inner NTT of ``size`` points.

        ``size`` must divide ``N``; the root is ``omega ** (N / size)``.
        """
        if self.n % size != 0:
            raise ValueError(f"inner size {size} does not divide N={self.n}")
        base = self.omega_inv if inverse else self.omega
        return pow(base, self.n // size, self.modulus)

    def dft_matrix(self, size: int, *, inverse: bool = False) -> np.ndarray:
        """The ``size x size`` (I)NTT matrix ``W[k, j] = w^(jk)`` (no
        ``1/size`` factor on the inverse)."""
        w = self.omega_for_size(size, inverse=inverse)
        idx = np.arange(size, dtype=np.uint64)
        exps = (np.outer(idx, idx) % size).astype(np.uint64)
        pow_table = _power_table(w, size, self.modulus)
        return pow_table[exps]

    def twiddle_matrix(self, n1: int, n2: int, *,
                       inverse: bool = False) -> np.ndarray:
        """Step-two twiddles of a 4-step split ``n = n1*n2``:
        ``T[j1, k2] = w_n^(j1*k2)`` with ``w_n`` the size-``n1*n2`` root."""
        n = n1 * n2
        w = self.omega_for_size(n, inverse=inverse)
        pow_table = _power_table(w, n, self.modulus)
        j1 = np.arange(n1, dtype=np.uint64)[:, None]
        k2 = np.arange(n2, dtype=np.uint64)[None, :]
        exps = (j1 * k2) % np.uint64(n)
        return pow_table[exps]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NttTables(q={self.modulus}, N={self.n})"


def _power_table(base: int, count: int, modulus: int) -> np.ndarray:
    """Return ``[base**0, base**1, ..., base**(count-1)] mod modulus``."""
    table = np.empty(count, dtype=np.uint64)
    value = 1
    for i in range(count):
        table[i] = value
        value = (value * base) % modulus
    return table


#: Unified sizing for every precompute cache in the library (twiddle
#: tables, Shoup stacks, RNS contexts). The caches used to disagree —
#: 256 tables vs 512 reducers — so a deep modulus chain plus
#: bootstrapping could evict twiddle tables mid-operation and silently
#: recompute them while a matching cache stayed warm. One constant,
#: sized for the deepest chain anyone simulates (L+K ≤ ~64 primes x a
#: handful of ring degrees), keeps the caches in lockstep.
TABLE_CACHE_SIZE = 1024


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def get_tables(modulus: int, n: int) -> NttTables:
    """Shared, cached table lookup — CKKS contexts reuse these across ops."""
    return NttTables(modulus, n)


def table_cache_stats() -> dict:
    """Hit/miss counters of the twiddle-table cache.

    ``misses`` counts table constructions; an operation that runs without
    increasing it performed zero mid-op recomputation (regression-tested).
    """
    info = get_tables.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "maxsize": info.maxsize,
        "currsize": info.currsize,
    }
