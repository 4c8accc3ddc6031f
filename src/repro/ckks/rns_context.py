"""RnsContext: the batched-arithmetic state shared by every RnsPoly.

One context serves one ``(moduli, N)`` pair and owns the row-wise Barrett
reducer (element-wise ciphertext arithmetic, §IV-A-4) plus the
:class:`~repro.ntt.ShoupStack` (domain conversions). This mirrors
the paper's initialization phase (§IV-D-1): constants for the whole chain
are precomputed once and every subsequent operation is a single dense pass
over the ``(num_primes, N)`` residue matrix.

Contexts are cached with the same unified sizing as the twiddle tables
(:data:`repro.ntt.tables.TABLE_CACHE_SIZE`) so a deep chain cannot evict
one half of an operation's precompute while keeping the other.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from ..analysis.annotations import bounded
from ..ntt.stacked import get_shoup_stack
from ..ntt.tables import TABLE_CACHE_SIZE
from ..numtheory import BatchBarrettReducer


class RnsContext:
    """Batched constants for one RNS basis at one ring degree."""

    def __init__(self, moduli: Tuple[int, ...], n: int):
        self.moduli = tuple(moduli)
        self.n = n
        self.barrett = BatchBarrettReducer(self.moduli)
        #: (num_primes, 1) modulus column for broadcast arithmetic.
        self.q_col = self.barrett.q_col(2)
        #: Transform tables of the backend NTT kernels, shared with the
        #: key-switch pipeline; each table set builds on first use, so
        #: bases that are not NTT-friendly (BFV's auxiliary bases) cost
        #: nothing here.
        self.shoup = get_shoup_stack(self.moduli, self.n)

    @bounded(out_q=1)
    def reduce_scalar(self, value: int) -> np.ndarray:
        """``value mod q_i`` per row, as a broadcastable column."""
        return self.barrett.reduce_scalar(value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RnsContext(L={len(self.moduli)}, N={self.n})"


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def get_rns_context(moduli: Tuple[int, ...], n: int) -> RnsContext:
    """Shared, cached context lookup (unified cache sizing)."""
    return RnsContext(moduli, n)


def rns_context_cache_stats() -> dict:
    """Hit/miss counters of the context cache."""
    info = get_rns_context.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "maxsize": info.maxsize,
        "currsize": info.currsize,
    }


def all_cache_stats() -> dict:
    """Counters for every precompute cache the hot paths rely on.

    Keys: ``tables`` (per-prime NTT tables), ``shoup_stacks``
    (stacked-kernel NTT tables), ``eval_automorphisms`` (eval-domain
    automorphism gathers), ``contexts`` (batched contexts). A homomorphic
    operation run twice must not increase any ``misses`` on its second
    run — that is the zero mid-op-recomputation invariant the
    cache-sizing fix restores.
    """
    from ..ntt.stacked import shoup_stack_cache_stats
    from ..ntt.tables import table_cache_stats
    from .ks_common import eval_automorphism_cache_stats

    return {
        "tables": table_cache_stats(),
        "shoup_stacks": shoup_stack_cache_stats(),
        "eval_automorphisms": eval_automorphism_cache_stats(),
        "contexts": rns_context_cache_stats(),
    }
