"""Stacked NTT kernel: one transform over a whole digit batch.

The batched key-switch pipeline materializes every decomposition digit of
a ciphertext at once — a ``(num_primes, dnum, N)`` residue tensor — and
needs all ``dnum * num_primes`` rows transformed in one pass, the way
WarpDrive's PE kernels consume the digit dimension as ciphertext-level
parallelism (§IV-C) rather than launching per-digit transforms serially.

Two things distinguish this kernel from the per-prime Montgomery-domain
:func:`~repro.ntt.radix2.negacyclic_ntt`:

* **Shoup multiplication with lazy (Harvey-style) reduction.** Twiddles
  are constant per stage, so each carries a precomputed companion
  ``w' = floor(w * 2**32 / q)`` and the butterfly product is two uint64
  multiplies and a shift — no Montgomery REDC chain. Products are kept
  *lazy* in ``[0, 2q)`` through the stages (``min``-trick corrections
  instead of masked stores) and canonicalized once at the end, exactly
  the deferred-reduction discipline of GPU NTT kernels.
* **Digit-innermost layout.** For a ``(P, G, N)`` batch the butterflies
  run in the transposed ``(P, N, G)`` layout, so every lo/hi slice is a
  contiguous run of ``G`` lanes at every stage — the strided access that
  dominates a radix-2 sweep becomes unit-stride over the batch.

Outputs are canonical (``< q``) and bit-identical to running
:func:`~repro.ntt.radix2.negacyclic_ntt` / ``negacyclic_intt`` row by row
and to the O(N^2) :mod:`~repro.ntt.reference` transforms
(regression-tested).

Lazy inputs: the forward transform accepts any representatives below
``2**32`` (the Shoup pre-twist reduces them into ``[0, 2q)``), which lets
the single-prime-digit ModUp broadcast skip its reduction entirely. The
inverse transform requires inputs below ``2q`` (canonical suffices).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from ..analysis.annotations import bounded, coeff_form, eval_form, takes_form
from ..backend import active_backend
from ..numtheory import bit_reverse_permutation
from .tables import TABLE_CACHE_SIZE, get_tables

_U32 = np.uint64(32)


@bounded(params={"table": {"q": 1}, "q_col": {"modulus": True}},
         out_bits=32)
def _shoup(table: np.ndarray, q_col: np.ndarray) -> np.ndarray:
    """Shoup companions ``floor(w * 2**32 / q)`` per element.

    ``w < q < 2**31`` keeps ``w << 32`` inside uint64, so the quotient is
    exact in native integer arithmetic.
    """
    return (table << _U32) // q_col


class ShoupStack:
    """Plain-domain twiddles plus Shoup companions for one ``(moduli, N)``
    chain, shared by every stacked transform over that chain.

    Attributes
    ----------
    psi_perm, psi_perm_sh:
        Negacyclic pre-twist factors in *bit-reversed* order (the forward
        kernel permutes first, so the twist table is permuted once here
        instead of per call), with Shoup companions.
    omega, omega_sh / omega_inv, omega_inv_sh:
        ``(num_primes, N)`` cyclic-core twiddle tables, plain domain.
    psi_inv_scale, psi_inv_scale_sh:
        Inverse post-twist with the ``N^{-1}`` normalizer fused in:
        ``psi^{-j} * N^{-1} mod q``.
    """

    def __init__(self, moduli: Sequence[int], n: int):
        self.moduli = tuple(moduli)
        self.n = n
        tabs = [get_tables(q, n) for q in self.moduli]
        self.q = np.array(self.moduli, dtype=np.uint64)
        q_col = self.q[:, None]
        self._perm = np.array(bit_reverse_permutation(n), dtype=np.intp)

        psi = np.stack([t.psi_pows for t in tabs])
        self.psi_perm = np.ascontiguousarray(psi[:, self._perm])
        self.psi_perm_sh = _shoup(self.psi_perm, q_col)
        self.omega = np.stack([t.omega_pows for t in tabs])
        self.omega_sh = _shoup(self.omega, q_col)
        self.omega_inv = np.stack([t.omega_inv_pows for t in tabs])
        self.omega_inv_sh = _shoup(self.omega_inv, q_col)

        psi_inv = np.stack([t.psi_inv_pows for t in tabs])
        n_inv = np.array([t.n_inv for t in tabs], dtype=np.uint64)[:, None]
        # psi_inv * n_inv < 2**62 fits uint64; one fused post-scale table.
        self.psi_inv_scale = (psi_inv * n_inv) % q_col
        self.psi_inv_scale_sh = _shoup(self.psi_inv_scale, q_col)

    @property
    def num_primes(self) -> int:
        return len(self.moduli)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ShoupStack(L={len(self.moduli)}, N={self.n})"


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def get_shoup_stack(moduli: Tuple[int, ...], n: int) -> ShoupStack:
    """Shared, cached stack lookup (same sizing as the per-prime tables)."""
    return ShoupStack(moduli, n)


@bounded(assume=True, passthrough="x")
def _check_shape(x: np.ndarray, stack: ShoupStack) -> np.ndarray:
    if x.ndim == 2:
        x = x[:, None, :]
    if x.ndim != 3 or x.shape[0] != stack.num_primes or \
            x.shape[2] != stack.n:
        raise ValueError(
            f"expected a ({stack.num_primes}, G, {stack.n}) digit batch "
            f"or a ({stack.num_primes}, {stack.n}) matrix, got {x.shape}"
        )
    return x


@eval_form
@takes_form(x="coeff")
@bounded(in_bits=32, out_q=1, out_q_lazy=2, params={"x": {"bits": 32}})
def stacked_negacyclic_ntt(x: np.ndarray, stack: ShoupStack, *,
                           lazy: bool = False,
                           t_out: bool = False) -> np.ndarray:
    """Forward negacyclic NTT of a ``(P, G, N)`` digit batch (or a plain
    ``(P, N)`` matrix) in one pass; canonical output, same shape.

    The butterfly sweep itself lives in the active backend
    (:mod:`repro.backend`); this wrapper owns shape validation and the
    2-D squeeze so every backend sees the same ``(P, G, N)`` batch.

    Accepts lazy inputs: any representatives ``< 2**32`` transform to the
    same canonical result as their reduced values.

    ``lazy``: skip the final canonicalization and return lazy values
    ``< 2q`` (congruent to the canonical transform; the representatives
    are backend-specific) — for consumers that tolerate 32-bit
    representatives, e.g. the wide-accumulator inner product.
    ``t_out``: return the digit-innermost ``(P, N, G)`` working layout
    directly, skipping the transpose back (3-D batches only); consumers
    that reduce over the digit axis read it contiguously.
    """
    squeeze = x.ndim == 2
    if squeeze and t_out:
        raise ValueError("t_out requires a 3-D (P, G, N) batch")
    x = _check_shape(x, stack)
    out = active_backend().ntt_forward(x, stack, lazy=lazy, t_out=t_out)
    return out[:, 0, :] if squeeze else out


@coeff_form
@takes_form(x="eval")
@bounded(in_q=2, out_q=1, params={"x": {"q": 2}})
def stacked_negacyclic_intt(x: np.ndarray, stack: ShoupStack) -> np.ndarray:
    """Inverse negacyclic NTT of a ``(P, G, N)`` batch (or ``(P, N)``
    matrix); canonical output, same shape. Inputs must be ``< 2q``
    (canonical inputs always qualify). Delegates the butterfly sweep to
    the active backend (:mod:`repro.backend`)."""
    squeeze = x.ndim == 2
    x = _check_shape(x, stack)
    out = active_backend().ntt_inverse(x, stack)
    return out[:, 0, :] if squeeze else out


def shoup_stack_cache_stats() -> dict:
    """Hit/miss counters of the stacked-kernel table cache."""
    info = get_shoup_stack.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "maxsize": info.maxsize,
        "currsize": info.currsize,
    }
