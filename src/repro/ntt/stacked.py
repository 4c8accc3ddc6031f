"""Stacked NTT kernel: one transform over a whole digit batch.

The batched key-switch pipeline materializes every decomposition digit of
a ciphertext at once — a ``(num_primes, dnum, N)`` residue tensor — and
needs all ``dnum * num_primes`` rows transformed in one pass, the way
WarpDrive's PE kernels consume the digit dimension as ciphertext-level
parallelism (§IV-C) rather than launching per-digit transforms serially.

It runs as the paper's GEMM four-step (§IV-A/B, Eq. 2): exact float64
BLAS GEMMs with the negacyclic twists folded into the
:class:`GemmTables` factors and :func:`limb_split` bounding every
partial sum below ``2**53``. Each direction's tables are built on first
read.

Outputs are canonical (``< q``) and bit-identical to the per-row radix-2
Montgomery transform and the O(N^2) reference transforms of
``tests/oracles`` (regression-tested).

Lazy inputs: the forward transform accepts any representatives below
``2**32``, which lets the single-prime-digit ModUp broadcast skip its
reduction entirely. The inverse transform requires inputs below ``2q``
(canonical suffices).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Sequence, Tuple

import numpy as np

from ..analysis.annotations import bounded, coeff_form, eval_form, takes_form
from ..backend import active_backend
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


def limb_split(dim: int, q_max: int) -> Tuple[int, int]:
    """``(limbs, width)`` for an exact float64 GEMM contracting ``dim``
    operand rows below ``2**32`` against a table balanced into
    ``(-q/2, q/2]``: the fewest limbs of ``width = ceil(32 / limbs)``
    bits such that the largest sum, ``limbs * dim`` products of
    ``(2**width - 1) * (q - 1)/2``, plus the ``2q`` slack of the
    reduction ``v - (rint(v/q) - 1) * q``, stays ``<= 2**53``. Raises
    ``ValueError`` for ``q >= 2**31`` or when three limbs do not suffice
    (``dim > 1365``, first reached at ``N = 2**21``).
    """
    if q_max >= 1 << 31:
        raise ValueError(f"GEMM NTT needs moduli below 2**31, got {q_max}")
    for limbs in (2, 3):
        width = -(-32 // limbs)
        bound = limbs * dim * ((1 << width) - 1) * ((q_max - 1) // 2)
        if bound + 2 * q_max <= 1 << 53:  # float64 integers are exact
            return limbs, width
    raise ValueError(f"GEMM NTT over {dim} rows with q = {q_max} cannot "
                     f"keep its float64 partial sums below 2**53")


def _psi_power(pows: np.ndarray, exps: np.ndarray, q_col: np.ndarray,
               n: int) -> np.ndarray:
    """``psi**e mod q`` per prime for an integer exponent grid, from the
    ``(P, N)`` power table ``pows`` (``psi**N = -1``)."""
    e = exps % (2 * n)
    vals = np.take(pows, e % n, axis=1)
    return np.where(e >= n, q_col - vals, vals)


def _limb_scaled(table: np.ndarray, q_col: np.ndarray, limbs: int,
                 width: int) -> np.ndarray:
    """``(P, R, limbs * C)`` float64: ``table * 2**(width*l) mod q`` for
    each limb ``l``, balanced into ``(-q/2, q/2]``."""
    shifts = np.arange(limbs, dtype=np.uint64) * np.uint64(width)
    scale = (np.uint64(1) << shifts) % q_col            # (P, 1, limbs)
    q4 = q_col[..., None]
    v = table[:, :, None, :] * scale[..., None] % q4
    v = np.where(v > q4 // 2, v.astype(np.int64) - q4.astype(np.int64), v)
    return v.reshape(table.shape[0], table.shape[1], -1).astype(np.float64)


class GemmTables:
    """One direction's four-step factors over a ``(moduli, N)`` chain,
    ``N = N1 * N2`` with ``N1 = 2**floor(log2(N) / 2)``.

    Each row is an ``N1 x N2`` matrix ``X`` and the transform is
    ``F2 @ ((F1 @ X) * T).T``. With ``a, a' < N1`` and ``b, b' < N2``
    (output, input) the entries are powers of ``psi`` (forward) or
    ``psi**-1`` (inverse, ``T`` also times ``N**-1``):

    =====  ======================  =====================
    table  forward exponent        inverse exponent
    =====  ======================  =====================
    F1     ``N2 * a' * (2a + 1)``  ``2 * N2 * a * a'``
    T      ``b' * (2a + 1)``       ``a * (2b' + 1)``
    F2     ``2 * N1 * b * b'``     ``N1 * b * (2b' + 1)``
    =====  ======================  =====================

    so the ψ twists cost no pass. ``f1 (P, N1, limbs1 * N1)`` and
    ``f2 (P, N2, limbs2 * N2)`` hold one column block per operand limb;
    ``t, t_sh (P, 1, N1, N2)`` are uint64 with Shoup companions.
    """

    def __init__(self, stack: "ShoupStack", *, inverse: bool):
        n = stack.n
        n1 = 1 << ((n.bit_length() - 1) // 2)
        n2 = n // n1
        q_col = stack.q[:, None, None]
        tabs = [get_tables(q, n) for q in stack.moduli]
        pows = np.stack([t.psi_inv_pows if inverse else t.psi_pows
                         for t in tabs])
        a = np.arange(n1, dtype=np.int64)[:, None]
        b = np.arange(n2, dtype=np.int64)[None, :]
        if inverse:
            f1 = _psi_power(pows, 2 * n2 * a * a.T, q_col, n)
            n_inv = np.array([t.n_inv for t in tabs], dtype=np.uint64)
            t = _psi_power(pows, a * (2 * b + 1), q_col, n) \
                * n_inv[:, None, None] % q_col
            f2 = _psi_power(pows, n1 * b.T * (2 * b + 1), q_col, n)
        else:
            f1 = _psi_power(pows, n2 * a.T * (2 * a + 1), q_col, n)
            t = _psi_power(pows, b * (2 * a + 1), q_col, n)
            f2 = _psi_power(pows, 2 * n1 * b.T * b, q_col, n)
        self.n1, self.n2 = n1, n2
        self.limbs1, self.width1 = limb_split(n1, max(stack.moduli))
        self.limbs2, self.width2 = limb_split(n2, max(stack.moduli))
        self.f1 = _limb_scaled(f1, q_col, self.limbs1, self.width1)
        self.f2 = _limb_scaled(f2, q_col, self.limbs2, self.width2)
        self.t = t[:, None]
        self.t_sh = _shoup(self.t, q_col[:, None])


class ShoupStack:
    """Transform tables for one ``(moduli, N)`` chain, shared by every
    stacked transform over that chain: :attr:`forward` / :attr:`inverse`
    (:class:`GemmTables`), each built on first read.
    """

    def __init__(self, moduli: Sequence[int], n: int):
        self.moduli = tuple(moduli)
        self.n = n
        self.q = np.array(self.moduli, dtype=np.uint64)

    @cached_property
    def forward(self) -> GemmTables:
        return GemmTables(self, inverse=False)

    @cached_property
    def inverse(self) -> GemmTables:
        return GemmTables(self, inverse=True)

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
@bounded(in_bits=32, out_q=1, params={"x": {"bits": 32}})
def stacked_negacyclic_ntt(x: np.ndarray, stack: ShoupStack) -> np.ndarray:
    """Forward negacyclic NTT of a ``(P, G, N)`` digit batch (or a plain
    ``(P, N)`` matrix) in one pass; canonical output, same shape.

    The transform itself is :meth:`repro.backend.NumpyBackend.ntt_forward`;
    this wrapper owns shape validation and the 2-D squeeze so the kernel
    always sees a ``(P, G, N)`` batch.

    Accepts lazy inputs: any representatives ``< 2**32`` transform to the
    same canonical result as their reduced values.
    """
    squeeze = x.ndim == 2
    x = _check_shape(x, stack)
    out = active_backend().ntt_forward(x, stack)
    return out[:, 0, :] if squeeze else out


@coeff_form
@takes_form(x="eval")
@bounded(in_q=2, out_q=1, params={"x": {"q": 2}})
def stacked_negacyclic_intt(x: np.ndarray, stack: ShoupStack) -> np.ndarray:
    """Inverse negacyclic NTT of a ``(P, G, N)`` batch (or ``(P, N)``
    matrix); canonical output, same shape. Inputs must be ``< 2q``
    (canonical inputs always qualify). The transform itself is
    :meth:`repro.backend.NumpyBackend.ntt_inverse`."""
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
