"""Shared helpers of the key-switch family.

``keyswitch.py`` and ``hoisting.py`` both restrict full-chain key
polynomials to the current level, enumerate the digits present at that
level, and accumulate digit-times-key inner products. These helpers used
to be copy-pasted between the two modules; they live here once, together
with the batched building blocks the fused pipelines share: the per-level
stacked key-row cache, the wide-accumulator inner product that mirrors
the paper's tensor-core MAC kernels (§IV-C), the eval-domain ModDown that
also serves RESCALE and BGV modulus switching, and the cached eval-domain
automorphism gather.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from ..analysis.annotations import bounded, returns_view
from ..backend import active_backend
from ..ntt.stacked import (
    get_shoup_stack,
    stacked_negacyclic_intt,
    stacked_negacyclic_ntt,
)
from ..ntt.tables import TABLE_CACHE_SIZE
from ..numtheory.barrett import BatchBarrettReducer
from ..numtheory.rns import RNSBasis, divide_by_special, mod_down_delta
from .keys import KeySwitchKey


def full_chain_length(ksk: KeySwitchKey) -> int:
    """Number of ciphertext-chain primes the key covers (max digit index+1)."""
    return max(i for digit in ksk.digits for i in digit) + 1


def level_row_indices(num_level: int, full_len: int,
                      num_total: int) -> List[int]:
    """Row indices restricting a full-chain ``q_0..q_full ++ p_0..p_K``
    polynomial to the current level's primes plus the special primes."""
    num_special = num_total - full_len
    return list(range(num_level)) + list(
        range(full_len, full_len + num_special)
    )


def present_digits(digits: Sequence[Sequence[int]],
                   num_level: int) -> Tuple[List[List[int]], List[int]]:
    """``(groups, digit_indices)`` for the digits alive at this level.

    ``groups[g]`` lists the in-level prime indices of the ``g``-th present
    digit; ``digit_indices[g]`` is its original digit number (needed to
    pick the matching evk pair). Digits whose primes are all gone at low
    levels are skipped, exactly as level-aware GPU implementations do.
    """
    groups: List[List[int]] = []
    indices: List[int] = []
    for j, digit in enumerate(digits):
        present = [i for i in digit if i < num_level]
        if present:
            groups.append(present)
            indices.append(j)
    return groups, indices


@returns_view
def stacked_key_rows(ksk: KeySwitchKey,
                     num_level: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(b_stack, a_stack)``: the key's evk rows restricted to the level,
    stacked per present digit into ``(num_level + K, G, N)`` tensors —
    the operand layout of the batched inner product.

    The stacks depend only on ``(key, num_level)``, so they are built
    once and cached on the key (read-only views; BSGS transforms and
    bootstrap CoeffToSlot hit the same rotation keys at the same level
    repeatedly).
    """
    cached = ksk._row_cache.get(num_level)
    if cached is not None:
        return cached
    full_len = full_chain_length(ksk)
    _, digit_indices = present_digits(ksk.digits, num_level)
    rows = level_row_indices(
        num_level, full_len, ksk.pairs[0][0].num_primes
    )
    b_stack = np.stack(
        [ksk.pairs[j][0].data[rows] for j in digit_indices], axis=1
    )
    a_stack = np.stack(
        [ksk.pairs[j][1].data[rows] for j in digit_indices], axis=1
    )
    b_stack.setflags(write=False)
    a_stack.setflags(write=False)
    ksk._row_cache[num_level] = (b_stack, a_stack)
    return b_stack, a_stack


@bounded(assume=True, out_q=1, max_lanes=1 << 20,
         params={"ext": {"bits": 32}, "rows": {"q": 1}})
def wide_dot(ext: np.ndarray, rows: np.ndarray,
             reducer: BatchBarrettReducer) -> np.ndarray:
    """``sum_g ext[..., g, :] * rows[..., g, :] mod q`` without per-digit
    reduction — the host mirror of a tensor-core MAC tile.

    Operands are ``(P, ..., G, N)`` tensors (prime axis leading, digit
    axis ``-2``, the stacked NTT's natural layout). ``rows`` must be
    canonical; ``ext`` may be *lazy* — any representatives ``< 2**32``
    give the same result.

    The split-accumulate kernel is :meth:`repro.backend.NumpyBackend.wide_dot`:
    each ``< 2**63`` product splits into 32-bit halves which accumulate
    exactly in uint64, one digit slice at a time (G up to
    ``max_lanes``), and the partial sums fold with
    ``(hi mod q) * (2**32 mod q) + lo``. The result is canonical and
    bit-identical to the reference ``acc = acc + reduce(ext_g * rows_g)``
    chain.
    """
    return active_backend().wide_dot(ext, rows, reducer.q_row())


@bounded(out_q=1,
         params={"ext_eval": {"bits": 32}, "b_stack": {"q": 1},
                 "a_stack": {"q": 1}})
def stacked_inner_product(ext_eval: np.ndarray, b_stack: np.ndarray,
                          a_stack: np.ndarray,
                          reducer: BatchBarrettReducer
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """KeySwitch InnerProduct against both evk components in one shape:
    ``(acc0, acc1) = (ext . b, ext . a)`` reduced over the digit axis."""
    return wide_dot(ext_eval, b_stack, reducer), \
        wide_dot(ext_eval, a_stack, reducer)


@bounded(in_q=1, out_q=1, params={"x_eval": {"q": 1}})
def mod_down_eval(x_eval: np.ndarray, main: RNSBasis, special: RNSBasis, *,
                  plain_modulus: int = None) -> np.ndarray:
    """Divide eval-domain ``x`` over ``main ++ special`` (main rows
    first, any batch axes) by ``P = prod(special)``; eval-domain result
    over ``main``. Serves the KeySwitch/hoisting ModDown, RESCALE and BGV
    modulus switching.

    Only the special rows are inverse-transformed: the exact correction
    ``delta`` (:func:`~repro.numtheory.rns.mod_down_delta`) is NTT'd onto
    ``main`` and ``(x - delta) * P^{-1}`` is taken in the eval domain.
    Bit-identical to INTT → ``mod_down`` (with ``plain_modulus``, the
    t-preserving ``mod_down_exact_t`` in ``tests/oracles``) → NTT.
    """
    n_main = len(main)
    if x_eval.shape[0] != n_main + len(special):
        raise ValueError(
            "ModDown input must cover the concatenated main+special basis"
        )
    n = x_eval.shape[-1]
    x_special = stacked_negacyclic_intt(
        x_eval[n_main:], get_shoup_stack(tuple(special.moduli), n)
    )
    delta = mod_down_delta(x_special, main, special,
                           plain_modulus=plain_modulus)
    delta_eval = stacked_negacyclic_ntt(
        delta, get_shoup_stack(tuple(main.moduli), n)
    )
    return divide_by_special(x_eval[:n_main], delta_eval, main, special)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def eval_automorphism_table(exponent: int, n: int) -> np.ndarray:
    """Eval-domain gather table of ``X -> X^exponent`` (odd exponent).

    The negacyclic NTT's output slot ``k`` holds the evaluation at
    ``psi^(2k+1)``, so the automorphism permutes slots by
    ``k -> ((exponent * (2k+1)) mod 2N) >> 1`` — a pure gather with no
    sign flips, bit-exact against ``INTT -> coeff automorphism -> NTT``.
    Returns a read-only ``src`` of shape ``(n,)`` with
    ``out[..., k] = x[..., src[k]]``; cached per ``(exponent, n)``.
    """
    if exponent % 2 == 0:
        raise ValueError("automorphism exponent must be odd")
    two_n = 2 * n
    src = (exponent * (2 * np.arange(n) + 1)) % two_n >> 1
    src = src.astype(np.intp)
    src.setflags(write=False)
    return src


def eval_automorphism_cache_stats() -> dict:
    """Hit/miss counters of the eval-domain automorphism table cache."""
    info = eval_automorphism_table.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "maxsize": info.maxsize,
        "currsize": info.currsize,
    }
