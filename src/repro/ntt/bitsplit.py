"""UINT8 bit-splitting GEMM — the tensor-core dataflow, executed exactly.

Tensor cores multiply INT8 matrices with INT32 accumulation. A 32-bit NTT
operand therefore travels as four uint8 limbs, the twiddle matrix as four
more, and one modular matrix product becomes 16 small GEMMs whose partial
sums are reduced, shifted and merged. (The Karatsuba limb scheme the
paper evaluates and rejects, §IV-A-4, would issue 9; it is priced by
:class:`~repro.core.WarpDriveNtt`, not executed.)

This module performs that *exact* dataflow in numpy: real limb splits, real
int32-range accumulations (range-checked), real merges. The GPU simulator
charges these steps as tensor-core MMA ops plus CUDA-core split/merge work;
the numerics here prove the dataflow is lossless.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..analysis.annotations import bounded
from ..numtheory import BatchBarrettReducer

LIMB_BITS = 8
#: A 32-bit word as four uint8 limbs.
NUM_LIMBS = 4
#: Exclusive bound of one uint8 limb.
_LIMB_BOUND = 1 << LIMB_BITS
#: Deepest GEMM the schoolbook dataflow may accumulate in int32:
#: products < 2**16, so k <= 2**15 keeps sums below 2**31.
_SCHOOLBOOK_LANES = 1 << 15

#: (limb shift, accumulated GEMM) partial product entries.
_Partial = Tuple[int, np.ndarray]


@bounded(assume=True, out_bits=LIMB_BITS)
def split_limbs(values: np.ndarray, num_limbs: int = NUM_LIMBS) -> List[np.ndarray]:
    """Split uint32-range values into ``num_limbs`` uint8-range limbs.

    Limb 0 is the least significant. The output arrays stay uint64 so they
    can feed numpy GEMMs without overflow; each entry is below 256.
    """
    values = values.astype(np.uint64, copy=False)
    return [
        (values >> np.uint64(LIMB_BITS * i)) & np.uint64(_LIMB_BOUND - 1)
        for i in range(num_limbs)
    ]


@bounded(in_q=1, out_q=1, params={"x": {"q": 1}, "w": {"q": 1}})
def bitsplit_matmul_mod(x: np.ndarray, w: np.ndarray,
                        modulus: int) -> np.ndarray:
    """``(x @ w) mod q`` through the uint8-limb tensor-core dataflow.

    Parameters
    ----------
    x:
        ``(..., m, k)`` matrix of residues below ``q < 2**31``.
    w:
        ``(k, n)`` twiddle matrix of residues below ``q``.
    modulus:
        The target modulus ``q``.

    Notes
    -----
    The merge interleaves modular reductions: a full 64-bit merge of a deep
    GEMM would overflow (products reach ``2**16`` per MAC and the limb
    shifts add up to 48 bits), so each limb-pair GEMM is reduced *before*
    its shift is applied — exactly the "reassembling 16 elements and
    perform ModRedc" steps of Algorithms 1 and 2 in the paper.
    """
    k = x.shape[-1]
    if w.shape[0] != k:
        raise ValueError(f"inner dimensions differ: {k} vs {w.shape[0]}")
    if k > _SCHOOLBOOK_LANES:
        raise ValueError(
            f"GEMM depth {k} overflows the int32 tensor-core accumulator; "
            "decompose the NTT further (the paper's 2-level split keeps "
            "inner dimensions at 16)"
        )
    partials = _schoolbook_partials(split_limbs(x), split_limbs(w))

    reducer = BatchBarrettReducer((modulus,))
    two_pow = [np.uint64(pow(2, LIMB_BITS * s, modulus))
               for s in range(2 * NUM_LIMBS - 1)]
    result = None
    for shift, acc in partials:
        # The int32 bound on ``acc`` is proven inside the partial
        # builder (B-ACC at each GEMM); the list of (shift, acc) tuples
        # itself is outside the interval domain.
        reduced = reducer.reduce_mat(acc)  # fhelint: allow-B-RED
        term = reducer.mul_mat(reduced, two_pow[shift])
        result = term if result is None else reducer.add_mat(result, term)
    return result


@bounded(dtype="int32", max_lanes=_SCHOOLBOOK_LANES,
         params={"x_limbs": {"ubound": _LIMB_BOUND},
                 "w_limbs": {"ubound": _LIMB_BOUND}})
def _schoolbook_partials(x_limbs, w_limbs) -> List[_Partial]:
    """All 16 limb GEMMs, tagged with limb shift ``i + j``."""
    partials: List[_Partial] = []
    for i, xl in enumerate(x_limbs):
        for j, wl in enumerate(w_limbs):
            partials.append((i + j, xl @ wl))
    return partials
