"""The wide-accumulator inner product against the per-digit chain.

``wide_dot`` sums ``ext[..., g, :] * rows[..., g, :]`` over the digit
axis ``-2`` with one reduction at the end. It must equal the reference
``acc = acc + reduce(ext_g * row_g)`` chain bit for bit, for lazy
``ext`` up to ``2**32 - 1``, at every digit count and at the hoisting
pipeline's ``(P, S, G, N)`` shape.
"""

import numpy as np
import pytest

from repro.ckks.ks_common import wide_dot
from repro.numtheory import find_ntt_primes
from repro.numtheory.barrett import BatchBarrettReducer

MODULI = find_ntt_primes(4, 31, 1)


def per_digit_chain(ext, rows, q):
    q_col = q.reshape((-1,) + (1,) * (ext.ndim - 2))
    acc = np.zeros(ext.shape[:-2] + ext.shape[-1:], dtype=np.uint64)
    for g in range(ext.shape[-2]):
        acc = (acc + ext[..., g, :] * rows[..., g, :] % q_col) % q_col
    return acc


def operands(shape, rng, *, top=False):
    """Lazy ``ext < 2**32`` (all ``2**32 - 1`` when ``top``) and
    canonical ``rows`` (all ``q - 1`` when ``top``)."""
    q = np.array(MODULI, dtype=np.uint64).reshape(
        (-1,) + (1,) * (len(shape) - 1))
    if top:
        ext = np.full(shape, (1 << 32) - 1, dtype=np.uint64)
        rows = np.broadcast_to(q - 1, shape).copy()
    else:
        ext = rng.integers(0, 1 << 32, size=shape, dtype=np.uint64)
        rows = rng.integers(0, 1 << 62, size=shape, dtype=np.uint64) % q
    return ext, rows


@pytest.mark.parametrize("shape", [
    (4, 1, 64),          # G = 1
    (4, 3, 64),          # G = 3 (helr-train's dnum)
    (4, 17, 64),         # G = 17 (boot-mid's dnum)
    (4, 5, 3, 64),       # hoisting: (P, S, G, N)
])
@pytest.mark.parametrize("top", [False, True])
def test_matches_per_digit_chain(shape, top):
    ext, rows = operands(shape, np.random.default_rng(len(shape)), top=top)
    reducer = BatchBarrettReducer(MODULI)
    want = per_digit_chain(ext, rows, reducer.q_row())
    got = wide_dot(ext, rows, reducer)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
