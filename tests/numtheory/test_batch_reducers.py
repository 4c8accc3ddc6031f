"""Batch (row-wise) reducers must be bit-identical to the scalar classes."""

import numpy as np
import pytest

from repro.numtheory import BatchBarrettReducer, find_ntt_primes
from tests.oracles import BarrettReducer

N = 97  # deliberately not a power of two — reducers are shape-agnostic
MODULI = tuple(find_ntt_primes(5, 28, 64))


def rand_rows(rng, high_per_row, n=N):
    return np.stack([
        rng.integers(0, h, size=n, dtype=np.uint64) for h in high_per_row
    ])


class TestBatchBarrett:
    def test_matches_per_row(self):
        batch = BatchBarrettReducer(MODULI)
        rows = [BarrettReducer(q) for q in MODULI]
        for seed in range(25):
            rng = np.random.default_rng(seed)
            a = rand_rows(rng, MODULI)
            b = rand_rows(rng, MODULI)
            t = rand_rows(rng, [q * q for q in MODULI])
            assert np.array_equal(
                batch.reduce_mat(t),
                np.stack([r.reduce_vec(t[i]) for i, r in enumerate(rows)]),
            )
            assert np.array_equal(
                batch.mul_mat(a, b),
                np.stack([r.mul_vec(a[i], b[i]) for i, r in enumerate(rows)]),
            )
            assert np.array_equal(
                batch.add_mat(a, b),
                np.stack([r.add_vec(a[i], b[i]) for i, r in enumerate(rows)]),
            )
            assert np.array_equal(
                batch.sub_mat(a, b),
                np.stack([r.sub_vec(a[i], b[i]) for i, r in enumerate(rows)]),
            )

    def test_neg_mat(self):
        batch = BatchBarrettReducer(MODULI)
        rng = np.random.default_rng(0)
        a = rand_rows(rng, MODULI)
        a[0][0] = 0
        neg = batch.neg_mat(a)
        assert neg[0][0] == 0
        s = batch.add_mat(a, neg)
        assert not s.any()

    def test_three_dimensional_broadcast(self):
        """The NTT butterfly views rows as (L, groups, length) — the
        reducer must broadcast its constants along any trailing axes."""
        batch = BatchBarrettReducer(MODULI)
        rng = np.random.default_rng(1)
        a = rand_rows(rng, MODULI, n=96).reshape(len(MODULI), 8, 12)
        b = rand_rows(rng, MODULI, n=96).reshape(len(MODULI), 8, 12)
        out3 = batch.mul_mat(a, b)
        out2 = batch.mul_mat(a.reshape(len(MODULI), 96),
                             b.reshape(len(MODULI), 96))
        assert np.array_equal(out3.reshape(len(MODULI), 96), out2)

    def test_reduce_scalar_bigint(self):
        batch = BatchBarrettReducer(MODULI)
        big = MODULI[0] * MODULI[1] + 13
        col = batch.reduce_scalar(big)
        assert col.shape == (len(MODULI), 1)
        for i, q in enumerate(MODULI):
            assert int(col[i, 0]) == big % q

    def test_rejects_bad_moduli(self):
        with pytest.raises(ValueError):
            BatchBarrettReducer([])
        with pytest.raises(ValueError):
            BatchBarrettReducer([2])
        with pytest.raises(ValueError):
            BatchBarrettReducer([1 << 31])

