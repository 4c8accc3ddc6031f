"""Tests for CRT reconstruction and RNS basis conversions."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numtheory import (
    CRTReconstructor,
    RNSBasis,
    digit_partition,
    extend_basis,
    find_ntt_primes,
    mod_down,
)
from repro.ckks.ks_common import mod_down_eval
from repro.ntt.stacked import (
    get_shoup_stack,
    stacked_negacyclic_intt,
    stacked_negacyclic_ntt,
)

PRIMES = find_ntt_primes(6, 28, 1024)


@pytest.fixture(scope="module")
def crt():
    return CRTReconstructor(PRIMES[:4])


class TestCRT:
    def test_roundtrip_scalar(self, crt):
        for x in [0, 1, 123456789, crt.product - 1]:
            assert crt.reconstruct(crt.decompose(x)) == x

    def test_signed_centering(self, crt):
        assert crt.reconstruct_signed(crt.decompose(-5)) == -5
        assert crt.reconstruct_signed(crt.decompose(7)) == 7

    def test_array_roundtrip(self, crt):
        values = [0, 1, 42, crt.product // 3, crt.product - 1]
        mat = crt.decompose_array(values)
        assert crt.reconstruct_array(mat) == values

    def test_signed_array(self, crt):
        values = [-10, -1, 0, 1, 10]
        mat = crt.decompose_array(values)
        assert crt.reconstruct_array(mat, signed=True) == values

    def test_wrong_residue_count(self, crt):
        with pytest.raises(ValueError):
            crt.reconstruct([1, 2])

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError):
            CRTReconstructor([])

    @settings(max_examples=50)
    @given(st.integers(min_value=0))
    def test_roundtrip_property(self, x):
        crt = CRTReconstructor(PRIMES[:3])
        x %= crt.product
        assert crt.reconstruct(crt.decompose(x)) == x


class TestRNSBasis:
    def test_distinct_required(self):
        with pytest.raises(ValueError):
            RNSBasis([PRIMES[0], PRIMES[0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RNSBasis([])

    def test_equality_and_hash(self):
        b1 = RNSBasis(PRIMES[:3])
        b2 = RNSBasis(PRIMES[:3])
        assert b1 == b2
        assert hash(b1) == hash(b2)
        assert b1 != RNSBasis(PRIMES[:2])

    def test_random_in_range(self):
        basis = RNSBasis(PRIMES[:3])
        mat = basis.random(256, np.random.default_rng(0))
        for row, q in zip(mat, basis.moduli):
            assert row.max() < q

    def test_reduce_signed(self):
        basis = RNSBasis(PRIMES[:2])
        coeffs = np.array([-3, 0, 5], dtype=np.int64)
        mat = basis.reduce_signed(coeffs)
        for row, q in zip(mat, basis.moduli):
            assert row.tolist() == [(-3) % q, 0, 5]


class TestExtendBasis:
    def test_exact_extension_matches_crt(self):
        source = RNSBasis(PRIMES[:3])
        target = RNSBasis(PRIMES[3:6])
        crt = CRTReconstructor(source.moduli)
        rnd = random.Random(1)
        values = [rnd.randrange(source.product) for _ in range(64)]
        residues = np.stack(
            [np.array([v % q for v in values], dtype=np.uint64)
             for q in source.moduli]
        )
        out = extend_basis(residues, source, target, exact=True)
        for j, t in enumerate(target.moduli):
            assert out[j].tolist() == [v % t for v in values]

    def test_approximate_extension_error_bounded(self):
        """Approximate ModUp may overshoot by u*Q with 0 <= u < |source|."""
        source = RNSBasis(PRIMES[:3])
        target = RNSBasis(PRIMES[3:5])
        rnd = random.Random(2)
        values = [rnd.randrange(source.product) for _ in range(64)]
        residues = np.stack(
            [np.array([v % q for v in values], dtype=np.uint64)
             for q in source.moduli]
        )
        out = extend_basis(residues, source, target)
        for col, v in enumerate(values):
            candidates = {
                (v + u * source.product) % target.moduli[0]
                for u in range(len(source) + 1)
            }
            assert int(out[0][col]) in candidates

    def test_shape_validation(self):
        source = RNSBasis(PRIMES[:3])
        target = RNSBasis(PRIMES[3:5])
        with pytest.raises(ValueError):
            extend_basis(np.zeros((2, 8), dtype=np.uint64), source, target)


class TestModDown:
    def test_exact_division_case(self):
        """x = P * y must come back exactly as y."""
        main = RNSBasis(PRIMES[:3])
        special = RNSBasis(PRIMES[3:5])
        rnd = random.Random(3)
        ys = [rnd.randrange(main.product) for _ in range(32)]
        xs = [y * special.product for y in ys]
        stacked = np.stack(
            [np.array([x % q for x in xs], dtype=np.uint64)
             for q in main.moduli + special.moduli]
        )
        out = mod_down(stacked, main, special)
        for i, q in enumerate(main.moduli):
            assert out[i].tolist() == [y % q for y in ys]

    def test_rounding_error_at_most_one(self):
        main = RNSBasis(PRIMES[:3])
        special = RNSBasis(PRIMES[3:5])
        rnd = random.Random(4)
        # Moderate values x < P * Q_main so floor(x/P) stays in range.
        xs = [rnd.randrange(special.product * 1000) for _ in range(32)]
        stacked = np.stack(
            [np.array([x % q for x in xs], dtype=np.uint64)
             for q in main.moduli + special.moduli]
        )
        out = mod_down(stacked, main, special)
        for col, x in enumerate(xs):
            got = int(out[0][col])
            floor_q = (x // special.product) % main.moduli[0]
            assert got == floor_q

    def test_shape_validation(self):
        main = RNSBasis(PRIMES[:2])
        special = RNSBasis(PRIMES[2:3])
        with pytest.raises(ValueError):
            mod_down(np.zeros((2, 4), dtype=np.uint64), main, special)


def _rows(values, moduli):
    """Residue rows ``(len(moduli), *values.shape)`` of integer values."""
    return np.stack([
        np.array([[v % q for v in row] for row in values],
                 dtype=np.uint64).reshape(np.shape(values))
        for q in moduli
    ])


def _transform(x, moduli, inverse=False):
    stack = get_shoup_stack(tuple(moduli), x.shape[-1])
    fn = stacked_negacyclic_intt if inverse else stacked_negacyclic_ntt
    return fn(x, stack)


class TestRescaleRows:
    """RESCALE is the eval-domain divide by the dropped trailing prime(s)."""

    def _rescale(self, coeff, moduli, drop=1):
        out = mod_down_eval(
            _transform(coeff, moduli), RNSBasis(moduli[:-drop]),
            RNSBasis(moduli[-drop:]),
        )
        return _transform(out, moduli[:-drop], inverse=True)

    def test_exact_multiple(self):
        moduli = PRIMES[:3]
        q_last = moduli[-1]
        rnd = random.Random(5)
        ys = [[rnd.randrange(moduli[0] * moduli[1]) for _ in range(32)]]
        xs = [[y * q_last for y in ys[0]]]
        out = self._rescale(_rows(xs, moduli)[:, 0], moduli)
        assert out.shape == (2, 32)
        for i, q in enumerate(moduli[:2]):
            assert out[i].tolist() == [y % q for y in ys[0]]

    def test_exact_multiple_on_digit_batch(self):
        """A ``(P, G, N)`` batch with ``G == P - 1``: every polynomial of
        the batch divides exactly and matches its own 2-D divide (the
        former row rescale broadcast its per-prime column over ``G``)."""
        moduli = PRIMES[:4]
        q_last = moduli[-1]
        rnd = random.Random(6)
        sub_product = moduli[0] * moduli[1] * moduli[2]
        ys = [[rnd.randrange(sub_product) for _ in range(16)]
              for _ in range(3)]
        xs = [[y * q_last for y in row] for row in ys]
        batch = _rows(xs, moduli)
        assert batch.shape == (4, 3, 16)
        out = self._rescale(batch, moduli)
        assert out.shape == (3, 3, 16)
        for g in range(3):
            assert np.array_equal(out[:, g],
                                  self._rescale(batch[:, g], moduli))
            for i, q in enumerate(moduli[:3]):
                assert out[i, g].tolist() == [y % q for y in ys[g]]

    def test_refuses_single_modulus(self):
        with pytest.raises(ValueError):
            mod_down_eval(np.zeros((1, 16), dtype=np.uint64),
                          RNSBasis(PRIMES[:1]), RNSBasis(PRIMES[1:2]))
        with pytest.raises(ValueError):
            RNSBasis(())

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            mod_down_eval(np.zeros((2, 16), dtype=np.uint64),
                          RNSBasis(PRIMES[:2]), RNSBasis(PRIMES[2:3]))


class TestDigitPartition:
    def test_even_split(self):
        assert digit_partition(6, 3) == [[0, 1], [2, 3], [4, 5]]

    def test_ragged_split(self):
        assert digit_partition(5, 2) == [[0, 1, 2], [3, 4]]

    def test_more_digits_than_primes(self):
        parts = digit_partition(2, 4)
        assert parts == [[0], [1]]

    def test_single_digit(self):
        assert digit_partition(4, 1) == [[0, 1, 2, 3]]

    def test_rejects_zero_dnum(self):
        with pytest.raises(ValueError):
            digit_partition(4, 0)

    def test_covers_all_indices(self):
        for n, d in [(7, 3), (10, 4), (1, 1), (34, 7)]:
            parts = digit_partition(n, d)
            flat = [i for part in parts for i in part]
            assert flat == list(range(n))
