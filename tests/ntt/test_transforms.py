"""Cross-validation of the library's stacked four-step NTT and the
radix-2 test reference against the O(N^2) reference, and of the uint8
limb GEMM against big-integer arithmetic; every check is bit-exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ntt
from repro.core import WarpDriveNtt, costs
from repro.ntt.bitsplit import (
    LIMB_BITS, NUM_LIMBS, _schoolbook_partials, split_limbs,
)
from repro.ntt.tables import NttTables
from repro.numtheory import find_ntt_prime, find_ntt_primes
from tests import oracles

N = 64
Q = find_ntt_prime(28, N)
TABLES = NttTables(Q, N)
RNG = np.random.default_rng(42)
#: Leaf dataflow of each single-pipe variant -> that variant.
LEAF_VARIANTS = {"tensor": "wd-tensor", "cuda-gemm": "wd-cuda",
                 "butterfly": "wd-bo"}


def rand_poly(n=N, q=Q, batch=()):
    return RNG.integers(0, q, size=(*batch, n), dtype=np.uint64)


def merge_limbs(limbs):
    """Inverse of :func:`split_limbs`."""
    return sum(limb << np.uint64(LIMB_BITS * i) for i, limb in enumerate(limbs))


def ntt_mul(a, b):
    """Negacyclic product mod ``Q`` by the convolution theorem: NTT,
    Hadamard product, INTT."""
    fa = oracles.negacyclic_ntt(a, TABLES)
    fb = oracles.negacyclic_ntt(b, TABLES)
    prod = (fa.astype(object) * fb.astype(object)) % Q
    return oracles.negacyclic_intt(prod.astype(np.uint64), TABLES)


class TestReference:
    def test_cyclic_roundtrip(self):
        x = rand_poly()
        fx = oracles.reference_cyclic_ntt(x, TABLES.omega, Q)
        back = oracles.reference_cyclic_intt(fx, TABLES.omega, Q)
        assert np.array_equal(back, x)

    def test_negacyclic_roundtrip(self):
        x = rand_poly()
        fx = oracles.reference_negacyclic_ntt(x, TABLES)
        back = oracles.reference_negacyclic_intt(fx, TABLES)
        assert np.array_equal(back, x)

    def test_delta_transforms_to_ones(self):
        x = np.zeros(N, dtype=np.uint64)
        x[0] = 1
        fx = oracles.reference_cyclic_ntt(x, TABLES.omega, Q)
        assert np.all(fx == 1)

    def test_linear(self):
        a, b = rand_poly(), rand_poly()
        fa = oracles.reference_cyclic_ntt(a, TABLES.omega, Q)
        fb = oracles.reference_cyclic_ntt(b, TABLES.omega, Q)
        fsum = oracles.reference_cyclic_ntt(
            ((a.astype(object) + b) % Q).astype(np.uint64), TABLES.omega, Q
        )
        assert np.array_equal(fsum.astype(object), (fa.astype(object) + fb) % Q)


class TestRadix2:
    def test_matches_reference_forward(self):
        x = rand_poly()
        assert np.array_equal(
            oracles.negacyclic_ntt(x, TABLES),
            oracles.reference_negacyclic_ntt(x, TABLES),
        )

    def test_roundtrip(self):
        x = rand_poly()
        assert np.array_equal(
            oracles.negacyclic_intt(oracles.negacyclic_ntt(x, TABLES), TABLES), x
        )

    def test_batched(self):
        x = rand_poly(batch=(3, 2))
        fx = oracles.negacyclic_ntt(x, TABLES)
        for i in range(3):
            for j in range(2):
                assert np.array_equal(
                    fx[i, j], oracles.negacyclic_ntt(x[i, j], TABLES)
                )

    def test_cyclic_matches_reference(self):
        x = rand_poly()
        assert np.array_equal(
            oracles.cyclic_ntt(x, TABLES),
            oracles.reference_cyclic_ntt(x, TABLES.omega, Q),
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            oracles.cyclic_ntt(np.zeros(32, dtype=np.uint64), TABLES)

    def test_various_sizes(self):
        for n in [4, 8, 16, 128, 256]:
            q = find_ntt_prime(28, n)
            t = NttTables(q, n)
            x = RNG.integers(0, q, size=n, dtype=np.uint64)
            assert np.array_equal(
                oracles.negacyclic_intt(oracles.negacyclic_ntt(x, t), t), x
            )


class TestFourStep:
    """The stacked kernel's GEMM four-step (Eq. 2; 8 x 8 split at
    ``N = 64``) against the O(N^2) reference, over batch shapes."""

    @pytest.mark.parametrize("num_primes,digits",
                             [(8, 8), (4, 16), (16, 4), (2, 32)])
    def test_matches_reference(self, num_primes, digits):
        moduli = tuple(find_ntt_primes(num_primes, 28, N))
        x = np.stack([rand_poly(q=q, batch=(digits,)) for q in moduli])
        got = ntt.stacked_negacyclic_ntt(x, ntt.get_shoup_stack(moduli, N))
        for i, q in enumerate(moduli):
            tables = NttTables(q, N)
            for d in range(digits):
                assert np.array_equal(
                    got[i, d], oracles.reference_negacyclic_ntt(x[i, d], tables)
                )

    def test_negacyclic_form(self):
        x = rand_poly()
        stack = ntt.get_shoup_stack((Q,), N)
        got = ntt.stacked_negacyclic_ntt(x[None], stack)[0]
        assert np.array_equal(got, oracles.reference_negacyclic_ntt(x, TABLES))
        back = ntt.stacked_negacyclic_intt(got[None], stack)[0]
        assert np.array_equal(back, x)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            ntt.stacked_negacyclic_ntt(
                rand_poly()[None, :32], ntt.get_shoup_stack((Q,), N)
            )


class TestHierarchical:
    """``WarpDriveNtt``'s hierarchical transform, per leaf dataflow."""

    @pytest.mark.parametrize("engine", LEAF_VARIANTS)
    def test_forward_matches_reference(self, engine):
        h = WarpDriveNtt(N, variant=LEAF_VARIANTS[engine])
        x = rand_poly()
        assert np.array_equal(
            h.forward(x, TABLES), oracles.reference_negacyclic_ntt(x, TABLES)
        )

    @pytest.mark.parametrize("engine", LEAF_VARIANTS)
    def test_roundtrip(self, engine):
        h = WarpDriveNtt(N, variant=LEAF_VARIANTS[engine])
        x = rand_poly(batch=(2,))
        assert np.array_equal(h.inverse(h.forward(x, TABLES), TABLES), x)


class TestGemmEngines:
    """The tensor-core uint8 limb GEMM that TensorFHE's Algorithm 1 runs."""

    def test_bitsplit_gemm_matches_bigint(self):
        x = RNG.integers(0, Q, size=(5, 16), dtype=np.uint64)
        w = RNG.integers(0, Q, size=(16, 16), dtype=np.uint64)
        got = ntt.bitsplit_matmul_mod(x, w, Q)
        expected = (x.astype(object) @ w.astype(object)) % Q
        assert np.array_equal(got.astype(object), expected)

    def test_bitsplit_depth_guard(self):
        big = np.zeros((2, 1 << 16), dtype=np.uint64)
        w = np.zeros((1 << 16, 4), dtype=np.uint64)
        with pytest.raises(ValueError):
            ntt.bitsplit_matmul_mod(big, w, Q)

    def test_limb_gemm_counts(self):
        """The executed dataflow issues the 16 limb GEMMs the cost model
        charges per modular MAC."""
        limbs = split_limbs(RNG.integers(0, Q, size=(2, 2), dtype=np.uint64))
        assert len(_schoolbook_partials(limbs, limbs)) == NUM_LIMBS ** 2
        assert costs.LIMB_GEMMS == NUM_LIMBS ** 2 == 16

    def test_split_limbs_roundtrip(self):
        values = RNG.integers(0, 1 << 31, size=1024, dtype=np.uint64)
        assert np.array_equal(merge_limbs(split_limbs(values)), values)

    def test_split_limbs_below_256(self):
        values = np.array([0xFFFFFFFF, 0, 0x01020304], dtype=np.uint64)
        for limb in split_limbs(values):
            assert limb.max() < 256

    def test_split_limbs_known_decomposition(self):
        limbs = split_limbs(np.array([0x01020304], dtype=np.uint64))
        assert [int(limb[0]) for limb in limbs] == [0x04, 0x03, 0x02, 0x01]

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_split_limbs_roundtrip_property(self, v):
        arr = np.array([v], dtype=np.uint64)
        assert int(merge_limbs(split_limbs(arr))[0]) == v


class TestConvolutionTheorem:
    """NTT(a*b) == NTT(a) . NTT(b) — the property that makes FHE fast."""

    def test_poly_mul_matches_schoolbook(self):
        a, b = rand_poly(), rand_poly()
        assert np.array_equal(
            ntt_mul(a, b), oracles.negacyclic_convolution(a, b, Q)
        )

    def test_mul_by_one(self):
        a = rand_poly()
        one = np.zeros(N, dtype=np.uint64)
        one[0] = 1
        assert np.array_equal(ntt_mul(a, one), a)

    def test_mul_by_x_shifts_with_sign(self):
        a = rand_poly()
        x_poly = np.zeros(N, dtype=np.uint64)
        x_poly[1] = 1
        got = ntt_mul(a, x_poly)
        assert np.array_equal(got[1:], a[:-1])
        assert int(got[0]) == (Q - int(a[-1])) % Q

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_scalar_mul_property(self, c):
        a = rand_poly()
        c_poly = np.zeros(N, dtype=np.uint64)
        c_poly[0] = c % Q
        got = ntt_mul(a, c_poly)
        expected = (a.astype(object) * (c % Q)) % Q
        assert np.array_equal(got.astype(object), expected)


class TestAutomorphisms:
    def test_rotation_is_permutation_with_signs(self):
        a = rand_poly()
        rotated = oracles.apply_automorphism(a, 5, Q)  # rotate slots by 1
        # The multiset of |coefficients| is preserved.
        orig = sorted(min(int(v), Q - int(v)) for v in a)
        rot = sorted(min(int(v), Q - int(v)) for v in rotated)
        assert orig == rot

    def test_even_exponent_rejected(self):
        with pytest.raises(ValueError):
            oracles.apply_automorphism(rand_poly(), 2, Q)

    def test_identity_automorphism(self):
        a = rand_poly()
        assert np.array_equal(oracles.apply_automorphism(a, 1, Q), a)

    def test_automorphism_is_ring_hom(self):
        """phi(a*b) == phi(a)*phi(b) in the negacyclic ring."""
        a, b = rand_poly(), rand_poly()
        exp = 5
        lhs = oracles.apply_automorphism(ntt_mul(a, b), exp, Q)
        rhs = ntt_mul(
            oracles.apply_automorphism(a, exp, Q),
            oracles.apply_automorphism(b, exp, Q),
        )
        assert np.array_equal(lhs, rhs)

    def test_conjugate_is_involution(self):
        a = rand_poly()
        conj = 2 * N - 1
        twice = oracles.apply_automorphism(
            oracles.apply_automorphism(a, conj, Q), conj, Q
        )
        assert np.array_equal(twice, a)
