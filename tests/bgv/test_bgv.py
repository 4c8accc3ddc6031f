"""Tests for the BGV scheme (§VI-B generality: exact arithmetic mod t)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgv import BgvContext, BgvParams
from repro.numtheory.rns import RNSBasis
from tests.oracles import mod_down_exact_t


@pytest.fixture(scope="module")
def ctx():
    return BgvContext(BgvParams.toy(), seed=3)


@pytest.fixture(scope="module")
def keys(ctx):
    return ctx.keygen()


def centered(values, t):
    out = [v % t for v in values]
    return [v - t if v > t // 2 else v for v in out]


class TestParams:
    def test_plain_modulus_is_ntt_friendly(self):
        p = BgvParams.toy()
        t = p.plain_modulus
        assert t % (2 * p.n) == 1
        assert t.bit_length() == p.plain_bits

    def test_validation(self):
        with pytest.raises(ValueError):
            BgvParams(n=48, max_level=2)
        with pytest.raises(ValueError):
            BgvParams(n=64, max_level=0)
        with pytest.raises(ValueError):
            BgvParams(n=64, max_level=2, plain_bits=40)


class TestEncoding:
    def test_roundtrip(self, ctx):
        vals = [0, 1, -1, 5000, -12345]
        coeffs = ctx.encode(vals)
        decoded = ctx.decode(coeffs)
        assert centered(decoded[:5].tolist(), ctx.t) == centered(
            vals, ctx.t
        )

    def test_slot_count_limit(self, ctx):
        with pytest.raises(ValueError):
            ctx.encode(list(range(ctx.params.n + 1)))

    def test_rejects_non_integral_slots(self, ctx):
        for bad in ([2.7, -1.5, 3], [0.5], [np.nan], [np.inf], [-np.inf],
                    [1e20], np.array([-2.0**63])):
            with pytest.raises(ValueError, match="finite integers"):
                ctx.encode(bad)

    def test_integral_values_accepted(self, ctx):
        as_float = ctx.encode([3.0, -2.0, 7.0])
        assert np.array_equal(as_float, ctx.encode([3, -2, 7]))
        assert np.array_equal(as_float, ctx.encode(np.array([3, -2, 7])))

    def test_fractional_pmult_rejected(self, ctx, keys):
        ct = ctx.encrypt([4, 5], keys)
        with pytest.raises(ValueError, match="finite integers"):
            ctx.pmult(ct, [0.5])

    def test_encoding_is_ring_iso(self, ctx):
        """Slot-wise product == polynomial product mod (X^N+1, t)."""
        from tests.oracles import negacyclic_convolution

        a = np.arange(1, 9)
        b = np.arange(2, 10)
        ca = ctx.encode(a)
        cb = ctx.encode(b)
        prod = negacyclic_convolution(ca, cb, ctx.t)
        slots = ctx.decode(prod)
        assert slots[:8].tolist() == (a * b).tolist()


class TestEncryptDecrypt:
    def test_roundtrip(self, ctx, keys):
        vals = [5, -7, 100, 0, 1234]
        ct = ctx.encrypt(vals, keys)
        assert ctx.decrypt(ct, keys)[:5].tolist() == vals

    def test_randomized(self, ctx, keys):
        a = ctx.encrypt([1], keys)
        b = ctx.encrypt([1], keys)
        assert not np.array_equal(a.c0.data, b.c0.data)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(min_value=-30000, max_value=30000),
                    min_size=1, max_size=16))
    def test_roundtrip_property(self, vals):
        ctx = BgvContext(BgvParams.toy(), seed=9)
        keys = ctx.keygen()
        ct = ctx.encrypt(vals, keys)
        assert ctx.decrypt(ct, keys)[: len(vals)].tolist() == vals


class TestHomomorphicOps:
    A = [5, -7, 100, 0, 1234]
    B = [3, 2, -50, 9, 2]

    def test_hadd_exact(self, ctx, keys):
        ct = ctx.hadd(ctx.encrypt(self.A, keys), ctx.encrypt(self.B, keys))
        assert ctx.decrypt(ct, keys)[:5].tolist() == [
            x + y for x, y in zip(self.A, self.B)
        ]

    def test_hsub_exact(self, ctx, keys):
        ct = ctx.hsub(ctx.encrypt(self.A, keys), ctx.encrypt(self.B, keys))
        assert ctx.decrypt(ct, keys)[:5].tolist() == [
            x - y for x, y in zip(self.A, self.B)
        ]

    def test_negate(self, ctx, keys):
        ct = ctx.negate(ctx.encrypt(self.A, keys))
        assert ctx.decrypt(ct, keys)[:5].tolist() == [-x for x in self.A]

    def test_hmult_exact(self, ctx, keys):
        ct = ctx.hmult(ctx.encrypt(self.A, keys),
                       ctx.encrypt(self.B, keys), keys)
        expected = centered([x * y for x, y in zip(self.A, self.B)], ctx.t)
        assert ctx.decrypt(ct, keys)[:5].tolist() == expected
        assert ct.level == ctx.params.max_level - 1  # mod-switched

    def test_hmult_depth_two_mod_t(self, ctx, keys):
        """Depth-2 products are exact in Z_t (values wrap mod t)."""
        ct_a = ctx.encrypt(self.A, keys)
        ct_b = ctx.encrypt(self.B, keys)
        ct = ctx.hmult(ctx.hmult(ct_a, ct_b, keys), ct_a, keys)
        expected = centered(
            [x * y * x for x, y in zip(self.A, self.B)], ctx.t
        )
        assert ctx.decrypt(ct, keys)[:5].tolist() == expected

    def test_pmult(self, ctx, keys):
        ct = ctx.pmult(ctx.encrypt(self.A, keys), [2, 3, 4, 5, 6])
        assert ctx.decrypt(ct, keys)[:5].tolist() == [
            x * c for x, c in zip(self.A, [2, 3, 4, 5, 6])
        ]

    def test_add_plain(self, ctx, keys):
        ct = ctx.add_plain(ctx.encrypt(self.A, keys), [10, 10, 10, 10, 10])
        assert ctx.decrypt(ct, keys)[:5].tolist() == [
            x + 10 for x in self.A
        ]

    def test_mixed_levels_align(self, ctx, keys):
        hi = ctx.encrypt(self.A, keys)
        lo = ctx.hmult(ctx.encrypt(self.B, keys),
                       ctx.encrypt([1, 1, 1, 1, 1], keys), keys)
        ct = ctx.hadd(hi, lo)
        assert ctx.decrypt(ct, keys)[:5].tolist() == [
            x + y for x, y in zip(self.A, self.B)
        ]


class TestModSwitch:
    def test_preserves_message(self, ctx, keys):
        ct = ctx.encrypt([42, -17], keys)
        switched = ctx.mod_switch(ct)
        assert switched.level == ct.level - 1
        assert ctx.decrypt(switched, keys)[:2].tolist() == [42, -17]

    def test_floor_at_level_zero(self, ctx, keys):
        ct = ctx.encrypt([1], keys)
        while ct.level > 0:
            ct = ctx.mod_switch(ct)
        with pytest.raises(ValueError):
            ctx.mod_switch(ct)
        assert ctx.decrypt(ct, keys)[0] == 1


class TestModDownExactT:
    """The GHS rounding primitive behind BGV key-switching."""

    def test_preserves_residue_mod_t(self):
        from repro.numtheory import find_ntt_primes
        import random

        primes = find_ntt_primes(5, 28, 256)
        main = RNSBasis(primes[:3])
        special = RNSBasis(primes[3:5])
        t = 257
        rnd = random.Random(0)
        xs = [rnd.randrange(main.product) * 1 for _ in range(32)]
        stacked = np.stack([
            np.array([x % q for x in xs], dtype=np.uint64)
            for q in main.moduli + special.moduli
        ])
        out = mod_down_exact_t(stacked, main, special, t)
        p = special.product
        p_inv_t = pow(p, -1, t)
        crt = __import__(
            "repro.numtheory", fromlist=["CRTReconstructor"]
        ).CRTReconstructor(main.moduli)
        ys = crt.reconstruct_array(out)
        for x, y in zip(xs, ys):
            # Residue: y ≡ x * P^{-1} (mod t).
            assert y % t == (x * p_inv_t) % t
            # Accuracy: |y - x/P| <= t.
            assert abs(y - round(x / p)) <= t

    def test_rejects_t_dividing_chain(self):
        from repro.numtheory import find_ntt_primes

        primes = find_ntt_primes(3, 28, 256)
        main = RNSBasis(primes[:2])
        special = RNSBasis(primes[2:3])
        with pytest.raises(ValueError):
            mod_down_exact_t(
                np.zeros((3, 4), dtype=np.uint64), main, special,
                primes[0],
            )


class TestBgvGalois:
    def test_slot_permutation_applied(self, ctx, keys):
        e = 5
        ctx.generate_galois_key(keys, e)
        vals = list(range(1, ctx.params.n + 1))
        ct = ctx.encrypt(vals, keys)
        rot = ctx.apply_galois(ct, e, keys)
        got = ctx.decrypt(rot, keys)
        perm = ctx.slot_permutation(e)
        assert got.tolist() == np.array(vals)[perm].tolist()

    def test_permutation_is_bijection(self, ctx):
        perm = ctx.slot_permutation(5)
        assert sorted(perm.tolist()) == list(range(ctx.params.n))

    def test_composition(self, ctx, keys):
        """Applying e twice equals applying e^2 mod 2N."""
        e = 5
        two_n = 2 * ctx.params.n
        ctx.generate_galois_key(keys, e)
        e2 = (e * e) % two_n
        ctx.generate_galois_key(keys, e2)
        vals = list(range(1, ctx.params.n + 1))
        ct = ctx.encrypt(vals, keys)
        twice = ctx.apply_galois(ctx.apply_galois(ct, e, keys), e, keys)
        direct = ctx.apply_galois(ct, e2, keys)
        assert ctx.decrypt(twice, keys).tolist() == \
            ctx.decrypt(direct, keys).tolist()

    def test_missing_key(self, ctx, keys):
        ct = ctx.encrypt([1], keys)
        with pytest.raises(KeyError):
            ctx.apply_galois(ct, 9, keys)  # never generated in this run

    def test_even_exponent_rejected(self, ctx):
        with pytest.raises(ValueError):
            ctx.slot_permutation(4)
