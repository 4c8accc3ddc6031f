"""Tests for the BFV scheme and the signed basis extension behind it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfv import BfvContext, BfvParams
from repro.numtheory import find_ntt_primes
from repro.numtheory.rns import RNSBasis, extend_basis_signed


@pytest.fixture(scope="module")
def ctx():
    return BfvContext(BfvParams.toy(), seed=5)


@pytest.fixture(scope="module")
def keys(ctx):
    return ctx.keygen()


def centered(values, t):
    out = [v % t for v in values]
    return [v - t if v > t // 2 else v for v in out]


class TestExtendBasisSigned:
    def test_positive_values_unchanged(self):
        import random

        primes = find_ntt_primes(5, 28, 256)
        source = RNSBasis(primes[:3])
        target = RNSBasis(primes[3:5])
        rnd = random.Random(0)
        # Small positive values (far below Q/2).
        xs = [rnd.randrange(source.product // 4) for _ in range(32)]
        stacked = np.stack([
            np.array([x % q for x in xs], dtype=np.uint64)
            for q in source.moduli
        ])
        out = extend_basis_signed(stacked, source, target)
        for j, t in enumerate(target.moduli):
            assert out[j].tolist() == [x % t for x in xs]

    def test_negative_values_centered(self):
        import random

        primes = find_ntt_primes(5, 28, 256)
        source = RNSBasis(primes[:3])
        target = RNSBasis(primes[3:5])
        rnd = random.Random(1)
        # Values just below Q represent small negatives.
        negs = [-rnd.randrange(1, source.product // 4) for _ in range(32)]
        stacked = np.stack([
            np.array([x % q for x in negs], dtype=np.uint64)
            for q in source.moduli
        ])
        out = extend_basis_signed(stacked, source, target)
        for j, t in enumerate(target.moduli):
            assert out[j].tolist() == [x % t for x in negs]


class TestBfvParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BfvParams(n=48)
        with pytest.raises(ValueError):
            BfvParams(n=64, max_level=0)
        # 1 and 31 bits used to reach the prime search (or, for 31 bits,
        # silently pick the chain's base prime as t).
        for bits in (1, 31, 40):
            with pytest.raises(ValueError, match="2..30 bits"):
                BfvParams(n=64, plain_bits=bits)

    def test_defaults_kept(self):
        p = BfvParams(n=64)
        assert (p.max_level, p.modulus_bits) == (3, 26)


class TestBfvBasics:
    def test_delta_definition(self, ctx):
        assert ctx.delta == ctx.q_product // ctx.t

    def test_aux_basis_wide_enough(self, ctx):
        aux_product = 1
        for p in ctx._aux_moduli:
            aux_product *= p
        assert aux_product > ctx.params.n * ctx.q_product * ctx.t

    def test_roundtrip(self, ctx, keys):
        vals = [5, -7, 100, 0, 999]
        assert ctx.decrypt(ctx.encrypt(vals, keys), keys)[:5].tolist() \
            == vals

    def test_rejects_non_integral_slots(self, ctx, keys):
        for bad in ([2.7, -1.5, 3], [np.nan], [np.inf], [1, -np.inf]):
            with pytest.raises(ValueError, match="finite integers"):
                ctx.encrypt(bad, keys)
        ct = ctx.encrypt([4, 5], keys)
        with pytest.raises(ValueError, match="finite integers"):
            ctx.pmult(ct, [0.5])
        with pytest.raises(ValueError, match="finite integers"):
            ctx.add_plain(ct, [0.25])

    def test_integral_floats_accepted(self, ctx, keys):
        ct = ctx.encrypt([3.0, -2.0, 7], keys)
        assert ctx.decrypt(ct, keys)[:3].tolist() == [3, -2, 7]

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.integers(min_value=-3000, max_value=3000),
                    min_size=1, max_size=8))
    def test_roundtrip_property(self, vals):
        ctx = BfvContext(BfvParams.toy(), seed=6)
        keys = ctx.keygen()
        ct = ctx.encrypt(vals, keys)
        assert ctx.decrypt(ct, keys)[: len(vals)].tolist() == vals


class TestBfvOps:
    A = [5, -7, 100, 0, 999]
    B = [3, 2, -50, 9, 4]

    def test_hadd(self, ctx, keys):
        ct = ctx.hadd(ctx.encrypt(self.A, keys), ctx.encrypt(self.B, keys))
        assert ctx.decrypt(ct, keys)[:5].tolist() == [
            x + y for x, y in zip(self.A, self.B)
        ]

    def test_hsub_and_negate(self, ctx, keys):
        ct = ctx.hsub(ctx.encrypt(self.A, keys), ctx.encrypt(self.B, keys))
        assert ctx.decrypt(ct, keys)[:5].tolist() == [
            x - y for x, y in zip(self.A, self.B)
        ]
        neg = ctx.negate(ctx.encrypt(self.A, keys))
        assert ctx.decrypt(neg, keys)[:5].tolist() == [-x for x in self.A]

    def test_add_plain(self, ctx, keys):
        ct = ctx.add_plain(ctx.encrypt(self.A, keys), [1, 2, 3, 4, 5])
        assert ctx.decrypt(ct, keys)[:5].tolist() == [
            x + c for x, c in zip(self.A, [1, 2, 3, 4, 5])
        ]

    def test_pmult_exact_mod_t(self, ctx, keys):
        ct = ctx.pmult(ctx.encrypt(self.A, keys), [2, 3, 4, 5, 6])
        expected = centered(
            [x * c for x, c in zip(self.A, [2, 3, 4, 5, 6])], ctx.t
        )
        assert ctx.decrypt(ct, keys)[:5].tolist() == expected

    def test_hmult_exact_mod_t(self, ctx, keys):
        ct = ctx.hmult(ctx.encrypt(self.A, keys),
                       ctx.encrypt(self.B, keys), keys)
        expected = centered(
            [x * y for x, y in zip(self.A, self.B)], ctx.t
        )
        assert ctx.decrypt(ct, keys)[:5].tolist() == expected

    def test_hmult_depth_two(self, ctx, keys):
        """Scale-invariance: no level management needed for depth 2."""
        ct_a = ctx.encrypt(self.A, keys)
        ct_b = ctx.encrypt(self.B, keys)
        ct = ctx.hmult(ctx.hmult(ct_a, ct_b, keys), ct_a, keys)
        expected = centered(
            [x * y * x for x, y in zip(self.A, self.B)], ctx.t
        )
        assert ctx.decrypt(ct, keys)[:5].tolist() == expected

    def test_mult_then_add_mixes(self, ctx, keys):
        ct_a = ctx.encrypt(self.A, keys)
        ct_b = ctx.encrypt(self.B, keys)
        ct = ctx.hadd(ctx.hmult(ct_a, ct_b, keys), ct_a)
        expected = centered(
            [x * y + x for x, y in zip(self.A, self.B)], ctx.t
        )
        assert ctx.decrypt(ct, keys)[:5].tolist() == expected


class TestSchemeAgreement:
    def test_bgv_and_bfv_agree(self):
        """Both exact schemes compute the same ring arithmetic."""
        from repro.bgv import BgvContext, BgvParams

        a = [11, -4, 250]
        b = [7, 13, -3]
        bgv = BgvContext(BgvParams.toy(), seed=8)
        bgv_keys = bgv.keygen()
        bfv = BfvContext(BfvParams.toy(), seed=8)
        bfv_keys = bfv.keygen()

        r_bgv = bgv.decrypt(
            bgv.hmult(bgv.encrypt(a, bgv_keys), bgv.encrypt(b, bgv_keys),
                      bgv_keys),
            bgv_keys,
        )[:3].tolist()
        r_bfv = bfv.decrypt(
            bfv.hmult(bfv.encrypt(a, bfv_keys), bfv.encrypt(b, bfv_keys),
                      bfv_keys),
            bfv_keys,
        )[:3].tolist()
        expected = [x * y for x, y in zip(a, b)]
        assert r_bgv == expected
        assert r_bfv == expected
