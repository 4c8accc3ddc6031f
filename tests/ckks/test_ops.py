"""End-to-end tests of every homomorphic operation (§II-A)."""

import numpy as np
import pytest

from repro.ckks import CkksContext, ParameterSets

TOL = 1e-3


@pytest.fixture(scope="module")
def ctx():
    return CkksContext.create(ParameterSets.toy(), seed=42)


@pytest.fixture(scope="module")
def keys(ctx):
    return ctx.keygen(rotations=[1, 2, 5], conjugation=True)


@pytest.fixture(scope="module")
def vals():
    rng = np.random.default_rng(3)
    return rng.uniform(-2, 2, size=8)


@pytest.fixture(scope="module")
def ct(ctx, keys, vals):
    return ctx.encrypt(vals, keys)


def decoded(ctx, keys, ct, count=8):
    return ctx.decrypt_decode_real(ct, keys)[:count]


class TestEncryptDecrypt:
    def test_roundtrip(self, ctx, keys, ct, vals):
        assert np.max(np.abs(decoded(ctx, keys, ct) - vals)) < 1e-4

    def test_fresh_level_and_scale(self, ctx, ct):
        assert ct.level == ctx.params.max_level
        assert ct.scale == ctx.params.scale

    def test_encrypt_at_lower_level(self, ctx, keys, vals):
        ct = ctx.encrypt(vals, keys, level=1)
        assert ct.level == 1
        assert np.max(np.abs(decoded(ctx, keys, ct) - vals)) < 1e-4

    @pytest.mark.parametrize("level", [4, -1, -2])
    def test_encrypt_level_out_of_range_rejected(self, ctx, keys, vals,
                                                 level):
        assert ctx.params.max_level == 3
        with pytest.raises(ValueError, match=r"level .* outside 0\.\.3"):
            ctx.encrypt(vals, keys, level=level)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0, np.nan)])
    def test_encrypt_non_finite_rejected(self, ctx, keys, bad):
        with pytest.raises(ValueError, match="finite"):
            ctx.encrypt([1.0, bad], keys)

    def test_ciphertexts_are_randomized(self, ctx, keys, vals):
        a = ctx.encrypt(vals, keys)
        b = ctx.encrypt(vals, keys)
        assert not np.array_equal(a.c0.data, b.c0.data)

    def test_decrypt_without_key_gives_garbage(self, ctx, keys, vals):
        other = CkksContext.create(ParameterSets.toy(), seed=99)
        wrong_keys = other.keygen()
        ct = ctx.encrypt(vals, keys)
        wrong = ctx.decrypt_decode_real(ct, wrong_keys)
        assert np.max(np.abs(wrong[:8] - vals)) > 1.0


class TestAdditive:
    def test_hadd(self, ctx, keys, ct, vals):
        out = ctx.hadd(ct, ct)
        assert np.max(np.abs(decoded(ctx, keys, out) - 2 * vals)) < TOL

    def test_hsub(self, ctx, keys, ct, vals):
        other = ctx.encrypt(np.ones(8), keys)
        out = ctx.hsub(ct, other)
        assert np.max(np.abs(decoded(ctx, keys, out) - (vals - 1))) < TOL

    def test_negate(self, ctx, keys, ct, vals):
        out = ctx.evaluator.negate(ct)
        assert np.max(np.abs(decoded(ctx, keys, out) + vals)) < TOL

    def test_add_plain(self, ctx, keys, ct, vals):
        pt = ctx.encode(np.full(8, 0.5), level=ct.level)
        out = ctx.evaluator.add_plain(ct, pt)
        assert np.max(np.abs(decoded(ctx, keys, out) - (vals + 0.5))) < TOL

    def test_add_scalar(self, ctx, keys, ct, vals):
        out = ctx.evaluator.add_scalar(ct, 1.25)
        assert np.max(np.abs(decoded(ctx, keys, out) - (vals + 1.25))) < TOL

    def test_add_levels_auto_align(self, ctx, keys, vals):
        hi = ctx.encrypt(vals, keys)
        lo = ctx.encrypt(vals, keys, level=1)
        out = ctx.hadd(hi, lo)
        assert out.level == 1
        assert np.max(np.abs(decoded(ctx, keys, out) - 2 * vals)) < TOL

    def test_scale_mismatch_rejected(self, ctx, keys, vals):
        a = ctx.encrypt(vals, keys)
        b = ctx.encrypt(vals, keys, scale=2.0**20)
        with pytest.raises(ValueError):
            ctx.hadd(a, b)


class TestMultiplicative:
    def test_pmult(self, ctx, keys, ct, vals):
        pt = ctx.encode(np.full(8, 3.0), level=ct.level)
        out = ctx.evaluator.rescale(ctx.pmult(ct, pt))
        assert np.max(np.abs(decoded(ctx, keys, out) - 3 * vals)) < TOL

    def test_pmult_scalar(self, ctx, keys, ct, vals):
        out = ctx.evaluator.pmult_scalar(ct, -0.5)
        out = ctx.evaluator.rescale(out)
        assert np.max(np.abs(decoded(ctx, keys, out) + 0.5 * vals)) < TOL

    def test_hmult(self, ctx, keys, ct, vals):
        out = ctx.hmult(ct, ct, keys)
        assert out.level == ct.level - 1  # rescaled
        assert np.max(np.abs(decoded(ctx, keys, out) - vals**2)) < TOL

    def test_hmult_without_rescale(self, ctx, keys, ct, vals):
        out = ctx.hmult(ct, ct, keys, rescale=False)
        assert out.level == ct.level
        assert out.scale == pytest.approx(ct.scale**2)
        assert np.max(np.abs(decoded(ctx, keys, out) - vals**2)) < TOL

    def test_mult_depth_two(self, ctx, keys, vals):
        ct = ctx.encrypt(vals, keys)
        sq = ctx.hmult(ct, ct, keys)
        quad = ctx.hmult(sq, sq, keys)
        assert np.max(np.abs(decoded(ctx, keys, quad) - vals**4)) < 5e-3

    def test_mult_different_messages(self, ctx, keys, vals):
        other_vals = np.linspace(-1, 1, 8)
        a = ctx.encrypt(vals, keys)
        b = ctx.encrypt(other_vals, keys)
        out = ctx.hmult(a, b, keys)
        assert np.max(
            np.abs(decoded(ctx, keys, out) - vals * other_vals)
        ) < TOL

    def test_square_helper(self, ctx, keys, ct, vals):
        out = ctx.evaluator.square(ct, keys)
        assert np.max(np.abs(decoded(ctx, keys, out) - vals**2)) < TOL


class TestRescale:
    def test_rescale_drops_level_and_scale(self, ctx, keys, ct):
        raw = ctx.hmult(ct, ct, keys, rescale=False)
        out = ctx.rescale(raw)
        assert out.level == raw.level - 1
        assert out.scale < raw.scale

    def test_rescale_at_bottom_fails(self, ctx, keys, vals):
        ct = ctx.encrypt(vals, keys, level=0)
        with pytest.raises(ValueError):
            ctx.rescale(ct)


class TestRotation:
    def test_rotate_by_one(self, ctx, keys, vals):
        full = np.zeros(ctx.slots)
        full[:8] = vals
        ct = ctx.encrypt(full, keys)
        out = ctx.hrotate(ct, 1, keys)
        expected = np.roll(full, -1)
        got = ctx.decrypt_decode_real(out, keys)
        assert np.max(np.abs(got - expected)) < TOL

    def test_rotate_steps(self, ctx, keys):
        full = np.arange(ctx.slots, dtype=float) / 10
        ct = ctx.encrypt(full, keys)
        for step in (2, 5):
            out = ctx.hrotate(ct, step, keys)
            got = ctx.decrypt_decode_real(out, keys)
            assert np.max(np.abs(got - np.roll(full, -step))) < TOL

    def test_missing_rotation_key(self, ctx, keys, ct):
        with pytest.raises(KeyError):
            ctx.hrotate(ct, 7, keys)

    def test_add_rotation_key_later(self, ctx, keys):
        ctx.add_rotation_key(keys, 3)
        full = np.arange(ctx.slots, dtype=float) / 10
        ct = ctx.encrypt(full, keys)
        out = ctx.hrotate(ct, 3, keys)
        got = ctx.decrypt_decode_real(out, keys)
        assert np.max(np.abs(got - np.roll(full, -3))) < TOL

    def test_conjugate(self, ctx, keys):
        vals = np.array([1 + 2j, -0.5 - 1j, 3.0 + 0j])
        ct = ctx.encrypt(vals, keys)
        out = ctx.evaluator.conjugate(ct, keys)
        got = ctx.decrypt_decode(out, keys)[:3]
        assert np.max(np.abs(got - np.conj(vals))) < TOL


class TestScaleManagement:
    def test_match_scale(self, ctx, keys, ct):
        target = ct.scale * 4
        out = ctx.evaluator.match_scale(ct, target)
        assert out.scale == pytest.approx(target)

    def test_match_scale_cannot_lower(self, ctx, keys, ct):
        with pytest.raises(ValueError):
            ctx.evaluator.match_scale(ct, ct.scale / 2)

    def test_hadd_matched(self, ctx, keys, vals):
        a = ctx.encrypt(vals, keys)
        b = ctx.evaluator.pmult_scalar(ctx.encrypt(vals, keys), 1.0)
        out = ctx.evaluator.hadd_matched(a, b)
        assert np.max(np.abs(decoded(ctx, keys, out) - 2 * vals)) < TOL


class TestDoublePrimeRescale:
    """The double-prime rescaling path [5] used for 32-bit words."""

    def test_hmult_with_double_rescale(self):
        ctx = CkksContext.create(ParameterSets.double_rescale_toy(), seed=5)
        keys = ctx.keygen()
        vals = np.array([1.5, -0.75, 2.0])
        ct = ctx.encrypt(vals, keys)
        out = ctx.hmult(ct, ct, keys)
        assert out.level == ct.level - 2  # two primes dropped
        got = ctx.decrypt_decode_real(out, keys)[:3]
        assert np.max(np.abs(got - vals**2)) < 1e-2
