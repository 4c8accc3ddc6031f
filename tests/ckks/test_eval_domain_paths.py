"""Eval-domain hot paths are bit-exact against the coefficient-domain
composition they replace.

The hot paths transform only the rows the algebra needs: ModDown,
RESCALE and BGV modulus switching INTT just the divided-out primes
(:func:`repro.ckks.ks_common.mod_down_eval`), and automorphisms gather in
the eval domain (:func:`repro.ckks.ks_common.eval_automorphism_table`).
Each is checked here against the full round trip — INTT every row, act
in the coefficient domain, NTT back — kept as a test-only oracle.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgv import BgvContext, BgvParams
from repro.ckks import CkksContext, ParameterSets
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.ks_common import eval_automorphism_table, mod_down_eval
from repro.ckks.poly import COEFF, EVAL, RnsPoly
from repro.ntt.stacked import (
    get_shoup_stack,
    stacked_negacyclic_intt,
    stacked_negacyclic_ntt,
)
from repro.numtheory import RNSBasis, find_ntt_primes, modinv
from repro.numtheory.rns import mod_down
from tests.oracles import keyswitch_looped, mod_down_exact_t

N = 32
NUM_MAIN = 4
PRIMES = tuple(find_ntt_primes(NUM_MAIN + 3, 28, N))


def _ntt(x, moduli):
    return stacked_negacyclic_ntt(x, get_shoup_stack(tuple(moduli), N))


def _intt(x, moduli):
    return stacked_negacyclic_intt(x, get_shoup_stack(tuple(moduli), N))


def _mod_down_oracle(x_eval, main, special, plain_modulus):
    """INTT every row -> coefficient-domain ModDown -> NTT."""
    coeff = _intt(x_eval, tuple(main.moduli) + tuple(special.moduli))
    if plain_modulus is None:
        lowered = mod_down(coeff, main, special)
    else:
        lowered = mod_down_exact_t(coeff, main, special, plain_modulus)
    return _ntt(lowered, main.moduli)


def _drop_last_prime(coeff, moduli):
    """The single-prime coefficient-domain rescale: subtract the last
    residue and multiply by its inverse on every remaining row."""
    q_last = moduli[-1]
    out = []
    for i, q in enumerate(moduli[:-1]):
        row = (coeff[i].astype(object) - coeff[-1].astype(object) % q) \
            * modinv(q_last % q, q) % q
        out.append(row.astype(np.uint64))
    return np.stack(out)


def _rescale_oracle(ct, k):
    """RESCALE as ``k`` sequential single-prime divides."""
    moduli = tuple(ct.moduli)
    parts = []
    for poly in (ct.c0, ct.c1):
        data, mods = poly.to_coeff().data, moduli
        for _ in range(k):
            data, mods = _drop_last_prime(data, mods), mods[:-1]
        parts.append(RnsPoly(data, mods, COEFF).to_eval())
    return parts


class TestModDownEval:
    @settings(max_examples=40, deadline=None)
    @given(num_special=st.sampled_from([1, 2, 3]),
           batch=st.sampled_from([None, 1, 2, NUM_MAIN - 1]),
           plain_modulus=st.sampled_from([None, 257, 65537]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_coefficient_domain_mod_down(self, num_special, batch,
                                                 plain_modulus, seed):
        main = RNSBasis(PRIMES[:NUM_MAIN])
        special = RNSBasis(PRIMES[NUM_MAIN:NUM_MAIN + num_special])
        both = RNSBasis(tuple(main.moduli) + tuple(special.moduli))
        shape = (N,) if batch is None else (batch, N)
        rng = np.random.default_rng(seed)
        x = np.stack([rng.integers(0, q, size=shape, dtype=np.uint64)
                      for q in both.moduli])
        x_eval = _ntt(x, both.moduli)
        got = mod_down_eval(x_eval, main, special,
                            plain_modulus=plain_modulus)
        ref = _mod_down_oracle(x_eval, main, special, plain_modulus)
        assert got.shape == ref.shape == (NUM_MAIN,) + shape
        assert np.array_equal(got, ref)


@lru_cache(maxsize=None)
def _ckks(name):
    params = getattr(ParameterSets, name)()
    ctx = CkksContext.create(params, seed=11)
    keys = ctx.keygen(rotations=[1, 2, 3, 5], conjugation=True)
    return ctx, keys


def _encrypt(ctx, keys, seed, level=None):
    rng = np.random.default_rng(seed)
    ct = ctx.encrypt(rng.uniform(-1, 1, 4).tolist(), keys)
    if level is not None:
        ct = ctx.evaluator.level_down(ct, level)
    return ct


def _galois_oracle(ev, ct, exponent, key):
    """Coefficient round trip + the per-digit key-switch oracle."""
    rot0 = ct.c0.to_coeff().automorphism(exponent).to_eval()
    rot1 = ct.c1.to_coeff().automorphism(exponent).to_eval()
    ks0, ks1 = keyswitch_looped(rot1, key, ev.p_moduli)
    return Ciphertext(rot0 + ks0, ks1, ct.level, ct.scale)


def _assert_ct_equal(got, ref):
    assert got.level == ref.level and got.scale == ref.scale
    for g, r in ((got.c0, ref.c0), (got.c1, ref.c1)):
        assert g.domain == r.domain == EVAL and g.moduli == r.moduli
        assert np.array_equal(g.data, r.data)


class TestRescale:
    @settings(max_examples=10, deadline=None)
    @given(name=st.sampled_from(["toy", "double_rescale_toy"]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_sequential_single_prime_divides(self, name, seed,
                                                     data):
        ctx, keys = _ckks(name)
        ev = ctx.evaluator
        k = ctx.params.rescale_primes
        level = data.draw(st.integers(k, ctx.params.max_level))
        ct = _encrypt(ctx, keys, seed, level)
        out = ev.rescale(ct)
        ref = _rescale_oracle(ct, k)
        assert out.level == level - k
        assert out.scale == ct.scale / math.prod(ct.moduli[-k:])
        assert np.array_equal(out.c0.data, ref[0].data)
        assert np.array_equal(out.c1.data, ref[1].data)

    @pytest.mark.parametrize("name", ["toy", "double_rescale_toy"])
    def test_level_zero_raises(self, name):
        ctx, keys = _ckks(name)
        k = ctx.params.rescale_primes
        ct = _encrypt(ctx, keys, 0, level=k - 1)
        with pytest.raises(ValueError, match="lowest level"):
            ctx.evaluator.rescale(ct)


class TestGalois:
    @settings(max_examples=10, deadline=None)
    @given(step=st.sampled_from([1, 2, 3, 5, -1]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_coefficient_round_trip(self, step, seed, data):
        ctx, keys = _ckks("toy")
        ev = ctx.evaluator
        level = data.draw(st.integers(0, ctx.params.max_level))
        ct = _encrypt(ctx, keys, seed, level)
        two_n = 2 * ctx.params.n
        if step == -1:
            got = ev.conjugate(ct, keys)
            ref = _galois_oracle(ev, ct, two_n - 1, keys.conjugation)
        else:
            got = ev.hrotate(ct, step, keys)
            ref = _galois_oracle(ev, ct, pow(5, step, two_n),
                                 keys.rotation[step])
        _assert_ct_equal(got, ref)

    @settings(max_examples=20, deadline=None)
    @given(exponent=st.integers(0, N - 1).map(lambda e: 2 * e + 1),
           seed=st.integers(0, 2**32 - 1))
    def test_table_matches_coefficient_automorphism(self, exponent, seed):
        moduli = PRIMES[:3]
        rng = np.random.default_rng(seed)
        poly = RnsPoly(RNSBasis(moduli).random(N, rng), moduli, EVAL)
        src = eval_automorphism_table(exponent, N)
        ref = poly.to_coeff().automorphism(exponent).to_eval()
        assert np.array_equal(poly.data[:, src], ref.data)

    def test_table_is_cached_and_read_only(self):
        src = eval_automorphism_table(5, N)
        assert src is eval_automorphism_table(5, N)
        with pytest.raises(ValueError):
            src[0] = 1
        with pytest.raises(ValueError, match="odd"):
            eval_automorphism_table(4, N)


@lru_cache(maxsize=None)
def _bgv():
    ctx = BgvContext(BgvParams.toy(), seed=5)
    keys = ctx.keygen()
    for e in (3, 5, 2 * ctx.params.n - 1):
        ctx.generate_galois_key(keys, e)
    return ctx, keys


class TestBgv:
    @settings(max_examples=10, deadline=None)
    @given(exponent=st.sampled_from([3, 5, 127]),
           seed=st.integers(0, 2**32 - 1))
    def test_apply_galois_matches_old_path(self, exponent, seed):
        ctx, keys = _bgv()
        values = np.random.default_rng(seed).integers(0, 100, 8)
        ct = ctx.encrypt(values.tolist(), keys)
        got = ctx.apply_galois(ct, exponent, keys)
        rot0 = ct.c0.to_coeff().automorphism(exponent).to_eval()
        rot1 = ct.c1.to_coeff().automorphism(exponent).to_eval()
        ks0, ks1 = keyswitch_looped(rot1, keys.rotation[exponent],
                                    ctx.p_moduli, plain_modulus=ctx.t)
        assert np.array_equal(got.c0.data, (rot0 + ks0).data)
        assert np.array_equal(got.c1.data, ks1.data)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_mod_switch_matches_old_path(self, seed):
        ctx, keys = _bgv()
        values = np.random.default_rng(seed).integers(0, 100, 8)
        ct = ctx.encrypt(values.tolist(), keys)
        got = ctx.mod_switch(ct)
        main = RNSBasis(ct.moduli[:-1])
        special = RNSBasis(ct.moduli[-1:])
        for part, out in ((ct.c0, got.c0), (ct.c1, got.c1)):
            ref = mod_down_exact_t(part.to_coeff().data, main, special,
                                   ctx.t)
            assert np.array_equal(
                out.data,
                RnsPoly(ref, ct.moduli[:-1], COEFF).to_eval().data,
            )
        assert np.array_equal(ctx.decrypt(got, keys)[:8], values)
