"""Bit-identity pins of the BGV/BFV slot NTT and multiplication path.

The digests were taken while BGV/BFV ``encode``/``decode`` ran the
per-row radix-2 Montgomery transform and the per-prime Barrett
reducers. They pin the plaintext coefficients and slots, and one seeded
encrypt → hmult → decrypt per scheme (ciphertext words included), so any
other NTT or reduction path must reproduce them bit for bit. The toy
sets are also checked against the O(N^2) reference transforms.

``OP_DIGESTS`` pins the rest of each toy scheme's surface: the key words
``keygen`` draws (secret, public, relin), a fresh ciphertext, the
additive and plaintext ops, and for BGV ``mod_switch``, ``apply_galois``
and an ``hadd`` whose operands differ in level and ``plain_scale`` (so it
runs ``_align``'s mod switch and scale equalisation).
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.bfv import BfvContext, BfvParams
from repro.bgv import BgvContext, BgvParams
from repro.ntt.tables import get_tables
from tests.oracles import reference_negacyclic_intt, reference_negacyclic_ntt

SETS = {
    "bgv-toy": (BgvContext, BgvParams.toy()),
    "bgv-small": (BgvContext, BgvParams.small()),
    "bfv-toy": (BfvContext, BfvParams.toy()),
    "bgv-n8": (BgvContext, BgvParams(n=8, max_level=2, name="bgv-n8")),
}

#: (encode, decode) digests per set.
CODEC_DIGESTS = {
    "bgv-toy": ("23ffa1ec76c91147", "89fb3741fd81ae78"),
    "bgv-small": ("627987ebc096b255", "1146210a0ed30d60"),
    "bfv-toy": ("2949be5f6d016ad7", "d2a7b593ac563ea1"),
    "bgv-n8": ("fabccbe21fb7d6b4", "c69a0bc81772eb79"),
}

#: Digest of (c0, c1, decrypted slots) after one seeded hmult.
HMULT_DIGESTS = {
    "bgv-toy": "ccb538df3213bd7b",
    "bfv-toy": "1c08c9a920d74478",
}


#: Digest per (set, step) of one seeded run of ``_op_digests``.
OP_DIGESTS = {
    "bfv-toy": {
        "keygen-secret": "87c1843d6d6e4976",
        "keygen-public": "07c6a31f45647d2d",
        "keygen-relin": "95e4e02cd94cd303",
        "encrypt": "8550975bfa0815df",
        "hadd": "df1fa8fae5ad9cfa",
        "hsub": "5e4e2134f7673c70",
        "negate": "5d99b0b584482e98",
        "add_plain": "1bf2c1fab9581cf0",
        "pmult": "6d5b13fae15c8f15",
    },
    "bgv-toy": {
        "keygen-secret": "87c1843d6d6e4976",
        "keygen-public": "e2bae7ba1bcdc2e3",
        "keygen-relin": "632e120c89095f58",
        "encrypt": "7ed1c2f2f3b5f499",
        "hadd": "206c5574e23a4904",
        "hsub": "3a764da3de64a10f",
        "negate": "bbafce8ddadd21c3",
        "add_plain": "ca7b91a3508a631a",
        "pmult": "23eb79d17243c7df",
        "mod_switch": "a6f40be4bf93bf2a",
        "apply_galois": "741b30e3ad213954",
        "hadd-aligned": "841a7f58bb492381",
    },
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _codec_inputs(ctx):
    rng = np.random.default_rng(11)
    t, n = ctx.t, ctx.params.n
    values = rng.integers(-(t // 2), t // 2, size=n)
    coeffs = rng.integers(0, t, size=n, dtype=np.uint64)
    return values, coeffs


def _hmult_digest(name: str) -> str:
    cls, params = SETS[name]
    ctx = cls(params, seed=5)
    keys = ctx.keygen()
    rng = np.random.default_rng(7)
    a = rng.integers(-300, 300, size=params.n)
    b = rng.integers(-300, 300, size=params.n)
    prod = ctx.hmult(ctx.encrypt(a, keys), ctx.encrypt(b, keys), keys)
    out = ctx.decrypt(prod, keys)
    t = ctx.t
    expected = np.mod(a * b, t)
    assert np.array_equal(np.mod(out, t), expected)
    return _digest(prod.c0.data, prod.c1.data, out)


def _ct_digest(ct, out) -> str:
    arrays = [ct.c0.data, ct.c1.data, out]
    if hasattr(ct, "level"):
        arrays.append(np.array([ct.level, ct.plain_scale], dtype=np.int64))
    return _digest(*arrays)


def _op_digests(name: str) -> dict:
    """One seeded run over keygen, encrypt and the shared ops; each
    result is checked against plain integer arithmetic mod t."""
    cls, params = SETS[name]
    ctx = cls(params, seed=5)
    keys = ctx.keygen()
    t = ctx.t
    relin = [p.data for pair in keys.relin.pairs for p in pair]
    out = {
        "keygen-secret": _digest(keys.secret.poly.data, keys.secret.coeffs),
        "keygen-public": _digest(keys.public.b.data, keys.public.a.data),
        "keygen-relin": _digest(
            *relin, np.array([i for d in keys.relin.digits for i in d])),
    }
    rng = np.random.default_rng(7)
    a = rng.integers(-300, 300, size=params.n)
    b = rng.integers(-300, 300, size=params.n)
    ca, cb = ctx.encrypt(a, keys), ctx.encrypt(b, keys)

    def pin(step, ct, expected):
        dec = ctx.decrypt(ct, keys)
        assert np.array_equal(np.mod(dec, t), np.mod(expected, t)), step
        out[step] = _ct_digest(ct, dec)

    pin("encrypt", ca, a)
    pin("hadd", ctx.hadd(ca, cb), a + b)
    pin("hsub", ctx.hsub(ca, cb), a - b)
    pin("negate", ctx.negate(ca), -a)
    pin("add_plain", ctx.add_plain(ca, b), a + b)
    pin("pmult", ctx.pmult(ca, b), a * b)
    if hasattr(ca, "level"):
        pin("mod_switch", ctx.mod_switch(ca), a)
        ctx.generate_galois_key(keys, 5)
        pin("apply_galois", ctx.apply_galois(ca, 5, keys),
            a[ctx.slot_permutation(5)])
        lo = ctx.hmult(ctx.mod_switch(ca), ctx.mod_switch(cb), keys)
        assert lo.level < ca.level and lo.plain_scale != 1
        pin("hadd-aligned", ctx.hadd(ca, lo), a + a * b)
    return out


@functools.lru_cache(maxsize=None)
def _cached_op_digests(name: str) -> tuple:
    return tuple(sorted(_op_digests(name).items()))


@pytest.mark.parametrize("name", sorted(SETS))
def test_encode_decode_digests(name):
    cls, params = SETS[name]
    ctx = cls(params, seed=0)
    values, coeffs = _codec_inputs(ctx)
    enc, dec = ctx.encode(values), ctx.decode(coeffs)
    assert (_digest(enc), _digest(dec)) == CODEC_DIGESTS[name]


@pytest.mark.parametrize("name", ["bgv-toy", "bfv-toy", "bgv-n8"])
def test_encode_decode_match_reference(name):
    cls, params = SETS[name]
    ctx = cls(params, seed=0)
    tables = get_tables(ctx.t, params.n)
    values, coeffs = _codec_inputs(ctx)
    slots = np.mod(values, ctx.t).astype(np.uint64)
    assert np.array_equal(ctx.encode(values),
                          reference_negacyclic_intt(slots, tables))
    assert np.array_equal(
        ctx.decode(coeffs),
        reference_negacyclic_ntt(coeffs, tables).astype(np.int64))


@pytest.mark.parametrize("name", sorted(HMULT_DIGESTS))
def test_hmult_digest(name):
    assert _hmult_digest(name) == HMULT_DIGESTS[name]


@pytest.mark.parametrize("name,step", [
    (name, step) for name in sorted(OP_DIGESTS) for step in OP_DIGESTS[name]
])
def test_op_digest(name, step):
    assert dict(_cached_op_digests(name))[step] == OP_DIGESTS[name][step]


@pytest.mark.parametrize("name", sorted(OP_DIGESTS))
def test_op_digests_cover_every_step(name):
    assert sorted(OP_DIGESTS[name]) == [k for k, _ in
                                        _cached_op_digests(name)]


if __name__ == "__main__":
    for key in sorted(HMULT_DIGESTS):
        print(key, _hmult_digest(key))
    for key in ("bfv-toy", "bgv-toy"):
        print(key, _op_digests(key))
