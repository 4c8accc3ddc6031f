"""Bit-identity pins of the BGV/BFV slot NTT and multiplication path.

The digests were taken while BGV/BFV ``encode``/``decode`` ran the
per-row radix-2 Montgomery transform and the per-prime Barrett
reducers. They pin the plaintext coefficients and slots, and one seeded
encrypt → hmult → decrypt per scheme (ciphertext words included), so any
other NTT or reduction path must reproduce them bit for bit. The toy
sets are also checked against the O(N^2) reference transforms.
"""

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


if __name__ == "__main__":
    for key in sorted(HMULT_DIGESTS):
        print(key, _hmult_digest(key))
