"""Bit-identity pins of the BGV/BFV slot NTT and multiplication path.

``golden_bgv_bfv.json`` was first taken while BGV/BFV ``encode``/``decode``
ran the per-row radix-2 Montgomery transform and per-prime Barrett
reducers. It pins the codec words, one seeded encrypt → hmult → decrypt
per scheme, and (``op/``) each toy scheme's key words, a fresh ciphertext,
the additive and plaintext ops, and for BGV ``mod_switch``,
``apply_galois`` and an ``hadd`` across levels and ``plain_scale`` (through
``_align``). The toy codecs are also checked against the O(N^2) reference
transforms.
"""

import functools
from pathlib import Path

import numpy as np
import pytest

from repro.bfv import BfvContext, BfvParams
from repro.bgv import BgvContext, BgvParams
from repro.ntt.tables import get_tables
from tests.golden import Golden
from tests.oracles import reference_negacyclic_intt, reference_negacyclic_ntt

SETS = {
    "bgv-toy": (BgvContext, BgvParams.toy()),
    "bgv-small": (BgvContext, BgvParams.small()),
    "bfv-toy": (BfvContext, BfvParams.toy()),
    "bgv-n8": (BgvContext, BgvParams(n=8, max_level=2, name="bgv-n8")),
}

#: The ``op/`` steps of each seeded run; BGV adds its level-changing ops.
STEPS = ("keygen-secret", "keygen-public", "keygen-relin", "encrypt",
         "hadd", "hsub", "negate", "add_plain", "pmult")
OP_STEPS = {
    "bfv-toy": STEPS,
    "bgv-toy": STEPS + ("mod_switch", "apply_galois", "hadd-aligned"),
}


def _codec_inputs(ctx):
    rng = np.random.default_rng(11)
    t, n = ctx.t, ctx.params.n
    values = rng.integers(-(t // 2), t // 2, size=n)
    coeffs = rng.integers(0, t, size=n, dtype=np.uint64)
    return values, coeffs


def _codec(name: str) -> dict:
    cls, params = SETS[name]
    ctx = cls(params, seed=0)
    values, coeffs = _codec_inputs(ctx)
    return {"encode": ctx.encode(values), "decode": ctx.decode(coeffs)}


def _ct(ct, slots) -> dict:
    row = {"c0": ct.c0.data, "c1": ct.c1.data, "slots": slots}
    if hasattr(ct, "level"):
        row.update(level=int(ct.level), plain_scale=int(ct.plain_scale))
    return row


@functools.lru_cache(maxsize=None)
def _run(name: str) -> dict:
    """One seeded run over keygen, encrypt, hmult and the shared ops,
    keyed by golden case; each result is checked against plain integer
    arithmetic mod t."""
    cls, params = SETS[name]
    ctx = cls(params, seed=5)
    keys = ctx.keygen()
    t = ctx.t
    op = f"op/{name}/"
    out = {
        op + "keygen-secret": {"poly": keys.secret.poly.data,
                               "coeffs": keys.secret.coeffs},
        op + "keygen-public": {"b": keys.public.b.data,
                               "a": keys.public.a.data},
        op + "keygen-relin": {
            "pairs": [p.data for pair in keys.relin.pairs for p in pair],
            "digits": np.array([i for d in keys.relin.digits for i in d]),
        },
    }
    rng = np.random.default_rng(7)
    a = rng.integers(-300, 300, size=params.n)
    b = rng.integers(-300, 300, size=params.n)
    ca, cb = ctx.encrypt(a, keys), ctx.encrypt(b, keys)

    def pin(case, ct, expected):
        dec = ctx.decrypt(ct, keys)
        assert np.array_equal(np.mod(dec, t), np.mod(expected, t)), case
        out[case] = _ct(ct, dec)

    pin(f"hmult/{name}", ctx.hmult(ca, cb, keys), a * b)
    pin(op + "encrypt", ca, a)
    pin(op + "hadd", ctx.hadd(ca, cb), a + b)
    pin(op + "hsub", ctx.hsub(ca, cb), a - b)
    pin(op + "negate", ctx.negate(ca), -a)
    pin(op + "add_plain", ctx.add_plain(ca, b), a + b)
    pin(op + "pmult", ctx.pmult(ca, b), a * b)
    if hasattr(ca, "level"):
        pin(op + "mod_switch", ctx.mod_switch(ca), a)
        ctx.generate_galois_key(keys, 5)
        pin(op + "apply_galois", ctx.apply_galois(ca, 5, keys),
            a[ctx.slot_permutation(5)])
        lo = ctx.hmult(ctx.mod_switch(ca), ctx.mod_switch(cb), keys)
        assert lo.level < ca.level and lo.plain_scale != 1
        pin(op + "hadd-aligned", ctx.hadd(ca, lo), a + a * b)
    return out


def _compute():
    rows = {f"codec/{name}": _codec(name) for name in SETS}
    for name in OP_STEPS:
        rows.update(_run(name))
    return rows


GOLDEN = Golden(Path(__file__).with_name("golden_bgv_bfv.json"), _compute)


@pytest.mark.parametrize("name", sorted(SETS))
def test_encode_decode_digests(name):
    GOLDEN.check(f"codec/{name}", _codec(name))


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


@pytest.mark.parametrize("name", sorted(OP_STEPS))
def test_hmult_digest(name):
    GOLDEN.check(f"hmult/{name}", _run(name)[f"hmult/{name}"])


@pytest.mark.parametrize("name,step", [
    (name, step) for name in OP_STEPS for step in OP_STEPS[name]
])
def test_op_digest(name, step):
    case = f"op/{name}/{step}"
    GOLDEN.check(case, _run(name)[case])


@pytest.mark.parametrize("name", sorted(OP_STEPS))
def test_op_digests_cover_every_step(name):
    cases = sorted(f"op/{name}/{step}" for step in OP_STEPS[name])
    assert cases == sorted(c for c in _run(name) if c.startswith("op/"))
    assert cases == GOLDEN.cases(f"op/{name}/")
