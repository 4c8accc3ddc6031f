"""Bit-exactness parity between the numpy reference and the optional
accelerated backends.

Every property here asserts *exact* uint64 equality: the backend contract
is canonical-value equality, not numerical closeness. The numba module is
skipped cleanly when numba is not importable (the CI numpy-only leg).
"""

import importlib.util

import numpy as np
import pytest

from repro.backend import resolve_backend, use_backend
from repro.ckks import CkksContext, ParameterSets
from repro.ckks.poly import RnsPoly
from repro.ntt.stacked import (
    get_shoup_stack,
    stacked_negacyclic_intt,
    stacked_negacyclic_ntt,
)
from repro.numtheory import find_ntt_primes
from repro.numtheory.barrett import BatchBarrettReducer

HAVE_NUMBA = importlib.util.find_spec("numba") is not None

N = 128
MODULI = tuple(find_ntt_primes(3, 30, N))


def _rng():
    return np.random.default_rng(0xBACCE17)


def _residues(rng, rows=len(MODULI), cols=N):
    return np.stack([
        rng.integers(0, q, size=cols, dtype=np.uint64)
        for q in MODULI[:rows]
    ])


def _accelerated(name):
    """Construct the named backend, failing loudly (not falling back) if
    its self-check rejects it — parity is the point of this suite."""
    backend = resolve_backend(name)
    if backend.name != name:
        pytest.fail(f"backend {name!r} importable but failed construction")
    return backend


class BackendParitySuite:
    """Shared parity properties; subclasses pin ``backend_name``."""

    backend_name = None

    @pytest.fixture()
    def backend(self):
        return _accelerated(self.backend_name)

    # ---- reducers -------------------------------------------------------

    def test_barrett_ops_match(self, backend):
        rng = _rng()
        red = BatchBarrettReducer(MODULI)
        a, b = _residues(rng), _residues(rng)
        t = np.stack([rng.integers(0, int(q) * int(q), size=N,
                                   dtype=np.uint64) for q in MODULI])
        ref = {}
        for op, args in [("reduce_mat", (t,)), ("mul_mat", (a, b)),
                         ("add_mat", (a, b)), ("sub_mat", (a, b)),
                         ("neg_mat", (a,))]:
            ref[op] = getattr(red, op)(*args)
            with use_backend(backend):
                got = getattr(red, op)(*args)
            np.testing.assert_array_equal(got, ref[op], err_msg=op)

    # ---- stacked transforms --------------------------------------------

    def test_stacked_ntt_roundtrip_matches(self, backend):
        rng = _rng()
        stack = get_shoup_stack(MODULI, N)
        x = _residues(rng)
        fwd = stacked_negacyclic_ntt(x, stack)
        inv = stacked_negacyclic_intt(fwd, stack)
        with use_backend(backend):
            fwd_b = stacked_negacyclic_ntt(x, stack)
            inv_b = stacked_negacyclic_intt(fwd_b, stack)
        np.testing.assert_array_equal(fwd_b, fwd)
        np.testing.assert_array_equal(inv_b, inv)
        np.testing.assert_array_equal(inv_b, x)

    def test_stacked_ntt_lazy_is_congruent(self, backend):
        # lazy=True representatives are backend-specific; the contract is
        # congruence mod q, bound < 2**32, and identical canonicalization.
        rng = _rng()
        stack = get_shoup_stack(MODULI, N)
        x = _residues(rng)
        q_col = np.array(MODULI, dtype=np.uint64)[:, None]
        want = stacked_negacyclic_ntt(x, stack)
        with use_backend(backend):
            lazy = stacked_negacyclic_ntt(x, stack, lazy=True)
        assert lazy.max() < 1 << 32
        np.testing.assert_array_equal(lazy % q_col, want)

    def test_stacked_ntt_input_ceilings_match(self, backend):
        # n = 128 splits 8 x 16 in the numpy GEMM four-step; 31-bit primes
        # and inputs at the ceilings 2**32 - 1 (lazy forward) and 2q - 1
        # (inverse) put its float64 sums nearest 2**53.
        stack = get_shoup_stack(tuple(find_ntt_primes(3, 31, N)), N)
        q_col = stack.q[:, None, None]
        top = np.full((3, 2, N), (1 << 32) - 1, dtype=np.uint64)
        edge = np.broadcast_to(2 * q_col - 1, top.shape).copy()
        want_fwd = stacked_negacyclic_ntt(top, stack)
        want_inv = stacked_negacyclic_intt(edge, stack)
        with use_backend(backend):
            lazy = stacked_negacyclic_ntt(top, stack, lazy=True)
            got_fwd = stacked_negacyclic_ntt(top, stack)
            got_inv = stacked_negacyclic_intt(edge, stack)
        np.testing.assert_array_equal(lazy % q_col, want_fwd)
        np.testing.assert_array_equal(got_fwd, want_fwd)
        np.testing.assert_array_equal(got_inv, want_inv)

    # ---- RnsPoly end-to-end --------------------------------------------

    def test_rns_poly_arithmetic_matches(self, backend):
        rng = _rng()
        a = RnsPoly(_residues(rng), MODULI, "eval")
        b = RnsPoly(_residues(rng), MODULI, "eval")
        acc = RnsPoly(_residues(rng), MODULI, "eval")
        ref = {
            "add": (a + b).data,
            "sub": (a - b).data,
            "neg": (-a).data,
            "mul": (a * b).data,
            "fma": acc.copy().fma_(a, b).data,
            "scalar": a.mul_scalar(12345).data,
        }
        with use_backend(backend):
            np.testing.assert_array_equal((a + b).data, ref["add"])
            np.testing.assert_array_equal((a - b).data, ref["sub"])
            np.testing.assert_array_equal((-a).data, ref["neg"])
            np.testing.assert_array_equal((a * b).data, ref["mul"])
            np.testing.assert_array_equal(
                acc.copy().fma_(a, b).data, ref["fma"])
            np.testing.assert_array_equal(
                a.mul_scalar(12345).data, ref["scalar"])

    def test_rns_poly_domain_conversion_matches(self, backend):
        rng = _rng()
        p = RnsPoly(_residues(rng), MODULI, "coeff")
        want_eval = p.to_eval().data
        with use_backend(backend):
            got_eval = p.to_eval()
            got_back = got_eval.to_coeff()
        np.testing.assert_array_equal(got_eval.data, want_eval)
        np.testing.assert_array_equal(got_back.data, p.data)

    # ---- keyswitch end-to-end ------------------------------------------

    def test_keyswitch_end_to_end_matches(self, backend):
        # Encrypt once (encryption is randomized), then run the full
        # hmult pipeline — NTT, ModUp, InnerProduct, ModDown, rescale —
        # under each backend on the same ciphertext. Deterministic, so
        # the outputs must be bit-identical.
        ctx = CkksContext.create(ParameterSets.toy(), seed=11)
        keys = ctx.keygen(rotations=[1])
        vals = np.linspace(-1.0, 1.0, 8)
        ct = ctx.encrypt(vals, keys)
        prod = ctx.hmult(ct, ct, keys)
        rot = ctx.hrotate(ct, 1, keys)
        with use_backend(backend):
            prod_b = ctx.hmult(ct, ct, keys)
            rot_b = ctx.hrotate(ct, 1, keys)
        np.testing.assert_array_equal(prod_b.c0.data, prod.c0.data)
        np.testing.assert_array_equal(prod_b.c1.data, prod.c1.data)
        np.testing.assert_array_equal(rot_b.c0.data, rot.c0.data)
        np.testing.assert_array_equal(rot_b.c1.data, rot.c1.data)


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not importable")
class TestNumbaParity(BackendParitySuite):
    backend_name = "numba"
