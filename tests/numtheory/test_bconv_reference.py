"""Basis conversion (BConv) pinned to a Python-int CRT reference.

``extend_basis`` (the ModDown correction, any batch axes) and
``extend_basis_stacked`` (ModUp, every digit at once) run as one exact
float64 GEMM. The looped key switch shares ``extend_basis``, so
batched-vs-looped parity cannot catch a BConv error; these tests compare
both extensions with the definition instead:

* approximate: ``sum_i y_i * (Q / q_i) mod t`` with
  ``y_i = x_i * (Q / q_i)^-1 mod q_i``, in Python integers;
* exact: ``x mod t`` for the CRT value ``x < Q``.

Inputs include the GEMM's worst case (every ``y_i = q_i - 1`` over the
largest 31-bit primes) and source sizes on both sides of a
``limb_split`` step.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ntt.stacked import limb_split
from repro.numtheory import find_ntt_primes
from repro.numtheory.modmath import is_probable_prime
from repro.numtheory.rns import RNSBasis, extend_basis, extend_basis_stacked

#: The largest primes below 2**31 (ring degree 1: every odd prime).
TOP31 = find_ntt_primes(200, 31, 1)


def crt_extend(residues, source, target, *, exact=False):
    """Python-int fast basis extension of ``(alpha, ...)`` residues."""
    q_prod = source.product
    flat = np.asarray(residues).reshape(len(source), -1)
    out = np.empty((len(target), flat.shape[1]), dtype=np.uint64)
    for j in range(flat.shape[1]):
        total = 0
        for i, q_i in enumerate(source.moduli):
            hat = q_prod // q_i
            y = int(flat[i, j]) * pow(hat % q_i, -1, q_i) % q_i
            total += y * hat
        if exact:
            total %= q_prod
        out[:, j] = [total % t for t in target.moduli]
    return out.reshape((len(target),) + np.shape(residues)[1:])


def worst_residues(source, lanes):
    """Residues whose CRT digits are all ``y_i = q_i - 1``."""
    rows = [[(q - 1) * (source.product // q) % q] * lanes
            for q in source.moduli]
    return np.array(rows, dtype=np.uint64)


def random_residues(source, shape, rng):
    return np.stack([rng.integers(0, q, size=shape, dtype=np.uint64)
                     for q in source.moduli])


def two_limb_edge(q_max):
    """Largest source size whose GEMM still takes two limbs."""
    alpha = 1
    while limb_split(alpha + 1, q_max)[0] == 2:
        alpha += 1
    return alpha


EDGE = two_limb_edge(TOP31[0])


class TestExtendBasis:
    @pytest.mark.parametrize("alpha", [2, 3, EDGE - 1, EDGE, EDGE + 1])
    @pytest.mark.parametrize("exact", [False, True])
    def test_worst_case_digits(self, alpha, exact):
        source = RNSBasis(TOP31[:alpha])
        target = RNSBasis(TOP31[alpha:alpha + 4])
        x = worst_residues(source, 3)
        got = extend_basis(x, source, target, exact=exact)
        assert np.array_equal(got, crt_extend(x, source, target,
                                              exact=exact))

    def test_limb_edge_is_where_expected(self):
        # EDGE digits plus the exact path's overshoot row step from two
        # 16-bit limbs to three 11-bit limbs.
        assert limb_split(EDGE, TOP31[0]) == (2, 16)
        assert limb_split(EDGE + 1, TOP31[0]) == (3, 11)

    @pytest.mark.parametrize("exact", [False, True])
    def test_batch_axes(self, exact):
        source = RNSBasis(TOP31[:3])
        target = RNSBasis(TOP31[3:8])
        rng = np.random.default_rng(1)
        x = random_residues(source, (2, 3, 16), rng)
        got = extend_basis(x, source, target, exact=exact)
        assert got.shape == (5, 2, 3, 16)
        assert np.array_equal(got, crt_extend(x, source, target,
                                              exact=exact))

    def test_exact_at_zero_and_q_minus_one(self):
        source = RNSBasis(TOP31[:4])
        target = RNSBasis(TOP31[4:7])
        q_prod = source.product
        values = [0, 1, q_prod - 1, q_prod - 2, q_prod // 2]
        x = np.array([[v % q for v in values] for q in source.moduli],
                     dtype=np.uint64)
        got = extend_basis(x, source, target, exact=True)
        want = [[v % t for v in values] for t in target.moduli]
        assert np.array_equal(got, np.array(want, dtype=np.uint64))

    def test_unboundable_sum_raises(self):
        # 2**31 - 1 targets and one source row too many for three limbs.
        alpha = 1
        while True:
            try:
                limb_split(alpha + 1, TOP31[0])
            except ValueError:
                break
            alpha += 1
        source = RNSBasis(find_ntt_primes(alpha + 1, 24, 1))
        target = RNSBasis([TOP31[0]])
        with pytest.raises(ValueError, match="2\\*\\*53"):
            extend_basis(source.zero(2), source, target)


class TestExtendBasisStacked:
    @pytest.mark.parametrize("groups", [
        [[0, 1, 2], [3, 4, 5], [6, 7, 8]],
        [[0, 1, 2], [3, 4, 5], [6]],       # ragged: a short last digit
        [[0], [1, 2, 3, 4]],
    ])
    def test_worst_case_digits(self, groups):
        level = RNSBasis(TOP31[:9])
        target = RNSBasis(TOP31[:12])
        rows = np.zeros((9, 4), dtype=np.uint64)
        for g in groups:
            rows[g] = worst_residues(level.sub_basis(g), 4)
        got = extend_basis_stacked(rows, groups, level, target)
        for gi, g in enumerate(groups):
            want = crt_extend(rows[g], level.sub_basis(g), target)
            assert np.array_equal(got[:, gi], want), f"digit {gi}"

    def test_ragged_random(self):
        level = RNSBasis(TOP31[:7])
        target = RNSBasis(TOP31[:10])
        groups = [[0, 1, 2], [3, 4, 5], [6]]
        x = random_residues(level, 32, np.random.default_rng(2))
        got = extend_basis_stacked(x, groups, level, target, lazy=True)
        for gi, g in enumerate(groups):
            want = crt_extend(x[g], level.sub_basis(g), target)
            assert np.array_equal(got[:, gi], want), f"digit {gi}"


def _primes(bits, count, seed):
    """``count`` distinct random primes of ``bits`` bits."""
    rng = np.random.default_rng(seed)
    found = set()
    while len(found) < count:
        c = int(rng.integers(1 << (bits - 1), 1 << bits)) | 1
        while not is_probable_prime(c):
            c += 2
        if c < 1 << 31:
            found.add(c)
    return sorted(found)


@settings(max_examples=25, deadline=None)
@given(bits=st.integers(12, 31), alpha=st.integers(2, 6),
       num_target=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_random_primes_match_crt(bits, alpha, num_target, seed):
    primes = _primes(bits, alpha + 2 * num_target, seed)
    source = RNSBasis(primes[:alpha])
    target = RNSBasis(primes[alpha:alpha + num_target])
    x = random_residues(source, 8, np.random.default_rng(seed))
    for exact in (False, True):
        got = extend_basis(x, source, target, exact=exact)
        assert np.array_equal(got, crt_extend(x, source, target,
                                              exact=exact))
    groups = [list(range(alpha - 1)), [alpha - 1]]
    full = RNSBasis(primes[:alpha + num_target])
    got = extend_basis_stacked(x, groups, source, full)
    for gi, g in enumerate(groups):
        assert np.array_equal(
            got[:, gi], crt_extend(x[g], source.sub_basis(g), full))
