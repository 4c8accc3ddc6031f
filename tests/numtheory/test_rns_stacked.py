"""Bit-exactness of the digit-batched ModUp and the N-D RNS conversions.

``extend_basis_stacked`` must reproduce per-digit ``extend_basis`` calls
exactly (canonical residues; lazy outputs reduce to them), and the N-D
generalizations of ``extend_basis`` / ``mod_down`` / ``mod_down_exact_t``
must equal their historical 2-D behavior slice by slice — including the
single-source-prime fast path the K=1 ModDown takes.
"""

import numpy as np
import pytest

from repro.numtheory import find_ntt_primes
from repro.numtheory.rns import (
    RNSBasis,
    extend_basis,
    extend_basis_stacked,
    mod_down,
)
from tests.oracles import mod_down_exact_t

N = 64


def _bases(num_source, num_target):
    primes = find_ntt_primes(num_source + num_target, 28, N)
    return (RNSBasis(primes[:num_source]),
            RNSBasis(primes[num_source:num_source + num_target]))


class TestExtendBasisStacked:
    @pytest.mark.parametrize("groups", [
        [[0], [1], [2], [3]],               # alpha == 1 (fast path)
        [[0, 1], [2, 3]],                   # alpha == 2
        [[0, 1, 2], [3]],                   # ragged digits (low level)
        [[0], [1, 2]],                      # partial coverage
    ])
    def test_matches_per_digit_extend(self, groups):
        source, target = _bases(4, 5)
        full = RNSBasis(tuple(source.moduli) + tuple(target.moduli))
        for seed in range(20):
            rng = np.random.default_rng(seed)
            residues = source.random(N, rng)
            got = extend_basis_stacked(residues, groups, source, full)
            assert got.shape == (len(full), len(groups), N)
            for gi, g in enumerate(groups):
                sub = RNSBasis([source.moduli[i] for i in g])
                ref = extend_basis(residues[list(g)], sub, full)
                assert np.array_equal(got[:, gi], ref), \
                    f"groups={groups} digit={gi} seed={seed}"

    def test_lazy_reduces_to_canonical(self):
        """alpha==1 lazy output is the unreduced broadcast: reducing it
        recovers the canonical tensor bit-for-bit."""
        source, target = _bases(4, 4)
        full = RNSBasis(tuple(source.moduli) + tuple(target.moduli))
        groups = [[0], [1], [2], [3]]
        rng = np.random.default_rng(5)
        residues = source.random(N, rng)
        canonical = extend_basis_stacked(residues, groups, source, full)
        lazy = extend_basis_stacked(
            residues, groups, source, full, lazy=True
        )
        assert (lazy < 2**32).all()
        assert np.array_equal(full.batch.reduce_mat(lazy), canonical)

    def test_rejects_empty_digit(self):
        source, target = _bases(2, 2)
        with pytest.raises(ValueError):
            extend_basis_stacked(source.zero(N), [[0], []], source, target)


class TestNdExtendAndModDown:
    def test_nd_extend_matches_2d_slices(self):
        source, target = _bases(3, 4)
        rng = np.random.default_rng(1)
        batch = np.stack([source.random(N, rng) for _ in range(5)], axis=1)
        for exact in (False, True):
            got = extend_basis(batch, source, target, exact=exact)
            assert got.shape == (len(target), 5, N)
            for k in range(5):
                ref = extend_basis(
                    np.ascontiguousarray(batch[:, k]), source, target,
                    exact=exact,
                )
                assert np.array_equal(got[:, k], ref), f"exact={exact} k={k}"

    def test_single_prime_source_fast_path(self):
        """len(source)==1 (the K=1 ModDown of the Table VI sets): the
        extension is x mod t exactly, with no ratio correction."""
        source, target = _bases(1, 5)
        rng = np.random.default_rng(2)
        residues = source.random(N, rng)
        for exact in (False, True):
            got = extend_basis(residues, source, target, exact=exact)
            q = np.array(target.moduli, dtype=np.uint64)[:, None]
            assert np.array_equal(got, residues[0][None, :] % q)

    @pytest.mark.parametrize("num_special", [1, 2])
    def test_nd_mod_down_matches_2d_slices(self, num_special):
        main, special = _bases(4, num_special)
        full_moduli = tuple(main.moduli) + tuple(special.moduli)
        full = RNSBasis(full_moduli)
        rng = np.random.default_rng(3)
        batch = np.stack([full.random(N, rng) for _ in range(4)], axis=1)
        got = mod_down(batch, main, special)
        assert got.shape == (len(main), 4, N)
        for k in range(4):
            ref = mod_down(
                np.ascontiguousarray(batch[:, k]), main, special
            )
            assert np.array_equal(got[:, k], ref), f"k={k}"

    def test_nd_mod_down_exact_t_matches_2d_slices(self):
        main, special = _bases(3, 2)
        full = RNSBasis(tuple(main.moduli) + tuple(special.moduli))
        t = 65537
        rng = np.random.default_rng(4)
        batch = np.stack([full.random(N, rng) for _ in range(3)], axis=1)
        got = mod_down_exact_t(batch, main, special, t)
        for k in range(3):
            ref = mod_down_exact_t(
                np.ascontiguousarray(batch[:, k]), main, special, t
            )
            assert np.array_equal(got[:, k], ref), f"k={k}"

    def test_mod_down_shape_validation(self):
        main, special = _bases(3, 1)
        with pytest.raises(ValueError):
            mod_down(main.zero(N), main, special)
