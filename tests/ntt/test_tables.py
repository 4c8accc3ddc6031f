"""Tests for twiddle-table construction."""

import numpy as np
import pytest

from repro.ntt.tables import NttTables, get_tables
from repro.numtheory import find_ntt_prime
from tests.oracles import mont_tables

N = 64
Q = find_ntt_prime(28, N)


@pytest.fixture(scope="module")
def tables():
    return NttTables(Q, N)


class TestConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            NttTables(Q, 48)

    def test_rejects_unfriendly_modulus(self):
        with pytest.raises(ValueError):
            NttTables(97, 64)  # 97-1 = 96 not divisible by 128

    def test_psi_is_primitive_2n_root(self, tables):
        assert pow(tables.psi, 2 * N, Q) == 1
        assert pow(tables.psi, N, Q) == Q - 1  # psi^N = -1

    def test_omega_is_psi_squared(self, tables):
        assert tables.omega == (tables.psi * tables.psi) % Q
        assert pow(tables.omega, N, Q) == 1
        assert pow(tables.omega, N // 2, Q) != 1

    def test_inverses(self, tables):
        assert (tables.psi * tables.psi_inv) % Q == 1
        assert (tables.omega * tables.omega_inv) % Q == 1
        assert (N * tables.n_inv) % Q == 1


class TestPowerTables:
    def test_psi_pows(self, tables):
        for j in [0, 1, 5, N - 1]:
            assert int(tables.psi_pows[j]) == pow(tables.psi, j, Q)

    def test_montgomery_tables_consistent(self, tables):
        mt = mont_tables(tables)
        back = mt.mont.from_montgomery_vec(mt.omega_pows_mont)
        assert np.array_equal(back, mt.omega_pows)

    def test_inverse_tables(self, tables):
        prod = (
            tables.psi_pows.astype(object)
            * tables.psi_inv_pows.astype(object)
        ) % Q
        assert np.all(prod == 1)


class TestDerivedMatrices:
    def test_omega_for_size(self, tables):
        w16 = tables.omega_for_size(16)
        assert pow(w16, 16, Q) == 1
        assert pow(w16, 8, Q) != 1

    def test_omega_for_size_inverse(self, tables):
        w = tables.omega_for_size(16)
        wi = tables.omega_for_size(16, inverse=True)
        assert (w * wi) % Q == 1

    def test_omega_for_size_must_divide(self, tables):
        with pytest.raises(ValueError):
            tables.omega_for_size(48)

    def test_dft_matrix_entries(self, tables):
        m = tables.dft_matrix(8)
        w = tables.omega_for_size(8)
        for k in range(8):
            for j in range(8):
                assert int(m[k, j]) == pow(w, (j * k) % 8, Q)

    def test_twiddle_matrix_entries(self, tables):
        t = tables.twiddle_matrix(4, 8)
        w32 = tables.omega_for_size(32)
        for j1 in range(4):
            for k2 in range(8):
                assert int(t[j1, k2]) == pow(w32, (j1 * k2) % 32, Q)


class TestCache:
    def test_get_tables_is_cached(self):
        assert get_tables(Q, N) is get_tables(Q, N)
