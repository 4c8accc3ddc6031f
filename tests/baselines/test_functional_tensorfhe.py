"""The TensorFHE baseline's functional honesty: Algorithm 1 really
computes the NTT."""

import numpy as np
import pytest

from repro.baselines.tensorfhe import functional_five_stage_ntt
from repro.ntt import NttTables
from repro.numtheory import find_ntt_prime
from tests.oracles import reference_negacyclic_ntt


@pytest.mark.parametrize("n", [256, 1024])
def test_five_stage_matches_reference(n):
    q = find_ntt_prime(28, n)
    tables = NttTables(q, n)
    x = np.random.default_rng(0).integers(0, q, size=n, dtype=np.uint64)
    got = functional_five_stage_ntt(x, tables)
    assert np.array_equal(got, reference_negacyclic_ntt(x, tables))


def test_five_stage_batched():
    n = 256
    q = find_ntt_prime(28, n)
    tables = NttTables(q, n)
    x = np.random.default_rng(1).integers(0, q, size=(3, n),
                                          dtype=np.uint64)
    got = functional_five_stage_ntt(x, tables)
    for i in range(3):
        assert np.array_equal(
            got[i], reference_negacyclic_ntt(x[i], tables)
        )


def test_five_stage_agrees_with_warpdrive_plan():
    """TensorFHE's 1-level and WarpDrive's 2-level plans are different
    factorizations of the same transform."""
    from repro.core import WarpDriveNtt

    n = 4096
    q = find_ntt_prime(28, n)
    tables = NttTables(q, n)
    x = np.random.default_rng(2).integers(0, q, size=n, dtype=np.uint64)
    assert np.array_equal(
        functional_five_stage_ntt(x, tables),
        WarpDriveNtt(n).forward(x, tables),
    )
