"""Coherence between the executed NTT and the analytic cost model.

The simulator prices kernels from `plan_work_counts`; these tests confirm
the *executed* stacked kernel does the amount of work the analytic model
claims for the kernel's own one-level split ``N = N1 * N2`` — tying the
performance layer's inputs to the functional layer's behaviour. Executed
work is read off the :class:`~repro.ntt.stacked.GemmTables` a transform
runs: per row, ``F1 (N1 x limbs1*N1)`` times the ``(limbs1*N1 x N2)``
limb matrix, an ``N1 x N2`` twiddle Hadamard, and ``F2 (N2 x limbs2*N2)``
times the ``(limbs2*N2 x N1)`` limb matrix.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.core import plan_work_counts
from repro.ntt import (
    NttPlan,
    build_plan,
    get_shoup_stack,
    get_tables,
    stacked_negacyclic_ntt,
)
from repro.numtheory import find_ntt_prime
from tests.oracles import negacyclic_ntt


def _executed(n, bits=28, seed=0):
    """Run one forward transform; return its tables and the counts of
    the plan with the kernel's split."""
    q = find_ntt_prime(bits, n)
    stack = get_shoup_stack((q,), n)
    x = np.random.default_rng(seed).integers(0, q, size=(1, n),
                                             dtype=np.uint64)
    assert np.array_equal(stacked_negacyclic_ntt(x, stack)[0],
                          negacyclic_ntt(x[0], get_tables(q, n)))
    tabs = stack.forward
    plan = NttPlan(n, left=NttPlan(tabs.n1), right=NttPlan(tabs.n2))
    return tabs, plan, plan_work_counts(plan)


def _gemm_work(tabs):
    """Per-row ``(limb MACs, 32-bit multiplications)`` of both GEMMs."""
    _, r1, c1 = tabs.f1.shape
    _, r2, c2 = tabs.f2.shape
    macs = r1 * c1 * tabs.n2 + r2 * c2 * tabs.n1
    ew_mul = r1 * (c1 // tabs.limbs1) * tabs.n2 \
        + r2 * (c2 // tabs.limbs2) * tabs.n1
    return macs, ew_mul


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_leaf_elements_match_analytic_ew_mul(n):
    """Each GEMM stage multiplies every element by one leaf's dimension;
    summed over the two stages that is the Table IV EW-Mul count, and
    each operand limb repeats it."""
    tabs, plan, counts = _executed(n)
    macs, ew_mul = _gemm_work(tabs)
    assert ew_mul == counts.ew_mul == n * sum(plan.leaf_sizes())
    assert macs == n * (tabs.limbs1 * tabs.n1 + tabs.limbs2 * tabs.n2)


@pytest.mark.parametrize("log_n,limbs", [(13, (2, 3)), (14, (3, 3))])
def test_gemm_macs_follow_the_limb_split(log_n, limbs):
    """A 31-bit prime needs three limbs once a leaf reaches 128 points."""
    n = 1 << log_n
    tabs, _, counts = _executed(n, bits=31)
    assert (tabs.limbs1, tabs.limbs2) == limbs
    macs, ew_mul = _gemm_work(tabs)
    assert ew_mul == counts.ew_mul
    assert macs == n * (limbs[0] * tabs.n1 + limbs[1] * tabs.n2)


@pytest.mark.parametrize("n", [256, 4096])
def test_twiddle_muls_match_analytic_mod_mul(n):
    tabs, _, counts = _executed(n, seed=1)
    assert tabs.t.shape[-2] * tabs.t.shape[-1] == counts.mod_mul == n


def test_step_count_matches_plan_schedule():
    """GEMM, twiddle Hadamard, GEMM: the 3-step schedule of a one-level
    plan whose leaves are the kernel's two GEMM sizes."""
    n = 65536 // 16
    tabs, plan, counts = _executed(n, seed=2)
    assert plan.num_steps() == 3
    assert counts.leaf_steps == 2
    assert sorted(plan.leaf_sizes()) == sorted((tabs.n1, tabs.n2))
    assert tabs.n1 * tabs.n2 == n


@pytest.mark.parametrize("log_n,ratio", [(12, Fraction(8, 3)),
                                         (16, Fraction(8))])
def test_executed_to_priced_ew_mul_ratio(log_n, ratio):
    """The kernel's one-level split does more multiplications than the
    two-level plan every variant is priced from: 64 + 64 against
    16 + 16 + 16 per element at N = 2**12, 256 + 256 against
    4 x 16 at N = 2**16. A change to either side moves this ratio."""
    n = 1 << log_n
    stack = get_shoup_stack((find_ntt_prime(28, n),), n)
    _, ew_mul = _gemm_work(stack.forward)
    assert Fraction(ew_mul, plan_work_counts(build_plan(n)).ew_mul) == ratio
