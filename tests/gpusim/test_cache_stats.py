"""Process-wide profile-memo counters: reset and scoping."""

import pytest

from repro.gpusim import (
    A100_PCIE_80G,
    DagKernel,
    KernelSpec,
    cache_stats_scope,
    profile_cache_stats,
    reset_cache_stats,
    run_dag,
)

DEV = A100_PCIE_80G


def dag(*ops):
    """Independent kernels, one per ``int32_ops`` count: equal counts
    are one cost shape and share a memo entry."""
    return [
        DagKernel(spec=KernelSpec(name=f"k{i}", blocks=512,
                                  warps_per_block=8, int32_ops=op,
                                  gmem_read_bytes=1e5),
                  deps=())
        for i, op in enumerate(ops)
    ]


@pytest.fixture(autouse=True)
def cold_memo():
    reset_cache_stats()


class TestResetCacheStats:
    def test_reset_zeroes_every_counter(self):
        run_dag(dag(1e6, 1e6), DEV)
        assert profile_cache_stats()["runs"] > 0
        reset_cache_stats()
        stats = profile_cache_stats()
        assert all(v == 0 for v in stats.values())

    def test_counters_accumulate_after_reset(self):
        reset_cache_stats()
        run_dag(dag(1e6, 1e6), DEV)
        stats = profile_cache_stats()
        assert stats["runs"] == 1
        assert stats["hits"] == 1  # the second kernel reuses the first
        assert stats["misses"] == 1


class TestCacheStatsScope:
    def test_scope_isolates_block_counters(self):
        reset_cache_stats()
        run_dag(dag(1e6), DEV)
        before = profile_cache_stats()
        with cache_stats_scope() as scope:
            run_dag(dag(2e6, 2e6), DEV)
        assert scope.stats["runs"] == 1
        assert scope.stats["hits"] == 1
        after = profile_cache_stats()
        # Outer counters were restored and the block's added on top.
        assert after["runs"] == before["runs"] + scope.stats["runs"]
        assert after["hits"] == before["hits"] + scope.stats["hits"]
        assert after["misses"] == before["misses"] + scope.stats["misses"]
