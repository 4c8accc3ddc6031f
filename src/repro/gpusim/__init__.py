"""Analytic GPU timing simulator — the paper's A100 testbed, substituted.

Lowered kernel plans (:class:`KernelSpec`) are priced by a roofline+latency
model (:func:`simulate_kernel`), scheduled as launch graphs under the
SM-capacity rule (:func:`run_dag`; a serial plan is a chain,
:func:`run_serial`), and reported with Nsight-Compute-style metrics
(:mod:`profiler`). See DESIGN.md §1 for why this substitution preserves
the paper's comparisons.
"""

from .device import (
    A100_PCIE_80G,
    A100_SXM_40G,
    H100_SXM,
    KNOWN_DEVICES,
    MI100,
    V100,
    GpuSpec,
)
from .engine import (
    KernelProfile,
    Occupancy,
    compute_occupancy,
    profile_kernel,
    simulate_kernel,
    spec_cache_key,
)
from .kernel import (
    BYTES_PER_GMEM_INSTR,
    BYTES_PER_SMEM_INSTR,
    MACS_PER_MMA,
    WARP_SIZE,
    KernelSpec,
)
from .profiler import (
    AggregateMetrics,
    aggregate,
)
from .stalls import MEMORY_RELATED, StallBreakdown, StallReason
from .streams import (
    DagKernel,
    ExecutionResult,
    TimelineEntry,
    cache_stats_scope,
    profile_cache_stats,
    reset_cache_stats,
    run_dag,
    run_profiled_dag,
    run_serial,
)
from .timeline import (
    render_timeline,
    save_chrome_trace,
    summarize,
    to_chrome_trace,
)

# Imported last: the fleet layer pulls in repro.core (for the per-device
# MemoryPool ledger), whose own init re-enters this package and needs
# the engine/stream names above to be bound already.
from .multi import (  # noqa: E402
    FleetDevice,
    FleetEntry,
    FleetResult,
    GpuFleet,
    fleet_to_chrome_trace,
    save_fleet_trace,
)

__all__ = [
    "A100_PCIE_80G",
    "A100_SXM_40G",
    "AggregateMetrics",
    "BYTES_PER_GMEM_INSTR",
    "BYTES_PER_SMEM_INSTR",
    "DagKernel",
    "ExecutionResult",
    "FleetDevice",
    "FleetEntry",
    "FleetResult",
    "GpuFleet",
    "GpuSpec",
    "H100_SXM",
    "KNOWN_DEVICES",
    "KernelProfile",
    "KernelSpec",
    "MACS_PER_MMA",
    "MEMORY_RELATED",
    "MI100",
    "Occupancy",
    "StallBreakdown",
    "StallReason",
    "TimelineEntry",
    "V100",
    "WARP_SIZE",
    "aggregate",
    "cache_stats_scope",
    "compute_occupancy",
    "fleet_to_chrome_trace",
    "profile_cache_stats",
    "profile_kernel",
    "render_timeline",
    "reset_cache_stats",
    "run_dag",
    "run_profiled_dag",
    "save_fleet_trace",
    "run_serial",
    "save_chrome_trace",
    "spec_cache_key",
    "simulate_kernel",
    "summarize",
    "to_chrome_trace",
]
