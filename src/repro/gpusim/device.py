"""GPU device models for the analytic timing simulator.

Each :class:`GpuSpec` captures the architectural parameters the WarpDrive
paper reasons about: SM count and clock, the four SM sub-partitions ("SPs"
in the paper's terminology), INT32 CUDA-core lanes, INT8 tensor-core MAC
throughput, the SMEM/L2/DRAM hierarchy with latencies, scheduler issue
width, and kernel launch overhead.

Numbers for the A100 follow the NVIDIA A100 whitepaper (GA100): 108 SMs,
64 INT32 lanes/SM, 4 tensor cores/SM with 624 INT8 TOPS (dense) at
1.41 GHz => 2048 INT8 MACs/cycle/SM, 192 KB unified L1/SMEM (164 KB usable
as SMEM), 40 MB L2, HBM2e at 1935 GB/s on the PCIE-80G part. The V100 and
MI100 entries model the platforms of the 100x and GME baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class GpuSpec:
    """Architectural parameters of one GPU model."""

    name: str
    sm_count: int
    clock_ghz: float
    #: SM sub-partitions — the "SPs" of the paper (warp schedulers).
    subpartitions_per_sm: int
    #: INT32 ALU lanes per SM (CUDA cores usable for 32-bit integer math).
    int32_lanes_per_sm: int
    #: INT8 MACs per cycle per SM across all tensor cores (0 = no TCs).
    tensor_int8_macs_per_cycle_per_sm: int
    #: Usable shared memory per SM, bytes.
    smem_per_sm_bytes: int
    #: Shared-memory bandwidth per SM, bytes per cycle.
    smem_bytes_per_cycle_per_sm: int
    #: DRAM bandwidth, GB/s.
    dram_gbps: float
    #: Latencies in core cycles.
    dram_latency_cycles: int
    smem_latency_cycles: int
    #: Warp instructions the LSU can accept per cycle per SM.
    lsu_issue_per_cycle_per_sm: float
    #: Max resident warps per SM (occupancy ceiling).
    max_warps_per_sm: int
    #: Registers per SM (32-bit).
    registers_per_sm: int
    #: Kernel launch + teardown overhead, microseconds.
    launch_overhead_us: float
    #: Resident warps per SM needed to fully hide DRAM latency.
    warps_to_hide_dram: int = 16
    #: SMs that must be active to saturate DRAM bandwidth (a single SM can
    #: only sustain a slice of device bandwidth; drives the low-utilization
    #: behaviour of small grids that §III-C measures).
    dram_saturation_sms: int = 60

    @property
    def schedulers_per_sm(self) -> int:
        """One warp scheduler per SM sub-partition."""
        return self.subpartitions_per_sm

    @property
    def dram_bytes_per_cycle(self) -> float:
        """Device-wide DRAM bytes per core cycle."""
        return self.dram_gbps / self.clock_ghz

    @property
    def int32_ops_per_cycle(self) -> int:
        """Device-wide INT32 operations per cycle."""
        return self.sm_count * self.int32_lanes_per_sm

    @property
    def tensor_macs_per_cycle(self) -> int:
        """Device-wide INT8 tensor MACs per cycle."""
        return self.sm_count * self.tensor_int8_macs_per_cycle_per_sm

    @property
    def launch_overhead_cycles(self) -> float:
        return self.launch_overhead_us * self.clock_ghz * 1e3

    def cycles_to_us(self, cycles: float) -> float:
        """Convert core cycles to microseconds."""
        return cycles / (self.clock_ghz * 1e3)

    def us_to_cycles(self, us: float) -> float:
        return us * self.clock_ghz * 1e3

    def with_overrides(self, **kwargs) -> "GpuSpec":
        """A copy with selected fields replaced (for sensitivity studies)."""
        return replace(self, **kwargs)

    def __post_init__(self):
        # Every profile-memo lookup hashes its device: hash once. Numbers
        # only (no name), so a pickled copy's hash holds in any process.
        object.__setattr__(self, "_hash", hash(tuple(
            getattr(self, f.name) for f in fields(self) if f.name != "name")))

    def __hash__(self) -> int:
        return self._hash


#: NVIDIA A100-PCIE-80G — WarpDrive's evaluation platform (Table V).
A100_PCIE_80G = GpuSpec(
    name="NVIDIA A100-PCIE-80G",
    sm_count=108,
    clock_ghz=1.41,
    subpartitions_per_sm=4,
    int32_lanes_per_sm=64,
    tensor_int8_macs_per_cycle_per_sm=2048,
    smem_per_sm_bytes=164 * 1024,
    smem_bytes_per_cycle_per_sm=128,
    dram_gbps=1935.0,
    dram_latency_cycles=466,
    smem_latency_cycles=29,
    lsu_issue_per_cycle_per_sm=4.0,
    max_warps_per_sm=64,
    registers_per_sm=65536,
    launch_overhead_us=3.0,
)

#: NVIDIA A100-SXM-40G — TensorFHE's platform; same SM array, HBM2 at
#: 1555 GB/s.
A100_SXM_40G = A100_PCIE_80G.with_overrides(
    name="NVIDIA A100-SXM-40G", dram_gbps=1555.0
)

#: NVIDIA V100 — 100x's platform: 80 SMs, no INT8 tensor path usable for
#: NTT (FP16 tensor cores only), HBM2 at 900 GB/s.
V100 = GpuSpec(
    name="NVIDIA V100",
    sm_count=80,
    clock_ghz=1.38,
    subpartitions_per_sm=4,
    int32_lanes_per_sm=64,
    tensor_int8_macs_per_cycle_per_sm=0,
    smem_per_sm_bytes=96 * 1024,
    smem_bytes_per_cycle_per_sm=128,
    dram_gbps=900.0,
    dram_latency_cycles=440,
    smem_latency_cycles=28,
    lsu_issue_per_cycle_per_sm=4.0,
    max_warps_per_sm=64,
    registers_per_sm=65536,
    launch_overhead_us=3.5,
)

#: NVIDIA H100 (SXM) — the §VI-B generality target: 132 SMs at 1.98 GHz,
#: 4th-gen tensor cores (1979 dense INT8 TOPS => ~3786 MACs/cycle/SM),
#: 228 KB SMEM/SM, HBM3 at 3350 GB/s. The tensor:CUDA power ratio nearly
#: doubles vs the A100, which shifts the WD-FUSE warp balance.
H100_SXM = GpuSpec(
    name="NVIDIA H100-SXM",
    sm_count=132,
    clock_ghz=1.98,
    subpartitions_per_sm=4,
    int32_lanes_per_sm=64,
    tensor_int8_macs_per_cycle_per_sm=3786,
    smem_per_sm_bytes=228 * 1024,
    smem_bytes_per_cycle_per_sm=128,
    dram_gbps=3350.0,
    dram_latency_cycles=550,
    smem_latency_cycles=29,
    lsu_issue_per_cycle_per_sm=4.0,
    max_warps_per_sm=64,
    registers_per_sm=65536,
    launch_overhead_us=2.5,
)

#: AMD MI100 — GME baseline platform: 120 CUs, 1.2 TB/s HBM2.
MI100 = GpuSpec(
    name="AMD MI100",
    sm_count=120,
    clock_ghz=1.50,
    subpartitions_per_sm=4,
    int32_lanes_per_sm=64,
    tensor_int8_macs_per_cycle_per_sm=1024,
    smem_per_sm_bytes=64 * 1024,
    smem_bytes_per_cycle_per_sm=128,
    dram_gbps=1229.0,
    dram_latency_cycles=500,
    smem_latency_cycles=30,
    lsu_issue_per_cycle_per_sm=4.0,
    max_warps_per_sm=40,
    registers_per_sm=65536,
    launch_overhead_us=4.0,
)

KNOWN_DEVICES = {
    spec.name: spec
    for spec in (A100_PCIE_80G, A100_SXM_40G, H100_SXM, V100, MI100)
}


# -- declared tuning knobs (DESIGN.md §14) ----------------------------------
#
# The device layer owns the machine model and its headline resource
# counts.  ``None`` for a count keeps the chosen model's own value; an
# explicit count is applied through ``GpuSpec.with_overrides`` (the
# sensitivity-study mechanism) when ``build_pipeline`` materializes the
# device — so SM/TC scaling studies are plain knob assignments.

from ..tuning.knobs import (  # noqa: E402  (registry import is dep-free)
    Choice, IntRange, KnobSpec, register_knob,
)

register_knob(KnobSpec(
    name="gpu.model", layer="gpusim",
    domain=Choice(tuple(KNOWN_DEVICES)), default=A100_PCIE_80G.name,
    doc="GPU machine model the simulator prices against.",
    observe=lambda pipe: pipe.device.name,
))
register_knob(KnobSpec(
    name="gpu.sm_count", layer="gpusim",
    domain=IntRange(4, 512, optional=True, grid=(54, 80, 108, 132, 216)),
    default=None,
    doc="Override the model's SM count (None keeps the model's own).",
    observe=lambda pipe: pipe.device.sm_count,
))
register_knob(KnobSpec(
    name="gpu.tensor_macs_per_sm", layer="gpusim",
    domain=IntRange(0, 8192, optional=True, grid=(0, 1024, 2048, 3786)),
    default=None,
    doc="Override INT8 tensor MACs/cycle/SM (None keeps the model's "
        "own; 0 disables the tensor-core path).",
    observe=lambda pipe: pipe.device.tensor_int8_macs_per_cycle_per_sm,
))
