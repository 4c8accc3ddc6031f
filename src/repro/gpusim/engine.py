"""The analytic kernel-pricing engine.

Given a :class:`~repro.gpusim.kernel.KernelSpec` and a
:class:`~repro.gpusim.device.GpuSpec`, :func:`simulate_kernel` produces a
:class:`KernelProfile`: elapsed time, the binding resource, Nsight-style
stall attribution and throughput utilizations. Schedulers price through
:func:`profile_kernel`, which memoises it per device for the process.

Model
-----
1. **Occupancy** — resident blocks per SM from shared-memory, register and
   warp-slot limits; ``sm_used = min(blocks, sm_count)``.
2. **Throughput roofline** — device-cycles needed by each resource
   (INT32 pipes, tensor pipes, instruction issue, LSU issue, SMEM
   bandwidth, DRAM bandwidth). DRAM bandwidth additionally saturates only
   when enough SMs participate (``dram_saturation_sms``) — this is what
   makes small polynomial-level grids underuse the machine (§III-C).
3. **Latency correction** — memory time is divided by a hiding factor
   ``min(1, resident_warps / warps_to_hide)``: too few resident warps
   expose DRAM/SMEM latency instead of bandwidth.
4. **Elapsed** = max over corrected resource times, plus launch overhead.
5. **Stall attribution** — total warp-resident cycles minus issued
   instructions is distributed over the Nsight categories with pressure
   weights derived from the same resource times (LSU saturation ->
   LG Throttle, DRAM wait -> Long Scoreboard, SMEM wait -> Short
   Scoreboard/MIO, pipe saturation -> Math Throttle, ...).

Every step uses only quantities derivable from the kernel's honest
operation counts, so comparisons between kernel plans (the paper's tables)
reflect algorithmic differences, not tuning.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from functools import cached_property
from operator import attrgetter
from typing import Dict

from .device import GpuSpec
from .kernel import KernelSpec
from .stalls import StallBreakdown, StallReason

#: Resident warps per SM that fully hide shared-memory latency.
_WARPS_TO_HIDE_SMEM = 4

#: Max resident blocks per SM (hardware limit on current architectures).
_MAX_BLOCKS_PER_SM = 32


@dataclass(frozen=True)
class Occupancy:
    """Resolved occupancy of one kernel on one device."""

    blocks_per_sm: int
    resident_warps_per_sm: int
    sm_used: int
    waves: float
    limited_by: str


@dataclass(frozen=True)
class KernelProfile:
    """Simulated execution profile of a single kernel launch (immutable:
    :func:`profile_kernel` hands one instance to every launch of the
    same cost shape, so it carries no name or tags; a timeline entry
    holds the launch's own spec)."""

    device: GpuSpec
    occupancy: Occupancy
    #: Device-cycles demanded by each resource (throughput view).
    resource_cycles: Dict[str, float]
    #: The resource that bounds execution.
    bound_by: str
    #: Execution cycles excluding launch overhead.
    exec_cycles: float
    #: Launch + teardown overhead cycles.
    overhead_cycles: float
    issued_instructions: float
    stalls: StallBreakdown

    @property
    def total_cycles(self) -> float:
        return self.exec_cycles + self.overhead_cycles

    @cached_property
    def elapsed_us(self) -> float:
        # Schedulers read it once per node and candidate; the memo hands
        # one profile to every caller, so it is converted once.
        return self.device.cycles_to_us(self.total_cycles)

    @property
    def exec_us(self) -> float:
        return self.device.cycles_to_us(self.exec_cycles)

    @property
    def stall_cycles_per_issued(self) -> float:
        if self.issued_instructions == 0:
            return 0.0
        return self.stalls.total / self.issued_instructions

    @property
    def compute_throughput_utilization(self) -> float:
        """Nsight 'Compute (SM) Throughput' analogue: busiest execution
        pipe's demand over elapsed execution time, as a percentage."""
        busiest = max(
            self.resource_cycles["int32"], self.resource_cycles["tensor"],
            self.resource_cycles["issue"],
        )
        return 100.0 * busiest / self.exec_cycles if self.exec_cycles else 0.0

    @property
    def memory_throughput_utilization(self) -> float:
        """Nsight 'Memory Throughput' analogue: busiest memory subsystem
        (DRAM, SMEM, LSU) over elapsed execution time, as a percentage."""
        busiest = max(
            self.resource_cycles["dram"], self.resource_cycles["smem"],
            self.resource_cycles["lsu"],
        )
        return 100.0 * busiest / self.exec_cycles if self.exec_cycles else 0.0


def compute_occupancy(spec: KernelSpec, device: GpuSpec) -> Occupancy:
    """Resolve resident blocks/warps per SM and grid waves."""
    limits = {"hardware": _MAX_BLOCKS_PER_SM}
    if spec.smem_per_block_bytes > 0:
        limits["shared memory"] = max(
            1, device.smem_per_sm_bytes // spec.smem_per_block_bytes
        )
        if spec.smem_per_block_bytes > device.smem_per_sm_bytes:
            raise ValueError(
                f"kernel {spec.name!r} requests {spec.smem_per_block_bytes}B "
                f"of shared memory; device offers {device.smem_per_sm_bytes}B"
            )
    limits["warp slots"] = max(
        1, device.max_warps_per_sm // spec.warps_per_block
    )
    regs_per_block = spec.regs_per_thread * spec.warps_per_block * 32
    if regs_per_block > 0:
        limits["registers"] = max(1, device.registers_per_sm // regs_per_block)
    limited_by = min(limits, key=limits.get)
    blocks_per_sm = max(1, min(limits.values()))
    sm_used = min(spec.blocks, device.sm_count)
    waves = spec.blocks / (blocks_per_sm * device.sm_count)
    resident = min(
        blocks_per_sm * spec.warps_per_block, device.max_warps_per_sm
    )
    # A grid smaller than one full wave resides entirely at once.
    if spec.blocks < blocks_per_sm * device.sm_count:
        per_sm_blocks = -(-spec.blocks // sm_used)
        resident = min(resident, per_sm_blocks * spec.warps_per_block)
    return Occupancy(
        blocks_per_sm=blocks_per_sm,
        resident_warps_per_sm=resident,
        sm_used=sm_used,
        waves=max(1.0, waves),
        limited_by=limited_by,
    )


def simulate_kernel(spec: KernelSpec, device: GpuSpec) -> KernelProfile:
    """Price one kernel launch; see the module docstring for the model."""
    spec.validate()
    occ = compute_occupancy(spec, device)
    sm_used = occ.sm_used

    # --- throughput roofline -------------------------------------------------
    t_int = spec.int32_ops / (device.int32_lanes_per_sm * sm_used)
    if spec.tensor_macs > 0 and device.tensor_int8_macs_per_cycle_per_sm == 0:
        raise ValueError(
            f"kernel {spec.name!r} uses tensor cores but device "
            f"{device.name!r} has none usable for INT8"
        )
    t_tensor = (
        spec.tensor_macs
        / (device.tensor_int8_macs_per_cycle_per_sm * sm_used)
        if spec.tensor_macs
        else 0.0
    )
    per_sm_dram = device.dram_bytes_per_cycle / device.dram_saturation_sms
    achievable_dram = min(
        device.dram_bytes_per_cycle, per_sm_dram * sm_used
    )
    t_dram = spec.gmem_bytes / achievable_dram if spec.gmem_bytes else 0.0
    t_smem = (
        spec.smem_bytes / (device.smem_bytes_per_cycle_per_sm * sm_used)
        if spec.smem_bytes
        else 0.0
    )
    t_issue = spec.warp_instructions / (device.schedulers_per_sm * sm_used)
    t_lsu = (
        spec.gmem_warp_instructions + spec.smem_warp_instructions
    ) / (device.lsu_issue_per_cycle_per_sm * sm_used)

    # --- latency correction ---------------------------------------------------
    hide_dram = min(1.0, occ.resident_warps_per_sm / device.warps_to_hide_dram)
    hide_smem = min(1.0, occ.resident_warps_per_sm / _WARPS_TO_HIDE_SMEM)
    eff_dram = t_dram / hide_dram if t_dram else 0.0
    # One dependent DRAM round trip per wave cannot be pipelined away.
    latency_floor = (
        device.dram_latency_cycles * occ.waves if spec.gmem_bytes else 0.0
    )
    eff_dram = max(eff_dram, latency_floor)
    eff_smem = t_smem / hide_smem if t_smem else 0.0

    resources = {
        "int32": t_int,
        "tensor": t_tensor,
        "dram": eff_dram,
        "smem": eff_smem,
        "issue": t_issue,
        "lsu": t_lsu,
    }
    bound_by = max(resources, key=resources.get)
    exec_cycles = max(resources.values()) / spec.efficiency
    if exec_cycles <= 0:
        exec_cycles = 1.0  # an empty kernel still occupies the pipeline

    return KernelProfile(
        device=device,
        occupancy=occ,
        resource_cycles=resources,
        bound_by=bound_by,
        exec_cycles=exec_cycles,
        overhead_cycles=device.launch_overhead_cycles,
        issued_instructions=spec.warp_instructions,
        stalls=_attribute_stalls(spec, device, occ, resources, exec_cycles),
    )


#: Every :class:`KernelSpec` field a profile depends on: all but the
#: display ``name`` and the report ``tags``.
_cost_fields = attrgetter(*(f.name for f in fields(KernelSpec)
                            if f.name not in ("name", "tags")))


def spec_cache_key(spec: KernelSpec) -> tuple:
    """The cost fields of a spec, in field order; two specs with equal
    keys profile identically on a given device, whatever their names."""
    return _cost_fields(spec)


#: Profiles the memo keeps before evicting the least recently used: the
#: serving catalog's ~7k distinct specs per device several times over,
#: while device overrides (the tuning gym's ``gpu.*`` knobs) stay bounded.
PROFILE_MEMO_SIZE = 1 << 15

#: ``(device, spec_cache_key(spec)) -> KernelProfile``, least recent first.
_PROFILE_MEMO: "OrderedDict[tuple, KernelProfile]" = OrderedDict()

#: Memo hits/misses over every caller, and :func:`~repro.gpusim.run_dag`
#: calls; read through :func:`~repro.gpusim.profile_cache_stats`.
_PROFILE_STATS = {"hits": 0, "misses": 0, "runs": 0}


def profile_kernel(spec: KernelSpec, device: GpuSpec) -> KernelProfile:
    """:func:`simulate_kernel`, memoised per device for the whole process.

    Traced DAGs repeat a small set of kernel shapes across launches,
    requests and schedule candidates; the model is a pure function of
    the device and the spec's cost fields (:func:`spec_cache_key`), so
    each distinct pair is priced once.
    """
    key = (device, spec_cache_key(spec))
    prof = _PROFILE_MEMO.get(key)
    if prof is not None:
        _PROFILE_MEMO.move_to_end(key)
        _PROFILE_STATS["hits"] += 1
        return prof
    prof = _PROFILE_MEMO[key] = simulate_kernel(spec, device)
    _PROFILE_STATS["misses"] += 1
    if len(_PROFILE_MEMO) > PROFILE_MEMO_SIZE:
        _PROFILE_MEMO.popitem(last=False)
    return prof


def _attribute_stalls(spec: KernelSpec, device: GpuSpec, occ: Occupancy,
                      resources: Dict[str, float],
                      exec_cycles: float) -> StallBreakdown:
    """Distribute non-issuing warp cycles over the Nsight categories."""
    warp_cycles = exec_cycles * occ.resident_warps_per_sm * occ.sm_used
    issued = spec.warp_instructions
    stall_total = max(0.0, warp_cycles - issued)
    breakdown = StallBreakdown()
    if stall_total == 0:
        return breakdown

    def frac(name: str) -> float:
        return resources[name] / exec_cycles if exec_cycles else 0.0

    mem_instr_frac = spec.memory_instruction_fraction
    total_instr = spec.warp_instructions
    gmem_instr_frac = (
        spec.gmem_warp_instructions / total_instr if total_instr else 0.0
    )
    # LG Throttle: the local/global queue backs up when nearly every
    # issued instruction targets global memory and the kernel is
    # memory-bound (TensorFHE's bit-split kernels). Shared-memory pressure
    # shows up as MIO Throttle / Short Scoreboard instead, per Nsight's
    # taxonomy. Long Scoreboard: waits on in-flight DRAM data, dominant
    # when memory waits punctuate compute.
    mem_bound = max(frac("dram"), frac("lsu"))
    weights: Dict[StallReason, float] = {}
    weights[StallReason.LG_THROTTLE] = (
        (gmem_instr_frac ** 2) * mem_bound
        * (6.0 if gmem_instr_frac > 0.4 else 0.6)
    )
    weights[StallReason.LONG_SCOREBOARD] = frac("dram") * max(
        0.15, 1.0 - mem_instr_frac
    )
    weights[StallReason.SHORT_SCOREBOARD] = frac("smem") * 0.6
    weights[StallReason.MIO_THROTTLE] = frac("smem") * 0.4
    weights[StallReason.MATH_THROTTLE] = max(frac("int32"), frac("tensor")) * 0.5
    weights[StallReason.WAIT] = max(frac("int32"), frac("tensor")) * 0.25
    weights[StallReason.BARRIER] = (
        0.1 if spec.barriers else 0.0
    ) * min(1.0, spec.barriers / 8.0)
    weights[StallReason.DRAIN] = 0.02 if spec.gmem_write_bytes else 0.0
    weights[StallReason.IMC_MISS] = 0.01
    # Healthy oversubscription: warps ready but another was selected.
    extra_warps = max(
        0.0, occ.resident_warps_per_sm - 2 * device.schedulers_per_sm
    )
    weights[StallReason.NOT_SELECTED] = (
        0.3 * extra_warps / max(1, occ.resident_warps_per_sm)
    ) * (issued / warp_cycles if warp_cycles else 0.0) * 10.0

    total_weight = sum(weights.values())
    if total_weight == 0:
        breakdown.add(StallReason.NOT_SELECTED, stall_total)
        return breakdown
    for reason, weight in weights.items():
        if weight > 0:
            breakdown.add(reason, stall_total * weight / total_weight)
    return breakdown
