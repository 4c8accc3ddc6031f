"""Nsight-Compute-style roll-up of simulated kernel profiles.

Aggregates the metrics the paper reports: stall cycles per issued
instruction and their category breakdown (Table II, Fig. 5),
compute/memory throughput utilization (Tables III, IX, X), and kernel
counts (Table IX). The benchmarks render them into the paper's tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .engine import KernelProfile
from .stalls import StallBreakdown


@dataclass
class AggregateMetrics:
    """Roll-up of a group of kernel profiles (e.g. one operation)."""

    kernel_count: int
    total_cycles: float
    total_us: float
    issued_instructions: float
    stalls: StallBreakdown
    #: Time-weighted average utilizations (%).
    compute_utilization: float
    memory_utilization: float

    @property
    def stall_cycles_per_issued(self) -> float:
        if self.issued_instructions == 0:
            return 0.0
        return self.stalls.total / self.issued_instructions

    @property
    def memory_stall_fraction(self) -> float:
        return self.stalls.memory_related_fraction


def aggregate(profiles: Sequence[KernelProfile]) -> AggregateMetrics:
    """Combine kernel profiles into operation-level metrics."""
    if not profiles:
        raise ValueError("cannot aggregate zero profiles")
    stalls = StallBreakdown()
    for p in profiles:
        stalls = stalls.merged_with(p.stalls)
    total_cycles = sum(p.total_cycles for p in profiles)
    exec_cycles = sum(p.exec_cycles for p in profiles)
    compute = sum(
        p.compute_throughput_utilization * p.exec_cycles for p in profiles
    ) / exec_cycles
    memory = sum(
        p.memory_throughput_utilization * p.exec_cycles for p in profiles
    ) / exec_cycles
    return AggregateMetrics(
        kernel_count=len(profiles),
        total_cycles=total_cycles,
        total_us=sum(p.elapsed_us for p in profiles),
        issued_instructions=sum(p.issued_instructions for p in profiles),
        stalls=stalls,
        compute_utilization=compute,
        memory_utilization=memory,
    )
