"""Kernel descriptors — the interface between algorithms and the simulator.

A :class:`KernelSpec` states *what a kernel does* in hardware terms: its
launch geometry, total operation counts per execution-pipe class, and its
memory traffic by space. The lowering code in :mod:`repro.core` and
:mod:`repro.baselines` builds these from honest counts of what each
algorithm actually computes and moves; the engine then prices them.
Every construction is validated (``__post_init__``), so builders need
no separate check. The price depends on the cost fields only: ``name``
and ``tags`` label a launch and never enter the profile memo's key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

#: Scalar INT8 MACs performed by one warp-level MMA instruction
#: (m16n16k16: 16*16*16 = 4096 MACs).
MACS_PER_MMA = 4096

#: Bytes one fully-coalesced warp-level global access moves (32 x 4B).
BYTES_PER_GMEM_INSTR = 128

#: Bytes one warp-level shared-memory access moves.
BYTES_PER_SMEM_INSTR = 128

#: Lanes per warp.
WARP_SIZE = 32

@dataclass(frozen=True)
class KernelSpec:
    """A complete cost description of one GPU kernel launch.

    All operation and byte counts are *kernel-wide totals*.

    Attributes
    ----------
    name:
        Display name (appears in timelines and profiles).
    blocks, warps_per_block:
        Launch geometry. ``threads = blocks * warps_per_block * 32``.
    int32_ops:
        Scalar INT32 ALU operations executed on CUDA cores.
    tensor_macs:
        Scalar INT8 multiply-accumulates executed on tensor cores.
    gmem_read_bytes / gmem_write_bytes:
        Off-chip (DRAM-backed) traffic.
    smem_read_bytes / smem_write_bytes:
        On-chip shared-memory traffic.
    smem_per_block_bytes:
        Static shared-memory footprint (limits occupancy).
    regs_per_thread:
        Register footprint (limits occupancy).
    barriers:
        ``__syncthreads`` count per block.
    coalescing:
        Fraction of peak efficiency of global accesses in (0, 1]; strided
        access patterns move the same payload in more transactions.
    efficiency:
        Pipeline efficiency in (0, 1]: the achieved fraction of the
        roofline bound, covering second-order effects (dependency chains,
        bank conflicts, scheduling gaps) below the model's resolution.
        Calibrated constants; every use is documented in EXPERIMENTS.md.
    tags:
        Free-form labels used by reports (e.g. ``{"stage": "GEMM"}``).
    """

    name: str
    blocks: int
    warps_per_block: int
    int32_ops: float = 0.0
    tensor_macs: float = 0.0
    gmem_read_bytes: float = 0.0
    gmem_write_bytes: float = 0.0
    smem_read_bytes: float = 0.0
    smem_write_bytes: float = 0.0
    smem_per_block_bytes: int = 0
    regs_per_thread: int = 64
    barriers: int = 0
    coalescing: float = 1.0
    efficiency: float = 1.0
    tags: Dict[str, str] = field(default_factory=dict)

    def validate(self) -> "KernelSpec":
        """Schema-check the descriptor and return it.

        ``__post_init__`` runs it on every construction, including
        :func:`dataclasses.replace` and :meth:`scaled`, so a nonsensical
        geometry or a negative count fails next to the numbers that
        produced it; the engine re-checks at submit time, once per
        distinct cost shape, as a backstop for a spec mutated after
        construction.
        """
        if self.blocks < 1 or self.warps_per_block < 1:
            raise ValueError("kernel must launch at least one warp")
        if not 0.0 < self.coalescing <= 1.0:
            raise ValueError("coalescing must be in (0, 1]")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        for fname in (
            "int32_ops", "tensor_macs", "gmem_read_bytes",
            "gmem_write_bytes", "smem_read_bytes", "smem_write_bytes",
            "smem_per_block_bytes", "barriers",
        ):
            if getattr(self, fname) < 0:
                raise ValueError(f"{fname} must be non-negative")
        if self.regs_per_thread < 1:
            raise ValueError("regs_per_thread must be at least 1")
        return self

    def __post_init__(self):
        self.validate()

    # -- derived counts ------------------------------------------------------

    @property
    def total_warps(self) -> int:
        return self.blocks * self.warps_per_block

    @property
    def threads(self) -> int:
        return self.total_warps * WARP_SIZE

    @property
    def gmem_bytes(self) -> float:
        return self.gmem_read_bytes + self.gmem_write_bytes

    @property
    def smem_bytes(self) -> float:
        return self.smem_read_bytes + self.smem_write_bytes

    @property
    def alu_warp_instructions(self) -> float:
        """Warp-level INT32 instructions (32 lanes each)."""
        return self.int32_ops / WARP_SIZE

    @property
    def mma_warp_instructions(self) -> float:
        return self.tensor_macs / MACS_PER_MMA

    @property
    def gmem_warp_instructions(self) -> float:
        """Warp-level global load/store instructions, inflated by poor
        coalescing (more transactions for the same payload)."""
        return self.gmem_bytes / (BYTES_PER_GMEM_INSTR * self.coalescing)

    @property
    def smem_warp_instructions(self) -> float:
        return self.smem_bytes / BYTES_PER_SMEM_INSTR

    @property
    def warp_instructions(self) -> float:
        """All issued warp instructions."""
        return (
            self.alu_warp_instructions
            + self.mma_warp_instructions
            + self.gmem_warp_instructions
            + self.smem_warp_instructions
            + self.barriers * self.total_warps  # bar.sync, one per warp
        )

    @property
    def memory_instruction_fraction(self) -> float:
        """Share of issued instructions that are LSU-bound — the
        compute-to-memory balance that drives LG-throttle behaviour."""
        total = self.warp_instructions
        if total == 0:
            return 0.0
        return (
            self.gmem_warp_instructions + self.smem_warp_instructions
        ) / total

    def scaled(self, factor: float) -> "KernelSpec":
        """A copy with all work and traffic multiplied by ``factor``
        (geometry unchanged) — used when batching identical payloads."""
        return replace(
            self,
            int32_ops=self.int32_ops * factor,
            tensor_macs=self.tensor_macs * factor,
            gmem_read_bytes=self.gmem_read_bytes * factor,
            gmem_write_bytes=self.gmem_write_bytes * factor,
            smem_read_bytes=self.smem_read_bytes * factor,
            smem_write_bytes=self.smem_write_bytes * factor,
        )

    def renamed(self, name: str, **tags) -> "KernelSpec":
        """A copy with a new name and extra tags. :meth:`validate` reads
        neither, so the copy skips ``__init__`` and its re-validation."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, name=name,
                            tags={**self.tags, **tags})
        return out
