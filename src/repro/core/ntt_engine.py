"""WarpDrive-NTT: the five execution variants of §V-A.

* **WD-Tensor** — warp-level tensor-core GEMM inner NTTs (uint8 limbs),
  CUDA cores handling split/merge, twiddle Hadamards and reductions;
* **WD-CUDA** — the same GEMM structure executed as 32-bit GEMM on INT32
  CUDA cores (no bit splitting);
* **WD-FTC** — WD-Tensor and WD-CUDA fused: both pipes run GEMMs;
* **WD-BO** — high-radix butterfly inner NTTs on CUDA cores;
* **WD-FUSE** — WD-Tensor and WD-BO fused: tensor warps run limb GEMMs
  while CUDA warps run butterflies on their share of the batch
  (the paper's default: it beats every single-pipe variant).

The variants differ only in how the GPU runs the transform, so they
differ here only in pricing: each prices a *kernel plan* from
:func:`~repro.core.costs.plan_work_counts` of its decomposition, and
every variant's functional :meth:`WarpDriveNtt.forward` /
:meth:`~WarpDriveNtt.inverse` runs the library's one NTT kernel
(:func:`repro.ntt.stacked_negacyclic_ntt`), the same one the CKKS layer
runs. The uint8 tensor-core numerics are executed in
:func:`repro.baselines.tensorfhe.functional_five_stage_ntt`.
Geometry follows §IV-D-2 (T=256, N_t=8, single kernel when the polynomial
fits shared memory, dual kernel otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..gpusim import A100_PCIE_80G, ExecutionResult, GpuSpec, KernelSpec, run_serial
from ..ntt import (
    NttTables,
    build_plan,
    get_shoup_stack,
    stacked_negacyclic_intt,
    stacked_negacyclic_ntt,
)
from . import costs
from .kernels import DEFAULT_GEOMETRY, WORD_BYTES, GeometryConfig
from .warp_allocation import WarpAllocation, balance_fraction, default_allocation

VARIANTS = ("wd-tensor", "wd-cuda", "wd-ftc", "wd-bo", "wd-fuse")

# -- declared tuning knobs (DESIGN.md §14) ----------------------------------

from ..tuning.knobs import Choice, KnobSpec, register_knob  # noqa: E402

register_knob(KnobSpec(
    name="ntt.variant", layer="ntt",
    domain=Choice(VARIANTS), default="wd-fuse",
    doc="NTT execution strategy (Fig. 6): tensor-core GEMM, CUDA "
        "butterflies, fused tensor+CUDA, or balanced-offload hybrids.",
    observe=lambda pipe: pipe.scheduler.ntt.variant,
))


#: INT32 instructions per 32-bit GEMM MAC on CUDA cores: one IMAD plus
#: amortized lazy reduction.
_CUDA_GEMM_OPS_PER_MAC = 1.3

#: Twiddle-related extra global traffic, as a fraction of the data
#: payload. Matrix-form twiddles (GEMM paths) reload small tiles; vector
#: twiddles (butterfly) are lighter; fusing staggers the two streams'
#: read windows (§IV-B-2), shaving a little more.
_TWIDDLE_TRAFFIC = {
    "wd-tensor": 0.12,
    "wd-cuda": 0.12,
    "wd-ftc": 0.12,
    "wd-bo": 0.04,
    "wd-fuse": 0.06,
}

#: Global silicon-gap calibration: real NTT kernels achieve well under
#: half of the analytic roofline (instruction-dependency chains, bank
#: conflicts, tail effects). One scalar, applied to every variant alike so
#: all variant/baseline *ratios* are untouched; calibrated once against
#: Table VII absolute KOPS. Documented in EXPERIMENTS.md.
_SILICON_GAP = 0.40

#: Relative pipeline efficiency per variant — achieved fraction of the
#: roofline, on top of the global silicon gap. Calibrated against the
#: paper's own ablation (Fig. 6): fused variants overlap pipes best; pure
#: CUDA GEMM suffers the RAW-dependency stalls TensorFHE reports.
_PIPELINE_EFFICIENCY = {
    "wd-tensor": 0.92 * _SILICON_GAP,
    "wd-cuda": 0.80 * _SILICON_GAP,
    "wd-ftc": 0.85 * _SILICON_GAP,
    "wd-bo": 0.88 * _SILICON_GAP,
    "wd-fuse": 0.96 * _SILICON_GAP,
}


@dataclass
class NttKernelCosts:
    """Resolved per-batch cost inputs for one variant."""

    int32_ops: float
    tensor_macs: float
    smem_bytes: float
    twiddle_traffic_factor: float
    allocation: WarpAllocation


class WarpDriveNtt:
    """One (N, variant, device) NTT engine."""

    def __init__(self, n: int, *, variant: str = "wd-fuse",
                 device: GpuSpec = A100_PCIE_80G,
                 geometry: GeometryConfig = DEFAULT_GEOMETRY,
                 use_karatsuba: bool = False,
                 silicon_gap: float = None):
        """``silicon_gap`` overrides the global calibration scalar (the
        robustness benchmark sweeps it to show orderings are stable);
        ``use_karatsuba`` prices 9 limb GEMMs instead of 16 (§IV-A-4)."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; one of {VARIANTS}")
        self.n = n
        self.variant = variant
        self.device = device
        self.geometry = geometry
        self.use_karatsuba = use_karatsuba
        self.efficiency = _PIPELINE_EFFICIENCY[variant]
        if silicon_gap is not None:
            if not 0.0 < silicon_gap <= 1.0:
                raise ValueError("silicon_gap must be in (0, 1]")
            self.efficiency = (
                _PIPELINE_EFFICIENCY[variant] / _SILICON_GAP * silicon_gap
            )
            self.efficiency = min(1.0, self.efficiency)
        self.plan = build_plan(n)
        self.counts = costs.plan_work_counts(self.plan)

    # -- functional execution ---------------------------------------------------

    def forward(self, x: np.ndarray, tables: NttTables) -> np.ndarray:
        """Negacyclic forward NTT over the last axis of ``x`` (values
        below ``2**32``): the stacked kernel, bit-exact for every
        variant."""
        return self._transform(stacked_negacyclic_ntt, x, tables)

    def inverse(self, x: np.ndarray, tables: NttTables) -> np.ndarray:
        """Negacyclic inverse NTT over the last axis (values below
        ``2q``)."""
        return self._transform(stacked_negacyclic_intt, x, tables)

    def _transform(self, kernel, x: np.ndarray,
                   tables: NttTables) -> np.ndarray:
        """Run ``kernel`` on ``(..., N)`` as one ``(1, G, N)`` batch."""
        if tables.n != self.n:
            raise ValueError(
                f"plan is for size {self.n}, tables for {tables.n}")
        if tables.modulus >= 1 << 31:
            raise ValueError(f"WarpDrive NTT needs a modulus below 2**31, "
                             f"got {tables.modulus}")
        x = np.asarray(x, dtype=np.uint64)
        if x.ndim == 0 or x.shape[-1] != self.n:
            raise ValueError(
                f"last axis of {x.shape} does not match plan size {self.n}")
        stack = get_shoup_stack((tables.modulus,), self.n)
        return kernel(x.reshape(1, -1, self.n), stack).reshape(x.shape)

    # -- performance layer -----------------------------------------------------------

    @property
    def uses_dual_kernel(self) -> bool:
        """§IV-D-2: dual-kernel when one polynomial exceeds shared memory."""
        return self.n * WORD_BYTES > self.device.smem_per_sm_bytes

    def kernel_plan(self, batch: int = 1, *, inverse: bool = False,
                    ) -> List[KernelSpec]:
        """Kernel launches for a batch of ``batch`` independent NTTs."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        c = self._variant_costs(batch)
        stages = 2 if self.uses_dual_kernel else 1
        name = f"{self.variant}-{'intt' if inverse else 'ntt'}"
        data_bytes = batch * self.n * WORD_BYTES
        kernels = []
        for stage in range(stages):
            kernels.append(
                KernelSpec(
                    name=f"{name}[{stage + 1}/{stages}]",
                    blocks=self.geometry.blocks_for(
                        batch * self.n, self.geometry.ntt_coeffs_per_thread
                    ),
                    warps_per_block=c.allocation.warps_per_block,
                    int32_ops=c.int32_ops / stages,
                    tensor_macs=c.tensor_macs / stages,
                    gmem_read_bytes=data_bytes
                    * (1 + c.twiddle_traffic_factor),
                    gmem_write_bytes=data_bytes,
                    smem_read_bytes=c.smem_bytes / stages / 2,
                    smem_write_bytes=c.smem_bytes / stages / 2,
                    smem_per_block_bytes=self._smem_per_block(),
                    barriers=self.counts.leaf_steps * 2,
                    efficiency=self.efficiency,
                    regs_per_thread=96,
                    tags={"variant": self.variant, "n": str(self.n)},
                )
            )
        return kernels

    def simulate(self, batch: int = 1024) -> ExecutionResult:
        return run_serial(self.kernel_plan(batch), self.device)

    def throughput_kops(self, batch: int = 1024) -> float:
        """Thousands of N-point NTTs per second at the given batch size."""
        elapsed_us = self.simulate(batch).elapsed_us
        return batch / elapsed_us * 1e3

    def latency_us(self, batch: int = 1) -> float:
        return self.simulate(batch).elapsed_us

    # -- internals ----------------------------------------------------------------

    def _variant_costs(self, batch: int) -> NttKernelCosts:
        cts = self.counts
        alloc = default_allocation(self.device)
        tw = _TWIDDLE_TRAFFIC[self.variant]
        # Shared-memory traffic: step intermediates plus GEMM operand
        # streams (registers absorb 3/4 — the §IV-A-3 optimization keeps
        # MMA fragments in the per-thread registers [59] maps out).
        step_bytes = cts.leaf_steps * 2 * self.n * WORD_BYTES
        gemm_operand_bytes = cts.tensor_macs * 0.125 * 0.25

        if self.variant == "wd-tensor":
            limbs = 9 if self.use_karatsuba else costs.LIMB_GEMMS
            macs = cts.ew_mul * limbs
            ints = cts.support_ops(include_bit_ops=True)
            smem = step_bytes + gemm_operand_bytes
        elif self.variant == "wd-cuda":
            macs = 0.0
            ints = (
                cts.ew_mul * _CUDA_GEMM_OPS_PER_MAC
                + cts.support_ops(include_bit_ops=False)
            )
            smem = step_bytes + cts.ew_mul * 2 * 0.5
            alloc = WarpAllocation(0, 8, 0.0)
        elif self.variant == "wd-bo":
            macs = 0.0
            ints = self._butterfly_ints()
            smem = step_bytes
            alloc = WarpAllocation(0, 8, 0.0)
        elif self.variant == "wd-ftc":
            f = balance_fraction(
                self.device,
                tensor_macs_per_unit=cts.ew_mul * costs.LIMB_GEMMS,
                cuda_ops_per_unit=cts.ew_mul * _CUDA_GEMM_OPS_PER_MAC,
                cuda_fixed_ops=cts.support_ops(include_bit_ops=True),
            )
            macs = f * cts.ew_mul * costs.LIMB_GEMMS
            ints = (
                (1 - f) * cts.ew_mul * _CUDA_GEMM_OPS_PER_MAC
                + cts.support_ops(include_bit_ops=True)
            )
            smem = step_bytes + gemm_operand_bytes
            alloc = WarpAllocation(4, 4, f)
        else:  # wd-fuse
            f = balance_fraction(
                self.device,
                tensor_macs_per_unit=cts.ew_mul * costs.LIMB_GEMMS,
                cuda_ops_per_unit=self._butterfly_ints(),
            )
            # Fraction f of the batch runs the tensor path (with its
            # support work), 1-f runs butterflies on the CUDA warps.
            macs = f * cts.ew_mul * costs.LIMB_GEMMS
            ints = (
                f * cts.support_ops(include_bit_ops=True)
                + (1 - f) * self._butterfly_ints()
            )
            smem = f * (step_bytes + gemm_operand_bytes) \
                + (1 - f) * step_bytes
            alloc = WarpAllocation(4, 4, f)

        return NttKernelCosts(
            int32_ops=ints * batch,
            tensor_macs=macs * batch,
            smem_bytes=smem * batch,
            twiddle_traffic_factor=tw,
            allocation=alloc,
        )

    def _butterfly_ints(self) -> float:
        """INT32 ops of the butterfly path, including per-stage shuffle
        bookkeeping of the high-radix layout."""
        cts = self.counts
        stage_overhead = 2.0 * self.n * cts.leaf_steps
        return cts.butterfly_ops() + stage_overhead

    def _smem_per_block(self) -> int:
        """Tile of T * N_t coefficients (double-buffered limbs) plus
        twiddle matrices."""
        tile = (
            self.geometry.threads_per_block
            * self.geometry.ntt_coeffs_per_thread
            * WORD_BYTES
        )
        twiddles = 16 * 1024
        return min(2 * tile + twiddles, self.device.smem_per_sm_bytes)
