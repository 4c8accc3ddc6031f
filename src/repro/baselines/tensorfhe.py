"""TensorFHE [22] baseline: the 5-stage kernel-level tensor-core NTT.

Lowers Algorithm 1 of the paper exactly as written: a dedicated bit-split
kernel, 16 limb-GEMM kernel launches per GEMM stage (one per ``(m, n)``
limb pair, launched on streams that serialize on full-device grids), a
Mid kernel (merge + ModRedc + twiddle Hadamard + re-split), 16 more GEMM
launches, and a Merge kernel. Every stage round-trips its data through
global memory — the structural property behind Table II's stall profile
and the 10x gap of Table VII.

Homomorphic operations follow TensorFHE's *operation batching* design:
the same polynomial-level pipeline amortized over ``batch`` ciphertexts.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

import numpy as np

from ..ckks.params import CkksParams
from ..gpusim import (
    A100_SXM_40G,
    DagKernel,
    ExecutionResult,
    GpuSpec,
    KernelSpec,
    run_dag,
    run_serial,
)
from ..core import costs
from ..core.kernels import (DEFAULT_GEOMETRY, DEFAULT_KERNEL_EFFICIENCY,
                            GeometryConfig)
from ..core.scheduler import record_op
from ..ntt.bitsplit import bitsplit_matmul_mod
from ..numtheory import BatchBarrettReducer
from ..trace.lowering import lower_trace

WORD = 4


def functional_five_stage_ntt(x, tables):
    """Execute TensorFHE's NTT *functionally*: the negacyclic twist, then
    a one-level ``N = N1 * N2`` four-step whose two inner-NTT stages are
    uint8 limb GEMMs — exactly the Algorithm 1 dataflow (split, limb
    GEMMs, merge + Hadamard, limb GEMMs, merge), bit-exact against the
    reference transform (tested).

    ``x``: ``(..., N)`` coefficients below ``q``; ``tables``: NttTables
    of (q, N).
    """
    n, q = tables.n, tables.modulus
    red = BatchBarrettReducer((q,))
    bits = n.bit_length() - 1
    n1, n2 = 1 << (bits - bits // 2), 1 << (bits // 2)
    x = red.mul_mat(np.asarray(x, dtype=np.uint64), tables.psi_pows)
    # Input index j = j1 + n1*j2 as a (j1, j2) matrix; n2-point NTTs
    # along j2, twiddles w^(j1*k2), n1-point NTTs along j1; output
    # index n2*k1 + k2.
    a = np.swapaxes(x.reshape(*x.shape[:-1], n2, n1), -1, -2)
    b = bitsplit_matmul_mod(a, tables.dft_matrix(n2), q)
    c = red.mul_mat(b, tables.twiddle_matrix(n1, n2))
    d = bitsplit_matmul_mod(np.swapaxes(c, -1, -2), tables.dft_matrix(n1),
                            q)
    return np.swapaxes(d, -1, -2).reshape(x.shape)


class TensorFheNtt:
    """Kernel-level 5-stage NTT (Algorithm 1), 1-level decomposition."""

    def __init__(self, n: int, *, device: GpuSpec = A100_SXM_40G,
                 geometry: GeometryConfig = DEFAULT_GEOMETRY):
        if n & (n - 1) or n < 256:
            raise ValueError("TensorFHE NTT expects a power of two >= 256")
        self.n = n
        self.device = device
        self.geometry = geometry
        bits = n.bit_length() - 1
        self.n1 = 1 << (bits - bits // 2)
        self.n2 = 1 << (bits // 2)

    # -- kernel plan --------------------------------------------------------------

    def kernel_plan(self, batch: int = 1) -> List[KernelSpec]:
        """The 35 launches of one batched five-stage NTT."""
        b = batch
        n = self.n
        geo = self.geometry
        elems = b * n

        split = KernelSpec(
            name="tf.split(U32ToU8)",
            blocks=geo.blocks_for(elems),
            warps_per_block=geo.warps_per_block,
            int32_ops=elems * 4 * costs.BIT_SPLIT_OPS * 2,
            gmem_read_bytes=elems * WORD,
            gmem_write_bytes=elems * 4,  # four uint8 planes
            coalescing=0.25,             # byte-granular stores
            efficiency=DEFAULT_KERNEL_EFFICIENCY,
            tags={"stage": "Stage 1"},
        )

        def gemm(stage: str, inner: int, m: int, mn: int) -> KernelSpec:
            # One limb-pair GEMM: X_m (uint8) x W (uint8) -> int32 partial.
            return KernelSpec(
                name=f"tf.gemm{stage}[{m},{mn}]",
                blocks=geo.blocks_for(elems, geo.ntt_coeffs_per_thread),
                warps_per_block=geo.warps_per_block,
                tensor_macs=elems * inner,
                int32_ops=elems * 2,  # accumulator staging
                gmem_read_bytes=elems * 1 + inner * inner,
                gmem_write_bytes=elems * WORD,  # int32 partials
                smem_read_bytes=elems * inner * 0.125,
                smem_per_block_bytes=48 * 1024,
                efficiency=DEFAULT_KERNEL_EFFICIENCY,
                tags={"stage": stage},
            )

        mid = KernelSpec(
            name="tf.mid(Hada&Trans)",
            blocks=geo.blocks_for(elems),
            warps_per_block=geo.warps_per_block,
            int32_ops=elems * (
                16 * costs.BIT_MERGE_OPS + costs.MODRED_OPS
                + costs.MONTGOMERY_MULMOD_OPS + 4 * costs.BIT_SPLIT_OPS
            ),
            gmem_read_bytes=elems * 16 * WORD + elems * WORD,
            gmem_write_bytes=elems * 4,
            coalescing=0.5,
            efficiency=DEFAULT_KERNEL_EFFICIENCY,
            tags={"stage": "Stage 3"},
        )

        merge = KernelSpec(
            name="tf.merge(U8ToU32)",
            blocks=geo.blocks_for(elems),
            warps_per_block=geo.warps_per_block,
            int32_ops=elems * (16 * costs.BIT_MERGE_OPS + costs.MODRED_OPS),
            gmem_read_bytes=elems * 16 * WORD,
            gmem_write_bytes=elems * WORD,
            efficiency=DEFAULT_KERNEL_EFFICIENCY,
            tags={"stage": "Stage 5"},
        )

        plan = [split]
        plan += [gemm("Stage 2", self.n2, m, mn)
                 for m in range(4) for mn in range(4)]
        plan += [mid]
        plan += [gemm("Stage 4", self.n1, m, mn)
                 for m in range(4) for mn in range(4)]
        plan += [merge]
        return plan

    def simulate(self, batch: int = 1024, *, streams: int = 1,
                 ) -> ExecutionResult:
        """Price the plan with its launches dealt round-robin into
        ``streams`` CUDA streams.

        Each launch waits for the previous launch of its stream and for
        every launch of the stage before it (whose output it reads), so
        stages run in order; GEMMs of one stage may overlap, but on
        full-device grids they serialize anyway — the §III-A observation.
        Each timeline entry is labelled with the stream it was dealt to.
        """
        if not isinstance(streams, int) or streams < 1:
            raise ValueError(
                f"streams must be a positive int, got {streams!r}")
        nodes: List[DagKernel] = []
        stage, prev_stage, this_stage = None, (), []
        for i, spec in enumerate(self.kernel_plan(batch)):
            if spec.tags["stage"] != stage:
                stage = spec.tags["stage"]
                prev_stage, this_stage = tuple(this_stage), []
            same_stream = (i - streams,) if i >= streams else ()
            nodes.append(DagKernel(
                spec, tuple(sorted(set(prev_stage + same_stream)))))
            this_stage.append(i)
        result = run_dag(nodes, self.device)
        result.entries = [replace(e, stream=e.index % streams)
                          for e in result.entries]
        return result

    def throughput_kops(self, batch: int = 1024) -> float:
        return batch / self.simulate(batch).elapsed_us * 1e3

    def stage_profiles(self, batch: int = 1024):
        """Profiles grouped by pipeline stage (for Table II / Fig. 5)."""
        result = self.simulate(batch)
        groups = {}
        for entry in result.entries:
            stage = entry.spec.tags.get("stage", "?")
            groups.setdefault(stage, []).append(entry.profile)
        return dict(sorted(groups.items()))


class TensorFheOps:
    """TensorFHE homomorphic operations: operation-level batching, with
    host-side handling of the per-ciphertext polynomial loop (§IV-C-1)."""

    def __init__(self, params: CkksParams, *,
                 device: GpuSpec = A100_SXM_40G,
                 geometry: GeometryConfig = DEFAULT_GEOMETRY):
        self.params = params
        self.device = device
        self.geometry = geometry

    def hmult_latency_us(self, *, level: int = None,
                         batch: int = 32) -> float:
        """Amortized HMULT latency at TensorFHE's batch size.

        The functional HMULT's recording lowered ``"tensorfhe"``-style:
        every NTT pane is the 5-stage kernel plan and the polynomial loop
        runs on the host (one kernel sequence per polynomial — no
        intra-ciphertext parallelism), priced serially.
        """
        level = self.params.max_level if level is None else level
        dag = lower_trace(
            record_op(self.params, "hmult", level), params=self.params,
            style="tensorfhe", device=self.device, geometry=self.geometry,
            batch=batch,
        )
        return run_serial(dag.specs, self.device).elapsed_us / batch

    def hmult_throughput_kops(self, *, level: int = None,
                              batch: int = 32) -> float:
        return 1e3 / self.hmult_latency_us(level=level, batch=batch)
