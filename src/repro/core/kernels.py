"""Kernel builders: honest hardware cost descriptors for FHE primitives.

Every builder converts an algorithmic workload (how many elements, which
modular operations, how many bytes in and out) into a
:class:`~repro.gpusim.KernelSpec` using the geometry rules of §IV-D-2:
``T = 256`` threads per block by default, ``N_t = 8`` coefficients per
thread for NTT kernels and 1 for element-wise kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpusim import KernelSpec
from . import costs

#: GPU word size of the paper's implementation (bytes).
WORD_BYTES = 4

#: Default pipeline efficiency of element-wise / conversion kernels:
#: real kernels land near half the analytic roofline (calibrated once
#: against Table VIII's HADD row; see EXPERIMENTS.md). Applied uniformly
#: to WarpDrive and baseline kernels alike so ratios stay honest.
DEFAULT_KERNEL_EFFICIENCY = 0.5


@dataclass(frozen=True)
class GeometryConfig:
    """Launch-geometry knobs (Fig. 7 sweeps threads_per_block)."""

    threads_per_block: int = 256
    #: Coefficients per thread in NTT kernels (tensor tile height).
    ntt_coeffs_per_thread: int = 8

    @property
    def warps_per_block(self) -> int:
        return max(1, self.threads_per_block // 32)

    def blocks_for(self, elements: int, per_thread: int = 1) -> int:
        per_block = self.threads_per_block * per_thread
        return max(1, -(-elements // per_block))


DEFAULT_GEOMETRY = GeometryConfig()

# -- declared tuning knobs (DESIGN.md §14) ----------------------------------
#
# The kernel layer owns launch geometry (the Fig. 7 sweep axis).

from ..tuning.knobs import Choice, KnobSpec, register_knob  # noqa: E402

register_knob(KnobSpec(
    name="geometry.threads_per_block", layer="core",
    domain=Choice((64, 128, 256, 512, 1024)),
    default=DEFAULT_GEOMETRY.threads_per_block,
    doc="Threads per block of every lowered kernel (Fig. 7 sweep).",
    observe=lambda pipe: pipe.geometry.threads_per_block,
))
register_knob(KnobSpec(
    name="geometry.ntt_coeffs_per_thread", layer="core",
    domain=Choice((2, 4, 8, 16)),
    default=DEFAULT_GEOMETRY.ntt_coeffs_per_thread,
    doc="Coefficients per thread in NTT kernels (tensor tile height).",
    observe=lambda pipe: pipe.geometry.ntt_coeffs_per_thread,
))


def elementwise_kernel(name: str, elements: int, *, ops_per_element: float,
                       read_words: float, write_words: float,
                       geometry: GeometryConfig = DEFAULT_GEOMETRY,
                       coalescing: float = 1.0,
                       efficiency: float = DEFAULT_KERNEL_EFFICIENCY,
                       **tags) -> KernelSpec:
    """An element-wise modular-arithmetic kernel (HADD, Hadamard, ...)."""
    return KernelSpec(
        name=name,
        blocks=geometry.blocks_for(elements),
        warps_per_block=geometry.warps_per_block,
        int32_ops=elements * ops_per_element,
        gmem_read_bytes=read_words * elements * WORD_BYTES,
        gmem_write_bytes=write_words * elements * WORD_BYTES,
        coalescing=coalescing,
        efficiency=efficiency,
        regs_per_thread=40,
        tags={"kind": "elementwise", **tags},
    )


def modmul_kernel(name: str, elements: int, *, operands: int = 2,
                  geometry: GeometryConfig = DEFAULT_GEOMETRY,
                  **tags) -> KernelSpec:
    """Pointwise Barrett modular multiplication over ``elements`` values."""
    return elementwise_kernel(
        name, elements,
        ops_per_element=costs.BARRETT_MULMOD_OPS,
        read_words=operands, write_words=1, geometry=geometry, **tags,
    )


def modadd_kernel(name: str, elements: int, *,
                  geometry: GeometryConfig = DEFAULT_GEOMETRY,
                  **tags) -> KernelSpec:
    """Pointwise modular addition over ``elements`` values."""
    return elementwise_kernel(
        name, elements, ops_per_element=costs.MODADD_OPS,
        read_words=2, write_words=1, geometry=geometry, **tags,
    )


def modup_kernel(name: str, n: int, source_primes: int, target_primes: int,
                 polys: int = 1, *,
                 geometry: GeometryConfig = DEFAULT_GEOMETRY,
                 efficiency: float = DEFAULT_KERNEL_EFFICIENCY,
                 **tags) -> KernelSpec:
    """Fast basis extension of ``polys`` polynomials.

    Work per coefficient: ``source`` products for the ``y_i`` terms plus a
    ``source x target`` accumulation of ``y_i * (Q/q_i mod t)`` products —
    all Barrett multiplies on CUDA cores.
    """
    coeff_ops = (
        source_primes * costs.BARRETT_MULMOD_OPS
        + source_primes * target_primes
        * (costs.BARRETT_MULMOD_OPS + costs.MODADD_OPS)
    )
    elements = n * polys
    return KernelSpec(
        name=name,
        blocks=geometry.blocks_for(elements * target_primes),
        warps_per_block=geometry.warps_per_block,
        int32_ops=elements * coeff_ops,
        gmem_read_bytes=elements * source_primes * WORD_BYTES,
        gmem_write_bytes=elements * target_primes * WORD_BYTES,
        efficiency=efficiency,
        regs_per_thread=64,
        tags={"kind": "modup", **tags},
    )


def moddown_kernel(name: str, n: int, main_primes: int, special_primes: int,
                   polys: int = 1, *,
                   geometry: GeometryConfig = DEFAULT_GEOMETRY,
                   efficiency: float = DEFAULT_KERNEL_EFFICIENCY,
                   **tags) -> KernelSpec:
    """ModDown: extension of the special part plus subtract-and-scale."""
    coeff_ops = (
        special_primes * costs.BARRETT_MULMOD_OPS
        + special_primes * main_primes
        * (costs.BARRETT_MULMOD_OPS + costs.MODADD_OPS)
        + main_primes * (costs.BARRETT_MULMOD_OPS + costs.MODADD_OPS)
    )
    elements = n * polys
    total_primes = main_primes + special_primes
    return KernelSpec(
        name=name,
        blocks=geometry.blocks_for(elements * main_primes),
        warps_per_block=geometry.warps_per_block,
        int32_ops=elements * coeff_ops,
        gmem_read_bytes=elements * total_primes * WORD_BYTES,
        gmem_write_bytes=elements * main_primes * WORD_BYTES,
        efficiency=efficiency,
        regs_per_thread=64,
        tags={"kind": "moddown", **tags},
    )


def inner_product_kernel(name: str, n: int, primes: int, digits: int,
                         accumulators: int = 2, *,
                         geometry: GeometryConfig = DEFAULT_GEOMETRY,
                         efficiency: float = DEFAULT_KERNEL_EFFICIENCY,
                         **tags) -> KernelSpec:
    """KeySwitch inner product: accumulate digit x evk over all digits.

    Reads ``digits`` extended digit polynomials and ``accumulators*digits``
    key polynomials; the 100x profile (Table III) shows this kernel as the
    memory-throughput-saturated one, which emerges here from its high
    bytes-per-op ratio.
    """
    elements = n * primes
    ops = digits * accumulators * (
        costs.BARRETT_MULMOD_OPS + costs.MODADD_OPS
    )
    reads = elements * digits * (1 + accumulators) * WORD_BYTES
    return KernelSpec(
        name=name,
        blocks=geometry.blocks_for(elements),
        warps_per_block=geometry.warps_per_block,
        int32_ops=elements * ops,
        gmem_read_bytes=reads,
        gmem_write_bytes=elements * accumulators * WORD_BYTES,
        efficiency=efficiency,
        regs_per_thread=56,
        tags={"kind": "inner_product", **tags},
    )


def automorphism_kernel(name: str, n: int, primes: int, polys: int = 2, *,
                        geometry: GeometryConfig = DEFAULT_GEOMETRY,
                        **tags) -> KernelSpec:
    """Coefficient permutation with sign flips (HROTATE's data movement).

    The gather pattern is index-scrambled, so coalescing suffers — the
    reason rotations are memory-unfriendly on real GPUs."""
    elements = n * primes * polys
    return elementwise_kernel(
        name, elements, ops_per_element=6,
        read_words=1, write_words=1, geometry=geometry, coalescing=0.5,
        **tags,
    )
