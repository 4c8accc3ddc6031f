"""100x [28] baseline: kernel-fused, polynomial-level CKKS on GPU.

100x pioneered kernel fusion for CKKS but designs kernels at the
*polynomial* level: KeySwitch decomposes into per-digit ModUp/NTT/MAC
launches plus per-polynomial output pipelines, giving the kernel counts of
Table IX (~59-109 versus WarpDrive's fixed 11) and the utilization profile
of Table III. The original runs 64-bit words on a V100; the paper also
builds **100x_opt**, which swaps in WarpDrive's NTT and 32-bit modular
arithmetic while keeping the polynomial-level kernel structure — exposing
the PE-kernel contribution in isolation. Both variants are built here.
"""

from __future__ import annotations

from typing import Dict, List

from ..ckks.params import CkksParams
from ..core import kernels as K
from ..core.kernels import (DEFAULT_GEOMETRY, DEFAULT_KERNEL_EFFICIENCY,
                            GeometryConfig)
from ..core.ntt_engine import WarpDriveNtt
from ..gpusim import (
    A100_PCIE_80G,
    ExecutionResult,
    GpuSpec,
    KernelSpec,
    run_serial,
)


class HundredXOps:
    """100x_opt homomorphic operations (kernel-fused, polynomial-level):
    WarpDrive NTT kernels and 32-bit arithmetic, keeping 100x's
    polynomial-level launch structure."""

    def __init__(self, params: CkksParams, *,
                 device: GpuSpec = A100_PCIE_80G,
                 geometry: GeometryConfig = DEFAULT_GEOMETRY):
        self.params = params
        self.device = device
        self.geometry = geometry
        self._wd_ntt = WarpDriveNtt(params.n, device=device,
                                    geometry=geometry)

    # -- NTT kernels (per polynomial!) -------------------------------------------------

    def ntt_kernels(self, name: str, transforms: int, *,
                    inverse: bool = False) -> List[KernelSpec]:
        """NTT of ``transforms`` residue rows as ONE polynomial-level
        launch (the kernel-fused form: all primes of one polynomial in a
        single kernel, but no cross-polynomial dimension)."""
        plan = self._wd_ntt.kernel_plan(transforms, inverse=inverse)
        return [k.renamed(name) for k in plan]

    # -- keyswitch plan -----------------------------------------------------------------

    def keyswitch_plan(self, level: int = None) -> List[KernelSpec]:
        """Polynomial-level KeySwitch: per-digit pipelines.

        Structure: input INTT; per digit, a ModUp kernel, an NTT kernel
        and two MAC (multiply-accumulate against the evk halves) kernels;
        then 2 INTTs, 2 ModDowns and 2 output NTTs plus the combine —
        ``4*dnum + 8`` launches, matching Table IX's scale.
        """
        params = self.params
        level = params.max_level if level is None else level
        lvl = level + 1
        n = params.n
        special = params.num_special
        alpha = -(-params.num_primes // params.dnum)
        digits = min(params.dnum, -(-lvl // alpha))
        ext = lvl + special
        geo = self.geometry

        plan: List[KernelSpec] = []
        plan += self.ntt_kernels("100x.intt_input", lvl, inverse=True)
        for d in range(digits):
            plan.append(K.modup_kernel(
                f"100x.modup[{d}]", n, alpha, ext, polys=1, geometry=geo,
                efficiency=DEFAULT_KERNEL_EFFICIENCY, system="100x",
            ))
            plan += self.ntt_kernels(f"100x.ntt_digit[{d}]", ext)
            for acc in range(2):
                plan.append(K.modmul_kernel(
                    f"100x.mac[{d},{acc}]", n * ext, operands=3,
                    geometry=geo, system="100x",
                ))
        for acc in range(2):
            plan += self.ntt_kernels(f"100x.intt_acc{acc}", ext,
                                     inverse=True)
        for acc in range(2):
            plan.append(K.moddown_kernel(
                f"100x.moddown{acc}", n, lvl, special, geometry=geo,
                efficiency=DEFAULT_KERNEL_EFFICIENCY, system="100x",
            ))
        for acc in range(2):
            plan += self.ntt_kernels(f"100x.ntt_out{acc}", lvl)
        plan.append(K.modadd_kernel(
            "100x.combine", 2 * n * lvl, geometry=geo, system="100x",
        ))
        return plan

    # -- homomorphic ops --------------------------------------------------------------------

    def plan(self, op: str, *, level: int = None) -> List[KernelSpec]:
        params = self.params
        level = params.max_level if level is None else level
        lvl = level + 1
        n = params.n
        geo = self.geometry

        if op in ("hadd", "hsub"):
            # Polynomial-level: one kernel per polynomial.
            return [
                K.modadd_kernel(
                    f"100x.{op}[{p}]", n * lvl, geometry=geo, system="100x",
                )
                for p in range(2)
            ]
        if op == "pmult":
            return [
                K.modmul_kernel(
                    f"100x.pmult[{p}]", n * lvl, geometry=geo,
                    system="100x",
                )
                for p in range(2)
            ]
        if op == "keyswitch":
            return self.keyswitch_plan(level)
        if op == "rescale":
            plan: List[KernelSpec] = []
            for p in range(2):
                plan += self.ntt_kernels(f"100x.rescale.intt[{p}]", lvl,
                                         inverse=True)
            plan.append(K.elementwise_kernel(
                "100x.rescale.divide", n * (lvl - 1) * 2,
                ops_per_element=9, read_words=2, write_words=1,
                geometry=geo, system="100x",
            ))
            for p in range(2):
                plan += self.ntt_kernels(f"100x.rescale.ntt[{p}]", lvl - 1)
            return plan
        if op == "hmult":
            plan = [
                K.modmul_kernel(
                    f"100x.hmult.d{i}", n * lvl, geometry=geo,
                    system="100x",
                )
                for i in range(3)
            ]
            plan += self.keyswitch_plan(level)
            plan += self.plan("rescale", level=level)
            return plan
        if op == "hrotate":
            plan = [
                K.automorphism_kernel(
                    f"100x.rotate[{p}]", n, lvl, polys=1, geometry=geo,
                    system="100x",
                )
                for p in range(2)
            ]
            plan += self.keyswitch_plan(level)
            return plan
        raise ValueError(f"unknown operation {op!r}")

    def simulate(self, op: str, *, level: int = None) -> ExecutionResult:
        return run_serial(self.plan(op, level=level), self.device)

    def latency_us(self, op: str, *, level: int = None) -> float:
        return self.simulate(op, level=level).elapsed_us

    def kernel_count(self, op: str, *, level: int = None) -> int:
        return len(self.plan(op, level=level))

    def keyswitch_profile(self, *, level: int = None) -> Dict[str, object]:
        """Kernel count + utilizations for Table IX / Table III."""
        from ..gpusim import aggregate

        result = self.simulate("keyswitch", level=level)
        agg = aggregate(result.profiles)
        return {
            "kernels": result.kernel_count,
            "compute_util": agg.compute_utilization,
            "memory_util": agg.memory_utilization,
            "latency_us": result.elapsed_us,
        }

