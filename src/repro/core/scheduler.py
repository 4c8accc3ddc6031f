"""Lowering of homomorphic operations to WarpDrive kernel plans.

Each homomorphic operation of §II-A is run once on the functional layer
(:mod:`repro.ckks`) under :mod:`repro.trace`, on a proxy ring that shares
the parameter set's modulus chain, and the recording is lowered PE-style
(§IV-C): one launch per pipeline stage, every launch covering the whole
ciphertext. A plan therefore prices exactly the stages the functional op
runs. Recordings are cached per (chain structure, op, level).
"""

from __future__ import annotations

from typing import Dict, List

from ..ckks.context import CkksContext
from ..ckks.params import CkksParams
from ..gpusim import (
    A100_PCIE_80G,
    ExecutionResult,
    GpuSpec,
    KernelSpec,
    run_serial,
)
from ..trace.ir import OpTrace
from ..trace.recorder import record
from .kernels import DEFAULT_GEOMETRY, GeometryConfig
from .ntt_engine import WarpDriveNtt

HOMOMORPHIC_OPS = ("hadd", "hsub", "pmult", "hmult", "hrotate", "rescale",
                   "keyswitch")

#: log2 ring degree of the per-op proxy recordings.
PROXY_LOG2N = 8

#: (chain key, op, level) -> recorded OpTrace.
_op_traces: Dict[tuple, OpTrace] = {}
#: chain key -> (CkksContext, KeySet, top-level Ciphertext) on the proxy
#: ring.
_proxy_contexts: Dict[tuple, tuple] = {}


def record_op(params: CkksParams, op: str, level: int) -> OpTrace:
    """Record one functional ``op`` at ``level`` on the proxy ring.

    The recorded "keyswitch" is :meth:`~repro.ckks.ops.Evaluator.relinearize`
    — KeySwitch plus the fold into a ciphertext. Raises ``ValueError`` for
    an unknown op or a level outside the chain; an op the functional layer
    rejects at that level (RESCALE at level 0) raises its own error.
    """
    from ..trace.lowering import chain_key, proxy_params_for

    if op not in HOMOMORPHIC_OPS:
        raise ValueError(
            f"unknown operation {op!r}; one of {HOMOMORPHIC_OPS}"
        )
    if not 0 <= level <= params.max_level:
        raise ValueError(
            f"level {level} out of range [0, {params.max_level}]"
        )
    key = (chain_key(params), op, level)
    trace = _op_traces.get(key)
    if trace is not None:
        return trace

    proxy = proxy_params_for(params, PROXY_LOG2N)
    cached = _proxy_contexts.get(key[0])
    if cached is None:
        ctx = CkksContext.create(proxy, seed=0)
        keys = ctx.keygen(rotations=[1])
        cached = (ctx, keys, ctx.encrypt([0.5, -0.25], keys))
        _proxy_contexts[key[0]] = cached
    ctx, keys, top = cached
    ev = ctx.evaluator
    ct = ev.level_down(top, level)
    pt = ctx.encode([0.5], level=level)
    run = {
        "hadd": lambda: ev.hadd(ct, ct),
        "hsub": lambda: ev.hsub(ct, ct),
        "pmult": lambda: ev.pmult(ct, pt),
        "hmult": lambda: ev.hmult(ct, ct, keys),
        "hrotate": lambda: ev.hrotate(ct, 1, keys),
        "rescale": lambda: ev.rescale(ct),
        "keyswitch": lambda: ev.relinearize(ct.c0, ct.c1, ct.c1, keys),
    }[op]
    with record(op, params=proxy) as rec:
        run()
    _op_traces[key] = rec.trace
    return rec.trace


class OperationScheduler:
    """Builds and prices kernel plans for one parameter set."""

    def __init__(self, params: CkksParams, *,
                 device: GpuSpec = A100_PCIE_80G,
                 ntt_variant: str = "wd-fuse",
                 geometry: GeometryConfig = DEFAULT_GEOMETRY):
        self.params = params
        self.device = device
        self.geometry = geometry
        self.ntt = WarpDriveNtt(
            params.n, variant=ntt_variant, device=device, geometry=geometry
        )

    # -- plans ------------------------------------------------------------------

    def plan(self, op: str, *, level: int = None,
             batch: int = 1) -> List[KernelSpec]:
        """The PE launches of ``op`` at ``level`` for ``batch`` ciphertexts."""
        from ..trace.lowering import lower_trace

        level = self.params.max_level if level is None else level
        return lower_trace(
            record_op(self.params, op, level), params=self.params,
            style="pe", device=self.device, ntt_variant=self.ntt.variant,
            geometry=self.geometry, batch=batch,
        ).specs

    def simulate(self, op: str, *, level: int = None,
                 batch: int = 1) -> ExecutionResult:
        return run_serial(self.plan(op, level=level, batch=batch),
                          self.device)

    def latency_us(self, op: str, *, level: int = None,
                   batch: int = 1) -> float:
        """Amortized per-ciphertext latency of ``op``."""
        return self.simulate(op, level=level, batch=batch).elapsed_us / batch

    def throughput_kops(self, op: str, *, level: int = None,
                        batch: int = 1) -> float:
        return 1e3 / self.latency_us(op, level=level, batch=batch)

    def kernel_count(self, op: str, *, level: int = None) -> int:
        return len(self.plan(op, level=level))

    # -- profiles ---------------------------------------------------------------------

    def profile(self, op: str, *, level: int = None,
                batch: int = 1) -> Dict[str, object]:
        """Summary dict used by the benchmark harness tables."""
        result = self.simulate(op, level=level, batch=batch)
        from ..gpusim import aggregate

        agg = aggregate(result.profiles)
        return {
            "op": op,
            "kernels": result.kernel_count,
            "latency_us": result.elapsed_us / batch,
            "compute_util": agg.compute_utilization,
            "memory_util": agg.memory_utilization,
        }
